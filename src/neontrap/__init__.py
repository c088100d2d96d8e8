"""Electron trapping above finite-thickness solid neon layers.

Library layout:
    dielectric    - stack reflection coefficient, image and field potentials
    perpendicular - 1D spectral-element bound states, W^G, h_e, excitation gap
    lateral       - thickness profiles, LTA trap, radial qubit spectrum
    growth        - Gibbs-Thomson / diffusion / gravity estimates
    cli           - deterministic sweep driver (`neontrap` entry point)
"""

__version__ = "0.6.0"

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .dielectric import (Dielectric, DielectricStack, FieldSpec, Superconductor,
                         external_potential, perpendicular_potential,
                         reflection_coefficient, total_perpendicular_potential)
from .growth import (DEFAULT_NEON, NeonMaterialData, diffusion_length,
                     gibbs_thomson_coefficient, gibbs_thomson_shift,
                     gravity_potential_difference)
from .lateral import (CurveValidationError, EnergyCurve, FieldResponse,
                      LateralSpectrum, ModelInvalidError, PillarProfile,
                      QuadraticProfile, build_energy_curve, field_response,
                      fit_harmonic_field_model, harmonic_field_model,
                      lta_potential, pillar_spectrum, radial_spectrum,
                      thickness_at)
from .perpendicular import (BoundStateSolution, EigensolverError, SpectralMesh,
                            UnboundStateError, WarmStart,
                            build_hamiltonian, ground_state_energy,
                            hellmann_feynman_check, mean_height,
                            perpendicular_gap, solve_lowest, solve_perpendicular,
                            solver_mesh)

__all__ = [
    "DEFAULT_CONSTANTS", "PhysicalConstants",
    "Dielectric", "DielectricStack", "FieldSpec", "Superconductor",
    "external_potential", "perpendicular_potential",
    "reflection_coefficient", "total_perpendicular_potential",
    "DEFAULT_NEON", "NeonMaterialData", "diffusion_length",
    "gibbs_thomson_coefficient", "gibbs_thomson_shift",
    "gravity_potential_difference",
    "CurveValidationError", "EigensolverError", "ModelInvalidError",
    "EnergyCurve", "FieldResponse", "LateralSpectrum", "PillarProfile",
    "QuadraticProfile", "build_energy_curve", "field_response",
    "fit_harmonic_field_model", "harmonic_field_model", "lta_potential",
    "pillar_spectrum", "radial_spectrum", "thickness_at",
    "BoundStateSolution", "SpectralMesh", "UnboundStateError", "WarmStart",
    "build_hamiltonian",
    "ground_state_energy", "hellmann_feynman_check",
    "mean_height", "perpendicular_gap", "solve_lowest", "solve_perpendicular",
    "solver_mesh",
    "__version__",
]
