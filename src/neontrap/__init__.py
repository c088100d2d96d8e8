"""Electron trapping above finite-thickness solid neon layers.

Library layout:
    dielectric    - stack reflection coefficient, image and field potentials
    perpendicular - 1D spectral-element bound states, W^G, h_e, excitation gap
    lateral       - pillar thickness profile, LTA trap, radial qubit spectrum
    growth        - Gibbs-Thomson / diffusion / gravity estimates
    cli           - deterministic sweep driver (`neontrap` entry point)
"""

__version__ = "0.21.0"

from .dielectric import (Dielectric, DielectricStack, Superconductor,
                         external_potential, perpendicular_potential,
                         reflection_coefficient, total_perpendicular_potential)
from .growth import (diffusion_length, gibbs_thomson_coefficient, gibbs_thomson_shift,
                     gravity_potential_difference)
from .lateral import (CurveValidationError, EnergyCurve, LateralSpectrum,
                      ModelInvalidError, PillarProfile,
                      build_energy_curve, fit_harmonic_field_model,
                      harmonic_field_model, lta_potential, near_zero_slopes,
                      pillar_spectrum, radial_spectrum, thickness_at)
from .perpendicular import (BoundStateSolution, EigensolverError, SpectralMesh,
                            UnboundStateError, build_hamiltonian, energy_derivative,
                            ground_state_energy, mean_height,
                            perpendicular_gap, solve_lowest, solve_perpendicular,
                            solver_mesh)

__all__ = [
    "Dielectric", "DielectricStack", "Superconductor",
    "external_potential", "perpendicular_potential",
    "reflection_coefficient", "total_perpendicular_potential",
    "diffusion_length", "gibbs_thomson_coefficient", "gibbs_thomson_shift",
    "gravity_potential_difference",
    "CurveValidationError", "EigensolverError", "ModelInvalidError",
    "EnergyCurve", "LateralSpectrum", "PillarProfile",
    "build_energy_curve",
    "fit_harmonic_field_model", "harmonic_field_model", "lta_potential",
    "near_zero_slopes", "pillar_spectrum", "radial_spectrum", "thickness_at",
    "BoundStateSolution", "SpectralMesh", "UnboundStateError",
    "build_hamiltonian", "energy_derivative",
    "ground_state_energy",
    "mean_height", "perpendicular_gap", "solve_lowest", "solve_perpendicular",
    "solver_mesh",
    "__version__",
]
