"""Scalar estimates for the solidification of a non-uniform neon layer.

Gibbs-Thomson melting-point shift at a curved solid-liquid interface,
thermal diffusion length of liquid neon, and the gravitational potential
difference across substrate height variations.
"""

from __future__ import annotations

import math

from .constants import (G_EARTH_M_PER_S2, J_PER_EV, KG_PER_U, MEV_PER_EV,
                        NM2_PER_S_PER_MM2_PER_S, NM_PER_M)

# Thermophysical data for neon near its triple point
GAMMA_SL = 4.36e-3              # solid-liquid interfacial energy, J/m^2
MOLAR_VOLUME = 13.98e-6         # m^3/mol
ENTHALPY_FUSION = 328.0         # J/mol
T_BULK = 24.56                  # bulk melting temperature, K
ATOMIC_MASS = 20.18             # u
DIFFUSION_COEFFICIENT = 1e-3    # liquid self-diffusion, mm^2/s


def gibbs_thomson_coefficient() -> float:
    """Coefficient C in Delta T = -C / r_c, in K*nm."""
    c_k_m = 2.0 * GAMMA_SL * MOLAR_VOLUME * T_BULK / ENTHALPY_FUSION
    return c_k_m * NM_PER_M


def gibbs_thomson_shift(r_c: float) -> float:
    """Melting-point shift Delta T_R in K at local curvature radius r_c (nm).

    Positive r_c (bump) lowers the local melting temperature, negative r_c
    (valley) raises it.
    """
    if r_c == 0.0:
        raise ValueError(f"curvature radius r_c must be nonzero, got {r_c:g} nm")
    return -gibbs_thomson_coefficient() / r_c


def diffusion_length(t: float) -> float:
    """Diffusion length sqrt(D t) in nm after time t (seconds)."""
    if t < 0.0:
        raise ValueError(f"diffusion time must be non-negative, got {t:g} s")
    d_nm2_per_s = DIFFUSION_COEFFICIENT * NM2_PER_S_PER_MM2_PER_S
    return math.sqrt(d_nm2_per_s * t)


def gravity_potential_difference(delta_h: float) -> float:
    """Gravitational energy m_Ne g delta_h in meV for a height step delta_h (nm)."""
    if delta_h < 0.0:
        raise ValueError(f"height difference delta_h must be non-negative, got {delta_h:g} nm")
    mass_kg = ATOMIC_MASS * KG_PER_U
    energy_j = mass_kg * G_EARTH_M_PER_S2 * delta_h / NM_PER_M
    return energy_j / J_PER_EV * MEV_PER_EV
