"""Physical constants, unit conversions and the neon layer's defaults.

Working units throughout the package: lengths in nm, energies in meV,
electric fields in V/m (converted internally to meV/(e*nm)).
"""

from __future__ import annotations

# Conversion table. Every unit change in the package goes through one of
# these factors; no module defines its own.
MEV_PER_EV = 1.0e3
UEV_PER_MEV = 1.0e3
V_PER_M_TO_MEV_PER_NM = 1.0e-6  # e * 1 V/m acting over 1 nm, in meV
J_PER_EV = 1.602176634e-19
KG_PER_U = 1.66053906660e-27
NM_PER_M = 1.0e9
NM2_PER_S_PER_MM2_PER_S = 1.0e12  # mm^2/s -> nm^2/s
G_EARTH_M_PER_S2 = 9.81

# CODATA values used only to cross-check the meV*nm constants below.
HBAR_SI = 1.054571817e-34  # J*s
M_E_SI = 9.1093837015e-31  # kg
E_CHARGE_SI = 1.602176634e-19  # C
EPS0_SI = 8.8541878128e-12  # F/m

# The electron-on-neon model's constants, in meV*nm units
HBAR2_OVER_2ME = 38.0998  # hbar^2 / (2 m_e), meV*nm^2
IMAGE_PREFACTOR = 719.982  # e^2 / (8 pi eps0), meV*nm

# Defaults of the neon layer, which each DielectricStack carries and may vary
EPS_NEON = 1.244  # relative permittivity of solid neon
BARRIER_HEIGHT = 0.7 * MEV_PER_EV  # Pauli repulsion by the neon shell electrons, meV
CUTOFF_ZC = 0.23  # height below which the image potential keeps its value there, nm

# Outer hard wall of the perpendicular solve, nm: far enough above the surface
# that every bound state's tail density there is negligible
Z_MAX = 40.0
