"""Walk through the vertical potential seen by the electron.

Prints V_perp(z) for a few layer thicknesses, shows how the thin-layer
potential deepens toward the mirror-charge limit, and cross-checks the
summed multiple-image series against a direct k-space quadrature.
"""

import math

import numpy as np
from scipy.integrate import quad

from neontrap import (DielectricStack, Superconductor, perpendicular_potential,
                      reflection_coefficient)
from neontrap.constants import IMAGE_PREFACTOR

SC = Superconductor()

z = np.array([0.23, 0.5, 1.0, 2.0, 5.0, 10.0])

print("V_perp(z) in meV over a superconducting substrate")
print(f"{'z [nm]':>8} " + " ".join(f"L={L:g}".rjust(10) for L in (3, 10, 30))
      + "      bulk".rjust(11))
bulk = DielectricStack(SC, np.inf)
for zi in z:
    row = [perpendicular_potential(DielectricStack(SC, L), zi) for L in (3.0, 10.0, 30.0)]
    row.append(perpendicular_potential(bulk, zi))
    print(f"{zi:8.2f} " + " ".join(f"{v:10.3f}" for v in row))

print()
print("thinner layers bind harder: the substrate mirror shines through")

# oracle cross-check: pref * Integral_0^inf Lambda_L(k) e^{-2kz} dk by quadrature
stack = DielectricStack(SC, 10.0)
v_series = perpendicular_potential(stack, z)
v_quad = np.array([
    IMAGE_PREFACTOR
    * quad(lambda k: reflection_coefficient(stack, k) * math.exp(-2.0 * k * zi),
           0.0, math.inf, epsabs=0.0, epsrel=1e-12)[0]
    for zi in z])
worst = np.max(np.abs((v_series - v_quad) / v_quad))
print(f"\nimage series vs k-space quadrature, L = 10 nm: worst rel. diff = {worst:.2e}")
