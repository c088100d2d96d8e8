"""Tuning the qubit splitting with a vertical external field.

Sweeps E_ex for one pillar geometry, prints the one-sided slopes around
zero field, and fits the harmonic model Delta U = sqrt((hbar w0)^2 + b1 E).
"""

import math

from neontrap import (DielectricStack, PillarProfile, Superconductor,
                      field_response, fit_harmonic_field_model)

SC = Superconductor()
profile = PillarProfile(10.0, 0.5, 110.0, 2.0)
fields = (-2e6, -1e6, 0.0, 1e6, 2e6)

resp = field_response(DielectricStack(SC, 10.0), profile, fields, n_knots=30)

print(f"{'E_ex [V/m]':>12} {'dU [ueV]':>10} {'rho_e [nm]':>11} bound")
for row in resp.rows:
    print(f"{row.e_ex:12.2e} {row.delta_u_uev:10.2f} {row.rho_e:11.1f} "
          f"{'yes' if row.bound else 'no'}")

print(f"\nslope for E < 0: {resp.slope_neg:.3e} ueV/(V/m)")
print(f"slope for E > 0: {resp.slope_pos:.3e} ueV/(V/m)")
print(f"asymmetry ratio: {resp.asymmetry_ratio:.3f}  (negative fields tune harder)")

good = [(r.e_ex, r.delta_u_uev) for r in resp.rows
        if r.bound and math.isfinite(r.delta_u_uev)]
e, du = zip(*good)
w0, b1 = fit_harmonic_field_model(e, du)
print(f"\nharmonic model fit: hbar*w0 = {w0:.2f} ueV, beta1 = {b1:.3e} ueV^2/(V/m)")
