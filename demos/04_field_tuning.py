"""Tuning the qubit splitting with a vertical external field.

Sweeps E_ex for one pillar geometry, one energy curve per field, prints the
one-sided slopes around zero field, and fits the harmonic model
Delta U = sqrt((hbar w0)^2 + b1 E).
"""

import math

from neontrap import (DielectricStack, PillarProfile, Superconductor, build_energy_curve,
                      fit_harmonic_field_model, near_zero_slopes, pillar_spectrum)
from neontrap.lateral import curve_range
from neontrap.perpendicular import NumericalFailure

SC = Superconductor()
profile = PillarProfile(10.0, 0.5, 110.0, 2.0)
fields = (-2e6, -1e6, 0.0, 1e6, 2e6)
spec = None  # each field's spectrum starts from the last one solved

print(f"{'E_ex [V/m]':>12} {'dU [ueV]':>10} {'rho_e [nm]':>11} bound")
e_fit, du_fit = [], []
for e_ex in fields:
    try:
        curve = build_energy_curve(DielectricStack(SC, 10.0, e_ex=e_ex),
                                   curve_range(profile.L0, profile.delta_L), n_knots=30)
        spec = pillar_spectrum(curve, profile, start=spec)
    except NumericalFailure:  # -2e6 V/m leaves the thinnest layers without a bound state
        print(f"{e_ex:12.2e} {math.nan:10.2f} {math.nan:11.1f} no")
        continue
    print(f"{e_ex:12.2e} {spec.delta_u_uev:10.2f} {spec.rho_e:11.1f} "
          f"{'yes' if spec.bound else 'no'}")
    if spec.bound:
        e_fit.append(e_ex)
        du_fit.append(spec.delta_u_uev)

slope_neg, slope_pos = near_zero_slopes(e_fit, du_fit)
print(f"\nslope for E < 0: {slope_neg:.3e} ueV/(V/m)")
print(f"slope for E > 0: {slope_pos:.3e} ueV/(V/m)")
print(f"asymmetry ratio: {abs(slope_neg) / abs(slope_pos):.3f}  (negative fields tune harder)")

w0, b1 = fit_harmonic_field_model(e_fit, du_fit)
print(f"\nharmonic model fit: hbar*w0 = {w0:.2f} ueV, beta1 = {b1:.3e} ueV^2/(V/m)")
