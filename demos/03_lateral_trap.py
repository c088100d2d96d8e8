"""Lateral trap over a substrate nanopillar.

Builds the W_G(L) energy curve once, maps a pillar thickness profile to a
lateral potential via the local-thickness approximation, and solves the
radial problem for the qubit splitting Delta U = U_1 - U_0.
"""

from neontrap import (DielectricStack, PillarProfile, Superconductor,
                      build_energy_curve, lta_potential, pillar_spectrum)

SC = Superconductor()
L0, B = 10.0, 2.0

curve = build_energy_curve(DielectricStack(SC, L0), (6.5, 10.5))
print(f"energy curve over L in [6.5, 10.5] nm: {curve.l_knots.size} Hermite nodes, "
      f"held-out error {curve.validation_error:.2e} meV")

deep = PillarProfile(L0, 3.0, 110.0, B)
depth = -lta_potential(curve, deep, 0.0)
print(f"trap depth for delta_L = 3 nm: {depth:.2f} meV")

print(f"\n{'R [nm]':>8} {'dU [ueV]':>10} {'rho_e [nm]':>11}")
for R in (60.0, 110.0, 200.0):
    profile = PillarProfile(L0, 0.5, R, B)
    spec = pillar_spectrum(curve, profile)
    print(f"{R:8.0f} {spec.delta_u_uev:10.2f} {spec.rho_e:11.1f}")

print("\nlarger pillars make softer traps: the splitting falls with R")
