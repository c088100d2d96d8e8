"""Back-of-the-envelope physics of growing a non-uniform neon layer.

Curvature-driven melting-point shifts (Gibbs-Thomson), how far liquid neon
diffuses during a refreeze pulse, and why gravity is irrelevant at these
scales.
"""

from neontrap import (diffusion_length, gibbs_thomson_coefficient, gibbs_thomson_shift,
                      gravity_potential_difference)

c = gibbs_thomson_coefficient()
print(f"Gibbs-Thomson coefficient: {c:.3f} K nm  (Delta T = -{c:.2f}/r_c)")
for r_c in (5.0, 10.0, 50.0, -10.0):
    kind = "bump" if r_c > 0 else "valley"
    print(f"  r_c = {r_c:+6.0f} nm ({kind:6s}): Delta T = {gibbs_thomson_shift(r_c):+7.3f} K")

print()
for t_us in (1.0, 10.0, 100.0):
    ell = diffusion_length(t_us * 1e-6)
    print(f"diffusion length after {t_us:5.0f} us: {ell:7.1f} nm")

print()
dh = 25.0
u = gravity_potential_difference(dh)
print(f"gravitational energy across a {dh:.0f} nm step: {u:.2e} meV")
print("  -- some twelve orders below the binding scale; gravity never matters")
