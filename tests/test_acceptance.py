"""Top-level acceptance checks.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE n [label]: PASS/FAIL" line (run pytest with -s or read the
captured output).  Tolerances and runtime budgets are stated inline.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from fd_oracle import hellmann_feynman_check
from neontrap import (Dielectric, DielectricStack, PillarProfile, Superconductor,
                      build_energy_curve, build_hamiltonian, diffusion_length,
                      fit_harmonic_field_model, gibbs_thomson_coefficient,
                      gibbs_thomson_shift, gravity_potential_difference,
                      ground_state_energy,
                      lta_potential, mean_height, near_zero_slopes,
                      perpendicular_gap, perpendicular_potential,
                      pillar_spectrum, radial_spectrum, solve_lowest,
                      solve_perpendicular)
from neontrap.cli import main as cli_main
from neontrap.constants import HBAR2_OVER_2ME
from neontrap.lateral import curve_range
from neontrap.perpendicular import spectral_mesh

C = HBAR2_OVER_2ME
SC = Superconductor()


@contextlib.contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{label}]: PASS ({time.perf_counter() - t0:.2f} s)")


@pytest.fixture(scope="module")
def thin_layer_solution():
    return solve_perpendicular(DielectricStack(SC, 10.0), n_states=2)


@pytest.fixture(scope="module")
def energy_curve_e0():
    return build_energy_curve(DielectricStack(SC, 10.0), (6.5, 10.5))


def test_criterion_01_bulk_binding():
    with criterion(1, "bulk binding"):
        t0 = time.perf_counter()
        w = ground_state_energy(DielectricStack(SC, math.inf))
        assert w == pytest.approx(-15.7, abs=0.5)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_thin_layer_enhancement(thin_layer_solution):
    with criterion(2, "thin-layer enhancement"):
        t0 = time.perf_counter()
        w_sc = float(thin_layer_solution.energies[0])
        w_si = ground_state_energy(DielectricStack(Dielectric(12.0), 10.0))
        w_bulk = ground_state_energy(DielectricStack(SC, math.inf))
        assert w_sc == pytest.approx(-44.6, abs=1.0)
        assert w_si == pytest.approx(-40.0, abs=1.0)
        assert 2.8 <= w_sc / w_bulk <= 3.0
        assert time.perf_counter() - t0 < 2.0


def test_criterion_03_gap_and_height(thin_layer_solution):
    with criterion(3, "perpendicular gap and height"):
        assert perpendicular_gap(thin_layer_solution) == pytest.approx(21.1, abs=1.0)
        h0 = mean_height(thin_layer_solution)
        assert h0 == pytest.approx(1.7, abs=0.2)
        heights = [mean_height(solve_perpendicular(DielectricStack(SC, 10.0, e_ex=e)))
                   for e in (-1e6, 0.0, 1e6)]
        assert (max(heights) - min(heights)) / h0 <= 0.20


def test_criterion_04_electrostatics_oracle_equivalence(kspace_potential):
    with criterion(4, "image series vs k-space quadrature"):
        t0 = time.perf_counter()
        z = np.linspace(0.23, 30.0, 120)
        for L in (1e-3, 2.0, 5.0, 10.0, 50.0):
            for stack in (DielectricStack(SC, L),
                          DielectricStack(Dielectric(12.0), L)):
                v_series = perpendicular_potential(stack, z)
                v_quad = kspace_potential(stack, z)
                assert np.allclose(v_series, v_quad, rtol=1e-6, atol=0.0)
            # eps_b = 1: V -> 0 as L -> 0, so compare in absolute error (meV);
            # 1e-6 meV is below 1e-6 of the neon-surface image at z <= 30 nm
            vacuum = DielectricStack(Dielectric(1.0), L)
            assert np.allclose(perpendicular_potential(vacuum, z),
                               kspace_potential(vacuum, z), rtol=0.0, atol=1e-6)
        # limits: O(1/L) and O(L) approach rates set the thickness choices
        thick = perpendicular_potential(DielectricStack(SC, 1e5), 1.0)
        bulk = perpendicular_potential(DielectricStack(SC, math.inf), 1.0)
        assert thick == pytest.approx(bulk, rel=1e-4)
        thin = perpendicular_potential(DielectricStack(SC, 1e-5), 1.0)
        mirror = perpendicular_potential(DielectricStack(SC, 0.0), 1.0)
        assert thin == pytest.approx(mirror, rel=1e-4)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_05_eigensolver_oracles():
    with criterion(5, "eigensolver analytic oracles"):
        a = 719.982 * 0.108734
        e1 = -a * a / (4.0 * C)

        def solve(vfun, breakpoints, k, degree=16):
            grid = spectral_mesh(breakpoints, degree=degree)
            return solve_lowest(build_hamiltonian(vfun(grid.nodes), grid), grid, k)

        # the wall node's value never enters the Hamiltonian
        hyd = solve(lambda z: -a / np.where(z > 0.0, z, np.inf),
                    (0.0, 1.0, 3.0, 9.0, 27.0, 80.0), 2)
        assert hyd.energies[0] == pytest.approx(-40.22, abs=0.1)
        assert perpendicular_gap(hyd) == pytest.approx(30.16, abs=0.1)
        assert e1 == pytest.approx(-40.22, abs=0.01)

        # particle in a box: spectral convergence, the second level's error
        # falls by >= 100x from degree 8 to 16
        width, exact = 10.0, 4.0 * math.pi ** 2 * C / 100.0
        err = [abs(solve(np.zeros_like, (0.0, width), 2, degree).energies[1] - exact)
               for degree in (8, 16)]
        assert err[0] >= 100.0 * err[1]

        # oscillator ladder with exact node counts
        hw = 1.0
        osc = solve(lambda z: hw * hw * z * z / (4.0 * C),
                    tuple(np.linspace(-60.0, 60.0, 9)), 5)
        assert all(osc.converged)
        for n, e in enumerate(osc.energies):
            assert e == pytest.approx((n + 0.5) * hw, abs=1e-3)

        res = hellmann_feynman_check(DielectricStack(SC, 10.0), 1e4)
        assert res <= 1e-3


def test_criterion_06_growth_estimates():
    with criterion(6, "growth estimates"):
        t0 = time.perf_counter()
        assert gibbs_thomson_coefficient() == pytest.approx(9.12, rel=0.005)
        assert gibbs_thomson_shift(10.0) == pytest.approx(-0.91, abs=0.01)
        assert gibbs_thomson_shift(-10.0) == pytest.approx(0.91, abs=0.01)
        assert diffusion_length(10e-6) == pytest.approx(100.0, rel=1e-9)
        assert gravity_potential_difference(25.0) \
            == pytest.approx(5.1e-11, rel=0.05)
        assert time.perf_counter() - t0 < 0.1


def test_criterion_07_lateral_trap_properties(energy_curve_e0):
    with criterion(7, "lateral trap properties"):
        t0 = time.perf_counter()
        deep = PillarProfile(10.0, 3.0, 110.0, 2.0)
        depth = -lta_potential(energy_curve_e0, deep, 0.0)
        assert depth == pytest.approx(10.0, rel=0.30)

        splittings = []
        for R in (60.0, 110.0, 200.0):
            p = PillarProfile(10.0, 0.5, R, 2.0)
            splittings.append(pillar_spectrum(energy_curve_e0, p).delta_u_uev)
        assert splittings[0] > splittings[1] > splittings[2]
        assert 1.0 <= splittings[1] <= 100.0  # same order as 26 ueV
        assert time.perf_counter() - t0 < 120.0


def test_criterion_08_field_asymmetry():
    with criterion(8, "field asymmetry"):
        profile = PillarProfile(10.0, 0.5, 110.0, 2.0)
        spec = None  # each field's spectrum starts from the last one
        bound = []  # only bound fields count, so an unbound one leaves a slope None
        for e_ex in (-1e6, 0.0, 1e6):
            curve = build_energy_curve(DielectricStack(SC, 10.0, e_ex=e_ex),
                                       curve_range(10.0, 0.5))
            spec = pillar_spectrum(curve, profile, start=spec)
            if spec.bound:
                bound.append((e_ex, spec.delta_u_uev))
        slope_neg, slope_pos = near_zero_slopes([e for e, _ in bound], [du for _, du in bound])
        assert slope_neg is not None and slope_pos is not None
        assert abs(slope_neg) > abs(slope_pos)

        w0, b1 = 26.4, 3.1e-5
        e = np.linspace(-4e6, 4e6, 9)
        w0_fit, b1_fit = fit_harmonic_field_model(e, np.sqrt(w0 ** 2 + b1 * e))
        assert w0_fit == pytest.approx(w0, rel=1e-6)
        assert b1_fit == pytest.approx(b1, rel=1e-6)


def test_criterion_09_radial_solver_oracles():
    with criterion(9, "radial solver oracles"):
        hw = 0.026
        ell = math.sqrt(2.0 * C / hw)
        spec = radial_spectrum(lambda r: hw * hw * r * r / (4.0 * C), alpha_max=3,
                               breakpoints=tuple(np.linspace(0.0, 12.0 * ell, 7)))
        for alpha in range(4):
            assert spec.u_alpha[alpha] == pytest.approx((alpha + 1) * hw, rel=3e-3)

        v0, a = 1.0e4, 15.0
        disk = radial_spectrum(lambda r: np.where(r < a, -v0, 0.0),
                               alpha_max=1, breakpoints=(0.0, a, 2.0 * a))
        j0, j1 = jn_zeros(0, 1)[0], jn_zeros(1, 1)[0]
        ratio = (disk.u_alpha[1] + v0) / (disk.u_alpha[0] + v0)
        assert ratio == pytest.approx((j1 / j0) ** 2, rel=0.01)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical determinism"):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[grid]\nn_points = 4096\nz_max = 40 nm\n"
                       "[sweep]\nL = 5 nm, 10 nm, inf\nE_ex = 0 V/m, 1e6 V/m\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["ground-sweep", "--config", str(cfg),
                         "--out", str(out1), "--threads", "1"]) == 0
        assert cli_main(["ground-sweep", "--config", str(cfg),
                         "--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
