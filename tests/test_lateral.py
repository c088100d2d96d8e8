"""Lateral trap: thickness profiles, the W^G(L) Chebyshev curve, the
local-thickness potential, and the radial spectrum against 2D-oscillator /
disk oracles and the finite-volume oracle."""

import functools
import math

import numpy as np
import pytest
from scipy.interpolate import BarycentricInterpolator
from scipy.special import jn_zeros

import neontrap.lateral
import neontrap.perpendicular
from neontrap import (CurveValidationError, DielectricStack,
                      EnergyCurve, ModelInvalidError, PillarProfile,
                      QuadraticProfile,
                      Superconductor, build_energy_curve,
                      fit_harmonic_field_model, ground_state_energy,
                      harmonic_field_model, lta_potential, near_zero_slopes,
                      pillar_spectrum, radial_spectrum, thickness_at)
from fd_oracle import radial_richardson_level
from neontrap.constants import HBAR2_OVER_2ME
from neontrap.lateral import NODE_TOL_MEV, default_rho_max, pillar_breakpoints
from neontrap.perpendicular import EigensolverError, spectral_mesh

C = HBAR2_OVER_2ME
SC = Superconductor()

L0, DL, R_PILLAR, B = 10.0, 0.5, 110.0, 2.0


@pytest.fixture(scope="module")
def curve():
    return build_energy_curve(DielectricStack(SC, L0), (6.5, 10.5), n_knots=30)


@pytest.fixture(scope="module")
def wide_curve():
    # W^G(L) has a kink at L = 2 nm, where the lower wall switches from -L to
    # -2 nm, so the node doubling runs into the n_knots cap
    return build_energy_curve(DielectricStack(SC, L0), (1.0, 200.0), n_knots=60)


class TestThicknessProfiles:
    def test_step_midpoint(self):
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        assert thickness_at(p, 110.0) == pytest.approx(10.0 - 1.5, rel=1e-12)

    def test_far_field_is_nominal(self):
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        assert thickness_at(p, 1e5) == pytest.approx(10.0, abs=1e-6)

    def test_over_pillar_center_is_thinned(self):
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        assert thickness_at(p, 0.0) == pytest.approx(7.0, abs=0.01)

    def test_one_transition_width_out(self):
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        expected = 10.0 - 1.5 * (1.0 - 1.0 / math.sqrt(2.0))
        assert thickness_at(p, 112.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_radius(self):
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        L = thickness_at(p, np.linspace(0.0, 500.0, 2000))
        assert np.all(np.diff(L) >= 0.0)

    def test_quadratic_profile(self):
        q = QuadraticProfile(10.0, 1e-5)
        assert thickness_at(q, 0.0) == 10.0
        assert thickness_at(q, 100.0) == pytest.approx(11.0, rel=1e-12)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            PillarProfile(10.0, 12.0, 110.0, 2.0)
        with pytest.raises(ValueError):
            QuadraticProfile(10.0, -1e-5)
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        with pytest.raises(ValueError):
            thickness_at(p, -1.0)


class TestEnergyCurve:
    def test_exact_at_knots(self, curve):
        for L, w in zip(curve.l_knots[::7], curve.w_knots[::7]):
            assert curve(float(L)) == pytest.approx(float(w), abs=1e-10)

    def test_validation_budget_met(self, curve):
        assert curve.validation_error <= 0.01

    def test_midpoint_against_fresh_solve(self, curve):
        L = 8.37
        direct = ground_state_energy(DielectricStack(SC, L))
        assert curve(L) == pytest.approx(direct, abs=0.01)

    def test_out_of_range_rejected(self, curve):
        with pytest.raises(ValueError):
            curve(6.0)
        with pytest.raises(ValueError):
            curve(11.0)

    def test_scalar_in_float_out(self, curve):
        assert type(curve(8.0)) is float
        assert type(curve(np.float64(10.5))) is float
        assert curve(np.array([8.0, 9.0])).shape == (2,)

    def test_monotone_increasing_in_thickness(self, curve):
        w = curve(np.linspace(6.5, 10.5, 200))
        assert np.all(np.diff(w) > 0.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            build_energy_curve(DielectricStack(SC, 10.0), (0.5, 10.0), n_knots=20)


def _held_out(curve):
    """Points build_energy_curve solved to validate the accepted nodes."""
    n = curve.l_knots.size - 1
    lo, hi = curve.l_range
    u = -np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n))
    return np.exp(0.5 * math.log(hi * lo) + 0.5 * math.log(hi / lo) * u)


class TestChebyshevCurve:
    """Barycentric Lagrange interpolation in log L is the oracle for the curve."""

    @pytest.mark.parametrize("which", ["curve", "wide_curve"])
    def test_equals_barycentric_oracle(self, request, which):
        c = request.getfixturevalue(which)
        lo, hi = c.l_range
        pts = np.concatenate([c.l_knots, _held_out(c), [lo, hi]])
        oracle = BarycentricInterpolator(np.log(c.l_knots), c.w_knots)
        assert np.max(np.abs(c(pts) - oracle(np.log(pts)))) <= 1e-12
        assert abs(c(hi) - float(oracle(math.log(hi)))) <= 1e-12

    def test_levels_reuse_nodes_and_solve_ascending(self, monkeypatch):
        solved = []
        solve = neontrap.lateral.ground_state_energy
        def spy(stack, *args, **kwargs):
            solved.append(stack.thickness_L)
            return solve(stack, *args, **kwargs)
        monkeypatch.setattr(neontrap.lateral, "ground_state_energy", spy)
        c = build_energy_curve(DielectricStack(SC, L0), (1.0, 200.0), n_knots=60)
        # 9 nodes, then held-out levels of 8, 16 and 32 points, each once
        levels = np.split(np.array(solved), [9, 17, 33])
        assert [lv.size for lv in levels] == [9, 8, 16, 32]
        assert solved[0] == 1.0 and all(np.all(np.diff(lv) > 0.0) for lv in levels)
        assert np.array_equal(np.sort(np.concatenate(levels[:3])), c.l_knots)
        assert np.array_equal(levels[3], _held_out(c))

    def test_smooth_range_accepts_nine_nodes(self, curve):
        assert curve.l_knots.size == 9
        assert curve.validation_error <= NODE_TOL_MEV

    def test_wide_range_stops_at_node_cap(self, wide_curve):
        # 9 -> 17 -> 33 nodes; 65 would exceed n_knots = 60
        assert wide_curve.l_knots.size == 33
        assert NODE_TOL_MEV < wide_curve.validation_error <= EnergyCurve.VALIDATION_BUDGET_MEV

    def test_thin_layer_range_across_the_wall_kink(self):
        # [1.9, 3.5] nm straddles L = 2 nm, where the lower wall switches from
        # -L to -2 nm; the curve across that kink still validates to 1e-7 meV
        c = build_energy_curve(DielectricStack(SC, 3.0), (1.9, 3.5), n_knots=60)
        assert c.validation_error <= 1e-7

    def test_fresh_solves_agree(self, curve):
        ls = 8.5 + 2.0 * (np.arange(20) + 0.5) / 20
        direct = [ground_state_energy(DielectricStack(SC, float(L))) for L in ls]
        assert np.max(np.abs(curve(ls) - np.array(direct))) <= 1e-8

    def test_budget_exceeded_raises(self, monkeypatch):
        monkeypatch.setattr(EnergyCurve, "VALIDATION_BUDGET_MEV", 1e-12)
        with pytest.raises(CurveValidationError, match="held-out error"):
            build_energy_curve(DielectricStack(SC, L0), (9.0, 10.5), n_knots=20)


class TestLtaPotential:
    def test_far_field_vanishes(self, curve):
        p = PillarProfile(L0, DL, R_PILLAR, B)
        v = lta_potential(curve, p, 5e4)
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_depth_at_center(self, curve):
        p = PillarProfile(L0, DL, R_PILLAR, B)
        v0 = lta_potential(curve, p, 0.0)
        direct = (ground_state_energy(DielectricStack(SC, thickness_at(p, 0.0)))
                  - ground_state_energy(DielectricStack(SC, L0)))
        assert v0 == pytest.approx(direct, abs=0.02)
        assert v0 < 0.0


def _oscillator_breakpoints(ell):
    return tuple(np.linspace(0.0, 12.0 * ell, 7))


class TestRadialOracles:
    def test_two_dimensional_oscillator_ladder(self):
        # E(n, alpha) = (2n + |alpha| + 1) hbar w; lowest per alpha: (alpha+1) hbar w
        hw = 0.026  # meV, comparable to the physical trap
        pot = lambda r: hw * hw * r * r / (4.0 * C)
        ell = math.sqrt(2.0 * C / hw)
        spec = radial_spectrum(pot, alpha_max=3, breakpoints=_oscillator_breakpoints(ell))
        for alpha in range(4):
            assert spec.u_alpha[alpha] == pytest.approx((alpha + 1) * hw, rel=3e-3)
        assert spec.delta_u_mev == pytest.approx(hw, rel=3e-3)

    def test_oscillator_first_excited_mean_radius(self):
        hw = 0.026
        pot = lambda r: hw * hw * r * r / (4.0 * C)
        ell = math.sqrt(2.0 * C / hw)
        spec = radial_spectrum(pot, alpha_max=1, breakpoints=_oscillator_breakpoints(ell))
        # R_1 ~ rho exp(-rho^2 / 2 l^2): <rho> = l * 3 sqrt(pi) / 4
        assert spec.rho_e == pytest.approx(ell * 0.75 * math.sqrt(math.pi), rel=5e-3)

    def test_deep_disk_bessel_ratio(self):
        # infinite-disk limit: U_alpha + V0 = C j_{alpha,1}^2 / a^2
        v0, a = 1.0e4, 15.0
        pot = lambda r: np.where(r < a, -v0, 0.0)
        spec = radial_spectrum(pot, alpha_max=1, breakpoints=(0.0, a, 2.0 * a))
        j0, j1 = jn_zeros(0, 1)[0], jn_zeros(1, 1)[0]
        ratio = (spec.u_alpha[1] + v0) / (spec.u_alpha[0] + v0)
        assert ratio == pytest.approx((j1 / j0) ** 2, rel=0.01)
        assert spec.u_alpha[0] + v0 == pytest.approx(C * j0 ** 2 / a ** 2, rel=0.01)

    def test_converges_in_degree(self, monkeypatch):
        # the oscillator's worst relative level error, measured 7e-8 at degree 8,
        # falls to rounding (5e-13) at degree 16 on the same six elements
        hw = 0.026
        pot = lambda r: hw * hw * r * r / (4.0 * C)
        ell = math.sqrt(2.0 * C / hw)
        errors = []
        for degree in (8, 16):
            monkeypatch.setattr(neontrap.lateral, "spectral_mesh",
                                functools.partial(spectral_mesh, degree=degree))
            spec = radial_spectrum(pot, alpha_max=3, breakpoints=_oscillator_breakpoints(ell))
            errors.append(max(abs(spec.u_alpha[a] / ((a + 1) * hw) - 1.0) for a in range(4)))
        assert errors[0] <= 1e-6 and errors[1] <= 1e-3 * errors[0]

    @pytest.mark.parametrize("R, dL", [(50.0, 1.0), (200.0, 0.25)])
    def test_pillar_splitting_matches_finite_volume_richardson(self, curve, R, dL):
        p = PillarProfile(L0, dL, R, B)
        pot = lambda r: lta_potential(curve, p, r)
        rho_max = default_rho_max(R)
        oracle = (radial_richardson_level(pot, rho_max, 1)
                  - radial_richardson_level(pot, rho_max, 0))
        # 1e-6 ueV; measured 1.6e-7 and 8e-9 ueV
        assert pillar_spectrum(curve, p).delta_u_mev == pytest.approx(oracle, rel=0.0,
                                                                      abs=1e-9)

    @pytest.mark.parametrize("alpha", range(3))
    @pytest.mark.parametrize("R, dL", [(R, dL) for R in (50.0, 110.0, 200.0)
                                       for dL in (0.25, 1.0)])
    def test_levels_match_finite_volume_richardson(self, curve, R, dL, alpha):
        p = PillarProfile(L0, dL, R, B)
        oracle = radial_richardson_level(lambda r: lta_potential(curve, p, r),
                                         default_rho_max(R), alpha)
        # 2e-6 ueV; measured 8.4e-7 ueV at worst (R = 50, dL = 1, alpha = 2)
        assert pillar_spectrum(curve, p, alpha_max=2).u_alpha[alpha] == pytest.approx(
            oracle, rel=0.0, abs=2e-9)

    @pytest.mark.parametrize("alpha", range(6))
    def test_hard_disk_levels_are_bessel_zeros(self, alpha):
        # V = 0 inside a wall at a: U_alpha = C j_{alpha,1}^2 / a^2; the alpha = 0
        # level checks the condensed axis, alpha >= 1 the axis wall and C alpha^2/rho^2
        a = 10.0
        spec = radial_spectrum(np.zeros_like, alpha_max=5, breakpoints=(0.0, 0.5 * a, a))
        exact = C * jn_zeros(alpha, 1)[0] ** 2 / a ** 2
        # measured 8e-13 relative at worst
        assert spec.u_alpha[alpha] == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("R", [10.0, 50.0, 110.0, 200.0])
    @pytest.mark.parametrize("dL", [0.25, 1.0])
    def test_pillar_splitting_converged_in_degree(self, monkeypatch, curve, R, dL):
        # degree 24 on the same pillar_breakpoints moves Delta U by rounding:
        # measured 1.3e-8 ueV at worst
        p = PillarProfile(L0, dL, R, B)
        base = pillar_spectrum(curve, p).delta_u_mev
        monkeypatch.setattr(neontrap.lateral, "spectral_mesh",
                            functools.partial(spectral_mesh, degree=24))
        assert pillar_spectrum(curve, p).delta_u_mev == pytest.approx(base, rel=0.0,
                                                                      abs=1e-10)

    @pytest.mark.parametrize("R", [50.0, 110.0, 200.0])
    def test_farther_wall_leaves_splitting(self, curve, R):
        # doubling rho_max adds far-field elements where the states have decayed
        p = PillarProfile(L0, DL, R, B)
        near = pillar_spectrum(curve, p)
        far = pillar_spectrum(curve, p, rho_max=2.0 * default_rho_max(R))
        assert near.bound and far.bound
        assert far.delta_u_mev == pytest.approx(near.delta_u_mev, rel=0.0, abs=1e-10)

    def test_alpha_zero_required(self):
        with pytest.raises(ValueError):
            radial_spectrum(lambda r: np.zeros_like(r), alpha_max=0, breakpoints=(0.0, 10.0))

    def test_nonfinite_potential_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            radial_spectrum(lambda r: np.full_like(r, np.inf), breakpoints=(0.0, 10.0))

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        dsyevr = neontrap.perpendicular.lapack.dsyevr
        monkeypatch.setattr(neontrap.perpendicular.lapack, "dsyevr",
                            lambda *args, **kwargs: (*dsyevr(*args, **kwargs)[:-1], 1))
        with pytest.raises(EigensolverError, match="dsyevr failed with info = 1"):
            radial_spectrum(lambda r: np.zeros_like(r), breakpoints=(0.0, 10.0))


class TestPillarBreakpoints:
    @pytest.mark.parametrize("R", [1.0, 10.0, 50.0, 200.0])
    @pytest.mark.parametrize("b", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("box", ["half", "R", "default"])
    def test_span_the_box_and_ascend(self, R, b, box):
        rho_max = {"half": 0.5 * R, "R": R, "default": default_rho_max(R)}[box]
        points = pillar_breakpoints(R, b, rho_max)
        assert points[0] == 0.0 and points[-1] == rho_max
        assert np.all(np.diff(points) > 0.0)

    @pytest.mark.parametrize("R", [50.0, 110.0, 200.0])
    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_step_is_four_elements_of_4b(self, R, b):
        points = pillar_breakpoints(R, b, default_rho_max(R))
        step = [p for p in points if R - 8.0 * b <= p <= R + 8.0 * b]
        np.testing.assert_allclose(step, R + 4.0 * b * np.arange(-2, 3), rtol=0.0,
                                   atol=1e-12)

    def test_benchmark_pillar_has_eight_elements(self):
        # 34 nm of pillar, four 8 nm elements over the step, then 32 and 96 nm
        assert pillar_breakpoints(50.0, 2.0, 250.0) == (
            0.0, 34.0, 42.0, 50.0, 58.0, 66.0, 98.0, 194.0, 250.0)


class TestPillarTrap:
    def test_qubit_splitting_scale(self, curve):
        p = PillarProfile(L0, DL, R_PILLAR, B)
        spec = pillar_spectrum(curve, p)
        assert spec.bound
        assert 1.0 <= spec.delta_u_uev <= 100.0

    def test_splitting_decreases_with_radius(self, curve):
        splittings = []
        for R in (60.0, 110.0, 200.0):
            p = PillarProfile(L0, DL, R, B)
            splittings.append(pillar_spectrum(curve, p).delta_u_uev)
        assert splittings[0] > splittings[1] > splittings[2]

    def test_excited_state_radius_near_pillar_edge(self, curve):
        p = PillarProfile(L0, DL, R_PILLAR, B)
        spec = pillar_spectrum(curve, p)
        assert 0.5 * R_PILLAR <= spec.rho_e <= 1.5 * R_PILLAR
        assert 0.5 * R_PILLAR <= spec.rho_e_line <= 1.5 * R_PILLAR

    def test_trap_depth_with_deep_etch(self):
        # Delta L = 3 nm gives a trap of order 10 meV
        c = build_energy_curve(DielectricStack(SC, L0), (6.5, 10.5), n_knots=30)
        p = PillarProfile(L0, 3.0, R_PILLAR, B)
        depth = -lta_potential(c, p, 0.0)
        assert depth == pytest.approx(10.0, rel=0.3)


def _spy_dense(monkeypatch):
    """Count the dense dsyevr solves of the radial spectra."""
    calls = []
    dsyevr = neontrap.perpendicular.lapack.dsyevr

    def spy(*args, **kwargs):
        calls.append(args[0].shape[0])
        return dsyevr(*args, **kwargs)

    monkeypatch.setattr(neontrap.perpendicular.lapack, "dsyevr", spy)
    return calls


class TestRadialWarmStart:
    @pytest.mark.parametrize("dL", [0.5, 1.0])
    def test_chained_spectrum_is_refined_and_matches_dense(self, monkeypatch, curve, dL):
        previous = pillar_spectrum(curve, PillarProfile(L0, 0.25, R_PILLAR, B), alpha_max=2)
        p = PillarProfile(L0, dL, R_PILLAR, B)
        dense = pillar_spectrum(curve, p, alpha_max=2)
        calls = _spy_dense(monkeypatch)
        chained = pillar_spectrum(curve, p, alpha_max=2, start=previous)
        # every alpha starts from the previous spectrum's state on the same mesh
        assert calls == []
        assert len(chained.states) == 3 and all(s.grid.radial for s in chained.states)
        assert "states" not in repr(chained)
        # measured 3.2e-12 meV and 1.1e-9 relative at worst over R = 50-200 nm,
        # dL = 0.25-1 nm and E_ex = -1e6..2e6 V/m
        for alpha in range(3):
            assert chained.u_alpha[alpha] == pytest.approx(dense.u_alpha[alpha], rel=0.0,
                                                           abs=1e-10)
        assert chained.rho_e == pytest.approx(dense.rho_e, rel=1e-8)
        assert chained.rho_e_line == pytest.approx(dense.rho_e_line, rel=1e-8)
        assert chained.bound == dense.bound

    def test_new_radius_solves_dense(self, monkeypatch, curve):
        previous = pillar_spectrum(curve, PillarProfile(L0, DL, R_PILLAR, B))
        calls = _spy_dense(monkeypatch)
        pillar_spectrum(curve, PillarProfile(L0, DL, 60.0, B), start=previous)
        assert len(calls) == 2

    def test_alpha_the_start_lacks_solves_dense(self, monkeypatch, curve):
        previous = pillar_spectrum(curve, PillarProfile(L0, 0.25, R_PILLAR, B))
        p = PillarProfile(L0, DL, R_PILLAR, B)
        dense = pillar_spectrum(curve, p, alpha_max=2)
        calls = _spy_dense(monkeypatch)
        chained = pillar_spectrum(curve, p, alpha_max=2, start=previous)
        # alphas 0 and 1 refine from the start; alpha 2 has none and is the dense level
        assert len(calls) == 1
        assert chained.u_alpha[2] == dense.u_alpha[2]
        assert np.array_equal(chained.states[2].wavefunctions, dense.states[2].wavefunctions)


class TestFieldCoupling:
    def test_depth_shift_tracks_field_times_thinning(self):
        # the field deepens (or flattens) the trap by roughly e E dL / eps
        dl = 3.0
        e_ex = 1e6
        def depth(e):
            return (ground_state_energy(DielectricStack(SC, L0, e_ex=e))
                    - ground_state_energy(DielectricStack(SC, L0 - dl, e_ex=e)))
        shift = depth(e_ex) - depth(0.0)
        expected = 1e-6 * e_ex * dl / 1.244
        assert shift == pytest.approx(expected, rel=0.2)


class TestHarmonicFieldModel:
    def test_zero_field_returns_stiffness(self):
        assert harmonic_field_model(26.0, 3e-5, 0.0) == pytest.approx(26.0)

    def test_three_quarters_point_halves_splitting(self):
        w0, b1 = 26.0, 3e-5
        e = -0.75 * w0 ** 2 / b1
        assert harmonic_field_model(w0, b1, e) == pytest.approx(w0 / 2.0, rel=1e-12)

    def test_negative_radicand_raises(self):
        with pytest.raises(ModelInvalidError):
            harmonic_field_model(26.0, 3e-5, -1e9)

    def test_fit_round_trip(self):
        w0, b1 = 26.4, 3.1e-5
        e = np.linspace(-5e6, 5e6, 11)
        du = np.sqrt(w0 ** 2 + b1 * e)
        w0_fit, b1_fit = fit_harmonic_field_model(e, du)
        assert w0_fit == pytest.approx(w0, rel=1e-6)
        assert b1_fit == pytest.approx(b1, rel=1e-6)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_harmonic_field_model([0.0], [26.0])


class TestNearZeroSlopes:
    def test_nearest_field_on_each_side(self):
        # unsorted, with a second field on each side that must not be taken
        e = (2e6, 0.0, -2e6, 5e5, -1e6)
        du = (30.0, 26.0, 20.0, 27.0, 24.0)
        assert near_zero_slopes(e, du) == ((26.0 - 24.0) / 1e6, (27.0 - 26.0) / 5e5)

    @pytest.mark.parametrize("e", [(-1e6, 5e5, 1e6), (0.0, 1e6, 2e6), (-2e6, -1e6, 0.0)],
                             ids=["no_zero", "no_negative", "no_positive"])
    def test_none_without_zero_or_a_side(self, e):
        assert near_zero_slopes(e, (25.0, 26.0, 27.0)) == (None, None)
