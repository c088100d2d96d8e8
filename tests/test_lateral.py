"""Lateral trap: thickness profiles, the W^G(L) Chebyshev curve, the
local-thickness potential, and the radial spectrum against 2D-oscillator /
disk oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import BarycentricInterpolator
from scipy.special import jn_zeros

import neontrap.lateral
from neontrap import (DEFAULT_CONSTANTS, CurveValidationError, DielectricStack,
                      EnergyCurve, FieldSpec, ModelInvalidError, PillarProfile,
                      QuadraticProfile,
                      Superconductor, build_energy_curve, field_response,
                      fit_harmonic_field_model, ground_state_energy,
                      harmonic_field_model, lta_potential, pillar_spectrum,
                      radial_spectrum, thickness_at)
from neontrap.lateral import NODE_TOL_MEV, default_rho_max
from neontrap.perpendicular import EigensolverError

C = DEFAULT_CONSTANTS.hbar2_over_2me
SC = Superconductor()

L0, DL, R_PILLAR, B = 10.0, 0.5, 110.0, 2.0


@pytest.fixture(scope="module")
def curve():
    return build_energy_curve(DielectricStack(SC, L0), FieldSpec(0.0),
                              (6.5, 10.5), n_knots=30)


@pytest.fixture(scope="module")
def wide_curve():
    # W^G(L) has a kink at L = 2 nm, where the lower wall switches from -L to
    # -2 nm, so the node doubling runs into the n_knots cap
    return build_energy_curve(DielectricStack(SC, L0), FieldSpec(0.0),
                              (1.0, 200.0), n_knots=60)


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
            build_energy_curve(DielectricStack(SC, 10.0), FieldSpec(0.0),
                               (0.5, 10.0), n_knots=20)


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
        c = build_energy_curve(DielectricStack(SC, L0), FieldSpec(0.0),
                               (1.0, 200.0), n_knots=60)
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
        c = build_energy_curve(DielectricStack(SC, 3.0), FieldSpec(0.0), (1.9, 3.5),
                               n_knots=60)
        assert c.validation_error <= 1e-7

    def test_fresh_solves_agree(self, curve):
        ls = 8.5 + 2.0 * (np.arange(20) + 0.5) / 20
        direct = [ground_state_energy(DielectricStack(SC, float(L))) for L in ls]
        assert np.max(np.abs(curve(ls) - np.array(direct))) <= 1e-8

    def test_budget_exceeded_raises_and_flags_row(self, monkeypatch):
        monkeypatch.setattr(EnergyCurve, "VALIDATION_BUDGET_MEV", 1e-12)
        with pytest.raises(CurveValidationError, match="held-out error"):
            build_energy_curve(DielectricStack(SC, L0), FieldSpec(0.0),
                               (9.0, 10.5), n_knots=20)
        resp = field_response(DielectricStack(SC, L0), PillarProfile(L0, DL, R_PILLAR, B),
                              (0.0,), n_knots=20)
        (row,) = resp.rows
        assert not row.bound
        assert all(math.isnan(v) for v in (row.delta_u_uev, row.rho_e, row.rho_e_line))


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


class TestRadialOracles:
    def test_two_dimensional_oscillator_ladder(self):
        # E(n, alpha) = (2n + |alpha| + 1) hbar w; lowest per alpha: (alpha+1) hbar w
        hw = 0.026  # meV, comparable to the physical trap
        pot = lambda r: hw * hw * r * r / (4.0 * C)
        ell = math.sqrt(2.0 * C / hw)
        spec = radial_spectrum(pot, alpha_max=3, rho_max=12.0 * ell, n_points=8192)
        for alpha in range(4):
            assert spec.u_alpha[alpha] == pytest.approx((alpha + 1) * hw, rel=3e-3)
        assert spec.delta_u_mev == pytest.approx(hw, rel=3e-3)

    def test_oscillator_first_excited_mean_radius(self):
        hw = 0.026
        pot = lambda r: hw * hw * r * r / (4.0 * C)
        ell = math.sqrt(2.0 * C / hw)
        spec = radial_spectrum(pot, alpha_max=1, rho_max=12.0 * ell, n_points=8192)
        # R_1 ~ rho exp(-rho^2 / 2 l^2): <rho> = l * 3 sqrt(pi) / 4
        assert spec.rho_e == pytest.approx(ell * 0.75 * math.sqrt(math.pi), rel=5e-3)

    def test_deep_disk_bessel_ratio(self):
        # infinite-disk limit: U_alpha + V0 = C j_{alpha,1}^2 / a^2
        v0, a = 1.0e4, 15.0
        pot = lambda r: np.where(r < a, -v0, 0.0)
        spec = radial_spectrum(pot, alpha_max=1, rho_max=2.0 * a, n_points=32768)
        j0, j1 = jn_zeros(0, 1)[0], jn_zeros(1, 1)[0]
        ratio = (spec.u_alpha[1] + v0) / (spec.u_alpha[0] + v0)
        assert ratio == pytest.approx((j1 / j0) ** 2, rel=0.01)
        assert spec.u_alpha[0] + v0 == pytest.approx(C * j0 ** 2 / a ** 2, rel=0.01)

    def test_grid_convergence(self):
        hw = 0.026
        pot = lambda r: hw * hw * r * r / (4.0 * C)
        ell = math.sqrt(2.0 * C / hw)
        coarse = radial_spectrum(pot, rho_max=12.0 * ell, n_points=8192)
        fine = radial_spectrum(pot, rho_max=12.0 * ell, n_points=16384)
        assert fine.delta_u_mev == pytest.approx(coarse.delta_u_mev, rel=1e-3)

    def test_alpha_zero_required(self):
        with pytest.raises(ValueError):
            radial_spectrum(lambda r: np.zeros_like(r), alpha_max=0, rho_max=10.0)

    def test_nonfinite_potential_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            radial_spectrum(lambda r: np.full_like(r, np.inf), rho_max=10.0)


class TestRadialKernel:
    """The certified Rayleigh-quotient path against LAPACK bisection as the oracle."""

    @pytest.mark.parametrize("R, dL", [(50.0, 1.0), (200.0, 0.25)])
    def test_pillar_states_match_bisection(self, curve, monkeypatch, R, dL):
        p = PillarProfile(L0, dL, R, B)
        rho_max, n = default_rho_max(R), 16384
        pot = lambda r: lta_potential(curve, p, r)
        # the same finite-volume operator, assembled here independently
        h = rho_max / n
        rho = (np.arange(n) + 0.5) * h
        faces = np.arange(n + 1) * h
        kinetic = C * (faces[1:] + faces[:-1]) / (h * h * rho)
        off = -C * faces[1:-1] / (h * h * np.sqrt(rho[:-1] * rho[1:]))
        oracle = [scipy.linalg.eigh_tridiagonal(kinetic + pot(rho) + C * alpha ** 2 / rho ** 2,
                                                off, select="i", select_range=(0, 0))
                  for alpha in (0, 1)]

        calls = []
        original = scipy.linalg.eigh_tridiagonal

        def spy(diag, offdiag, **kwargs):
            calls.append(diag.size)
            return original(diag, offdiag, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        spec = radial_spectrum(pot, alpha_max=1, rho_max=rho_max, n_points=n)
        # only the matrices restricted to every 8th cell are bisected
        assert calls == [(n + 1) // 8 - 1] * 2
        for alpha, (w, v) in enumerate(oracle):
            assert spec.u_alpha[alpha] == pytest.approx(w[0], rel=0.0, abs=2e-9)
            u = spec.radial_states[alpha] * math.sqrt(h)
            assert abs(u @ v[:, 0]) >= 1.0 - 1e-10

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(EigensolverError, match="injected"):
            radial_spectrum(lambda r: np.zeros_like(r), rho_max=10.0, n_points=2048)


class TestPillarTrap:
    def test_qubit_splitting_scale(self, curve):
        p = PillarProfile(L0, DL, R_PILLAR, B)
        spec = pillar_spectrum(curve, p, n_points=8192)
        assert spec.bound
        assert 1.0 <= spec.delta_u_uev <= 100.0

    def test_splitting_decreases_with_radius(self, curve):
        splittings = []
        for R in (60.0, 110.0, 200.0):
            p = PillarProfile(L0, DL, R, B)
            splittings.append(pillar_spectrum(curve, p, n_points=8192).delta_u_uev)
        assert splittings[0] > splittings[1] > splittings[2]

    def test_excited_state_radius_near_pillar_edge(self, curve):
        p = PillarProfile(L0, DL, R_PILLAR, B)
        spec = pillar_spectrum(curve, p, n_points=8192)
        assert 0.5 * R_PILLAR <= spec.rho_e <= 1.5 * R_PILLAR
        assert 0.5 * R_PILLAR <= spec.rho_e_line <= 1.5 * R_PILLAR

    def test_trap_depth_with_deep_etch(self):
        # Delta L = 3 nm gives a trap of order 10 meV
        c = build_energy_curve(DielectricStack(SC, L0), FieldSpec(0.0),
                               (6.5, 10.5), n_knots=30)
        p = PillarProfile(L0, 3.0, R_PILLAR, B)
        depth = -lta_potential(c, p, 0.0)
        assert depth == pytest.approx(10.0, rel=0.3)


class TestFieldCoupling:
    def test_depth_shift_tracks_field_times_thinning(self):
        # the field deepens (or flattens) the trap by roughly e E dL / eps
        dl = 3.0
        e_ex = 1e6
        def depth(e):
            f = FieldSpec(e)
            return (ground_state_energy(DielectricStack(SC, L0), f)
                    - ground_state_energy(DielectricStack(SC, L0 - dl), f))
        shift = depth(e_ex) - depth(0.0)
        expected = 1e-6 * e_ex * dl / 1.244
        assert shift == pytest.approx(expected, rel=0.2)


class TestFieldResponse:
    PROFILE = PillarProfile(L0, DL, R_PILLAR, B)

    def test_unbound_field_keeps_flagged_row(self):
        # -5e6 V/m pulls the electron off the surface at these thicknesses
        resp = field_response(DielectricStack(SC, L0), self.PROFILE, (0.0, -5e6),
                              n_knots=20, n_points=8192)
        assert [r.e_ex for r in resp.rows] == [-5e6, 0.0]
        unbound, bound = resp.rows
        assert not unbound.bound
        assert all(math.isnan(v) for v in
                   (unbound.delta_u_uev, unbound.rho_e, unbound.rho_e_line))
        assert bound.bound and math.isfinite(bound.delta_u_uev)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug")
        monkeypatch.setattr(neontrap.lateral, "pillar_spectrum", broken)
        with pytest.raises(TypeError, match="bug"):
            field_response(DielectricStack(SC, L0), self.PROFILE, (0.0,),
                           n_knots=20)


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
