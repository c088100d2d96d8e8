"""Lateral trap: thickness profiles, the W^G(L) Hermite curve against the
value-only curve, the local-thickness potential, and the radial spectrum against 2D-oscillator /
disk oracles and the finite-volume oracle."""

import functools
import math
import re

import numpy as np
import pytest
from scipy.interpolate import KroghInterpolator
from scipy.special import jn_zeros

import neontrap.lateral
import neontrap.perpendicular
from neontrap import (CurveValidationError, DielectricStack, ModelInvalidError, PillarProfile,
                      Superconductor, UnboundStateError, build_energy_curve,
                      diffusion_length, energy_derivative, fit_harmonic_field_model,
                      gibbs_thomson_shift, gravity_potential_difference, ground_state_energy,
                      external_potential, harmonic_field_model, lta_potential,
                      near_zero_slopes, perpendicular_potential, pillar_spectrum,
                      radial_spectrum, reflection_coefficient, solve_perpendicular,
                      thickness_at, total_perpendicular_potential)
from fd_oracle import radial_richardson_level, value_only_curve
from neontrap.constants import HBAR2_OVER_2ME
from neontrap.lateral import (MAX_CURVE_NODES, NODE_TOL_MEV, VALIDATION_BUDGET_MEV,
                              curve_range, default_rho_max, pillar_breakpoints)
from neontrap.perpendicular import EigensolverError, spectral_mesh

C = HBAR2_OVER_2ME
SC = Superconductor()

L0, DL, R_PILLAR, B = 10.0, 0.5, 110.0, 2.0


@pytest.fixture(scope="module")
def curve():
    return build_energy_curve(DielectricStack(SC, L0), (6.5, 10.5))


@pytest.fixture(scope="module")
def wide_curve():
    # at L = 2 nm, where the lower wall switches from -L to -2 nm, W^G(L) and
    # its slope stay continuous but its higher derivatives change, so the node
    # doubling runs into the MAX_CURVE_NODES cap
    return build_energy_curve(DielectricStack(SC, L0), (1.0, 200.0))


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

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            PillarProfile(10.0, 12.0, 110.0, 2.0)
        p = PillarProfile(10.0, 3.0, 110.0, 2.0)
        with pytest.raises(ValueError):
            thickness_at(p, -1.0)

    @pytest.mark.parametrize("R, b", [(math.inf, 2.0), (math.nan, 2.0), (110.0, math.inf),
                                      (110.0, math.nan)], ids=["R_inf", "R_nan", "b_inf", "b_nan"])
    def test_non_finite_pillar_rejected(self, R, b):
        # an infinite b flattens the step and an infinite R has no radial mesh
        with pytest.raises(ValueError, match="R and b must be finite"):
            PillarProfile(10.0, 3.0, R, b)


class TestEnergyCurve:
    def test_exact_at_knots(self, curve):
        for L, w in zip(curve.l_knots, curve.w_knots):
            assert curve(float(L)) == pytest.approx(float(w), abs=1e-10)

    def test_knots_hold_their_solves(self, curve):
        # each node keeps the value and Hellmann-Feynman slope of its own solve
        for L, w, dw in zip(curve.l_knots, curve.w_knots, curve.dw_knots):
            sol = solve_perpendicular(DielectricStack(SC, float(L)))
            assert w == pytest.approx(sol.energies[0], rel=0.0, abs=1e-9)
            assert dw == pytest.approx(energy_derivative(sol), rel=1e-7)
        assert curve.first_state.grid.points[0] == -2.0
        assert curve.first_state.energies[0] == curve.w_knots[0]

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
            build_energy_curve(DielectricStack(SC, 10.0), (0.5, 10.0))

    def test_curve_range_margins_and_limits(self):
        assert curve_range(10, 0.5) == (9.0, 10.5)
        for L0 in (1.2, 199.8):  # [0.2, 1.7] and [198.8, 200.3] nm leave [1, 200] nm
            with pytest.raises(ValueError, match="outside \\[1, 200\\] nm"):
                curve_range(L0, 0.5)


def _held_out(curve):
    """Points build_energy_curve solved to validate the accepted nodes."""
    n = curve.l_knots.size - 1
    lo, hi = curve.l_range
    u = -np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n))
    return np.exp(0.5 * math.log(hi * lo) + 0.5 * math.log(hi / lo) * u)


class TestHermiteCurve:
    """Krogh's Hermite interpolation in log L is the oracle for the interpolant,
    and the value-only Chebyshev curve of fd_oracle for the node count."""

    def test_equals_krogh_oracle(self, curve):
        # x = log L carries dW/dx = L dW/dL; a repeated abscissa takes the slope
        lo, hi = curve.l_range
        pts = np.concatenate([curve.l_knots, _held_out(curve), np.linspace(lo, hi, 50)])
        oracle = KroghInterpolator(np.repeat(np.log(curve.l_knots), 2),
                                   np.ravel([curve.w_knots, curve.l_knots * curve.dw_knots],
                                            order="F"))
        assert np.max(np.abs(curve(pts) - oracle(np.log(pts)))) <= 1e-11

    def test_wide_curve_holds_its_node_values(self, wide_curve):
        assert np.max(np.abs(wide_curve(wide_curve.l_knots) - wide_curve.w_knots)) <= 1e-10

    @pytest.mark.parametrize("l_range, nodes", [((8.5, 10.5), 5), ((2.0, 3.5), 5),
                                                ((2.5, 20.5), 9)])
    def test_matches_value_only_curve_with_half_the_nodes(self, l_range, nodes):
        # measured 3.6e-10, 4.8e-10 and 4.9e-10 meV; the value-only curve
        # takes 9, 9 and 17 nodes
        stack = DielectricStack(SC, L0)
        c = build_energy_curve(stack, l_range)
        oracle, oracle_knots, _ = value_only_curve(stack, l_range)
        assert (c.l_knots.size, oracle_knots.size) == (nodes, 2 * nodes - 1)
        ls = np.linspace(*l_range, 200)
        assert np.max(np.abs(c(ls) - oracle(ls))) <= 1e-8

    def test_levels_reuse_nodes_and_solve_ascending(self, monkeypatch):
        solved = []
        solve = neontrap.lateral.solve_perpendicular
        def spy(stack, *args, **kwargs):
            solved.append(stack.thickness_L)
            return solve(stack, *args, **kwargs)
        monkeypatch.setattr(neontrap.lateral, "solve_perpendicular", spy)
        c = build_energy_curve(DielectricStack(SC, L0), (1.0, 200.0))
        # 5 nodes, then held-out levels of 4, 8, 16 and 32 points, each once
        levels = np.split(np.array(solved), [5, 9, 17, 33])
        assert [lv.size for lv in levels] == [5, 4, 8, 16, 32]
        assert solved[0] == 1.0 and all(np.all(np.diff(lv) > 0.0) for lv in levels)
        assert np.array_equal(np.sort(np.concatenate(levels[:4])), c.l_knots)
        assert np.array_equal(levels[4], _held_out(c))

    def test_smooth_range_accepts_five_nodes(self, curve):
        assert curve.l_knots.size == 5
        assert curve.validation_error <= NODE_TOL_MEV

    def test_wide_range_stops_at_node_cap(self, wide_curve):
        # 5 -> 9 -> 17 -> 33 nodes; 65 would exceed the cap
        assert wide_curve.l_knots.size == MAX_CURVE_NODES == 33
        assert NODE_TOL_MEV < wide_curve.validation_error <= VALIDATION_BUDGET_MEV

    def test_thin_layer_range_across_the_wall_kink(self, monkeypatch):
        # [1.9, 3.5] nm straddles L = 2 nm, where the lower wall switches from
        # -L to -2 nm; W^G and its slope are continuous there, but the curve
        # across that switch runs to the node cap and still validates to
        # 1e-7 meV (measured 1.48e-8 meV)
        slopes = []
        derivative = neontrap.lateral.energy_derivative
        def spy(solution):
            slopes.append(solution.stack.thickness_L)
            return derivative(solution)
        monkeypatch.setattr(neontrap.lateral, "energy_derivative", spy)
        c = build_energy_curve(DielectricStack(SC, 3.0), (1.9, 3.5))
        assert c.l_knots.size == MAX_CURVE_NODES
        assert c.validation_error <= 1e-7
        # one slope per node; the 32 held-out points of the last level take none
        assert np.array_equal(np.sort(slopes), c.l_knots)

    def test_fresh_solves_agree(self, curve):
        ls = 8.5 + 2.0 * (np.arange(20) + 0.5) / 20
        direct = [ground_state_energy(DielectricStack(SC, float(L))) for L in ls]
        assert np.max(np.abs(curve(ls) - np.array(direct))) <= 1e-8

    def test_budget_exceeded_raises(self, monkeypatch):
        monkeypatch.setattr(neontrap.lateral, "VALIDATION_BUDGET_MEV", 1e-12)
        with pytest.raises(CurveValidationError, match="held-out error"):
            build_energy_curve(DielectricStack(SC, L0), (9.0, 10.5))

    def test_unbound_field_fails_on_the_thinnest_node(self, monkeypatch):
        solved = []
        solve = neontrap.lateral.solve_perpendicular
        def spy(stack, *args, **kwargs):
            solved.append(stack.thickness_L)
            return solve(stack, *args, **kwargs)
        monkeypatch.setattr(neontrap.lateral, "solve_perpendicular", spy)
        with pytest.raises(UnboundStateError, match=r"leaks to the outer wall .* L=9.0 nm"):
            build_energy_curve(DielectricStack(SC, L0, e_ex=-2e6), (9.0, 10.5))
        assert solved == [9.0]

    def test_curve_started_from_another_field(self, monkeypatch):
        # the first solve refines the start's first state and the certificate
        # decides, so the curve equals one built cold
        previous = build_energy_curve(DielectricStack(SC, L0, e_ex=-1e6), (9.0, 10.5))
        cold = build_energy_curve(DielectricStack(SC, L0), (9.0, 10.5))
        dense = []
        dsyevr = neontrap.perpendicular.lapack.dsyevr

        def spy(*args, **kwargs):
            dense.append(args[0].shape[0])
            return dsyevr(*args, **kwargs)

        monkeypatch.setattr(neontrap.perpendicular.lapack, "dsyevr", spy)
        chained = build_energy_curve(DielectricStack(SC, L0), (9.0, 10.5), start=previous)
        assert dense == []
        np.testing.assert_array_equal(chained.l_knots, cold.l_knots)
        np.testing.assert_allclose(chained.w_knots, cold.w_knots, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(chained.dw_knots, cold.dw_knots, rtol=1e-7)


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


SCALAR_STACK = DielectricStack(SC, L0, e_ex=1e5)
# every evaluator of a scalar or an array, at an x (nm, or nm^-1 for k) it takes
EVALUATORS = {
    "reflection_coefficient": lambda curve, x: reflection_coefficient(SCALAR_STACK, x),
    "perpendicular_potential": lambda curve, x: perpendicular_potential(SCALAR_STACK, x),
    "external_potential": lambda curve, x: external_potential(SCALAR_STACK, x),
    "total_perpendicular_potential":
        lambda curve, x: total_perpendicular_potential(SCALAR_STACK, x),
    "thickness_at": lambda curve, x: thickness_at(PillarProfile(L0, DL, R_PILLAR, B), x),
    "EnergyCurve": lambda curve, x: curve(x),
}


@pytest.mark.parametrize("kind", ["float", "float64", "0-d array", "list"])
@pytest.mark.parametrize("name", EVALUATORS)
def test_one_scalar_rule(curve, name, kind):
    # np.ndim(x) == 0 gives a Python float, anything else an array of x's shape
    x = {"float": 10.0, "float64": np.float64(10.0), "0-d array": np.array(10.0),
         "list": [10.0, 9.0]}[kind]
    r, listed = EVALUATORS[name](curve, x), EVALUATORS[name](curve, [10.0, 9.0])
    if kind == "list":
        assert isinstance(r, np.ndarray) and r.shape == (2,)
    else:
        assert type(r) is float and r == listed[0]


# every input guard with the message it raises; each names the set it accepts, so
# NaN (and rho = inf) falls outside it
GUARDS = {
    "reflection_coefficient": "wavenumber k must be non-negative",
    "perpendicular_potential": "perpendicular_potential requires z > 0",
    "external_potential": "z < -L lies inside the substrate",
    "total_perpendicular_potential": "z < -L lies inside the substrate",
    "thickness_at": "rho must be non-negative",
    "EnergyCurve": "thickness outside tabulated range [6.5, 10.5] nm",
    "gibbs_thomson_shift": "curvature radius r_c must be nonzero, got nan nm",
    "diffusion_length": "diffusion time must be non-negative, got nan s",
    "gravity_potential_difference": "height difference delta_h must be non-negative, got nan nm",
}
GROWTH = {"gibbs_thomson_shift": gibbs_thomson_shift, "diffusion_length": diffusion_length,
          "gravity_potential_difference": gravity_potential_difference}


@pytest.mark.parametrize("name, x", [
    *(pytest.param(name, math.nan, id=f"{name}-nan") for name in GUARDS),
    *(pytest.param(name, [10.0, math.nan], id=f"{name}-nan_in_array") for name in EVALUATORS),
    pytest.param("thickness_at", math.inf, id="thickness_at-inf")])
def test_guard_refuses_nan(curve, name, x):
    evaluate = EVALUATORS.get(name) or (lambda curve, x: GROWTH[name](x))
    with pytest.raises(ValueError, match=re.escape(GUARDS[name])):
        evaluate(curve, x)


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
        assert spec.u_alpha[1] - spec.u_alpha[0] == pytest.approx(hw, rel=3e-3)

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
        u = pillar_spectrum(curve, p).u_alpha
        assert u[1] - u[0] == pytest.approx(oracle, rel=0.0, abs=1e-9)

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
        u = pillar_spectrum(curve, p).u_alpha
        monkeypatch.setattr(neontrap.lateral, "spectral_mesh",
                            functools.partial(spectral_mesh, degree=24))
        fine = pillar_spectrum(curve, p).u_alpha
        assert fine[1] - fine[0] == pytest.approx(u[1] - u[0], rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("R, dL", [(50.0, DL), (110.0, DL), (200.0, DL), (50.0, 0.25)])
    def test_farther_wall_leaves_splitting(self, curve, R, dL):
        # doubling rho_max adds far-field elements where the states have
        # decayed: a bound row's Delta U and rho_e do not depend on the box
        # (1e-10 meV is under 1e-8 of each Delta U; measured 7e-11 relative or less)
        p = PillarProfile(L0, dL, R, B)
        near = pillar_spectrum(curve, p)
        far = pillar_spectrum(curve, p, rho_max=2.0 * default_rho_max(R))
        assert near.bound and far.bound
        assert far.u_alpha[1] - far.u_alpha[0] == pytest.approx(
            near.u_alpha[1] - near.u_alpha[0], rel=0.0, abs=1e-10)
        assert far.rho_e == pytest.approx(near.rho_e, rel=1e-8)

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
        c = build_energy_curve(DielectricStack(SC, L0), (6.5, 10.5))
        p = PillarProfile(L0, 3.0, R_PILLAR, B)
        depth = -lta_potential(c, p, 0.0)
        assert depth == pytest.approx(10.0, rel=0.3)


class TestBoundVerdict:
    # Delta U and rho_e read alpha = 1, and a level above the far-field rim is a
    # state of the radial box that follows rho_max, so alpha = 0 and alpha = 1
    # must each sit below the rim with a density off the outer wall

    @staticmethod
    def _pillar(L0_, dL, R, box):
        c = build_energy_curve(DielectricStack(SC, L0_), curve_range(L0_, dL))
        p = PillarProfile(L0_, dL, R, B)
        rho_max = box * default_rho_max(R)
        return pillar_spectrum(c, p, rho_max=rho_max), lta_potential(c, p, rho_max)

    @pytest.mark.parametrize("L0_, dL, R, box", [(20.0, 0.258, 20.0, 1), (10.0, 0.05, 30.0, 1),
                                                 (20.0, 0.1, 20.0, 2)])
    def test_alpha_one_above_the_rim_is_flagged(self, L0_, dL, R, box):
        # measured U_1 = +11.3, +9.7 and +2.9 ueV over the far field; doubling the
        # box moved Delta U of the first row from 44.78 to 36.36 ueV
        spec, rim = self._pillar(L0_, dL, R, box)
        assert spec.u_alpha[0] < rim and spec.states[0].is_bound()  # alpha = 0 alone passes
        assert spec.u_alpha[1] > rim and not spec.states[1].is_bound()
        assert not spec.bound

    @pytest.mark.parametrize("box", [1, 2])
    def test_shallow_bound_pair_stays_bound(self, box):
        # measured U_1 = -35.5 ueV, Delta U = 339.33 ueV in both boxes
        spec, rim = self._pillar(10.0, 0.258, 20.0, box)
        assert spec.bound and spec.u_alpha[1] < rim


def _spy_dense(monkeypatch):
    """Count the dense dsyevr solves of the radial spectra."""
    calls = []
    dsyevr = neontrap.perpendicular.lapack.dsyevr

    def spy(*args, **kwargs):
        calls.append(args[0].shape[0])
        return dsyevr(*args, **kwargs)

    monkeypatch.setattr(neontrap.perpendicular.lapack, "dsyevr", spy)
    return calls


class TestRadialStart:
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

    def test_fit_with_negative_intercept_raises(self):
        # Delta U^2 = 1 and 3 at 1e6 and 2e6 V/m extrapolate to -1 at zero field
        with pytest.raises(ModelInvalidError, match="negative zero-field stiffness"):
            fit_harmonic_field_model([1e6, 2e6], [1.0, 3 ** 0.5])

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
