"""Electrostatics of the three-layer stack: reflection coefficient, image
potential (multiple-image series vs k-space quadrature), and the field potential."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neontrap import (Dielectric, DielectricStack, Superconductor, external_potential,
                      perpendicular_potential, reflection_coefficient, solver_mesh,
                      total_perpendicular_potential)
import neontrap.dielectric
from neontrap.constants import IMAGE_PREFACTOR
from neontrap.dielectric import (MAX_IMAGE_TERMS, cached_perpendicular_potential,
                                 potential_derivative)
from neontrap.perpendicular import spectral_mesh

SC = Superconductor()
LAM_BULK = (1.0 - 1.244) / (1.0 + 1.244)  # vacuum/neon coefficient


def image_series_loop(stack, z):
    """Reference image series: one term at a time, leading image first."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    eta = stack.eps_neon
    lam = (1.0 - eta) / (1.0 + eta)
    mu = -1.0 if isinstance(stack.substrate, Superconductor) else \
        (eta - stack.substrate.eps_b) / (eta + stack.substrate.eps_b)
    ratio = abs(lam * mu)
    n_terms = 1 if ratio == 0.0 else math.ceil(math.log(1e-17) / math.log(ratio))
    total = lam / (2.0 * z_arr)
    weight = mu * (1.0 - lam * lam)
    for n in range(1, n_terms + 1):
        total = total + weight / (2.0 * (z_arr + n * stack.thickness_L))
        weight *= -lam * mu
    return IMAGE_PREFACTOR * total


class TestStackConstruction:
    def test_eps_neon_must_exceed_one(self):
        with pytest.raises(ValueError):
            DielectricStack(SC, 10.0, eps_neon=0.9)

    def test_eps_neon_must_be_finite(self):
        # an infinite permittivity made the image series' term count NaN
        with pytest.raises(ValueError, match="eps_neon"):
            DielectricStack(SC, 10.0, eps_neon=math.inf)

    def test_substrate_permittivity_must_be_physical(self):
        with pytest.raises(ValueError):
            Dielectric(0.5)

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            DielectricStack(SC, -1.0)

    @pytest.mark.parametrize("name", ["barrier_height", "cutoff_zc"])
    @pytest.mark.parametrize("value", [-5.0, -0.1, 0.0, math.nan, math.inf])
    def test_surface_must_be_positive_and_finite(self, name, value):
        # a barrier at or below zero lets the electron settle inside the neon
        # (W_G = -67.38 meV at -5 meV, with h_e = 0.66 nm), and a cutoff at or
        # below zero or NaN failed only later, in the mesh builder
        with pytest.raises(ValueError, match=name):
            DielectricStack(SC, 10.0, **{name: value})

    @pytest.mark.parametrize("e_ex", [math.nan, math.inf, -math.inf])
    def test_field_must_be_finite(self, e_ex):
        with pytest.raises(ValueError, match="e_ex must be finite"):
            DielectricStack(SC, 10.0, e_ex=e_ex)

    @pytest.mark.parametrize("e_ex", [1e6, -1e6, 1e-300])
    def test_bulk_rejects_nonzero_field(self, e_ex):
        # bulk neon has no grounded substrate to fix the field's gauge
        with pytest.raises(ValueError, match="bulk"):
            DielectricStack(SC, math.inf, e_ex=e_ex)
        with pytest.raises(ValueError, match="bulk"):
            replace(DielectricStack(SC, math.inf), e_ex=e_ex)
        assert DielectricStack(SC, math.inf, e_ex=-0.0).is_bulk

    @pytest.mark.parametrize("eps_neon, terms",
                             [(1.244, 18), (51.0, 999), (52.0, 1018), (1e6, 19571974)])
    def test_image_series_size_is_capped(self, eps_neon, terms):
        # every image term is a row of each potential array on the solver
        # mesh, so a stack needing more than MAX_IMAGE_TERMS is refused when
        # built; only the term count is computed here, never a potential
        lam = (1.0 - eps_neon) / (1.0 + eps_neon)
        assert neontrap.dielectric._series_terms(lam, -1.0) == terms
        if terms <= MAX_IMAGE_TERMS:
            assert DielectricStack(SC, 10.0, eps_neon=eps_neon).eps_neon == eps_neon
            return
        with pytest.raises(ValueError, match=f"needs {terms} image terms, above the cap of 1000"):
            DielectricStack(SC, 10.0, eps_neon=eps_neon)


class TestReflectionCoefficient:
    def test_superconductor_long_wavelength_limit(self):
        # k -> 0 recovers the perfect-conductor mirror
        assert reflection_coefficient(DielectricStack(SC, 10.0), 0.0) == pytest.approx(-1.0)

    def test_superconductor_finite_k(self):
        # independent evaluation through the tanh form
        expected = (math.tanh(1.0) - 1.244) / (math.tanh(1.0) + 1.244)
        got = reflection_coefficient(DielectricStack(SC, 10.0), 0.1)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-0.24053, abs=1e-5)

    def test_large_kl_reaches_bulk_coefficient(self):
        got = reflection_coefficient(DielectricStack(SC, 10.0), 1e3)
        assert got == pytest.approx(LAM_BULK, rel=1e-12)
        assert got == pytest.approx(-0.108734, abs=1e-6)

    def test_dielectric_long_wavelength(self):
        got = reflection_coefficient(DielectricStack(Dielectric(12.0), 10.0), 0.0)
        assert got == pytest.approx((1.0 - 12.0) / (1.0 + 12.0), rel=1e-12)

    def test_bulk_is_constant_in_k(self):
        stack = DielectricStack(SC, math.inf)
        k = np.array([0.0, 0.3, 5.0])
        assert np.allclose(reflection_coefficient(stack, k), LAM_BULK)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            reflection_coefficient(DielectricStack(SC, 10.0), -0.1)

    def test_matches_tanh_form_for_dielectric(self):
        stack = DielectricStack(Dielectric(12.0), 7.0)
        for k in (0.01, 0.2, 1.5):
            t = math.tanh(k * 7.0)
            num = (1.0 - 12.0) * 1.244 + (12.0 - 1.244 ** 2) * t
            den = (1.0 + 12.0) * 1.244 + (12.0 + 1.244 ** 2) * t
            assert reflection_coefficient(stack, k) == pytest.approx(num / den, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k=st.floats(0.0, 50.0), L=st.floats(0.1, 100.0))
    def test_superconductor_bounds(self, k, L):
        lam = reflection_coefficient(DielectricStack(SC, L), k)
        assert -1.0 <= lam <= LAM_BULK + 1e-12

    def test_monotone_in_kl_superconductor(self):
        stack = DielectricStack(SC, 10.0)
        k = np.linspace(0.0, 2.0, 200)
        lam = reflection_coefficient(stack, k)
        assert np.all(np.diff(lam) >= 0.0)


class TestPerpendicularPotential:
    def test_bulk_closed_form(self):
        stack = DielectricStack(SC, math.inf)
        expected = IMAGE_PREFACTOR * LAM_BULK / 2.0
        assert perpendicular_potential(stack, 1.0) == pytest.approx(expected, rel=1e-12)
        assert perpendicular_potential(stack, 1.0) == pytest.approx(-39.14, abs=0.01)

    def test_mirror_charge_limit(self):
        stack = DielectricStack(SC, 0.0)
        expected = -IMAGE_PREFACTOR / 2.0
        assert perpendicular_potential(stack, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_agrees_with_image_series(self, kspace_potential):
        stack = DielectricStack(SC, 10.0)
        v_series = perpendicular_potential(stack, 2.0)
        v_quad = float(kspace_potential(stack, 2.0))
        assert v_series == pytest.approx(v_quad, rel=1e-6)

    def test_quadrature_vs_series_dielectric_substrate(self, kspace_potential):
        stack = DielectricStack(Dielectric(12.0), 5.0)
        z = np.array([0.23, 1.0, 4.0, 12.0])
        v_series = perpendicular_potential(stack, z)
        v_quad = kspace_potential(stack, z)
        assert np.allclose(v_series, v_quad, rtol=1e-6)

    def test_far_field_recovers_substrate_mirror(self):
        # for z >> L the layer is invisible: the summed images reduce to a
        # single mirror in the superconductor, V -> -pref/(2z)
        stack = DielectricStack(SC, 10.0)
        z = 100.0 * stack.thickness_L
        mirror = -IMAGE_PREFACTOR / (2.0 * z)
        assert perpendicular_potential(stack, z) == pytest.approx(mirror, rel=0.02)

    def test_large_l_approaches_bulk(self):
        # convergence to bulk is O(1/L): the nearest substrate image still
        # contributes ~pref/(2L), so 1e-4 relative needs L ~ 1e5 nm
        thick = perpendicular_potential(DielectricStack(SC, 1e5), 1.0)
        bulk = perpendicular_potential(DielectricStack(SC, math.inf), 1.0)
        assert thick == pytest.approx(bulk, rel=1e-4)

    def test_small_l_approaches_mirror(self):
        # approach to the bare mirror is O(L/z), so 1e-4 needs L ~ 1e-5 nm
        thin = perpendicular_potential(DielectricStack(SC, 1e-5), 1.0)
        mirror = perpendicular_potential(DielectricStack(SC, 0.0), 1.0)
        assert thin == pytest.approx(mirror, rel=1e-4)

    def test_strictly_negative_and_vanishing_far_away(self):
        stack = DielectricStack(SC, 10.0)
        z = np.logspace(math.log10(0.23), math.log10(200.0), 50)
        v = perpendicular_potential(stack, z)
        assert np.all(v < 0.0)
        # far field looks like a mirror at the substrate: ~ -pref/(2(z+L))
        assert abs(v[-1]) < 2.0
        # monotonically increasing toward zero
        assert np.all(np.diff(v) > 0.0)

    def test_thinner_is_deeper(self):
        z = np.logspace(math.log10(0.23), math.log10(30.0), 40)
        v_thin = perpendicular_potential(DielectricStack(SC, 5.0), z)
        v_thick = perpendicular_potential(DielectricStack(SC, 20.0), z)
        assert np.all(v_thin <= v_thick + 1e-12)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(ValueError):
            perpendicular_potential(DielectricStack(SC, 10.0), 0.0)

    @pytest.mark.parametrize("substrate", [SC, Dielectric(12.0), Dielectric(1.244),
                                           Dielectric(1.0)], ids=repr)
    @pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 3.0, 10.0, math.inf])
    @pytest.mark.parametrize("z", [0.23, np.float64(1.7), np.array(2.5),
                                   np.logspace(math.log10(0.23), 3.0, 85),
                                   np.linspace(0.5, 30.0, 12).reshape(3, 4)],
                             ids=["float", "float64", "0d", "85 nodes", "3x4"])
    def test_series_sum_equals_term_by_term_loop(self, substrate, L, z):
        stack = DielectricStack(substrate, L)
        got = perpendicular_potential(stack, z)
        want = image_series_loop(stack, z)
        if np.ndim(z) == 0:
            assert isinstance(got, float)
            assert got == float(want[0])
        else:
            np.testing.assert_array_equal(got, want)


class TestExternalPotential:
    def test_grounded_at_substrate(self):
        assert external_potential(DielectricStack(SC, 10.0, e_ex=3e6), -10.0) == 0.0

    def test_surface_value(self):
        # e * 1e6 V/m over 10 nm of neon
        got = external_potential(DielectricStack(SC, 10.0, e_ex=1e6), 0.0)
        assert got == pytest.approx(10.0 / 1.244, rel=1e-12)
        assert got == pytest.approx(8.039, abs=1e-3)

    def test_permittivity_comes_from_the_stack(self):
        stack = DielectricStack(SC, 10.0, eps_neon=1.3, e_ex=1e6)
        got = external_potential(stack, 0.0)
        assert got == pytest.approx(10.0 / 1.3, rel=1e-12)

    def test_continuous_at_surface(self):
        below = external_potential(DielectricStack(SC, 10.0, e_ex=2e6), -1e-12)
        above = external_potential(DielectricStack(SC, 10.0, e_ex=2e6), +1e-12)
        assert below == pytest.approx(above, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(e=st.floats(-5e6, 5e6, allow_subnormal=False), z=st.floats(-5.0, 30.0))
    def test_linear_in_field(self, e, z):
        v1 = external_potential(DielectricStack(SC, 5.0, e_ex=e), z)
        v2 = external_potential(DielectricStack(SC, 5.0, e_ex=2.0 * e), z)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12, abs=1e-300)

    def test_inside_substrate_rejected(self):
        with pytest.raises(ValueError):
            external_potential(DielectricStack(SC, 10.0, e_ex=1e6), -10.5)

    def test_bulk_at_zero_field_is_zero(self):
        # bulk neon has no grounded substrate; at zero field there is no field term
        got = external_potential(DielectricStack(SC, math.inf), 3.0)
        assert isinstance(got, float) and got == 0.0
        z = np.array([-5.0, 0.0, 0.23, 40.0])
        got = external_potential(DielectricStack(SC, math.inf), z)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, np.zeros_like(z))

    @pytest.mark.parametrize("L", [-1.0, math.nan])
    def test_invalid_thickness_rejected(self, L):
        with pytest.raises(ValueError, match="L must be"):
            external_potential(DielectricStack(SC, L), 1.0)


class TestTotalPotential:
    def test_below_cutoff_is_clamped_image_value(self):
        # between surface and cutoff the image potential is held at V(z_c);
        # calibrated against the documented ground-state energies
        stack = DielectricStack(SC, 10.0)
        zc = stack.cutoff_zc
        got = total_perpendicular_potential(stack, zc / 2.0)
        assert got == pytest.approx(perpendicular_potential(stack, zc), rel=1e-12)

    def test_surface_is_vacuum_side(self):
        # z = 0 takes the clamped image value; the barrier holds only below it
        stack = DielectricStack(SC, 10.0)
        got = total_perpendicular_potential(stack, 0.0)
        v_zc = perpendicular_potential(stack, stack.cutoff_zc)
        assert got == pytest.approx(v_zc, rel=1e-12)
        below = total_perpendicular_potential(stack, -1e-12)
        assert below == pytest.approx(stack.barrier_height, rel=1e-12)

    @pytest.mark.parametrize("L, e_ex", [(10.0, 1e6), (1.0, -1e6), (math.inf, 0.0)])
    def test_mesh_potential_is_each_element_from_inside(self, L, e_ex):
        # each element of the solver mesh sees the potential from inside:
        # the surface node z = 0 is the barrier on the element below and
        # V(z_c) on the element above; elsewhere it is the public potential
        stack = DielectricStack(SC, L, e_ex=e_ex)
        grid = solver_mesh(stack)
        got = cached_perpendicular_potential(stack, grid)
        assert got.shape == grid.nodes.shape
        z = grid.nodes
        expected = total_perpendicular_potential(stack, z.ravel()).reshape(z.shape)
        expected[0, -1] += stack.barrier_height - perpendicular_potential(
            stack, stack.cutoff_zc)
        assert z[0, -1] == 0.0 == z[1, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("breakpoints", [(0.0, 0.23, 40.0), (-2.0, -1.0, 0.0, 0.23, 40.0)])
    def test_mesh_must_end_its_first_element_on_the_surface(self, breakpoints):
        # the first element's row is set to the barrier, so it must be the
        # whole of the neon side of z = 0
        with pytest.raises(ValueError, match="z = 0"):
            cached_perpendicular_potential(DielectricStack(SC, 10.0), spectral_mesh(breakpoints))

    def test_memo_miss_sums_the_series_once_and_a_hit_never(self, monkeypatch):
        # the benchmark tracer counts a cached call without a nested
        # perpendicular_potential call as a hit; spy on the same module global
        calls = []
        series = neontrap.dielectric.perpendicular_potential

        def spy(*args, **kwargs):
            calls.append(args)
            return series(*args, **kwargs)

        monkeypatch.setattr(neontrap.dielectric, "perpendicular_potential", spy)
        neontrap.dielectric._cached_field_free.cache_clear()
        stack = DielectricStack(Dielectric(12.0), 7.0)
        grid = solver_mesh(stack)
        miss = cached_perpendicular_potential(stack, grid)
        assert len(calls) == 1
        hit = cached_perpendicular_potential(stack, grid)
        assert len(calls) == 1
        np.testing.assert_array_equal(hit, miss)
        # every field of the same layer hits the field-free entry
        for e_ex in (1e6, -2e6):
            field_stack = replace(stack, e_ex=e_ex)
            hit = cached_perpendicular_potential(field_stack, grid)
            assert len(calls) == 1
            np.testing.assert_array_equal(hit, miss + external_potential(field_stack, grid.nodes))

    def test_memo_hit_builds_no_stack(self, monkeypatch):
        # the key is read off the stack: a hit runs none of its checks
        stack = DielectricStack(SC, 7.5, e_ex=1e6)
        grid = solver_mesh(stack)
        cached_perpendicular_potential(stack, grid)
        potential_derivative(stack, grid)
        built = []
        check = DielectricStack.__post_init__
        monkeypatch.setattr(DielectricStack, "__post_init__",
                            lambda self: built.append(self) or check(self))
        cached_perpendicular_potential(stack, grid)
        potential_derivative(stack, grid)
        assert built == []

    def test_stack_carries_the_barrier_and_cutoff(self):
        stack = DielectricStack(SC, 10.0, barrier_height=650.0, cutoff_zc=0.25)
        grid = solver_mesh(stack)
        assert grid.breakpoints[2] == 0.25
        got = cached_perpendicular_potential(stack, grid)
        np.testing.assert_array_equal(got[0], 650.0)  # the neon element
        assert got[1, 0] == perpendicular_potential(stack, 0.25)

    @pytest.mark.parametrize("surface", [{"barrier_height": 650.0}, {"cutoff_zc": 0.25}])
    def test_memo_keeps_stacks_with_another_surface_apart(self, surface):
        # both stacks on one mesh: only the stack's surface fields tell the
        # memo entries apart
        base, other = DielectricStack(SC, 10.0), DielectricStack(SC, 10.0, **surface)
        grid = solver_mesh(base)
        first = cached_perpendicular_potential(base, grid)
        got = cached_perpendicular_potential(other, grid)
        neontrap.dielectric._cached_field_free.cache_clear()
        np.testing.assert_array_equal(got, cached_perpendicular_potential(other, grid))
        np.testing.assert_array_equal(first, cached_perpendicular_potential(base, grid))
        assert not np.array_equal(first, got)

    def test_inside_neon_is_barrier(self):
        stack = DielectricStack(SC, 10.0)
        got = total_perpendicular_potential(stack, -1.0)
        assert got == pytest.approx(stack.barrier_height, rel=1e-12)

    def test_zero_field_reduces_to_image_potential(self):
        stack = DielectricStack(SC, 10.0)
        got = total_perpendicular_potential(stack, 5.0)
        assert got == pytest.approx(perpendicular_potential(stack, 5.0), rel=1e-12)

    def test_bulk_value(self):
        stack = DielectricStack(SC, math.inf)
        got = total_perpendicular_potential(stack, 1.0)
        assert got == pytest.approx(-39.14, abs=0.01)

    def test_field_term_added_above_cutoff(self):
        stack = DielectricStack(SC, 10.0, e_ex=1e6)
        got = total_perpendicular_potential(stack, 5.0)
        expected = perpendicular_potential(stack, 5.0) \
            + external_potential(stack, 5.0)
        assert got == pytest.approx(expected, rel=1e-12)


DERIVATIVE_CASES = [(substrate, L, e_ex) for substrate in (SC, Dielectric(12.0))
                    for L in (1.2, 2.5, 10.0) for e_ex in (-1e6, 0.0, 1e6)]


class TestPotentialDerivative:
    @pytest.mark.parametrize("substrate, L, e_ex", DERIVATIVE_CASES)
    def test_matches_central_difference(self, substrate, L, e_ex):
        # on one mesh, wall at -1 nm, so every node keeps its z as L moves
        grid = solver_mesh(DielectricStack(substrate, 1.0))
        h = 1e-4
        v = [cached_perpendicular_potential(DielectricStack(substrate, L + d, e_ex=e_ex), grid)
             for d in (h, -h)]
        got = potential_derivative(DielectricStack(substrate, L, e_ex=e_ex), grid)
        assert got.shape == grid.nodes.shape
        np.testing.assert_allclose(got, (v[0] - v[1]) / (2.0 * h), rtol=1e-6, atol=1e-9)

    def test_neon_takes_only_the_field(self):
        # the surface node is the field's slope below z = 0 and the clamped
        # image's above it
        stack = DielectricStack(SC, 10.0, e_ex=1e6)
        grid = solver_mesh(stack)
        got = potential_derivative(stack, grid)
        field = 1e6 * 1e-6 / stack.eps_neon
        np.testing.assert_array_equal(got[0], field)
        image = potential_derivative(DielectricStack(SC, 10.0), grid)[1, -1]
        assert grid.nodes[1, -1] == stack.cutoff_zc and got[1, 0] == got[1, -1] == image + field

    def test_fields_share_the_field_free_entry(self):
        stack = DielectricStack(Dielectric(12.0), 6.0)
        grid = solver_mesh(stack)
        base = potential_derivative(stack, grid)
        for e_ex in (1e6, -2e6):
            np.testing.assert_array_equal(potential_derivative(replace(stack, e_ex=e_ex), grid),
                                          base + e_ex * 1e-6 / stack.eps_neon)
