"""1D eigensolver against analytic oracles, plus the electron-on-neon
observables W^G, h_e and the excitation gap."""

import math

import numpy as np
import pytest
import scipy.linalg

import neontrap.perpendicular as perpendicular
from neontrap import (DEFAULT_CONSTANTS, DielectricStack, FieldSpec,
                      Superconductor, UnboundStateError, build_hamiltonian,
                      ground_state_energy, hellmann_feynman_check, mean_height,
                      perpendicular_gap, solve_lowest, solve_perpendicular,
                      total_perpendicular_potential)
from neontrap.dielectric import Dielectric, cached_perpendicular_potential
from neontrap.perpendicular import Grid1D, default_grid, lowest_eigenpairs

C = DEFAULT_CONSTANTS.hbar2_over_2me
# 1D hydrogen oracle: V = -A/z with a hard wall at z = 0.
# E_n = -A^2 / (4 C n^2), psi_1 ~ z exp(-z/a) with a = 2C/A, <z> = 3a/2.
A_H = 719.982 * 0.108734
E1_H = -A_H ** 2 / (4.0 * C)
A_BOHR = 2.0 * C / A_H

SC = Superconductor()


def _solve(vfun, z_min, z_max, n, n_states):
    grid = Grid1D(z_min, z_max, n)
    diag, off = build_hamiltonian(vfun(grid.interior), grid)
    return solve_lowest(diag, off, grid, n_states)


class TestAnalyticOracles:
    def test_particle_in_a_box(self):
        width = 10.0
        sol = _solve(lambda z: np.zeros_like(z), 0.0, width, 4000, 3)
        for n, e in enumerate(sol.energies, start=1):
            assert e == pytest.approx(n * n * math.pi ** 2 * C / width ** 2, rel=1e-4)

    def test_one_dimensional_hydrogen_ground_state(self):
        sol = _solve(lambda z: -A_H / z, 0.0, 80.0, 16384, 2)
        assert sol.energies[0] == pytest.approx(E1_H, abs=0.1)
        assert sol.energies[0] == pytest.approx(-40.22, abs=0.1)

    def test_hydrogen_series_and_gap(self):
        sol = _solve(lambda z: -A_H / z, 0.0, 80.0, 16384, 2)
        assert sol.energies[1] == pytest.approx(E1_H / 4.0, abs=0.1)
        assert perpendicular_gap(sol) == pytest.approx(-E1_H * 0.75, abs=0.1)
        assert perpendicular_gap(sol) == pytest.approx(30.16, abs=0.1)

    def test_hydrogen_mean_height(self):
        sol = _solve(lambda z: -A_H / z, 0.0, 80.0, 16384, 1)
        assert mean_height(sol) == pytest.approx(1.5 * A_BOHR, abs=0.01)
        assert mean_height(sol) == pytest.approx(1.460, abs=0.01)

    def test_harmonic_ladder(self):
        hw = 1.0  # meV
        sol = _solve(lambda z: hw * hw * z * z / (4.0 * C), -60.0, 60.0, 8192, 5)
        for n, e in enumerate(sol.energies):
            assert e == pytest.approx((n + 0.5) * hw, abs=1e-3)

    def test_harmonic_gap_is_hbar_omega(self):
        hw = 1.0
        sol = _solve(lambda z: hw * hw * z * z / (4.0 * C), -60.0, 60.0, 8192, 2)
        assert perpendicular_gap(sol) == pytest.approx(hw, abs=1e-3)

    def test_constant_shift_moves_spectrum_rigidly(self):
        base = _solve(lambda z: np.zeros_like(z), 0.0, 10.0, 2000, 3)
        shifted = _solve(lambda z: np.full_like(z, 7.5), 0.0, 10.0, 2000, 3)
        assert np.allclose(shifted.energies - base.energies, 7.5, atol=1e-8)

    def test_symmetric_box_mean_position_is_zero(self):
        sol = _solve(lambda z: np.zeros_like(z), -5.0, 5.0, 2000, 1)
        assert mean_height(sol) == pytest.approx(0.0, abs=1e-8)


class TestSolverContracts:
    def test_normalization(self):
        sol = _solve(lambda z: -A_H / z, 0.0, 80.0, 8192, 3)
        h = sol.grid.spacing
        for psi in sol.wavefunctions:
            assert np.sum(psi ** 2) * h == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self):
        sol = _solve(lambda z: -A_H / z, 0.0, 80.0, 8192, 2)
        h = sol.grid.spacing
        overlap = np.sum(sol.wavefunctions[0] * sol.wavefunctions[1]) * h
        assert abs(overlap) <= 1e-8

    def test_node_counts(self):
        hw = 1.0
        sol = _solve(lambda z: hw * hw * z * z / (4.0 * C), -60.0, 60.0, 8192, 5)
        assert all(sol.converged)

    def test_energies_strictly_ascending(self):
        sol = _solve(lambda z: -A_H / z, 0.0, 80.0, 8192, 4)
        assert np.all(np.diff(sol.energies) > 0.0)

    def test_nonfinite_potential_names_offender(self):
        grid = Grid1D(0.0, 10.0, 1000)
        with pytest.raises(ValueError, match="non-finite"):
            build_hamiltonian(np.where(grid.interior > 5.0, np.inf, 0.0), grid)

    def test_n_states_bounds(self):
        grid = Grid1D(0.0, 10.0, 1000)
        diag, off = build_hamiltonian(np.zeros_like(grid.interior), grid)
        with pytest.raises(ValueError):
            solve_lowest(diag, off, grid, 11)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 10.0, 100)


class TestNeonConfigurations:
    def test_thin_layer_superconductor(self):
        sol = solve_perpendicular(DielectricStack(SC, 10.0), n_states=2)
        assert sol.energies[0] == pytest.approx(-44.6, abs=1.0)
        assert perpendicular_gap(sol) == pytest.approx(21.1, abs=1.0)
        assert mean_height(sol) == pytest.approx(1.7, abs=0.2)

    def test_bulk_superconductor(self):
        assert ground_state_energy(DielectricStack(SC, math.inf)) \
            == pytest.approx(-15.7, abs=0.5)

    def test_monotone_in_thickness(self):
        energies = [ground_state_energy(DielectricStack(SC, L))
                    for L in (3.0, 5.0, 10.0, 20.0, 50.0, math.inf)]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_grid_convergence(self):
        stack = DielectricStack(SC, 10.0)
        w1 = ground_state_energy(stack, grid=default_grid(stack, n_points=8192))
        w2 = ground_state_energy(stack, grid=default_grid(stack, n_points=16384))
        assert abs(w1 - w2) <= 0.05

    def test_barrier_penetration_length(self):
        sol = solve_perpendicular(DielectricStack(SC, 10.0), n_states=1)
        z = sol.grid.points
        dens = sol.wavefunctions[0] ** 2
        # density e-folding inside the barrier: fit log-density slope
        mask = (z < -0.05) & (z > -0.45) & (dens > 0.0)
        slope = np.polyfit(z[mask], np.log(dens[mask]), 1)[0]
        assert 0.08 <= 1.0 / slope <= 0.13

    def test_mean_height_robust_under_field(self):
        stack = DielectricStack(SC, 10.0)
        heights = [mean_height(solve_perpendicular(stack, FieldSpec(e)))
                   for e in (-1e6, 0.0, 1e6)]
        spread = (max(heights) - min(heights)) / heights[1]
        assert spread <= 0.20

    def test_strong_negative_field_flagged_unbound(self):
        with pytest.raises(UnboundStateError):
            ground_state_energy(DielectricStack(SC, 10.0), FieldSpec(-5e6))

    def test_ground_state_between_minimum_and_zero(self):
        stack = DielectricStack(SC, 10.0)
        sol = solve_perpendicular(stack, n_states=1)
        from neontrap import perpendicular_potential
        v_min = perpendicular_potential(stack, DEFAULT_CONSTANTS.cutoff_zc)
        assert v_min < sol.energies[0] < 0.0


class TestHellmannFeynman:
    def test_residual_small(self):
        res = hellmann_feynman_check(DielectricStack(SC, 10.0), FieldSpec(0.0), 1e4)
        assert res <= 1e-3

    def test_residual_small_at_finite_field(self):
        res = hellmann_feynman_check(DielectricStack(SC, 10.0), FieldSpec(5e5), 1e4)
        assert res <= 1e-3

    def test_residual_small_when_wall_meets_substrate(self):
        # at L = 1 nm the aligned lower wall lies just below -L
        stack = DielectricStack(SC, 1.0)
        assert default_grid(stack).z_min < -1.0
        assert hellmann_feynman_check(stack, FieldSpec(0.0), 1e4) <= 1e-3

    def test_unbound_endpoint_flagged(self):
        with pytest.raises(UnboundStateError):
            hellmann_feynman_check(DielectricStack(SC, 10.0), FieldSpec(-4.9e6), 2e5)


class TestDefaultGrid:
    def test_surface_node_present(self):
        g = default_grid(DielectricStack(SC, 10.0), 40.0, 8192)
        assert np.min(np.abs(g.points)) < 1e-12

    def test_bounds_preserved(self):
        g = default_grid(DielectricStack(SC, 10.0), 40.0, 8192)
        assert g.z_max == 40.0
        assert g.z_min == pytest.approx(-2.0, abs=0.01)


class TestSolverPotential:
    @pytest.mark.parametrize("L, e_ex", [(10.0, 1e6), (math.inf, 0.0)])
    def test_hamiltonian_diagonal_is_total_potential(self, monkeypatch, L, e_ex):
        # the solver's Hamiltonian holds the public potential at every node,
        # the surface node z = 0 included
        stack, field = DielectricStack(SC, L), FieldSpec(e_ex)
        grid = default_grid(stack)
        seen = {}

        def capture(diag, offdiag, grid, n_states):
            seen["diag"], seen["grid"] = diag, grid
            return solve_lowest(diag, offdiag, grid, n_states)

        monkeypatch.setattr(perpendicular, "solve_lowest", capture)
        solve_perpendicular(stack, field, grid=grid)
        assert seen["grid"] is grid and seen["diag"].shape == grid.interior.shape
        kinetic = 2.0 * C / grid.spacing ** 2
        expected = total_perpendicular_potential(stack, field, grid.interior)
        assert np.min(np.abs(grid.interior)) < 1e-12
        np.testing.assert_allclose(seen["diag"] - kinetic, expected, rtol=0.0, atol=1e-8)


def _bisection_calls(monkeypatch) -> list:
    """Matrix sizes of every eigh_tridiagonal (bisection) call from now on."""
    calls = []
    original = scipy.linalg.eigh_tridiagonal

    def spy(diag, offdiag, **kwargs):
        calls.append(diag.size)
        return original(diag, offdiag, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    return calls


def _bisection(diag, offdiag, n_states):
    """eigh_tridiagonal's lowest pairs in lowest_eigenpairs' norm and sign convention."""
    w, v = scipy.linalg.eigh_tridiagonal(diag, offdiag, select="i",
                                         select_range=(0, n_states - 1))
    v = v / np.linalg.norm(v, axis=0)
    v[:, v[np.argmax(np.abs(v), axis=0), np.arange(n_states)] < 0.0] *= -1.0
    return w, v


THICKNESSES = (1.0, 2.0, 10.0, 200.0)
# (substrate, L, e_ex, n_states); the superconductor cases keep their ids
# "L-e_ex-n_states", the e_b = 12 ones are prefixed "eps12"
REFINED_CASES = (
    [(SC, L, e, n) for n in (1, 2) for L in THICKNESSES for e in (-2e6, 0.0, 1e6)]
    + [(SC, math.inf, 0.0, n) for n in (1, 2)]
    + [(SC, L, -1e6, n) for n in (1, 2) for L in THICKNESSES]
    + [(SC, L, e, 3) for L in THICKNESSES for e in (-2e6, -1e6)]
    + [(Dielectric(12.0), L, e, n) for n in (1, 2, 3) for L in THICKNESSES
       for e in (-2e6, -1e6)])


def _case_id(case):
    substrate, L, e_ex, n_states = case
    return ("eps12-" if substrate != SC else "") + f"{L}-{e_ex}-{n_states}"


class TestLowestEigenpairs:
    """The certified Rayleigh-quotient path against LAPACK bisection as the oracle."""

    @pytest.mark.parametrize("substrate, L, e_ex, n_states", REFINED_CASES,
                             ids=[_case_id(c) for c in REFINED_CASES])
    def test_refined_pairs_match_bisection(self, monkeypatch, substrate, L, e_ex, n_states):
        # the -2e6 V/m states lean on the outer wall, so the restricted matrix
        # must keep its walls where the full one has them
        stack, field = DielectricStack(substrate, L), FieldSpec(e_ex)
        grid = default_grid(stack)
        diag, off = build_hamiltonian(cached_perpendicular_potential(stack, field, grid), grid)
        w_ref, v_ref = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                                     select_range=(0, n_states - 1))
        calls = _bisection_calls(monkeypatch)
        sol = solve_perpendicular(stack, field, n_states=n_states, grid=grid)
        # only the matrix restricted to every 8th unknown is bisected; the
        # full solve is certified
        assert calls == [(grid.n_points - 1) // perpendicular.COARSE_FACTOR - 1]
        np.testing.assert_allclose(sol.energies, w_ref, rtol=0.0, atol=2e-9)
        psi = sol.wavefunctions[:, 1:-1] * math.sqrt(grid.spacing)
        assert np.all(np.abs(np.sum(psi * v_ref.T, axis=1)) >= 1.0 - 1e-10)

    def test_excited_guess_falls_back_to_bisection(self, monkeypatch):
        # RQI from the first excited state converges to it; the Sturm
        # certificate then finds an eigenvalue below and rejects it
        stack = DielectricStack(SC, 10.0)
        grid = default_grid(stack)
        diag, off = build_hamiltonian(cached_perpendicular_potential(stack, FieldSpec(0.0), grid),
                                      grid)
        _, excited = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(1, 1))
        monkeypatch.setattr(perpendicular, "_restricted_start", lambda d, e, n: excited)
        calls = _bisection_calls(monkeypatch)
        w, v = lowest_eigenpairs(diag, off, 1)
        assert calls == [diag.size]
        w_bisect, v_bisect = _bisection(diag, off, 1)
        np.testing.assert_array_equal(w, w_bisect)
        np.testing.assert_array_equal(v, v_bisect)

    def test_skipped_state_falls_back_to_bisection(self, monkeypatch):
        # guesses for states 0 and 2: both converge and T - (E_0 - delta) I is
        # positive definite, but the count finds E_1 inside (E_0 - delta, E_2 + delta]
        stack = DielectricStack(SC, 10.0)
        grid = default_grid(stack)
        diag, off = build_hamiltonian(cached_perpendicular_potential(stack, FieldSpec(0.0), grid),
                                      grid)
        _, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
        monkeypatch.setattr(perpendicular, "_restricted_start", lambda d, e, n: v[:, [0, 2]])
        calls = _bisection_calls(monkeypatch)
        w, vec = lowest_eigenpairs(diag, off, 2)
        assert calls == [diag.size]
        w_bisect, v_bisect = _bisection(diag, off, 2)
        np.testing.assert_array_equal(w, w_bisect)
        np.testing.assert_array_equal(vec, v_bisect)

    def test_deflation_separates_mixed_guess(self, monkeypatch):
        # a state-1 guess dominated by the ground state still yields state 1,
        # because each guess is deflated against the states already found
        stack = DielectricStack(SC, 10.0)
        grid = default_grid(stack)
        diag, off = build_hamiltonian(cached_perpendicular_potential(stack, FieldSpec(0.0), grid),
                                      grid)
        w_ref, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
        mixed = np.column_stack([v[:, 0], v[:, 0] + 0.5 * v[:, 1]])
        monkeypatch.setattr(perpendicular, "_restricted_start", lambda d, e, n: mixed)
        calls = _bisection_calls(monkeypatch)
        w, _ = lowest_eigenpairs(diag, off, 2)
        assert calls == []
        np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=2e-9)

    def test_oscillator_ladder_from_coarse_guess(self, monkeypatch):
        hw = 1.0
        pot = lambda z: hw * hw * z * z / (4.0 * C)
        coarse, fine = Grid1D(-60.0, 60.0, 1024), Grid1D(-60.0, 60.0, 8185)
        _, vc = lowest_eigenpairs(*build_hamiltonian(pot(coarse.interior), coarse), 5)
        guess = np.column_stack([np.interp(fine.interior, coarse.interior, u) for u in vc.T])
        monkeypatch.setattr(perpendicular, "_restricted_start", lambda d, e, n: guess)
        calls = _bisection_calls(monkeypatch)
        w, v = lowest_eigenpairs(*build_hamiltonian(pot(fine.interior), fine), 5)
        assert calls == []
        assert [perpendicular._count_nodes(u) for u in v.T] == list(range(5))
        for n, e in enumerate(w):
            assert e == pytest.approx((n + 0.5) * hw, abs=1e-3)

    @pytest.mark.parametrize("n_points", [4801, 4806])
    def test_restricted_matrix_keeps_the_outer_wall(self, monkeypatch, n_points):
        # the kernel bisects the operator on the grid of spacing
        # 8 h that ends at the same outer wall; 4806 points leave 5 unknowns
        # over, which shift only the lower wall
        grid = Grid1D(0.0, 40.0, n_points)
        pot = lambda z: 0.01 * z * z
        matrices = []
        original = scipy.linalg.eigh_tridiagonal

        def spy(diag, offdiag, **kwargs):
            matrices.append((diag, offdiag))
            return original(diag, offdiag, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        lowest_eigenpairs(*build_hamiltonian(pot(grid.interior), grid), 1)
        (diag, off), = matrices
        h = perpendicular.COARSE_FACTOR * grid.spacing
        z = grid.z_max - h * np.arange(diag.size, 0, -1)
        assert diag.size == 599 and z[0] - h >= grid.z_min - 1e-12
        np.testing.assert_allclose(off, -C / h ** 2, rtol=1e-12)
        np.testing.assert_allclose(diag, 2.0 * C / h ** 2 + pot(z), rtol=0.0, atol=1e-9)

    def test_recursion_bisects_only_the_coarsest_matrix(self, monkeypatch):
        # 65535 unknowns restrict to 8191 and those to 1023, which alone are
        # bisected; the potential is looked up once, on the solver's grid
        stack, field = DielectricStack(SC, 10.0), FieldSpec(-1e6)
        grid = default_grid(stack, n_points=65537)
        diag, off = build_hamiltonian(cached_perpendicular_potential(stack, field, grid), grid)
        w_ref, v_ref = _bisection(diag, off, 2)
        lookups = []
        original = perpendicular.cached_perpendicular_potential

        def spy(stack, field, grid, **kwargs):
            lookups.append(grid)
            return original(stack, field, grid, **kwargs)

        monkeypatch.setattr(perpendicular, "cached_perpendicular_potential", spy)
        calls = _bisection_calls(monkeypatch)
        sol = solve_perpendicular(stack, field, n_states=2, grid=grid)
        assert calls == [1023]
        assert lookups == [grid]
        # bisection itself is accurate to about eps ||T|| = 8e-8 meV at this spacing
        np.testing.assert_allclose(sol.energies, w_ref, rtol=0.0, atol=1e-7)
        psi = sol.wavefunctions[:, 1:-1] * math.sqrt(grid.spacing)
        assert np.all(np.sum(psi * v_ref.T, axis=1) >= 1.0 - 1e-10)

    def test_guess_below_500_coarse_points_is_skipped(self, monkeypatch):
        stack = DielectricStack(SC, 10.0)
        grid = default_grid(stack, n_points=3000)  # coarse grid would have 375 points
        calls = _bisection_calls(monkeypatch)
        solve_perpendicular(stack, grid=grid)
        assert calls == [grid.n_points - 2]

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(perpendicular.EigensolverError, match="injected"):
            lowest_eigenpairs(np.full(600, 2.0), np.full(599, -1.0), 1)
