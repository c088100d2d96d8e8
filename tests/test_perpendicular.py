"""1D spectral-element eigensolver against analytic oracles and the
finite-difference oracle, the electron-on-neon observables W^G, h_e and the
excitation gap, and the certified tridiagonal kernel of the radial solver."""

import math

import numpy as np
import pytest
import scipy.linalg

import neontrap.perpendicular as perpendicular
from fd_oracle import fd_levels, richardson_levels, stack_hamiltonian, uniform_hamiltonian
from neontrap import (DEFAULT_CONSTANTS, DielectricStack, FieldSpec, SpectralMesh,
                      Superconductor, UnboundStateError, build_hamiltonian,
                      ground_state_energy, hellmann_feynman_check, mean_height,
                      perpendicular_gap, perpendicular_potential, solve_lowest,
                      solve_perpendicular, solver_mesh, total_perpendicular_potential)
from neontrap.dielectric import Dielectric, cached_perpendicular_potential
from neontrap.perpendicular import lowest_eigenpairs

C = DEFAULT_CONSTANTS.hbar2_over_2me
# 1D hydrogen oracle: V = -A/z with a hard wall at z = 0.
# E_n = -A^2 / (4 C n^2), psi_1 ~ z exp(-z/a) with a = 2C/A, <z> = 3a/2.
A_H = 719.982 * 0.108734
E1_H = -A_H ** 2 / (4.0 * C)
A_BOHR = 2.0 * C / A_H
HYDROGEN_MESH = (0.0, 1.0, 3.0, 9.0, 27.0, 80.0)
OSCILLATOR_MESH = tuple(np.linspace(-60.0, 60.0, 9))

SC = Superconductor()


def _case_id(case):
    substrate, L, e_ex, n_states = case
    return ("eps12-" if substrate != SC else "") + f"{L}-{e_ex}-{n_states}"


def _hydrogen(z):
    # the wall node's value never enters the Hamiltonian
    return -A_H / np.where(z > 0.0, z, np.inf)


def _oscillator(z, hw=1.0):
    return hw * hw * z * z / (4.0 * C)


def _solve(vfun, breakpoints, n_states, degree=perpendicular.DEGREE):
    grid = SpectralMesh(tuple(breakpoints), degree)
    return solve_lowest(build_hamiltonian(vfun(grid.nodes), grid), grid, n_states)


class TestAnalyticOracles:
    def test_particle_in_a_box(self):
        width = 10.0
        sol = _solve(np.zeros_like, (0.0, width), 3)
        for n, e in enumerate(sol.energies, start=1):
            assert e == pytest.approx(n * n * math.pi ** 2 * C / width ** 2, rel=1e-4)

    def test_one_dimensional_hydrogen_ground_state(self):
        sol = _solve(_hydrogen, HYDROGEN_MESH, 2)
        assert sol.energies[0] == pytest.approx(E1_H, abs=0.1)
        assert sol.energies[0] == pytest.approx(-40.22, abs=0.1)

    def test_hydrogen_series_and_gap(self):
        sol = _solve(_hydrogen, HYDROGEN_MESH, 2)
        assert sol.energies[1] == pytest.approx(E1_H / 4.0, abs=0.1)
        assert perpendicular_gap(sol) == pytest.approx(-E1_H * 0.75, abs=0.1)
        assert perpendicular_gap(sol) == pytest.approx(30.16, abs=0.1)

    def test_hydrogen_mean_height(self):
        sol = _solve(_hydrogen, HYDROGEN_MESH, 1)
        assert mean_height(sol) == pytest.approx(1.5 * A_BOHR, abs=0.01)
        assert mean_height(sol) == pytest.approx(1.460, abs=0.01)

    def test_harmonic_ladder(self):
        sol = _solve(_oscillator, OSCILLATOR_MESH, 5)
        for n, e in enumerate(sol.energies):
            assert e == pytest.approx(n + 0.5, abs=1e-3)

    def test_harmonic_gap_is_hbar_omega(self):
        sol = _solve(_oscillator, OSCILLATOR_MESH, 2)
        assert perpendicular_gap(sol) == pytest.approx(1.0, abs=1e-3)

    def test_constant_shift_moves_spectrum_rigidly(self):
        base = _solve(np.zeros_like, (0.0, 5.0, 10.0), 3)
        shifted = _solve(lambda z: np.full_like(z, 7.5), (0.0, 5.0, 10.0), 3)
        assert np.allclose(shifted.energies - base.energies, 7.5, atol=1e-8)

    def test_symmetric_box_mean_position_is_zero(self):
        sol = _solve(np.zeros_like, (-5.0, 0.0, 5.0), 1)
        assert mean_height(sol) == pytest.approx(0.0, abs=1e-8)

    def test_box_converges_spectrally_in_degree(self):
        # the second level's error falls by >= 100x from degree 8 to 16
        exact = 4.0 * math.pi ** 2 * C / 100.0
        err = [abs(_solve(np.zeros_like, (0.0, 10.0), 2, degree).energies[1] - exact)
               for degree in (8, 16)]
        assert err[1] <= 1e-9 and err[0] >= 100.0 * err[1]


class TestSolverContracts:
    def test_normalization(self):
        sol = _solve(_hydrogen, HYDROGEN_MESH, 3)
        for psi in sol.wavefunctions:
            assert np.sum(sol.grid.mass * psi ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self):
        sol = _solve(_hydrogen, HYDROGEN_MESH, 2)
        overlap = np.sum(sol.grid.mass * sol.wavefunctions[0] * sol.wavefunctions[1])
        assert abs(overlap) <= 1e-8

    def test_node_counts(self):
        sol = _solve(_oscillator, OSCILLATOR_MESH, 5)
        assert all(sol.converged)

    def test_energies_strictly_ascending(self):
        sol = _solve(_hydrogen, HYDROGEN_MESH, 4)
        assert np.all(np.diff(sol.energies) > 0.0)

    def test_nonfinite_potential_names_offender(self):
        grid = SpectralMesh((0.0, 5.0, 10.0))
        with pytest.raises(ValueError, match=r"non-finite potential sample at z = 5\.0 nm"):
            build_hamiltonian(np.where(grid.nodes == 5.0, np.inf, 0.0), grid)

    def test_n_states_bounds(self):
        grid = SpectralMesh((0.0, 10.0))
        hamiltonian = build_hamiltonian(np.zeros_like(grid.nodes), grid)
        with pytest.raises(ValueError):
            solve_lowest(hamiltonian, grid, 11)

    @pytest.mark.parametrize("breakpoints", [(0.0,), (0.0, 5.0, 5.0, 10.0), (10.0, 0.0)])
    def test_unordered_breakpoints_rejected(self, breakpoints):
        with pytest.raises(ValueError, match="ascend"):
            SpectralMesh(breakpoints)


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
        # degree 24 on the same breakpoints moves W^G by eigensolver rounding only
        stack, field = DielectricStack(SC, 10.0), FieldSpec(1e6)
        mesh = solver_mesh(stack)
        fine = SpectralMesh(mesh.breakpoints, 24)
        v = cached_perpendicular_potential(stack, field, fine)
        w_fine = solve_lowest(build_hamiltonian(v, fine), fine, 2).energies
        w = solve_perpendicular(stack, field, n_states=2).energies
        np.testing.assert_allclose(w, w_fine, rtol=0.0, atol=5e-8)

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
        v_min = perpendicular_potential(stack, DEFAULT_CONSTANTS.cutoff_zc)
        assert v_min < sol.energies[0] < 0.0


# (substrate, L, e_ex, n_states) checked against the finite-difference oracle;
# ten states only at the fields that push the upper states onto a wall
ORACLE_CASES = (
    [(sub, L, e, n) for sub in (SC, Dielectric(12.0)) for n in (1, 2)
     for L in (1.0, 2.0, 3.0, 10.0, 200.0) for e in (-1e6, 0.0, 1e6)]
    + [(sub, math.inf, 0.0, n) for sub in (SC, Dielectric(12.0)) for n in (1, 2)]
    + [(sub, L, e, 10) for sub in (SC, Dielectric(12.0)) for L in (2.0, 10.0, 200.0)
       for e in (-1e6, 1e6)])


class TestFiniteDifferenceOracle:
    """The spectral-element levels against Richardson-extrapolated finite differences."""

    @pytest.mark.parametrize("substrate, L, e_ex, n_states", ORACLE_CASES,
                             ids=[_case_id(c) for c in ORACLE_CASES])
    def test_levels_match_richardson(self, substrate, L, e_ex, n_states):
        stack, field = DielectricStack(substrate, L), FieldSpec(e_ex)
        sol = solve_perpendicular(stack, field, n_states=n_states)
        assert all(sol.converged)
        oracle = richardson_levels(stack, field, max(n_states, 2))[:n_states]
        np.testing.assert_allclose(sol.energies, oracle, rtol=0.0, atol=1e-5)

    def test_finite_differences_converge_at_second_order(self):
        # the oracle itself: halving h cuts its error 4x against the spectral level
        stack, field = DielectricStack(SC, 10.0), FieldSpec(0.0)
        w = solve_perpendicular(stack, field).energies[0]
        err = [fd_levels(stack, field, n, 1)[0] - w for n in (4200, 8400)]
        assert 3.9 <= err[0] / err[1] <= 4.1


class TestHellmannFeynman:
    def test_residual_small(self):
        res = hellmann_feynman_check(DielectricStack(SC, 10.0), FieldSpec(0.0), 1e4)
        assert res <= 1e-3

    def test_residual_small_at_finite_field(self):
        res = hellmann_feynman_check(DielectricStack(SC, 10.0), FieldSpec(5e5), 1e4)
        assert res <= 1e-3

    def test_residual_small_when_wall_meets_substrate(self):
        # at L = 1 nm the lower wall is the substrate, z = -L
        stack = DielectricStack(SC, 1.0)
        assert solver_mesh(stack).points[0] == -1.0
        assert hellmann_feynman_check(stack, FieldSpec(0.0), 1e4) <= 1e-3

    def test_unbound_endpoint_flagged(self):
        with pytest.raises(UnboundStateError):
            hellmann_feynman_check(DielectricStack(SC, 10.0), FieldSpec(-4.9e6), 2e5)


class TestSolverMesh:
    def test_breakpoints_on_surface_and_cutoff(self):
        g = solver_mesh(DielectricStack(SC, 10.0))
        assert g.breakpoints[1:3] == (0.0, DEFAULT_CONSTANTS.cutoff_zc)
        assert {0.0, DEFAULT_CONSTANTS.cutoff_zc} <= set(g.points)

    def test_bounds_preserved(self):
        g = solver_mesh(DielectricStack(SC, 10.0), 40.0)
        assert g.points[-1] == 40.0
        assert g.points[0] == -2.0

    def test_seven_elements_of_degree_16(self):
        g = solver_mesh(DielectricStack(SC, 10.0))
        assert g.nodes.shape == (7, 17) and g.n_points == 113
        assert np.all(np.diff(g.points) > 0.0)

    def test_built_once_per_wall_cutoff_and_height(self):
        assert solver_mesh(DielectricStack(SC, 10.0)) is solver_mesh(DielectricStack(SC, 30.0))
        assert solver_mesh(DielectricStack(SC, 1.0)) != solver_mesh(DielectricStack(SC, 10.0))
        assert hash(solver_mesh(DielectricStack(SC, 1.5))) == hash(SpectralMesh(
            solver_mesh(DielectricStack(SC, 1.5)).breakpoints))


class TestSolverPotential:
    @pytest.mark.parametrize("L, e_ex", [(10.0, 1e6), (math.inf, 0.0)])
    def test_hamiltonian_diagonal_is_total_potential(self, monkeypatch, L, e_ex):
        # the solver's Hamiltonian holds the public potential at every node;
        # the surface node z = 0 weighs the barrier below and V(z_c) above
        # with the masses of their own elements
        stack, field = DielectricStack(SC, L), FieldSpec(e_ex)
        grid = solver_mesh(stack)
        seen = {}

        def capture(hamiltonian, grid, n_states):
            seen["h"], seen["grid"] = hamiltonian, grid
            return solve_lowest(hamiltonian, grid, n_states)

        monkeypatch.setattr(perpendicular, "solve_lowest", capture)
        solve_perpendicular(stack, field)
        assert seen["grid"] is grid and seen["h"].shape == (111, 111)
        z = grid.points[1:-1]
        expected = total_perpendicular_potential(stack, field, z)
        below, above = grid.weights[0, -1], grid.weights[1, 0]
        step = DEFAULT_CONSTANTS.barrier_height - perpendicular_potential(
            stack, DEFAULT_CONSTANTS.cutoff_zc)
        expected[z == 0.0] += step * below / (below + above)
        kinetic = C * np.diag(grid.stiffness)
        np.testing.assert_allclose(np.diag(seen["h"]) - kinetic, expected, rtol=0.0, atol=1e-8)


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


def _restricted_size(n: int) -> int:
    """Unknowns of the matrix restricted to every COARSE_FACTOR-th of n unknowns."""
    return (n + 1) // perpendicular.COARSE_FACTOR - 1


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


class TestLowestEigenpairs:
    """The certified Rayleigh-quotient kernel against LAPACK bisection as the oracle,
    on finite-difference matrices of the perpendicular problem (8190 unknowns)."""

    @pytest.mark.parametrize("substrate, L, e_ex, n_states", REFINED_CASES,
                             ids=[_case_id(c) for c in REFINED_CASES])
    def test_refined_pairs_match_bisection(self, monkeypatch, substrate, L, e_ex, n_states):
        # the -2e6 V/m states lean on the outer wall, so the restricted matrix
        # must keep its walls where the full one has them
        diag, off, _ = stack_hamiltonian(DielectricStack(substrate, L), FieldSpec(e_ex), 8191)
        w_ref, v_ref = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                                     select_range=(0, n_states - 1))
        calls = _bisection_calls(monkeypatch)
        w, v = lowest_eigenpairs(diag, off, n_states)
        # only the matrix restricted to every 8th unknown is bisected; the
        # full solve is certified
        assert calls == [_restricted_size(diag.size)]
        np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=2e-9)
        assert np.all(np.abs(np.sum(v * v_ref, axis=0)) >= 1.0 - 1e-10)

    def test_excited_guess_falls_back_to_bisection(self, monkeypatch):
        # RQI from the first excited state converges to it; the Sturm
        # certificate then finds an eigenvalue below and rejects it
        diag, off, _ = stack_hamiltonian(DielectricStack(SC, 10.0), FieldSpec(0.0), 8191)
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
        diag, off, _ = stack_hamiltonian(DielectricStack(SC, 10.0), FieldSpec(0.0), 8191)
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
        diag, off, _ = stack_hamiltonian(DielectricStack(SC, 10.0), FieldSpec(0.0), 8191)
        w_ref, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
        mixed = np.column_stack([v[:, 0], v[:, 0] + 0.5 * v[:, 1]])
        monkeypatch.setattr(perpendicular, "_restricted_start", lambda d, e, n: mixed)
        calls = _bisection_calls(monkeypatch)
        w, _ = lowest_eigenpairs(diag, off, 2)
        assert calls == []
        np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=2e-9)

    def test_oscillator_ladder_from_coarse_guess(self, monkeypatch):
        z_coarse = np.linspace(-60.0, 60.0, 1024)[1:-1]
        z_fine = np.linspace(-60.0, 60.0, 8185)[1:-1]
        _, vc = lowest_eigenpairs(*uniform_hamiltonian(_oscillator(z_coarse), 120.0 / 1023), 5)
        guess = np.column_stack([np.interp(z_fine, z_coarse, u) for u in vc.T])
        monkeypatch.setattr(perpendicular, "_restricted_start", lambda d, e, n: guess)
        calls = _bisection_calls(monkeypatch)
        w, v = lowest_eigenpairs(*uniform_hamiltonian(_oscillator(z_fine), 120.0 / 8184), 5)
        assert calls == []
        assert [perpendicular._count_nodes(u) for u in v.T] == list(range(5))
        for n, e in enumerate(w):
            assert e == pytest.approx(n + 0.5, abs=1e-3)

    @pytest.mark.parametrize("n_points", [4801, 4806])
    def test_restricted_matrix_keeps_the_outer_wall(self, monkeypatch, n_points):
        # the kernel bisects the operator on the grid of spacing
        # 8 h that ends at the same outer wall; 4806 points leave 5 unknowns
        # over, which shift only the lower wall
        z_min, z_max = 0.0, 40.0
        spacing = (z_max - z_min) / (n_points - 1)
        pot = lambda z: 0.01 * z * z
        matrices = []
        original = scipy.linalg.eigh_tridiagonal

        def spy(diag, offdiag, **kwargs):
            matrices.append((diag, offdiag))
            return original(diag, offdiag, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        interior = np.linspace(z_min, z_max, n_points)[1:-1]
        lowest_eigenpairs(*uniform_hamiltonian(pot(interior), spacing), 1)
        (diag, off), = matrices
        h = perpendicular.COARSE_FACTOR * spacing
        z = z_max - h * np.arange(diag.size, 0, -1)
        assert diag.size == 599 and z[0] - h >= z_min - 1e-12
        np.testing.assert_allclose(off, -C / h ** 2, rtol=1e-12)
        np.testing.assert_allclose(diag, 2.0 * C / h ** 2 + pot(z), rtol=0.0, atol=1e-9)

    def test_recursion_bisects_only_the_coarsest_matrix(self, monkeypatch):
        # 65535 unknowns restrict to 8191 and those to 1023, which alone are bisected
        diag, off, _ = stack_hamiltonian(DielectricStack(SC, 10.0), FieldSpec(-1e6), 65536)
        w_ref, v_ref = _bisection(diag, off, 2)
        calls = _bisection_calls(monkeypatch)
        w, v = lowest_eigenpairs(diag, off, 2)
        assert calls == [1023]
        # bisection itself is accurate to about eps ||T|| = 8e-8 meV at this spacing
        np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-7)
        assert np.all(np.sum(v * v_ref, axis=0) >= 1.0 - 1e-10)

    def test_guess_below_500_coarse_points_is_skipped(self, monkeypatch):
        # 2998 unknowns would restrict to 373
        diag, off, _ = stack_hamiltonian(DielectricStack(SC, 10.0), FieldSpec(0.0), 2999)
        calls = _bisection_calls(monkeypatch)
        lowest_eigenpairs(diag, off, 1)
        assert calls == [2998]

    def test_lapack_failure_is_eigensolver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(perpendicular.EigensolverError, match="injected"):
            lowest_eigenpairs(np.full(600, 2.0), np.full(599, -1.0), 1)

    def test_dense_lapack_failure_is_eigensolver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(perpendicular.EigensolverError, match="injected"):
            solve_perpendicular(DielectricStack(SC, 10.0))
