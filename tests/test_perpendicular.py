"""1D spectral-element eigensolver against analytic oracles and the
finite-difference oracle, the electron-on-neon observables W^G, h_e and the
excitation gap."""

import math

import numpy as np
import pytest
import scipy.linalg

import neontrap.lateral
import neontrap.perpendicular as perpendicular
from fd_oracle import fd_levels, hellmann_feynman_check, richardson_levels
from neontrap import (BoundStateSolution, DielectricStack, SpectralMesh, Superconductor,
                      UnboundStateError, WarmStart, build_hamiltonian,
                      ground_state_energy, mean_height,
                      perpendicular_gap, perpendicular_potential, solve_lowest,
                      solve_perpendicular, solver_mesh, total_perpendicular_potential)
from neontrap.constants import CUTOFF_ZC, HBAR2_OVER_2ME
from neontrap.dielectric import Dielectric, cached_perpendicular_potential
from neontrap.lateral import pillar_breakpoints
from neontrap.perpendicular import spectral_mesh

C = HBAR2_OVER_2ME
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
    def test_radial_tail_density_weighs_rho(self):
        # psi^2 = 2.5e-7 /nm next to the wall at rho = 100 nm is below the
        # threshold, but the radial density rho psi^2 = 2.5e-5 /nm is above it
        psi = np.full((1, spectral_mesh((0.0, 50.0, 100.0)).n_points), 5e-4)
        psi[0, -1] = 0.0
        for radial, bound in ((False, True), (True, False)):
            grid = spectral_mesh((0.0, 50.0, 100.0), radial=radial)
            sol = BoundStateSolution(np.zeros(1), psi, grid)
            assert sol.is_bound() is bound
            want = np.max((grid.points if radial else 1.0) * psi[0] ** 2)
            assert sol.tail_density() == pytest.approx(want, rel=1e-15)

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

    def test_node_count_of_every_row_at_once(self):
        def one_row(psi):  # sign changes, ignoring amplitudes 1e-10 below the peak
            s = np.sign(np.where(np.abs(psi) > 1e-10 * np.max(np.abs(psi)), psi, 0.0))
            s = s[s != 0.0]
            return int(np.count_nonzero(s[1:] != s[:-1]))

        rng = np.random.default_rng(1)
        rows = rng.standard_normal((6, 40)) * 10.0 ** rng.integers(-14, 1, (6, 40))
        rows[4] = 0.0
        rows[5, ::2] = 0.0
        states = _solve(_oscillator, OSCILLATOR_MESH, 10).wavefunctions
        for psi in (rows, states):
            assert perpendicular._count_nodes(psi).tolist() == [one_row(p) for p in psi]

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

    def test_radial_mesh_starts_on_the_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SpectralMesh((1.0, 10.0), radial=True)

    def test_radial_mass_integrates_rho(self):
        grid = SpectralMesh((0.0, 3.0, 10.0), radial=True)
        assert grid.mass[0] == 0.0
        assert np.sum(grid.mass) == pytest.approx(50.0, rel=1e-14)
        assert np.sum(grid.mass * grid.points ** 2) == pytest.approx(2500.0, rel=1e-14)

    def test_dense_lapack_failure_is_eigensolver_error(self, monkeypatch):
        _fail_lapack(monkeypatch, "dsyevr")
        with pytest.raises(perpendicular.EigensolverError, match="dsyevr failed with info = 1"):
            solve_perpendicular(DielectricStack(SC, 10.0))

    def test_gll_lapack_failure_is_eigensolver_error(self, monkeypatch):
        _fail_lapack(monkeypatch, "dstevd")
        with pytest.raises(perpendicular.EigensolverError, match="dstevd failed with info = 1"):
            perpendicular._gll.__wrapped__(perpendicular.DEGREE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        h, grid = _hamiltonian(DielectricStack(SC, 10.0))
        h[5, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_lowest(h, grid, 1)


def _fail_lapack(monkeypatch, name):
    """Make perpendicular's LAPACK routine `name` return its results with info = 1."""
    routine = getattr(perpendicular.lapack, name)
    monkeypatch.setattr(perpendicular.lapack, name,
                        lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1))


def _evr_oracle(h, grid, n_states):
    """scipy.linalg.eigh's evr eigenpairs, signed and scaled as solve_lowest's states."""
    w, y = scipy.linalg.eigh(h, subset_by_index=[0, n_states - 1], driver="evr")
    y[:, y[np.argmax(np.abs(y), axis=0), np.arange(n_states)] < 0.0] *= -1.0
    return w, y.T / np.sqrt(grid.mass[1:-1])


def _radial_matrices(monkeypatch):
    """The alpha = 0 (axis condensed) and alpha = 1 matrices of one pillar-mesh radial_spectrum."""
    seen = []

    def capture(hamiltonian, grid, n_states, start=None):
        seen.append((hamiltonian.copy(), grid))
        return solve_lowest(hamiltonian, grid, n_states, start)

    monkeypatch.setattr(neontrap.lateral, "solve_lowest", capture)
    neontrap.lateral.radial_spectrum(lambda rho: _oscillator(rho, 0.027),
                                     breakpoints=pillar_breakpoints(110.0, 2.0, 330.0))
    return seen


class TestDenseOracle:
    """The dense solve against scipy.linalg.eigh's evr solve, bit for bit."""

    @pytest.mark.parametrize("n_states", [1, 2, 10])
    # the bulk stack takes no external field
    @pytest.mark.parametrize("L, e_ex", [(1.0, 0.0), (1.0, 1e6), (10.0, 0.0), (10.0, 1e6),
                                         (math.inf, 0.0)])
    def test_perpendicular(self, L, e_ex, n_states):
        h, grid = _hamiltonian(DielectricStack(SC, L, e_ex=e_ex))
        self._check(h, grid, n_states)

    @pytest.mark.parametrize("n_states", [1, 2, 10])
    @pytest.mark.parametrize("alpha", [0, 1])
    def test_radial(self, monkeypatch, alpha, n_states):
        matrices = _radial_matrices(monkeypatch)
        assert len(matrices) == 2
        h, grid = matrices[alpha]
        assert grid.radial and h.shape == (127, 127)
        self._check(h, grid, n_states)

    @staticmethod
    def _check(h, grid, n_states):
        w, psi = _evr_oracle(h, grid, n_states)
        sol = solve_lowest(h, grid, n_states)
        assert np.array_equal(sol.energies, w)
        assert np.array_equal(sol.wavefunctions[:, 1:-1], psi)
        assert not np.any(sol.wavefunctions[:, [0, -1]])

    @pytest.mark.parametrize("degree", [16, 24])
    def test_gll_nodes(self, degree):
        k = np.arange(1, degree - 1)
        beta = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
        inner = scipy.linalg.eigvalsh_tridiagonal(np.zeros(degree - 1), beta)
        assert np.array_equal(perpendicular._gll.__wrapped__(degree)[0][1:-1], inner)


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
        stack = DielectricStack(SC, 10.0, e_ex=1e6)
        mesh = solver_mesh(stack)
        fine = SpectralMesh(mesh.breakpoints, 24)
        v = cached_perpendicular_potential(stack, fine)
        w_fine = solve_lowest(build_hamiltonian(v, fine), fine, 2).energies
        w = solve_perpendicular(stack, n_states=2).energies
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
        heights = [mean_height(solve_perpendicular(DielectricStack(SC, 10.0, e_ex=e)))
                   for e in (-1e6, 0.0, 1e6)]
        spread = (max(heights) - min(heights)) / heights[1]
        assert spread <= 0.20

    def test_strong_negative_field_flagged_unbound(self):
        with pytest.raises(UnboundStateError):
            ground_state_energy(DielectricStack(SC, 10.0, e_ex=-5e6))

    def test_ground_state_between_minimum_and_zero(self):
        stack = DielectricStack(SC, 10.0)
        sol = solve_perpendicular(stack, n_states=1)
        v_min = perpendicular_potential(stack, stack.cutoff_zc)
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
        stack = DielectricStack(substrate, L, e_ex=e_ex)
        sol = solve_perpendicular(stack, n_states=n_states)
        assert all(sol.converged)
        oracle = richardson_levels(stack, max(n_states, 2))[:n_states]
        np.testing.assert_allclose(sol.energies, oracle, rtol=0.0, atol=1e-5)

    def test_finite_differences_converge_at_second_order(self):
        # the oracle itself: halving h cuts its error 4x against the spectral level
        stack = DielectricStack(SC, 10.0)
        w = solve_perpendicular(stack).energies[0]
        err = [fd_levels(stack, n, 1)[0] - w for n in (4200, 8400)]
        assert 3.9 <= err[0] / err[1] <= 4.1


class TestHellmannFeynman:
    def test_residual_small(self):
        res = hellmann_feynman_check(DielectricStack(SC, 10.0), 1e4)
        assert res <= 1e-3

    def test_residual_small_at_finite_field(self):
        res = hellmann_feynman_check(DielectricStack(SC, 10.0, e_ex=5e5), 1e4)
        assert res <= 1e-3

    def test_residual_small_when_wall_meets_substrate(self):
        # at L = 1 nm the lower wall is the substrate, z = -L
        stack = DielectricStack(SC, 1.0)
        assert solver_mesh(stack).points[0] == -1.0
        assert hellmann_feynman_check(stack, 1e4) <= 1e-3

    def test_unbound_endpoint_flagged(self):
        with pytest.raises(UnboundStateError):
            hellmann_feynman_check(DielectricStack(SC, 10.0, e_ex=-4.9e6), 2e5)


# the bulk stack takes no external field
DEGREE_CASES = [(substrate, L, e_ex) for substrate in (SC, Dielectric(12.0))
                for L in (1.0, 1.5, 2.0, 10.0, 200.0, math.inf) for e_ex in (-1e6, 0.0, 1e6)
                if math.isfinite(L) or e_ex == 0.0]


class TestSolverMesh:
    def test_breakpoints_on_surface_and_cutoff(self):
        g = solver_mesh(DielectricStack(SC, 10.0))
        assert g.breakpoints[1:3] == (0.0, CUTOFF_ZC)
        assert {0.0, CUTOFF_ZC} <= set(g.points)

    def test_bounds_preserved(self):
        g = solver_mesh(DielectricStack(SC, 10.0), 40.0)
        assert g.points[-1] == 40.0
        assert g.points[0] == -2.0

    def test_seven_elements_of_degree_13(self):
        g = solver_mesh(DielectricStack(SC, 10.0))
        assert g.degree == perpendicular.PERPENDICULAR_DEGREE == 13
        assert g.nodes.shape == (7, 14) and g.n_points == 92
        assert np.all(np.diff(g.points) > 0.0)

    def test_built_once_per_wall_cutoff_and_height(self):
        assert solver_mesh(DielectricStack(SC, 10.0)) is solver_mesh(DielectricStack(SC, 30.0))
        assert solver_mesh(DielectricStack(SC, 1.0)) != solver_mesh(DielectricStack(SC, 10.0))
        assert hash(solver_mesh(DielectricStack(SC, 1.5))) == hash(SpectralMesh(
            solver_mesh(DielectricStack(SC, 1.5)).breakpoints, 13))

    @pytest.mark.parametrize("substrate, L, e_ex", DEGREE_CASES,
                             ids=[_case_id((*case, 2)) for case in DEGREE_CASES])
    def test_degree_converged_against_degree_24(self, substrate, L, e_ex):
        # measured over 1-200 nm and inf, |E_ex| <= 2e6 V/m, three substrates:
        # |dE| <= 5.5e-9 meV, |dh_e| <= 1.7e-11 nm, every node check passed
        stack = DielectricStack(substrate, L, e_ex=e_ex)
        sol = solve_perpendicular(stack, n_states=2)
        fine = spectral_mesh(sol.grid.breakpoints, degree=24)
        v = cached_perpendicular_potential(stack, fine)
        ref = solve_lowest(build_hamiltonian(v, fine), fine, 2)
        assert sol.converged == [True, True]
        np.testing.assert_allclose(sol.energies, ref.energies, rtol=0.0, atol=2e-8)
        assert mean_height(sol) == pytest.approx(mean_height(ref), rel=0.0, abs=1e-9)


BAND_MESHES = {
    "perpendicular": lambda: solver_mesh(DielectricStack(SC, 10.0)),
    "radial": lambda: spectral_mesh(pillar_breakpoints(110.0, 2.0, 330.0), radial=True),
    "one_element": lambda: spectral_mesh((0.0, 10.0)),
}


def _oscillator_matrix(grid, hw):
    """Oscillator matrix on grid; on a radial mesh alpha = 0, the axis condensed out."""
    h = build_hamiltonian(_oscillator(grid.nodes, hw), grid)
    return h - C * np.outer(grid.axis, grid.axis) if grid.radial else h


class TestBandLayout:
    @pytest.mark.parametrize("name", BAND_MESHES)
    def test_band_holds_the_hamiltonian(self, name):
        grid = BAND_MESHES[name]()
        h = _oscillator_matrix(grid, 0.1)
        n, p = h.shape[0], grid.degree
        # LAPACK band storage: slot (k, j) holds A[j + k - p, j]
        row = np.arange(n) + np.arange(-p, p + 1)[:, None]
        col = np.broadcast_to(np.arange(n), row.shape)
        assert grid.band.shape == (2 * p + 1, n)
        assert np.array_equal(grid.outside, (row < 0) | (row >= n))
        inside = ~grid.outside
        band = h.take(grid.band)
        assert np.array_equal(band[inside], h[row[inside], col[inside]])
        # the band holds every entry of the matrix
        rebuilt = np.zeros_like(h)
        rebuilt[row[inside], col[inside]] = band[inside]
        assert np.array_equal(rebuilt, h)

    def test_radial_start_is_refined_and_certified(self, monkeypatch):
        grid = spectral_mesh(tuple(np.linspace(0.0, 600.0, 7)), radial=True)
        start = solve_lowest(_oscillator_matrix(grid, 0.026), grid, 1)
        h = _oscillator_matrix(grid, 0.027)
        dense = solve_lowest(h, grid, 1)
        calls = _spy_lapack(monkeypatch)
        sol = solve_lowest(h, grid, 1, start=start)
        names = [name for name, _ in calls]
        assert "dsyevr" not in names and "dgbsv" in names
        assert [c for c in calls if c[0] == "dpbtrf"] == [("dpbtrf", 0)]
        assert abs(sol.energies[0] - dense.energies[0]) <= 1e-9
        # the overlap is off by about (RQI_TOL / gap)^2, gap 2 hw = 0.054 meV;
        # measured 2.3e-11 at RQI_TOL = 1e-6 meV, rounding level at 1e-9 meV
        assert _overlap(sol, dense) >= 1.0 - 1e-9


class TestSolverPotential:
    @pytest.mark.parametrize("L, e_ex", [(10.0, 1e6), (math.inf, 0.0)])
    def test_hamiltonian_diagonal_is_total_potential(self, monkeypatch, L, e_ex):
        # the solver's Hamiltonian holds the public potential at every node;
        # the surface node z = 0 weighs the barrier below and V(z_c) above
        # with the masses of their own elements
        stack = DielectricStack(SC, L, e_ex=e_ex)
        grid = solver_mesh(stack)
        seen = {}

        def capture(hamiltonian, grid, n_states, start=None):
            seen["h"], seen["grid"] = hamiltonian, grid
            return solve_lowest(hamiltonian, grid, n_states, start)

        monkeypatch.setattr(perpendicular, "solve_lowest", capture)
        solve_perpendicular(stack)
        assert seen["grid"] is grid and seen["h"].shape == (90, 90)
        z = grid.points[1:-1]
        expected = total_perpendicular_potential(stack, z)
        below, above = grid.weights[0, -1], grid.weights[1, 0]
        step = stack.barrier_height - perpendicular_potential(
            stack, stack.cutoff_zc)
        expected[z == 0.0] += step * below / (below + above)
        kinetic = C * np.diag(grid.stiffness)
        np.testing.assert_allclose(np.diag(seen["h"]) - kinetic, expected, rtol=0.0, atol=1e-8)


def _chain(l_range):
    """Thicknesses in the order build_energy_curve solves them: 9 Lobatto nodes, 8 held out."""
    lo, hi = l_range
    mid, half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)
    nodes = np.exp(mid - half * np.cos(np.pi * np.arange(9) / 8))
    held = np.exp(mid - half * np.cos(np.pi * np.arange(1, 16, 2) / 16))
    return [lo, *nodes[1:-1], hi, *held]


def _overlap(a, b):
    return float(np.sum(a.grid.mass * a.wavefunctions[0] * b.wavefunctions[0]))


def _hamiltonian(stack):
    grid = solver_mesh(stack)
    return build_hamiltonian(cached_perpendicular_potential(stack, grid), grid), grid


def _spy_lapack(monkeypatch):
    """Record (routine, info) of every dense and banded LAPACK call of the solver."""
    calls = []

    def spy(name):
        fn = getattr(perpendicular.lapack, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, out[-1]))  # each routine returns info last
            return out
        monkeypatch.setattr(perpendicular.lapack, name, wrapper)

    for name in ("dsyevr", "dgbsv", "dpbtrf"):
        spy(name)
    return calls


WARM_CASES = [(sub, l_range, e) for sub in (SC, Dielectric(12.0))
              for l_range in ((8.5, 10.5), (1.9, 3.5)) for e in (-1e6, 0.0, 1e6, 2e6)]


class TestWarmStart:
    """The refined, certified ground state against the dense evr solve as oracle."""

    @pytest.mark.parametrize("substrate, l_range, e_ex", WARM_CASES,
                             ids=[_case_id((s, f"{r[0]}-{r[1]}", e, 1))
                                  for s, r, e in WARM_CASES])
    def test_chain_matches_dense(self, monkeypatch, substrate, l_range, e_ex):
        calls = _spy_lapack(monkeypatch)
        sol, previous, cold = None, None, 0
        for L in _chain(l_range):
            stack = DielectricStack(substrate, L, e_ex=e_ex)
            first = len(calls)
            sol = solve_perpendicular(stack, start=sol)
            solve_calls = calls[first:]
            h, grid = _hamiltonian(stack)
            dense = solve_lowest(h, grid, 1)
            if grid != previous:
                # no start on this mesh: the dense solve itself
                cold += 1
                assert solve_calls == [("dsyevr", 0)]
                assert np.array_equal(sol.energies, dense.energies)
                assert np.array_equal(sol.wavefunctions, dense.wavefunctions)
            else:
                # refined by at least one step, and certified
                names = [name for name, _ in solve_calls]
                assert "dsyevr" not in names and "dgbsv" in names
                assert [c for c in solve_calls if c[0] == "dpbtrf"] == [("dpbtrf", 0)]
            assert abs(sol.energies[0] - dense.energies[0]) <= 1e-9
            assert _overlap(sol, dense) >= 1.0 - 1e-12
            assert sol.converged == [True]
            previous = grid
        # below 2 nm the wall sits at -L: 1.9, 1.945 and 1.911 nm each get their
        # own mesh, and 2.078 and 2.0 nm return to the -2 nm wall
        assert cold == (1 if l_range[0] >= 2.0 else 5)

    def test_holder_chains_ground_state_energy(self, monkeypatch):
        # ground_state_energy returns a float, so its chain runs through the holder
        warm = WarmStart()
        first = ground_state_energy(DielectricStack(SC, 9.8), warm=warm)
        assert warm.state.energies[0] == first
        held = warm.state
        calls = _spy_lapack(monkeypatch)
        energy = ground_state_energy(DielectricStack(SC, 10.0), warm=warm)
        assert "dsyevr" not in [name for name, _ in calls]
        sol = solve_perpendicular(DielectricStack(SC, 10.0), start=held)
        assert warm.state is not held and warm.state.energies[0] == energy == sol.energies[0]

    def test_excited_start_is_rejected(self, monkeypatch):
        stack = DielectricStack(SC, 10.0)
        h, grid = _hamiltonian(stack)
        both = solve_lowest(h, grid, 2)
        excited = BoundStateSolution(both.energies[1:], both.wavefunctions[1:], grid, [True])
        calls = _spy_lapack(monkeypatch)
        sol = solve_lowest(h, grid, 1, start=excited)
        # the refinement stays on the excited state, and the certificate refuses it
        assert [c for c in calls if c[0] == "dpbtrf"] and all(
            info > 0 for name, info in calls if name == "dpbtrf")
        dense = solve_lowest(h, grid, 1)
        assert np.array_equal(sol.energies, dense.energies)
        assert np.array_equal(sol.wavefunctions, dense.wavefunctions)

    def test_failed_certificate_falls_back_to_dense(self, monkeypatch):
        start = solve_perpendicular(DielectricStack(SC, 9.8))
        h, grid = _hamiltonian(DielectricStack(SC, 10.0))
        dense = solve_lowest(h, grid, 1)
        _fail_lapack(monkeypatch, "dpbtrf")
        sol = solve_lowest(h, grid, 1, start=start)
        assert np.array_equal(sol.energies, dense.energies)
        assert np.array_equal(sol.wavefunctions, dense.wavefunctions)

    def test_two_states_never_take_the_banded_path(self, monkeypatch):
        start = solve_perpendicular(DielectricStack(SC, 9.8))
        h, grid = _hamiltonian(DielectricStack(SC, 10.0))
        dense = solve_lowest(h, grid, 2)
        calls = _spy_lapack(monkeypatch)
        sol = solve_lowest(h, grid, 2, start=start)
        assert [name for name, _ in calls] == ["dsyevr"]
        assert np.array_equal(sol.energies, dense.energies)
        assert np.array_equal(sol.wavefunctions, dense.wavefunctions)
