"""Perpendicular bound states of the electron above the neon surface.

Discretizes -(hbar^2/2m_e) d^2/dz^2 + V(z) on a uniform grid with hard
walls at both ends and extracts the lowest eigenpairs of the resulting
symmetric tridiagonal operator.  The kernel, lowest_eigenpairs, restricts
the matrix to every 8th unknown, solves that smaller problem the same way,
and refines the interpolated states by Rayleigh-quotient iteration,
certified by Sturm (inertia) counts; LAPACK bisection + inverse iteration
solves the coarsest matrix and any problem whose certificate fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .dielectric import (DielectricStack, FieldSpec, cached_perpendicular_potential,
                         external_potential)


class UnboundStateError(RuntimeError):
    """The requested configuration does not hold a (quasi-)bound ground state."""


class EigensolverError(RuntimeError):
    """Tridiagonal eigensolver failed to converge."""


# Fraction of the grid near z_max used for the escaping-tail detector, and
# the probability-density threshold (1/nm) that flags a quasi-bound state.
TAIL_FRACTION = 0.02
TAIL_DENSITY_THRESHOLD = 1e-6
MIN_GRID_POINTS = 500  # fewest points of a solver grid and of a restricted matrix


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with Dirichlet (hard-wall) boundary values at both ends."""

    z_min: float
    z_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"n_points must be >= {MIN_GRID_POINTS}, got {self.n_points}")
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be below z_max")

    @property
    def spacing(self) -> float:
        return (self.z_max - self.z_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_points)

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]


def default_grid(stack: DielectricStack, z_max: float = 40.0,
                 n_points: int = 8192) -> Grid1D:
    """Solver grid: hard wall near max(-L, -2 nm) below, z_max above.

    The lower wall leaves room for the ~0.1 nm barrier penetration; 40 nm
    leaves negligible tail density for all bound configurations.  The lower
    wall is shifted by about half a spacing at most so that a node sits
    exactly at the neon surface (z = 0), unless the layer is too thin to
    hold a node: the potential steps there from the Pauli barrier to the
    clamped image value, and a node at the step (its value is the two-sided
    average) restores second-order convergence of the eigenvalues.
    """
    z_min = max(-stack.thickness_L, -2.0)
    k = round(-z_min / ((z_max - z_min) / (n_points - 1)))
    if k < 1 or k >= n_points - 1:
        return Grid1D(z_min, z_max, n_points)
    h = z_max / (n_points - 1 - k)
    return Grid1D(-k * h, z_max, n_points)


def build_hamiltonian(potential, grid: Grid1D, *,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Symmetric tridiagonal Hamiltonian (diag, offdiag) on the interior points.

    potential holds V in meV at grid.interior.  Second-order central
    differences for the kinetic term; the Dirichlet boundary rows are
    eliminated.
    """
    z = grid.interior
    v = np.asarray(potential, dtype=float)
    if v.shape != z.shape:
        raise ValueError("potential must hold one value per interior point")
    if not np.all(np.isfinite(v)):
        bad = z[~np.isfinite(v)][0]
        raise ValueError(f"non-finite potential sample at z = {bad} nm")
    c = constants.hbar2_over_2me / grid.spacing ** 2
    diag = 2.0 * c + v
    offdiag = np.full(z.size - 1, -c)
    return diag, offdiag


@dataclass
class BoundStateSolution:
    """Lowest eigenpairs on a Grid1D.

    energies are in meV, ascending; wavefunctions are real, L2-normalized
    (sum |psi|^2 * spacing = 1) and include the boundary zeros.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray  # shape (n_states, grid.n_points)
    grid: Grid1D
    converged: list = dc_field(default_factory=list)

    def tail_density(self) -> float:
        """Peak ground-state probability density near the outer wall (1/nm)."""
        return tail_density(self.wavefunctions[0, 1:-1])

    def is_bound(self) -> bool:
        return is_confined(self.wavefunctions[0, 1:-1])


def tail_density(psi: np.ndarray) -> float:
    """Peak of psi^2 over the last TAIL_FRACTION of the unknowns, next to the outer wall."""
    n_tail = max(2, int(TAIL_FRACTION * psi.size))
    return float(np.max(psi[-n_tail:] ** 2))


def is_confined(psi: np.ndarray) -> bool:
    """False if the state psi (psi^2 a density in 1/nm) leaks to the outer wall."""
    return tail_density(psi) < TAIL_DENSITY_THRESHOLD


def _count_nodes(psi: np.ndarray) -> int:
    # ignore amplitudes at rounding level relative to the state's peak
    scale = np.max(np.abs(psi))
    s = np.sign(np.where(np.abs(psi) > 1e-10 * scale, psi, 0.0))
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


COARSE_FACTOR = 8  # unknowns of T per unknown of the restricted matrix that supplies the start
RQI_MAX_ITER = 8
RESIDUAL_TOL_EPS = 64.0  # RQI stops at a residual of 64 eps ||T||
CERTIFICATE_MARGIN_MEV = 1e-7  # smallest delta of the Sturm certificate


def lowest_eigenpairs(diag: np.ndarray, offdiag: np.ndarray,
                      n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_states eigenpairs of the symmetric tridiagonal matrix T = (diag, offdiag).

    Returns ascending eigenvalues and unit-norm eigenvectors (columns), each
    signed so that its largest-magnitude entry is positive.  The start
    vectors come from T restricted to every COARSE_FACTOR-th unknown (see
    _restricted_start).  Each state is then refined by Rayleigh-quotient
    iteration, deflated against the states below it, and the set is kept
    only if Sturm counts prove it is the lowest: T - (E_0 - delta) I is
    positive definite and exactly n_states eigenvalues lie in
    (E_0 - delta, E_last + delta], with
    delta = max(2 max residual, CERTIFICATE_MARGIN_MEV).  When the
    restriction would hold fewer than MIN_GRID_POINTS unknowns, or the
    iteration or the certificate fails, LAPACK bisection + inverse
    iteration solves T.
    """
    guess = _restricted_start(diag, offdiag, n_states)
    pairs = None if guess is None else _refine(diag, offdiag, guess)
    if pairs is None:
        try:
            pairs = scipy.linalg.eigh_tridiagonal(
                diag, offdiag, select="i", select_range=(0, n_states - 1))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    w, v = pairs
    v = v / np.linalg.norm(v, axis=0)
    v[:, v[np.argmax(np.abs(v), axis=0), np.arange(n_states)] < 0.0] *= -1.0
    return np.asarray(w, dtype=float), v


def _restricted_start(diag, offdiag, n_states):
    """Start vectors from T restricted to every COARSE_FACTOR-th unknown (None if too small).

    The coarse unknowns sit f apart, the last one f below the outer wall
    (index diag.size), so both hard walls stay walls; the (diag.size + 1) mod f
    unknowns left over move the lower wall up.  Each coarse coupling is the
    mean fine coupling over its f intervals divided by f^2, the wall
    couplings taken equal to their neighbours, and each coarse row keeps the
    fine row sum (the potential) at its unknown.  lowest_eigenpairs solves
    the restricted matrix; its states are interpolated back linearly, zero
    at both walls.
    """
    f, n = COARSE_FACTOR, diag.size
    nodes = np.arange((n + 1) % f - 1, n + 1, f)  # lower wall, coarse unknowns, outer wall
    if nodes.size - 2 < MIN_GRID_POINTS:
        return None
    index = nodes[1:-1]
    e = np.concatenate(([offdiag[0]], offdiag, [offdiag[-1]]))  # e[k] couples k - 1 and k
    coupling = e[nodes[0] + 1:].reshape(-1, f).sum(axis=1) / f ** 3
    row_sum = diag[index] + e[index] + e[index + 1]
    _, v = lowest_eigenpairs(row_sum - coupling[:-1] - coupling[1:], coupling[1:-1], n_states)
    psi = np.zeros((nodes.size, n_states))
    psi[1:-1] = v
    return np.column_stack([np.interp(np.arange(n), nodes, p) for p in psi.T])


def _refine(diag, offdiag, guess):
    """Certified RQI eigenpairs from the guess columns, or None."""
    # x^T T x = sum r_i x_i^2 - sum e_i (x_{i+1} - x_i)^2 with row sums r_i:
    # no cancellation between the large kinetic diagonal and offdiagonal
    row_sum = diag.copy()
    row_sum[:-1] += offdiag
    row_sum[1:] += offdiag

    def rayleigh_quotient(x):  # x has unit norm
        return row_sum @ (x * x) - offdiag @ np.diff(x) ** 2

    def residual_norm(x, mu):  # ||(T - mu I) x||, in the same cancellation-free form
        edx = offdiag * np.diff(x)
        y = (row_sum - mu) * x
        y[:-1] += edx
        y[1:] -= edx
        return np.linalg.norm(y)

    def deflate(x):
        for u in vectors:
            x = x - (u @ x) * u
        return x / np.linalg.norm(x)

    tol = RESIDUAL_TOL_EPS * np.finfo(float).eps * (
        np.max(np.abs(diag)) + 2.0 * np.max(np.abs(offdiag)))
    energies, vectors, worst = [], [], 0.0
    for x in np.asarray(guess, dtype=float).T:
        x = deflate(x)
        mu = rayleigh_quotient(x)
        for _ in range(RQI_MAX_ITER):
            *_, y, info = scipy.linalg.lapack.dgtsv(offdiag, diag - mu, offdiag, x[:, None])
            if info != 0:
                return None
            x = deflate(y[:, 0])
            mu = rayleigh_quotient(x)
            residual = residual_norm(x, mu)
            if residual <= tol:
                break
        else:
            return None
        energies.append(mu)
        vectors.append(x)
        worst = max(worst, residual)
    w = np.array(energies)
    if np.any(np.diff(w) <= 0.0):
        return None
    delta = max(2.0 * worst, CERTIFICATE_MARGIN_MEV)
    *_, info = scipy.linalg.lapack.dpttrf(diag - (w[0] - delta), offdiag)
    if info != 0:
        return None
    if w.size > 1:
        lo, hi = w[0] - delta, w[-1] + delta
        # count only: an absolute tolerance as wide as the interval stops bisection at once
        count, *_, info = scipy.linalg.lapack.dstebz(diag, offdiag, 1, lo, hi, 0, 0,
                                                     hi - lo, "E")
        if info != 0 or count != w.size:
            return None
    return w, np.column_stack(vectors)


def solve_lowest(diag: np.ndarray, offdiag: np.ndarray, grid: Grid1D,
                 n_states: int) -> BoundStateSolution:
    """Lowest n_states eigenpairs of the tridiagonal operator, node-count verified."""
    if not 1 <= n_states <= 10:
        raise ValueError("n_states must be between 1 and 10")
    w, v = lowest_eigenpairs(diag, offdiag, n_states)
    psi = np.zeros((n_states, grid.n_points))
    psi[:, 1:-1] = v.T / math.sqrt(grid.spacing)
    converged = [_count_nodes(psi[i, 1:-1]) == i for i in range(n_states)]
    return BoundStateSolution(energies=w, wavefunctions=psi, grid=grid,
                              converged=converged)


def solve_perpendicular(stack: DielectricStack, field: FieldSpec = FieldSpec(0.0), *,
                        n_states: int = 1, grid: Grid1D | None = None,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> BoundStateSolution:
    """Solve the perpendicular problem for the given stack and external field."""
    if grid is None:
        grid = default_grid(stack)
    if not (grid.z_min < constants.cutoff_zc < grid.z_max):
        raise ValueError("grid must straddle the cutoff distance")
    v = cached_perpendicular_potential(stack, field, grid, constants=constants)
    diag, offdiag = build_hamiltonian(v, grid, constants=constants)
    return solve_lowest(diag, offdiag, grid, n_states)


def ground_state_energy(stack: DielectricStack, field: FieldSpec = FieldSpec(0.0), *,
                        grid: Grid1D | None = None,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Ground-state energy W^G(L, E_ex) in meV; raises UnboundStateError if escaping."""
    sol = solve_perpendicular(stack, field, n_states=1, grid=grid, constants=constants)
    if not sol.is_bound():
        raise UnboundStateError(
            f"ground state leaks to the outer wall (tail density "
            f"{sol.tail_density():.2e} 1/nm) for L={stack.thickness_L} nm, "
            f"E_ex={field.e_ex} V/m")
    return float(sol.energies[0])


def mean_height(solution: BoundStateSolution) -> float:
    """Mean electron height h_e = <z> of the ground state, in nm."""
    psi0 = solution.wavefunctions[0]
    return float(np.sum(solution.grid.points * psi0 ** 2) * solution.grid.spacing)


def perpendicular_gap(solution: BoundStateSolution) -> float:
    """Excitation energy E_1 - E_0 in meV."""
    if solution.energies.size < 2:
        raise ValueError("perpendicular_gap needs at least two solved states")
    return float(solution.energies[1] - solution.energies[0])


def hellmann_feynman_check(stack: DielectricStack, field: FieldSpec, delta: float, *,
                           grid: Grid1D | None = None,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Relative residual between dW/dE_ex (central difference) and <psi0| dV/dE |psi0>."""
    sol = solve_perpendicular(stack, field, n_states=1, grid=grid, constants=constants)
    if not sol.is_bound():
        raise UnboundStateError("unbound at the central field point")
    g = sol.grid
    # dV_ex/dE_ex in meV per (V/m); psi vanishes at both walls, and the
    # lower wall may sit just below -L, where the field potential is undefined
    dv = external_potential(FieldSpec(1.0), stack.thickness_L, g.interior,
                            eps_neon=stack.eps_neon)
    expect = float(np.sum(dv * sol.wavefunctions[0, 1:-1] ** 2) * g.spacing)
    w_plus = ground_state_energy(stack, FieldSpec(field.e_ex + delta), grid=g,
                                 constants=constants)
    w_minus = ground_state_energy(stack, FieldSpec(field.e_ex - delta), grid=g,
                                  constants=constants)
    fd = (w_plus - w_minus) / (2.0 * delta)
    return abs(fd - expect) / abs(expect)
