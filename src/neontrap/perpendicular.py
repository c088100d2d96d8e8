"""Perpendicular bound states of the electron above the neon surface.

Solves -(hbar^2/2m_e) psi'' + V psi = E psi with hard walls at both ends by
Gauss-Lobatto-Legendre (GLL) spectral elements (A. T. Patera, J. Comput.
Phys. 54, 468 (1984); Deville, Fischer & Mund, High-Order Methods for
Incompressible Fluid Flow, chs. 2-4).  The element breakpoints sit on the
potential's step at z = 0 and its kink at cutoff_zc, so the potential is
smooth on every element and the eigenvalues converge exponentially in the
degree.  The diagonal GLL mass matrix M turns the weak form into the dense
symmetric matrix M^{-1/2} H M^{-1/2}, of which LAPACK returns the lowest
eigenpairs.

lowest_eigenpairs, the certified tridiagonal kernel of the radial solver,
restricts its matrix to every 8th unknown, solves that smaller problem the
same way, and refines the interpolated states by Rayleigh-quotient
iteration, certified by Sturm (inertia) counts; LAPACK bisection + inverse
iteration solves the coarsest matrix and any problem whose certificate
fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .dielectric import (DielectricStack, FieldSpec, cached_perpendicular_potential,
                         external_potential)


class UnboundStateError(RuntimeError):
    """The requested configuration does not hold a (quasi-)bound ground state."""


class EigensolverError(RuntimeError):
    """LAPACK eigensolver failed to converge."""


# Fraction of the grid's span next to the outer wall used for the
# escaping-tail detector, and the probability-density threshold (1/nm)
# that flags a quasi-bound state.
TAIL_FRACTION = 0.02
TAIL_DENSITY_THRESHOLD = 1e-6
MIN_GRID_POINTS = 500  # fewest points of a radial grid and of a restricted matrix

DEGREE = 16  # polynomial degree on every element of the solver mesh
# relative lengths of the elements from cutoff_zc to z_max: growing by a
# ratio of 3, the last one halved so that it still resolves the tenth state
OUTER_ELEMENTS = (1.0, 3.0, 9.0, 13.5, 13.5)


def _gll(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GLL nodes x on [-1, 1], quadrature weights and differentiation matrix D.

    The interior nodes are the roots of P'_degree, the eigenvalues of the
    Jacobi matrix of the Gauss-Jacobi (1, 1) rule; D[i, j] is the derivative
    of the j-th Lagrange polynomial at x_i.
    """
    k = np.arange(1, degree - 1)
    beta = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    inner = scipy.linalg.eigvalsh_tridiagonal(np.zeros(degree - 1), beta)
    x = np.concatenate(([-1.0], inner, [1.0]))
    p = legendre.legval(x, np.eye(degree + 1)[degree])
    w = 2.0 / (degree * (degree + 1) * p * p)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = p[:, None] / (p[None, :] * dx)
    np.fill_diagonal(d, 0.0)
    d[0, 0], d[-1, -1] = -degree * (degree + 1) / 4.0, degree * (degree + 1) / 4.0
    return x, w, d


@dataclass(frozen=True)
class SpectralMesh:
    """GLL spectral-element mesh with hard walls at both ends.

    Element e spans [breakpoints[e], breakpoints[e + 1]] and carries degree + 1
    GLL nodes; neighbouring elements share their end node.  The derived
    arrays are built once, with the mesh:

    nodes:     (n_elements, degree + 1) node coordinates per element, nm
    weights:   GLL quadrature weights per element node, nm
    index:     global node number of each element node
    points:    the n_points global nodes, walls included
    mass:      diagonal GLL mass matrix on the global nodes, nm
    stiffness: M^{-1/2} K M^{-1/2} on the n_points - 2 unknowns, with
               K[i, j] = integral of phi_i' phi_j' (1/nm^2)
    """

    breakpoints: tuple
    degree: int = DEGREE
    nodes: np.ndarray = dc_field(init=False, repr=False, compare=False)
    weights: np.ndarray = dc_field(init=False, repr=False, compare=False)
    index: np.ndarray = dc_field(init=False, repr=False, compare=False)
    points: np.ndarray = dc_field(init=False, repr=False, compare=False)
    mass: np.ndarray = dc_field(init=False, repr=False, compare=False)
    stiffness: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        if b.size < 2 or not np.all(np.diff(b) > 0.0):
            raise ValueError(f"breakpoints must ascend strictly, got {self.breakpoints}")
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        p = self.degree
        x, w, d = _gll(p)
        jac = 0.5 * np.diff(b)[:, None]
        index = p * np.arange(b.size - 1)[:, None] + np.arange(p + 1)
        n = index[-1, -1] + 1
        weights = jac * w
        points = np.empty(n)
        points[index] = b[:-1, None] + jac * (x + 1.0)
        points[::p] = b  # shared end nodes sit exactly on the breakpoints
        mass = np.bincount(index.ravel(), weights.ravel(), n)
        local = d.T @ (w[:, None] * d)
        k = np.zeros((n, n))
        for e, j in enumerate(jac[:, 0]):
            k[e * p:e * p + p + 1, e * p:e * p + p + 1] += local / j
        s = 1.0 / np.sqrt(mass[1:-1])
        for name, value in (("nodes", points[index]), ("weights", weights), ("index", index),
                            ("points", points), ("mass", mass),
                            ("stiffness", s[:, None] * k[1:-1, 1:-1] * s)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_points(self) -> int:
        return self.points.size


def solver_mesh(stack: DielectricStack, z_max: float = 40.0,
                constants: PhysicalConstants = DEFAULT_CONSTANTS) -> SpectralMesh:
    """Mesh of the perpendicular solve: hard walls at max(-L, -2 nm) and z_max.

    The lower wall leaves room for the ~0.1 nm barrier penetration, and sits
    on the substrate for a layer thinner than 2 nm; 40 nm leaves negligible
    tail density for all bound configurations.  Breakpoints: the wall, the
    surface z = 0, cutoff_zc, then OUTER_ELEMENTS up to z_max.
    """
    return _mesh(max(-stack.thickness_L, -2.0), constants.cutoff_zc, z_max)


@functools.lru_cache(maxsize=16)
def _mesh(z_lo: float, z_c: float, z_max: float) -> SpectralMesh:
    if not z_c < z_max:
        raise ValueError("z_max must exceed the cutoff distance")
    outer = z_c + (z_max - z_c) * np.cumsum(OUTER_ELEMENTS) / sum(OUTER_ELEMENTS)
    outer[-1] = z_max
    return SpectralMesh((z_lo, 0.0, z_c, *map(float, outer)))


def build_hamiltonian(potential, grid: SpectralMesh, *,
                      constants: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Symmetric matrix M^{-1/2} H M^{-1/2} of the weak form on grid's unknowns, meV.

    potential holds V in meV at grid.nodes, each element's values taken from
    inside that element.  The mass matrix M is diagonal, so the potential
    enters as M V at the nodes: a node shared by two elements weighs each
    side's value with its own element's mass, which places a step of V on
    a breakpoint exactly.  Values at the two walls never enter.
    """
    v = np.asarray(potential, dtype=float)
    if v.shape != grid.nodes.shape:
        raise ValueError("potential must hold one value per element node")
    mv = np.bincount(grid.index.ravel(), (grid.weights * v).ravel(), grid.n_points)[1:-1]
    if not np.all(np.isfinite(mv)):
        bad = grid.points[1:-1][~np.isfinite(mv)][0]
        raise ValueError(f"non-finite potential sample at z = {bad} nm")
    h = constants.hbar2_over_2me * grid.stiffness
    h[np.diag_indices_from(h)] += mv / grid.mass[1:-1]
    return h


@dataclass
class BoundStateSolution:
    """Lowest eigenpairs on a SpectralMesh.

    energies are in meV, ascending; wavefunctions hold real nodal values on
    grid.points, the wall zeros included, L2-normalized by GLL quadrature
    (sum grid.mass * psi^2 = 1).
    """

    energies: np.ndarray
    wavefunctions: np.ndarray  # shape (n_states, grid.n_points)
    grid: SpectralMesh
    converged: list = dc_field(default_factory=list)

    def tail_density(self) -> float:
        """Peak ground-state probability density near the outer wall (1/nm)."""
        return tail_density(self.grid.points, self.wavefunctions[0])

    def is_bound(self) -> bool:
        return is_confined(self.grid.points, self.wavefunctions[0])


def tail_density(z: np.ndarray, psi: np.ndarray) -> float:
    """Peak of psi^2 over the nodes z within TAIL_FRACTION * (z[-1] - z[0]) of the last node."""
    near = z >= z[-1] - TAIL_FRACTION * (z[-1] - z[0])
    return float(np.max(psi[near] ** 2))


def is_confined(z: np.ndarray, psi: np.ndarray) -> bool:
    """False if the state psi on the nodes z (psi^2 a density in 1/nm) leaks to the outer wall."""
    return tail_density(z, psi) < TAIL_DENSITY_THRESHOLD


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


def solve_lowest(hamiltonian: np.ndarray, grid: SpectralMesh,
                 n_states: int) -> BoundStateSolution:
    """Lowest n_states eigenpairs of build_hamiltonian's matrix, node-count verified.

    Each state is signed so that its largest-magnitude nodal value is positive.
    """
    if not 1 <= n_states <= 10:
        raise ValueError("n_states must be between 1 and 10")
    try:
        w, y = scipy.linalg.eigh(hamiltonian, subset_by_index=[0, n_states - 1],
                                 driver="evr")
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc
    y[:, y[np.argmax(np.abs(y), axis=0), np.arange(n_states)] < 0.0] *= -1.0
    psi = np.zeros((n_states, grid.n_points))
    psi[:, 1:-1] = y.T / np.sqrt(grid.mass[1:-1])
    converged = [_count_nodes(psi[i, 1:-1]) == i for i in range(n_states)]
    return BoundStateSolution(energies=w, wavefunctions=psi, grid=grid,
                              converged=converged)


def solve_perpendicular(stack: DielectricStack, field: FieldSpec = FieldSpec(0.0), *,
                        n_states: int = 1, z_max: float = 40.0,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> BoundStateSolution:
    """Solve the perpendicular problem for the given stack and external field on solver_mesh."""
    grid = solver_mesh(stack, z_max, constants)
    v = cached_perpendicular_potential(stack, field, grid, constants=constants)
    return solve_lowest(build_hamiltonian(v, grid, constants=constants), grid, n_states)


def ground_state_energy(stack: DielectricStack, field: FieldSpec = FieldSpec(0.0), *,
                        z_max: float = 40.0,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Ground-state energy W^G(L, E_ex) in meV; raises UnboundStateError if escaping."""
    sol = solve_perpendicular(stack, field, n_states=1, z_max=z_max, constants=constants)
    if not sol.is_bound():
        raise UnboundStateError(
            f"ground state leaks to the outer wall (tail density "
            f"{sol.tail_density():.2e} 1/nm) for L={stack.thickness_L} nm, "
            f"E_ex={field.e_ex} V/m")
    return float(sol.energies[0])


def mean_height(solution: BoundStateSolution) -> float:
    """Mean electron height h_e = <z> of the ground state in nm, by GLL quadrature."""
    g = solution.grid
    return float(np.sum(g.mass * g.points * solution.wavefunctions[0] ** 2))


def perpendicular_gap(solution: BoundStateSolution) -> float:
    """Excitation energy E_1 - E_0 in meV."""
    if solution.energies.size < 2:
        raise ValueError("perpendicular_gap needs at least two solved states")
    return float(solution.energies[1] - solution.energies[0])


def hellmann_feynman_check(stack: DielectricStack, field: FieldSpec, delta: float, *,
                           z_max: float = 40.0,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Relative residual between dW/dE_ex (central difference) and <psi0| dV/dE |psi0>."""
    sol = solve_perpendicular(stack, field, n_states=1, z_max=z_max, constants=constants)
    if not sol.is_bound():
        raise UnboundStateError("unbound at the central field point")
    g = sol.grid
    # dV_ex/dE_ex in meV per (V/m), by GLL quadrature
    dv = external_potential(FieldSpec(1.0), stack.thickness_L, g.points,
                            eps_neon=stack.eps_neon)
    expect = float(np.sum(g.mass * dv * sol.wavefunctions[0] ** 2))
    w_plus = ground_state_energy(stack, FieldSpec(field.e_ex + delta), z_max=z_max,
                                 constants=constants)
    w_minus = ground_state_energy(stack, FieldSpec(field.e_ex - delta), z_max=z_max,
                                  constants=constants)
    fd = (w_plus - w_minus) / (2.0 * delta)
    return abs(fd - expect) / abs(expect)
