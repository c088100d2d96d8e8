"""Perpendicular bound states of the electron above the neon surface.

Solves -(hbar^2/2m_e) psi'' + V psi = E psi with hard walls at both ends by
Gauss-Lobatto-Legendre (GLL) spectral elements (A. T. Patera, J. Comput.
Phys. 54, 468 (1984); Deville, Fischer & Mund, High-Order Methods for
Incompressible Fluid Flow, chs. 2-4).  The element breakpoints sit on the
potential's step at z = 0 and its kink at cutoff_zc, so the potential is
smooth on every element and the eigenvalues converge exponentially in the
degree.  The diagonal GLL mass matrix M turns the weak form into the
symmetric matrix M^{-1/2} H M^{-1/2}, of which LAPACK returns the lowest
eigenpairs.  Neighbouring elements share only their end node, so the matrix
is banded with half-bandwidth degree: a ground state started from a
neighbouring solve's is refined by Rayleigh-quotient iteration on the band
and certified by a banded Cholesky factorization (B. N. Parlett, The
Symmetric Eigenvalue Problem, SIAM 1998, chs. 4 and 11).

The radial solve of lateral.radial_spectrum runs on the same mesh type with
the measure rho drho (C. Bernardi, M. Dauge & Y. Maday, Spectral Methods for
Axisymmetric Domains, 1999): rho enters every quadrature as a nodal
coefficient, and the axis node, of zero mass, is condensed out for alpha = 0.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre

from .constants import HBAR2_OVER_2ME, Z_MAX
from .dielectric import DielectricStack, cached_perpendicular_potential


class NumericalFailure(RuntimeError):
    """Unrecoverable numerical problem (beyond flagged rows)."""


class UnboundStateError(NumericalFailure):
    """The requested configuration does not hold a (quasi-)bound ground state."""


class EigensolverError(NumericalFailure):
    """LAPACK eigensolver failed to converge."""


def _load_lapack():
    """scipy's f2py LAPACK extension, loaded without importing scipy.linalg.

    Importing scipy.linalg costs most of the package's import time; the
    solver needs only dsyevr, dsyevr_lwork, dstevd, dgbsv and dpbtrf, which the
    extension module scipy/linalg/_flapack holds.  That name is private to
    scipy: if the file is not there, scipy.linalg.lapack, which exposes the
    same functions, is imported instead.  The extension is loaded under
    scipy's own name, so a later import of scipy.linalg reuses this module.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is not None:
        path = os.path.join(os.path.dirname(spec.origin), "linalg",
                            "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    from scipy.linalg import lapack as module
    return module


lapack = _load_lapack()


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise EigensolverError(f"LAPACK {routine} failed with info = {info}")


# Fraction of the grid's span next to the outer wall used for the
# escaping-tail detector, and the probability-density threshold (1/nm)
# that flags a quasi-bound state.
TAIL_FRACTION = 0.02
TAIL_DENSITY_THRESHOLD = 1e-6

DEGREE = 16  # default polynomial degree of a SpectralMesh, the radial mesh's
# polynomial degree of the perpendicular solver mesh: two states stay within
# 5.5e-9 meV of degree 24 on the same breakpoints, while at degree 12 spurious
# ringing in the 9-nm outer element fails the node check at L = 1 nm
PERPENDICULAR_DEGREE = 13
# relative lengths of the elements from cutoff_zc to z_max: growing by a
# ratio of 3, the last one halved so that it still resolves the tenth state
OUTER_ELEMENTS = (1.0, 3.0, 9.0, 13.5, 13.5)
_OUTER_CUMSUM = np.cumsum(OUTER_ELEMENTS).tolist()  # summed once, not per solve
# a refined ground state is kept once its residual |Hx - Ex| falls to RQI_TOL
# (meV) within RQI_STEPS Rayleigh-quotient steps; the certificate's margin
# is at least CERTIFICATE_FLOOR (meV).  The state is off by about RQI_TOL /
# gap: a radial gap near 0.03 meV reads that error into rho_e, so RQI_TOL
# sits near the residual's rounding floor (below 1e-10 meV on the solver mesh)
RQI_TOL = 1e-9
RQI_STEPS = 4
CERTIFICATE_FLOOR = 1e-7


@functools.lru_cache(maxsize=4)
def _gll(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GLL nodes x on [-1, 1], quadrature weights and differentiation matrix D.

    The interior nodes are the roots of P'_degree, the eigenvalues of the
    Jacobi matrix of the Gauss-Jacobi (1, 1) rule; D[i, j] is the derivative
    of the j-th Lagrange polynomial at x_i.
    """
    k = np.arange(1, degree - 1)
    beta = np.sqrt(k * (k + 2) / ((2 * k + 1) * (2 * k + 3)))
    inner, _, info = lapack.dstevd(np.zeros(degree - 1), beta, compute_v=0)
    _check_info("dstevd", info)
    x = np.concatenate(([-1.0], inner, [1.0]))
    p = legendre.legval(x, np.eye(degree + 1)[degree])
    w = 2.0 / (degree * (degree + 1) * p * p)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = p[:, None] / (p[None, :] * dx)
    np.fill_diagonal(d, 0.0)
    d[0, 0], d[-1, -1] = -degree * (degree + 1) / 4.0, degree * (degree + 1) / 4.0
    for a in (x, w, d):
        a.setflags(write=False)  # shared by every mesh of this degree
    return x, w, d


@dataclass(frozen=True)
class SpectralMesh:
    """GLL spectral-element mesh with hard walls at both ends.

    Element e spans [breakpoints[e], breakpoints[e + 1]] and carries degree + 1
    GLL nodes; neighbouring elements share their end node.  A radial mesh
    starts on the axis, breakpoints[0] = 0, and weighs every integral with
    the measure rho drho: rho enters the quadrature as a nodal coefficient.
    Build meshes with spectral_mesh, which makes each one once.  The derived
    arrays are built with the mesh:

    nodes:     (n_elements, degree + 1) node coordinates per element, nm
    weights:   quadrature weights per element node, GLL weight times rho on
               a radial mesh, nm (nm^2)
    index:     global node number of each element node
    points:    the n_points global nodes, walls included
    mass:      diagonal mass matrix on the global nodes, nm (nm^2)
    stiffness: M^{-1/2} K M^{-1/2} on the n_points - 2 unknowns, with
               K[i, j] = integral of phi_i' phi_j' (rho), 1/nm^2
    axis:      radial meshes only, else None: the vector u for which
               stiffness - u u^T = M^{-1/2} (K_rr - K_r0 K_0r / K_00) M^{-1/2},
               the stiffness with the zero-mass axis node 0 condensed out
    band:      LAPACK band storage of a matrix on the unknowns: row k of column
               j is the flat index of A[j + k - degree, j]; rows 0..degree are
               dpbtrf's upper band, all 2 degree + 1 rows dgbsv's
    outside:   True where a band slot falls outside the matrix
    """

    breakpoints: tuple
    degree: int = DEGREE
    radial: bool = False
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    index: np.ndarray = field(init=False, repr=False, compare=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)
    mass: np.ndarray = field(init=False, repr=False, compare=False)
    stiffness: np.ndarray = field(init=False, repr=False, compare=False)
    axis: np.ndarray | None = field(init=False, repr=False, compare=False)
    band: np.ndarray = field(init=False, repr=False, compare=False)
    outside: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        if b.size < 2 or not np.all(np.diff(b) > 0.0):
            raise ValueError(f"breakpoints must ascend strictly, got {self.breakpoints}")
        if self.radial and b[0] != 0.0:
            raise ValueError(f"a radial mesh starts on the axis, got {self.breakpoints}")
        if self.degree < 2:
            raise ValueError("degree must be >= 2")
        p = self.degree
        x, w, d = _gll(p)
        jac = 0.5 * np.diff(b)[:, None]
        index = p * np.arange(b.size - 1)[:, None] + np.arange(p + 1)
        n = index[-1, -1] + 1
        points = np.empty(n)
        points[index] = b[:-1, None] + jac * (x + 1.0)
        points[::p] = b  # shared end nodes sit exactly on the breakpoints
        nodes = points[index]
        w_local = w * nodes if self.radial else np.broadcast_to(w, nodes.shape)
        weights = jac * w_local
        mass = np.bincount(index.ravel(), weights.ravel(), n)
        k = np.zeros((n, n))
        for e, j in enumerate(jac[:, 0]):
            k[e * p:e * p + p + 1, e * p:e * p + p + 1] += d.T @ (w_local[e, :, None] * d) / j
        s = 1.0 / np.sqrt(mass[1:-1])
        axis = s * k[1:-1, 0] / np.sqrt(k[0, 0]) if self.radial else None
        i = np.arange(n - 2) + np.arange(-p, p + 1)[:, None]
        outside = (i < 0) | (i >= n - 2)
        band = np.where(outside, 0, i * (n - 2) + np.arange(n - 2))
        for name, value in (("nodes", nodes), ("weights", weights), ("index", index),
                            ("points", points), ("mass", mass),
                            # Fortran order: dsyevr takes a copy of the
                            # Hamiltonian without transposing it
                            ("stiffness", np.asfortranarray(s[:, None] * k[1:-1, 1:-1] * s)),
                            ("axis", axis),
                            ("band", band), ("outside", outside)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_points(self) -> int:
        return self.points.size


@functools.lru_cache(maxsize=16)
def spectral_mesh(breakpoints: tuple, radial: bool = False,
                  degree: int = DEGREE) -> SpectralMesh:
    """The SpectralMesh over breakpoints, built once per call spelling: pass keywords by name."""
    return SpectralMesh(breakpoints, degree, radial)


def solver_mesh(stack: DielectricStack, z_max: float = Z_MAX) -> SpectralMesh:
    """Mesh of the perpendicular solve: hard walls at max(-L, -2 nm) and z_max.

    The lower wall leaves room for the ~0.1 nm barrier penetration, and sits
    on the substrate for a layer thinner than 2 nm; the default Z_MAX = 40 nm
    leaves negligible tail density for all bound configurations.  Breakpoints:
    the wall, the surface z = 0, the stack's cutoff_zc, then OUTER_ELEMENTS up
    to z_max, every element of PERPENDICULAR_DEGREE; spectral_mesh builds it
    once per (wall, cutoff_zc, z_max).
    """
    z_c = stack.cutoff_zc
    if not z_c < z_max:
        raise ValueError("z_max must exceed the cutoff distance")
    outer = [z_c + (z_max - z_c) * c / sum(OUTER_ELEMENTS) for c in _OUTER_CUMSUM[:-1]]
    return spectral_mesh((max(-stack.thickness_L, -2.0), 0.0, z_c, *outer, z_max),
                         degree=PERPENDICULAR_DEGREE)


def build_hamiltonian(potential, grid: SpectralMesh) -> np.ndarray:
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
    h = HBAR2_OVER_2ME * grid.stiffness
    h.flat[::h.shape[0] + 1] += mv / grid.mass[1:-1]
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
    converged: list = field(default_factory=list)

    def tail_density(self) -> float:
        """Peak ground-state density within TAIL_FRACTION of the span from the outer wall.

        The density is psi^2 (1/nm), or rho psi^2 on a radial mesh (measure rho drho).
        """
        z, psi = self.grid.points, self.wavefunctions[0]
        near = z >= z[-1] - TAIL_FRACTION * (z[-1] - z[0])
        density = psi[near] ** 2
        if self.grid.radial:
            density = z[near] * density
        return float(np.max(density))

    def is_bound(self) -> bool:
        """True unless the ground state leaks to the outer wall (tail_density)."""
        return self.tail_density() < TAIL_DENSITY_THRESHOLD


def _count_nodes(psi: np.ndarray) -> np.ndarray:
    """Sign changes along each row of psi, ignoring amplitudes at rounding level of its peak."""
    a = np.abs(psi)
    keep = a > 1e-10 * a.max(axis=1, keepdims=True)
    row = np.nonzero(keep)[0]
    s = psi[keep] > 0.0
    change = (s[1:] != s[:-1]) & (row[1:] == row[:-1])
    return np.bincount(row[1:][change], minlength=psi.shape[0])


def _refine_ground_state(hamiltonian: np.ndarray, grid: SpectralMesh,
                         x: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Ground eigenpair of a banded matrix on grid's unknowns, refined from x, or None.

    Rayleigh-quotient iteration on the band (one dgbsv per step) runs until
    the residual r = Hx - Ex is at most RQI_TOL.  The pair is kept only if
    dpbtrf factors H - (E - delta) I, delta = max(2 |r|, CERTIFICATE_FLOOR):
    positive definiteness puts every eigenvalue above E - delta, and the
    residual puts one within |r| of E, so E is the lowest within delta.
    """
    n, p = x.size, grid.degree
    band = hamiltonian.take(grid.band)
    band[grid.outside] = 0.0
    x = x / np.linalg.norm(x)
    for _ in range(RQI_STEPS + 1):
        hx = hamiltonian @ x
        e = float(x @ hx)
        r = float(np.linalg.norm(hx - e * x))
        if r <= RQI_TOL:
            break
        ab = np.zeros((3 * p + 1, n), order="F")
        ab[p:] = band
        ab[2 * p] -= e
        _, _, y, info = lapack.dgbsv(p, p, ab, x[:, None], overwrite_ab=1)
        if info != 0:
            return None
        x = y[:, 0] / np.linalg.norm(y)
    else:
        return None
    shifted = band[:p + 1].copy(order="F")
    shifted[p] -= e - max(2.0 * r, CERTIFICATE_FLOOR)
    _, info = lapack.dpbtrf(shifted, overwrite_ab=1)
    return (e, x) if info == 0 else None


def solve_lowest(hamiltonian: np.ndarray, grid: SpectralMesh, n_states: int,
                 start: BoundStateSolution | None = None) -> BoundStateSolution:
    """Lowest n_states eigenpairs of build_hamiltonian's matrix, node-count verified.

    For one state and a start solved on the same grid, the ground state is
    refined from start's by _refine_ground_state; without a start, for more
    states or when the refinement is not certified, a dense LAPACK solve
    (dsyevr, called with the arguments of scipy.linalg.eigh's evr solve)
    returns the pairs.  Each state is signed so that its largest-magnitude
    nodal value is positive.
    """
    if not 1 <= n_states <= 10:
        raise ValueError("n_states must be between 1 and 10")
    sqrt_mass = np.sqrt(grid.mass[1:-1])
    refined = None
    if n_states == 1 and start is not None and start.grid == grid:
        refined = _refine_ground_state(hamiltonian, grid, start.wavefunctions[0, 1:-1] * sqrt_mass)
    if refined is not None:
        w, y = np.array([refined[0]]), refined[1][:, None]
    else:
        if not np.all(np.isfinite(hamiltonian)):
            raise ValueError("hamiltonian must contain only finite values")
        # the queried workspace selects dsyevr's blocking: with the sizes
        # scipy.linalg.eigh passes, its evr eigenpairs are reproduced bit for bit
        lwork, liwork, info = lapack.dsyevr_lwork(hamiltonian.shape[0], lower=1)
        _check_info("dsyevr_lwork", info)
        w, y, m, _, info = lapack.dsyevr(hamiltonian, compute_v=1, range="I", il=1,
                                         iu=n_states, lower=1, lwork=int(lwork),
                                         liwork=int(liwork))
        _check_info("dsyevr", info)
        w, y = w[:m], y[:, :m]
    y = y * np.sign(y[np.argmax(np.abs(y), axis=0), np.arange(n_states)])
    psi = np.zeros((n_states, grid.n_points))
    psi[:, 1:-1] = y.T / sqrt_mass
    converged = (_count_nodes(psi[:, 1:-1]) == np.arange(n_states)).tolist()
    return BoundStateSolution(energies=w, wavefunctions=psi, grid=grid,
                              converged=converged)


@dataclass
class WarmStart:
    """One-slot holder that chains neighbouring ground_state_energy solves.

    ground_state_energy returns a bare float, so it starts from the solution
    held in `state` and leaves its own there for the next solve.  The caller
    owns the holder.  solve_perpendicular and radial_spectrum take the
    previous result itself as their start.
    """

    state: BoundStateSolution | None = None


def solve_perpendicular(stack: DielectricStack, *, n_states: int = 1, z_max: float = Z_MAX,
                        start: BoundStateSolution | None = None) -> BoundStateSolution:
    """Solve the perpendicular problem for the stack, its field included, on solver_mesh.

    start, a previous solution, seeds the ground state as in solve_lowest.
    """
    grid = solver_mesh(stack, z_max)
    v = cached_perpendicular_potential(stack, grid)
    return solve_lowest(build_hamiltonian(v, grid), grid, n_states, start=start)


def ground_state_energy(stack: DielectricStack, *, z_max: float = Z_MAX,
                        warm: WarmStart | None = None) -> float:
    """Ground-state energy W^G(L, E_ex) in meV; raises UnboundStateError if escaping.

    warm, if given, starts this solve from warm.state and leaves its solution there.
    """
    sol = solve_perpendicular(stack, z_max=z_max,
                              start=warm.state if warm is not None else None)
    if warm is not None:
        warm.state = sol
    if not sol.is_bound():
        raise UnboundStateError(
            f"ground state leaks to the outer wall (tail density "
            f"{sol.tail_density():.2e} 1/nm) for L={stack.thickness_L} nm, "
            f"E_ex={stack.e_ex} V/m")
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
