"""Independent oracles for the perpendicular and radial solvers: second-order
finite differences (perpendicular) and cylindrical finite volumes (radial) on
uniform grids, solved by LAPACK bisection, a central difference of W^G in
the field against its Hellmann-Feynman expectation, and the value-only
Chebyshev energy curve that the Hermite curve of build_energy_curve replaced.

They share only the potential's pieces with production, not the
discretization: each spectral-element solve must agree with the Richardson
extrapolation of two of these grids.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import scipy.linalg
from numpy.polynomial import Chebyshev, polyutils
from numpy.polynomial.chebyshev import chebvander

from neontrap import (DielectricStack, UnboundStateError, external_potential,
                      ground_state_energy, perpendicular_potential,
                      solve_perpendicular, total_perpendicular_potential)
from neontrap.constants import HBAR2_OVER_2ME, Z_MAX
from neontrap.lateral import MAX_CURVE_NODES, NODE_TOL_MEV

C = HBAR2_OVER_2ME
# Richardson pair of spacings (nm): cutoff_zc = 0.23 nm, 40 nm and any wall
# depth that is a multiple of 5 pm are whole multiples of both, so nodes sit
# on the walls, the surface step and the kink
RICHARDSON_SPACINGS = (0.005, 0.000625)


def uniform_hamiltonian(v: np.ndarray, h: float):
    """Tridiagonal (diag, offdiag) of -C d^2/dz^2 + V at spacing h, hard walls beyond the ends."""
    return 2.0 * C / h ** 2 + v, np.full(v.size - 1, -C / h ** 2)


def stack_hamiltonian(stack, n_intervals: int):
    """FD Hamiltonian of the stack on n_intervals between max(-L, -2 nm) and Z_MAX.

    Returns (diag, offdiag, z) on the interior nodes z.  A node on the
    surface z = 0 takes the two-sided average of the barrier and the
    clamped image value, which keeps the eigenvalues second order in h.
    """
    z_lo = max(-stack.thickness_L, -2.0)
    z = np.linspace(z_lo, Z_MAX, n_intervals + 1)[1:-1]
    z[np.abs(z) < 1e-9] = 0.0
    v = total_perpendicular_potential(stack, z)
    v_zc = perpendicular_potential(stack, stack.cutoff_zc)
    v[z == 0.0] += 0.5 * (stack.barrier_height - v_zc)
    return (*uniform_hamiltonian(v, (Z_MAX - z_lo) / n_intervals), z)


def fd_levels(stack, n_intervals: int, n_states: int) -> np.ndarray:
    diag, off, _ = stack_hamiltonian(stack, n_intervals)
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(0, n_states - 1))


@functools.lru_cache(maxsize=None)
def richardson_levels(stack, n_states: int) -> np.ndarray:
    """Lowest levels (meV) extrapolated from the RICHARDSON_SPACINGS pair, error O(h^4)."""
    span = Z_MAX - max(-stack.thickness_L, -2.0)
    counts = [round(span / h) for h in RICHARDSON_SPACINGS]
    if any(abs(n * h - span) > 1e-9 for n, h in zip(counts, RICHARDSON_SPACINGS)):
        raise ValueError(f"the wall depth of L = {stack.thickness_L} nm is off the grids")
    coarse, fine = (fd_levels(stack, n, n_states) for n in counts)
    r2 = (RICHARDSON_SPACINGS[0] / RICHARDSON_SPACINGS[1]) ** 2
    return fine + (fine - coarse) / (r2 - 1.0)


RADIAL_CELLS = (16384, 32768)  # Richardson pair of radial finite-volume grids


def radial_fv_level(potential, rho_max: float, n_cells: int, alpha: int) -> float:
    """Lowest radial eigenvalue (meV) for angular momentum alpha on n_cells finite volumes.

    Cell-centred cells of width h = rho_max / n_cells discretize
    -C (1/rho) d/drho(rho d/drho) + C alpha^2 / rho^2 + V, symmetrized with
    u = sqrt(rho) R: no flux through the axis, and a zero ghost value half a
    cell beyond rho_max.  That wall offset is first order in h, so the
    Richardson value holds only for states that have decayed at the wall.
    """
    h = rho_max / n_cells
    rho = (np.arange(n_cells) + 0.5) * h
    faces = np.arange(n_cells + 1) * h
    diag = C * (faces[1:] + faces[:-1]) / (h * h * rho) + potential(rho) + C * alpha ** 2 / rho ** 2
    off = -C * faces[1:-1] / (h * h * np.sqrt(rho[:-1] * rho[1:]))
    return float(scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                               select_range=(0, 0))[0])


def radial_richardson_level(potential, rho_max: float, alpha: int) -> float:
    """radial_fv_level extrapolated from the RADIAL_CELLS pair, error O(h^4)."""
    coarse, fine = (radial_fv_level(potential, rho_max, n, alpha) for n in RADIAL_CELLS)
    r2 = (RADIAL_CELLS[1] / RADIAL_CELLS[0]) ** 2
    return fine + (fine - coarse) / (r2 - 1.0)


def hellmann_feynman_check(stack: DielectricStack, delta: float, *,
                           z_max: float = Z_MAX) -> float:
    """Relative residual between dW/dE_ex (central difference at the stack's field)
    and <psi0| dV/dE |psi0>."""
    sol = solve_perpendicular(stack, n_states=1, z_max=z_max)
    if not sol.is_bound():
        raise UnboundStateError("unbound at the central field point")
    g = sol.grid
    # dV_ex/dE_ex in meV per (V/m), by GLL quadrature
    dv = external_potential(replace(stack, e_ex=1.0), g.points)
    expect = float(np.sum(g.mass * dv * sol.wavefunctions[0] ** 2))
    w_plus = ground_state_energy(replace(stack, e_ex=stack.e_ex + delta), z_max=z_max)
    w_minus = ground_state_energy(replace(stack, e_ex=stack.e_ex - delta), z_max=z_max)
    fd = (w_plus - w_minus) / (2.0 * delta)
    return abs(fd - expect) / abs(expect)


def value_only_curve(stack_template, l_range):
    """W^G(L) interpolated in log L through values alone: (curve, l_knots, validation_error).

    Nested Chebyshev-Lobatto nodes in log L (9, 17, 33, ...), each level's new
    nodes held out until they agree within NODE_TOL_MEV or MAX_CURVE_NODES stops
    the doubling, as build_energy_curve does with slopes; every W^G is a dense
    ground_state_energy solve, and curve takes L in nm.
    """
    lo, hi = l_range
    mid, half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)

    def solve_at(l):
        return np.array([ground_state_energy(replace(stack_template, thickness_L=float(L)))
                         for L in l])

    def fit(l_nodes, w_nodes):
        x = np.log(l_nodes)
        u = polyutils.mapdomain(x, (x[0], x[-1]), (-1.0, 1.0))
        return Chebyshev(np.linalg.solve(chebvander(u, x.size - 1), w_nodes),
                         domain=(x[0], x[-1]))

    n = 8
    l_knots = np.exp(mid + half * -np.cos(np.pi * np.arange(n + 1) / n))
    l_knots[0], l_knots[-1] = lo, hi
    w_knots = solve_at(l_knots)
    while True:
        l_held = np.exp(mid + half * -np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        w_held = solve_at(l_held)
        poly = fit(l_knots, w_knots)
        error = float(np.max(np.abs(poly(np.log(l_held)) - w_held)))
        if error <= NODE_TOL_MEV or 2 * n + 1 > MAX_CURVE_NODES:
            return (lambda L: poly(np.log(L))), l_knots, error
        l_knots = np.insert(l_knots, slice(1, n + 1), l_held)
        w_knots = np.insert(w_knots, slice(1, n + 1), w_held)
        n *= 2
