"""Independent oracles for the perpendicular and radial solvers: second-order
finite differences (perpendicular) and cylindrical finite volumes (radial) on
uniform grids, solved by LAPACK bisection.

They share only the potential's pieces with production, not the
discretization: each spectral-element solve must agree with the Richardson
extrapolation of two of these grids.
"""

import functools

import numpy as np
import scipy.linalg

from neontrap import DEFAULT_CONSTANTS, perpendicular_potential, total_perpendicular_potential

C = DEFAULT_CONSTANTS.hbar2_over_2me
# Richardson pair of spacings (nm): cutoff_zc = 0.23 nm, 40 nm and any wall
# depth that is a multiple of 5 pm are whole multiples of both, so nodes sit
# on the walls, the surface step and the kink
RICHARDSON_SPACINGS = (0.005, 0.000625)
Z_MAX = 40.0  # nm, the solver's default outer wall


def uniform_hamiltonian(v: np.ndarray, h: float):
    """Tridiagonal (diag, offdiag) of -C d^2/dz^2 + V at spacing h, hard walls beyond the ends."""
    return 2.0 * C / h ** 2 + v, np.full(v.size - 1, -C / h ** 2)


def stack_hamiltonian(stack, field, n_intervals: int):
    """FD Hamiltonian of the stack on n_intervals between max(-L, -2 nm) and Z_MAX.

    Returns (diag, offdiag, z) on the interior nodes z.  A node on the
    surface z = 0 takes the two-sided average of the barrier and the
    clamped image value, which keeps the eigenvalues second order in h.
    """
    z_lo = max(-stack.thickness_L, -2.0)
    z = np.linspace(z_lo, Z_MAX, n_intervals + 1)[1:-1]
    z[np.abs(z) < 1e-9] = 0.0
    v = total_perpendicular_potential(stack, field, z)
    v_zc = perpendicular_potential(stack, DEFAULT_CONSTANTS.cutoff_zc)
    v[z == 0.0] += 0.5 * (DEFAULT_CONSTANTS.barrier_height - v_zc)
    return (*uniform_hamiltonian(v, (Z_MAX - z_lo) / n_intervals), z)


def fd_levels(stack, field, n_intervals: int, n_states: int) -> np.ndarray:
    diag, off, _ = stack_hamiltonian(stack, field, n_intervals)
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(0, n_states - 1))


@functools.lru_cache(maxsize=None)
def richardson_levels(stack, field, n_states: int) -> np.ndarray:
    """Lowest levels (meV) extrapolated from the RICHARDSON_SPACINGS pair, error O(h^4)."""
    span = Z_MAX - max(-stack.thickness_L, -2.0)
    counts = [round(span / h) for h in RICHARDSON_SPACINGS]
    if any(abs(n * h - span) > 1e-9 for n, h in zip(counts, RICHARDSON_SPACINGS)):
        raise ValueError(f"the wall depth of L = {stack.thickness_L} nm is off the grids")
    coarse, fine = (fd_levels(stack, field, n, n_states) for n in counts)
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
