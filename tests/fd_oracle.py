"""Independent oracle for the perpendicular solver: second-order finite
differences on a uniform grid, solved by LAPACK bisection.

It shares only the potential's pieces with production, not the
discretization: the spectral-element solve must agree with the Richardson
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
