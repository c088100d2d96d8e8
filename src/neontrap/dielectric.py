"""Electrostatics of an excess electron above a vacuum / neon / substrate stack.

The electron at height z above the neon surface feels the image potential

    V_perp(L, z) = (e^2 / 8 pi eps0) * Integral_0^inf Lambda_L(k) e^{-2kz} dk

where Lambda_L(k) is the reflection coefficient of the three-layer stack.
Expanding Lambda_L geometrically in e^{-2kL} and integrating term by term
gives the multiple-image series (M. W. Cole, Phys. Rev. B 2, 4239 (1970)),
which is summed in closed form to double precision for every L >= 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (BARRIER_HEIGHT, CUTOFF_ZC, EPS_NEON, IMAGE_PREFACTOR,
                        V_PER_M_TO_MEV_PER_NM)


@dataclass(frozen=True)
class Superconductor:
    """Ideal superconducting substrate (permittivity -> infinity)."""


@dataclass(frozen=True)
class Dielectric:
    """Dielectric substrate with relative permittivity eps_b."""

    eps_b: float

    def __post_init__(self):
        if not self.eps_b >= 1.0:
            raise ValueError(f"eps_b must be >= 1, got {self.eps_b}")


Substrate = Superconductor | Dielectric

# image terms a stack may need (_series_terms): each term is a row of every
# potential array, so the cap bounds their memory; it admits eps_neon up to 51
# over a superconductor, where the default 1.244 needs 18
MAX_IMAGE_TERMS = 1000


@dataclass(frozen=True)
class DielectricStack:
    """Vacuum above, neon layer of thickness_L (nm), substrate below.

    thickness_L = math.inf denotes bulk neon; thickness_L = 0 is allowed
    only as the mirror-charge limit check (the CLI takes only L > 0: the
    solver mesh needs a layer between its wall at -L and the surface).  The
    stack carries the neon surface too: the Pauli barrier_height (meV) for
    z < 0 and the image cutoff_zc (nm), both positive and finite.  e_ex is
    the uniform external field in V/m, finite, positive pointing away from
    the substrate; bulk neon has no grounded substrate to fix the field's
    gauge, so it takes only e_ex = 0.  A stack whose image series needs more
    than MAX_IMAGE_TERMS terms is refused.
    """

    substrate: Substrate
    thickness_L: float
    eps_neon: float = EPS_NEON
    barrier_height: float = BARRIER_HEIGHT
    cutoff_zc: float = CUTOFF_ZC
    e_ex: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.eps_neon < math.inf:
            raise ValueError(f"eps_neon must exceed 1 and be finite, got {self.eps_neon}")
        if not (self.thickness_L >= 0.0):
            raise ValueError(f"thickness_L must be >= 0 or inf, got {self.thickness_L}")
        for name in ("barrier_height", "cutoff_zc"):  # a surface that repels, above z = 0
            if not 0.0 < (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be a positive, finite value, got {value}")
        if not math.isfinite(self.e_ex):
            raise ValueError(f"e_ex must be finite, got {self.e_ex}")
        if self.is_bulk and self.e_ex != 0.0:
            raise ValueError(f"bulk neon (L = inf) needs E_ex = 0 V/m, got {self.e_ex:g} V/m")
        if (terms := _series_terms(*_lambda_mu(self))) > MAX_IMAGE_TERMS:
            raise ValueError(f"eps_neon = {self.eps_neon} over this substrate needs {terms} "
                             f"image terms, above the cap of {MAX_IMAGE_TERMS}")

    @property
    def is_bulk(self) -> bool:
        return math.isinf(self.thickness_L)


def _lambda_mu(stack: DielectricStack) -> tuple[float, float]:
    """Interface coefficients of the stack.

    lam = (eps0 - eps_Ne) / (eps0 + eps_Ne) is the vacuum/neon coefficient
    (also the k*L -> inf limit of Lambda_L); mu is the neon/substrate one,
    -1 for a superconductor.
    """
    eta = stack.eps_neon
    lam = (1.0 - eta) / (1.0 + eta)
    if isinstance(stack.substrate, Superconductor):
        mu = -1.0
    else:
        eps_b = stack.substrate.eps_b
        mu = (eta - eps_b) / (eta + eps_b)
    return lam, mu


def reflection_coefficient(stack: DielectricStack, k):
    """Reflection coefficient Lambda_L(k) of the three-layer stack.

    Uses the overflow-free form Lambda = (lam + mu q) / (1 + lam mu q) with
    q = exp(-2kL), algebraically identical to the tanh(kL) expression.
    k in nm^-1; scalar or array.
    """
    k_arr = np.asarray(k, dtype=float)
    if not np.all(k_arr >= 0.0):
        raise ValueError("wavenumber k must be non-negative")
    lam, mu = _lambda_mu(stack)
    if stack.is_bulk:
        out = np.full_like(k_arr, lam)
    else:
        q = np.exp(-2.0 * k_arr * stack.thickness_L)
        out = (lam + mu * q) / (1.0 + lam * mu * q)
    return float(out) if np.ndim(k) == 0 else out


def _series_terms(lam: float, mu: float) -> int:
    """Image terms needed for double precision.

    The substrate images form a geometric series in (-lam mu) with
    |lam mu| <= |lam|, so the truncated tail after n terms is below
    |lam mu|^n / (1 - |lam mu|) of the leading image: 18 terms for a
    superconductor, 1 when mu = 0 (no substrate contrast).
    """
    ratio = abs(lam * mu)
    if ratio == 0.0:
        return 1
    return math.ceil(math.log(1e-17) / math.log(ratio))


def _image_series(stack: DielectricStack) -> tuple[float, np.ndarray, np.ndarray]:
    """lam, and the weights c_n and orders n (columns) of the substrate images n >= 1.

    c_n = mu (1 - lam^2) (-lam mu)^(n-1), with the term count of _series_terms.
    """
    lam, mu = _lambda_mu(stack)
    n_terms = _series_terms(lam, mu)
    weights = np.full((n_terms, 1), -lam * mu)
    weights[0] = mu * (1.0 - lam * lam)
    return lam, np.cumprod(weights, axis=0), np.arange(1.0, n_terms + 1.0)[:, None]


def perpendicular_potential(stack: DielectricStack, z):
    """Image potential V_perp(L, z) in meV for z > 0 (nm); scalar or array.

    Sums the multiple-image series

        V = pref * [ lam/(2z) + mu (1-lam^2) sum_{n>=1} (-lam mu)^{n-1} / (2(z+nL)) ]

    with the term count fixed by _series_terms.  Bulk (L = inf) keeps only
    the neon-surface image; L = 0 sums to the bare substrate mirror.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(z_arr > 0.0):
        raise ValueError("perpendicular_potential requires z > 0 (divergent integrand)")
    lam, c, n = _image_series(stack)
    z_row = z_arr.reshape(1, -1)
    terms = np.vstack([lam / (2.0 * z_row), c / (2.0 * (z_row + n * stack.thickness_L))])
    # cumsum adds the terms in order, leading image first, so every z gets
    # the same sum whatever the shape of z (a pairwise .sum would not)
    out = IMAGE_PREFACTOR * np.cumsum(terms, axis=0)[-1].reshape(z_arr.shape)
    return float(out[0]) if np.ndim(z) == 0 else out


def external_potential(stack: DielectricStack, z):
    """Potential of the stack's field e_ex, zero at the grounded substrate (z = -L).

    Piecewise linear: slope e E_ex / eps_Ne inside the neon (-L < z < 0) and
    e E_ex above (z > 0); continuous at the surface.  Returns meV.  A bulk
    stack, whose field is zero, gives zero.
    """
    L = stack.thickness_L
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(z_arr >= -L):
        raise ValueError("z < -L lies inside the substrate")
    s, eps = stack.e_ex * V_PER_M_TO_MEV_PER_NM, stack.eps_neon
    out = np.zeros_like(z_arr) if stack.is_bulk else np.where(
        z_arr < 0.0, s * (z_arr + L) / eps, s * (L / eps + z_arr))
    return float(out[0]) if np.ndim(z) == 0 else out


def _field_free_potential(stack: DielectricStack, z: np.ndarray) -> np.ndarray:
    """Barrier, clamped image and image series on z (meV).

    The one branch rule: the Pauli barrier for z < 0, else the image series
    at max(z, cutoff_zc), summed in one call that gives each z the same bits
    at any array shape.  The surface z = 0 thus takes V(z_c).
    """
    image = perpendicular_potential(stack, np.maximum(z, stack.cutoff_zc))
    return np.where(z < 0.0, stack.barrier_height, image)


def total_perpendicular_potential(stack: DielectricStack, z):
    """Potential entering the perpendicular Schroedinger equation, in meV.

    _field_free_potential (barrier for z < 0, image series at max(z, cutoff_zc)
    for z >= 0) plus external_potential of the stack's field.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    v_ex = external_potential(stack, z_arr)
    out = _field_free_potential(stack, z_arr) + v_ex
    return float(out[0]) if np.ndim(z) == 0 else out


def _field_free_key(stack: DielectricStack) -> tuple:
    """Every field of the stack but e_ex, in DielectricStack's order: a memo key
    whose lookup runs none of the stack's checks."""
    return (stack.substrate, stack.thickness_L, stack.eps_neon, stack.barrier_height,
            stack.cutoff_zc)


# A field sweep re-solves the same energy-curve nodes at every field, and a
# ground sweep each thickness at every field; memoize the field-free part of
# the potential and of its thickness derivative per (field-free stack, grid).
@functools.lru_cache(maxsize=4096)
def _cached_field_free(key: tuple, grid, derivative: bool) -> np.ndarray:
    if grid.breakpoints[1] != 0.0:
        raise ValueError("the perpendicular mesh's first element must end on the "
                         f"surface z = 0, got breakpoints {grid.breakpoints}")
    stack = DielectricStack(*key)
    if derivative:  # d/dL of each image term at max(z, cutoff_zc); the neon gives 0
        lam, c, n = _image_series(stack)
        z = np.maximum(grid.nodes, stack.cutoff_zc).reshape(1, -1)
        out = IMAGE_PREFACTOR * np.sum(-n * c / (2.0 * (z + n * stack.thickness_L) ** 2),
                                       axis=0).reshape(grid.nodes.shape)
        out[0] = 0.0
    else:
        out = _field_free_potential(stack, grid.nodes)
        out[0] = stack.barrier_height  # the neon side of the surface node
    out.setflags(write=False)
    return out


def cached_perpendicular_potential(stack: DielectricStack, grid) -> np.ndarray:
    """total_perpendicular_potential at grid.nodes, each element seen from inside (meV).

    grid is a perpendicular.SpectralMesh whose first element ends on the surface
    z = 0 (else ValueError) and whose breakpoints include the stack's cutoff_zc.
    The rule of _field_free_potential gives every node its value, except that
    the whole first element, the neon, takes the barrier: the surface node is
    the barrier there and V(z_c) above.  The field-free part is memoized per
    (stack but e_ex, grid), so every field of one layer shares it and cached
    values always match the stack's surface and grid.nodes.
    """
    v_ex = external_potential(stack, grid.nodes)
    return _cached_field_free(_field_free_key(stack), grid, False) + v_ex


def potential_derivative(stack: DielectricStack, grid) -> np.ndarray:
    """dV/dL at grid.nodes and fixed z, each element seen from inside (meV/nm).

    The thickness derivative of cached_perpendicular_potential, on the same
    grids and by the same rule: image term n contributes -n c_n / (2 (z + nL)^2)
    at max(z, cutoff_zc) (c_n of _image_series, times the prefactor), the
    first element, the neon, contributes 0, and the field adds e E_ex / eps_Ne
    everywhere.  The field-free part is memoized under the potential's key.
    """
    return (_cached_field_free(_field_free_key(stack), grid, True)
            + stack.e_ex * V_PER_M_TO_MEV_PER_NM / stack.eps_neon)
