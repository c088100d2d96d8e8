"""Lateral electron trap from a non-uniform neon layer.

The thickness profile L(rho) maps, through the local-thickness
approximation, onto a lateral potential V_par(rho) = W^G(L(rho)) - W^G(L0)
built from a Chebyshev interpolant of W^G in log L.  The radial Schroedinger
equation for each angular momentum alpha is solved on a GLL spectral-element
mesh with the measure rho drho (perpendicular.SpectralMesh), and the lowest
eigenvalue per alpha yields the qubit spectrum U_alpha, Delta U = U1 - U0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import Chebyshev, polyutils
from numpy.polynomial.chebyshev import chebvander

from .constants import HBAR2_OVER_2ME, Z_MAX
from .dielectric import DielectricStack
from .perpendicular import (BoundStateSolution, NumericalFailure, WarmStart, build_hamiltonian,
                            ground_state_energy, solve_lowest, spectral_mesh)


class CurveValidationError(NumericalFailure):
    """Energy curve failed its held-out validation budget."""


class ModelInvalidError(NumericalFailure, ValueError):
    """Harmonic field model evaluated where the trap is destroyed."""


@dataclass(frozen=True)
class PillarProfile:
    """Smoothed-step thickness over a substrate nanopillar of radius R.

    L(rho) = L0 - (dL/2) * (1 - (rho - R)/sqrt((rho - R)^2 + b^2)):
    thickness L0 - dL over the pillar, L0 far outside, transition width b.
    """

    L0: float
    delta_L: float
    R: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.delta_L < self.L0:
            raise ValueError(f"need 0 < delta_L < L0, got {self.delta_L:g} and {self.L0:g} nm")
        if self.R <= 0.0 or self.b <= 0.0:
            raise ValueError(f"R and b must be positive, got R = {self.R:g} nm, b = {self.b:g} nm")


@dataclass(frozen=True)
class QuadraticProfile:
    """Smooth parabolic thickening, L(rho) = L0 (1 + beta0 rho^2)."""

    L0: float
    beta0: float

    def __post_init__(self):
        if self.beta0 <= 0.0:
            raise ValueError("beta0 must be positive")


ThicknessProfile = PillarProfile | QuadraticProfile


def thickness_at(profile: ThicknessProfile, rho):
    """Local layer thickness L(rho) in nm; rho >= 0, scalar or array."""
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("rho must be non-negative")
    if isinstance(profile, PillarProfile):
        x = r - profile.R
        out = profile.L0 - 0.5 * profile.delta_L * (1.0 - x / np.hypot(x, profile.b))
    else:
        out = profile.L0 * (1.0 + profile.beta0 * r * r)
    return float(out) if np.isscalar(rho) else out


class EnergyCurve:
    """Chebyshev interpolant of W^G(L) in log L at fixed substrate and field.

    The nodes are solved directly; build_energy_curve validates the
    interpolant against fresh solves at held-out points (budget 0.01 meV).
    """

    VALIDATION_BUDGET_MEV = 0.01

    def __init__(self, poly: Chebyshev, l_knots: np.ndarray, w_knots: np.ndarray,
                 validation_error: float):
        self.l_knots = l_knots
        self.w_knots = w_knots
        self.validation_error = validation_error
        self._poly = poly  # _log_chebyshev(l_knots, w_knots), fitted by build_energy_curve

    @property
    def l_range(self) -> tuple[float, float]:
        return float(self.l_knots[0]), float(self.l_knots[-1])

    def __call__(self, L):
        L_arr = np.asarray(L, dtype=float)
        lo, hi = self.l_range
        if np.any(L_arr < lo) or np.any(L_arr > hi):
            raise ValueError(f"thickness outside tabulated range [{lo}, {hi}] nm")
        out = self._poly(np.log(L_arr))
        return float(out) if np.isscalar(L) else out


def _log_chebyshev(l_nodes: np.ndarray, w_nodes: np.ndarray) -> Chebyshev:
    """Polynomial in log L through every (L, W) node: a square solve, exact to rounding."""
    x = np.log(l_nodes)
    domain = (x[0], x[-1])
    u = polyutils.mapdomain(x, domain, (-1.0, 1.0))
    return Chebyshev(np.linalg.solve(chebvander(u, x.size - 1), w_nodes), domain=domain)


CURVE_L_LIMITS = (1.0, 200.0)  # nm; thickness span an energy curve may cover
NODE_TOL_MEV = 1e-8  # held-out agreement that stops node doubling, ~10x solver rounding


def curve_range(L0: float, delta_L: float) -> tuple[float, float]:
    """Energy-curve thickness range for steps up to delta_L below L0, 0.5 nm margin each side."""
    return L0 - delta_L - 0.5, L0 + 0.5


def build_energy_curve(stack_template: DielectricStack, l_range: tuple[float, float],
                       n_knots: int = 60, *, z_max: float = Z_MAX) -> EnergyCurve:
    """Interpolate W^G at nested Chebyshev-Lobatto nodes in log L over l_range.

    The next level's new nodes are held out; while their worst error exceeds
    NODE_TOL_MEV and n_knots allows, they join the nodes (9, 17, 33, ...).
    Each solve takes stack_template, its field included, at the node's
    thickness, runs on its own solver_mesh(stack, z_max) and starts from the
    previous solve's ground state (perpendicular.WarmStart).
    """
    lo, hi = l_range
    if not (CURVE_L_LIMITS[0] <= lo < hi <= CURVE_L_LIMITS[1]):
        raise ValueError("l_range must lie within [%g, %g] nm" % CURVE_L_LIMITS)
    if n_knots < 20:
        raise ValueError("need at least 20 knots")
    mid, half = 0.5 * math.log(hi * lo), 0.5 * math.log(hi / lo)
    warm = WarmStart()

    def solve_at(l: np.ndarray) -> np.ndarray:
        # l ascends, so an unbound field fails on its first (thinnest) solve;
        # each solve starts from the ground state of the solve before it
        stacks = [replace(stack_template, thickness_L=float(L)) for L in l]
        return np.array([ground_state_energy(s, z_max=z_max, warm=warm)
                         for s in stacks])

    n = 8  # Lobatto level: n + 1 nodes, u = -cos(pi k / n)
    l_knots = np.exp(mid + half * -np.cos(np.pi * np.arange(n + 1) / n))
    l_knots[0], l_knots[-1] = lo, hi
    w_knots = solve_at(l_knots)
    while True:
        # level 2n adds u = -cos(pi (2k + 1) / 2n) between the current nodes
        l_held = np.exp(mid + half * -np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        w_held = solve_at(l_held)
        poly = _log_chebyshev(l_knots, w_knots)
        validation_error = float(np.max(np.abs(poly(np.log(l_held)) - w_held)))
        if validation_error <= NODE_TOL_MEV or 2 * n + 1 > n_knots:
            break
        l_knots = np.insert(l_knots, slice(1, n + 1), l_held)
        w_knots = np.insert(w_knots, slice(1, n + 1), w_held)
        n *= 2
    if validation_error > EnergyCurve.VALIDATION_BUDGET_MEV:
        raise CurveValidationError(
            f"held-out error {validation_error:.4f} meV with {l_knots.size} nodes "
            f"exceeds {EnergyCurve.VALIDATION_BUDGET_MEV} meV budget")
    return EnergyCurve(poly, l_knots, w_knots, validation_error)


def lta_potential(curve: EnergyCurve, profile: ThicknessProfile, rho):
    """Lateral potential V_par(rho) = W^G(L(rho)) - W^G(L0) in meV.

    The local-thickness approximation holds while the thickness varies
    slowly on the scale of the electron height above the surface, i.e. for
    a transition width b >~ h_e (perpendicular.mean_height: 1.63 nm over a
    superconductor at L = 10 nm, E_ex = 0); narrower steps are computed all
    the same.
    """
    return curve(thickness_at(profile, rho)) - curve(profile.L0)


@dataclass
class LateralSpectrum:
    """Lowest radial eigenvalue per angular momentum and derived observables.

    u_alpha maps alpha -> energy in meV.  rho_e is the mean radius of the
    first excited (alpha=1) state with the cylindrical measure rho drho;
    rho_e_line uses the plain drho measure for comparison.  states[alpha] is
    the radial solution R_alpha, which starts the next spectrum's solves.
    """

    u_alpha: dict
    rho_e: float
    rho_e_line: float
    bound: bool
    states: list[BoundStateSolution] = field(repr=False)

    @property
    def delta_u_mev(self) -> float:
        return self.u_alpha[1] - self.u_alpha[0]

    @property
    def delta_u_uev(self) -> float:
        return 1.0e3 * self.delta_u_mev


def radial_spectrum(potential, alpha_max: int = 1, *, breakpoints,
                    n_points: int = 16384,
                    start: LateralSpectrum | None = None) -> LateralSpectrum:
    """Lowest eigenvalue per alpha in {0..alpha_max} of the radial equation.

    potential is a callable rho[nm] -> V_par[meV].  The weak form
    integral of c rho R' phi' + (c alpha^2 / rho + V rho) R phi drho
    = E integral of rho R phi drho, c = hbar^2/2m_e, is solved on the radial
    mesh spectral_mesh(breakpoints, radial=True) over (0, ..., rho_max),
    hard wall at rho_max; a mesh is built once per distinct breakpoints.
    For alpha >= 1 the axis node is a wall; for alpha = 0 it carries no
    mass and is condensed out, which leaves the regular (no-flux) axis.
    The callable is sampled once per node, so a step placed on a
    breakpoint takes one value on both sides of it (the perpendicular mesh
    potential, by contrast, takes each element's value from inside); the
    pillar potentials are smooth, so this holds only for stepped test
    potentials.  n_points sizes nothing; it stays because the benchmark's tracer
    (perfbench/tracing.py) reads it.  start, a previous spectrum, seeds each
    alpha's solve with its state for that alpha; solve_lowest takes it only
    on the same mesh, and an alpha the start lacks solves dense.
    """
    if alpha_max < 1:
        raise ValueError("alpha_max must be >= 1")
    c = HBAR2_OVER_2ME
    mesh = spectral_mesh(tuple(breakpoints), radial=True)
    rho = mesh.nodes
    v = np.asarray(potential(rho), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite lateral potential sample")
    centrifugal = np.divide(c, rho * rho, out=np.zeros_like(rho), where=rho > 0.0)

    starts = start.states if start is not None else []
    states = []
    for alpha in range(alpha_max + 1):
        h = build_hamiltonian(v + alpha * alpha * centrifugal, mesh)
        if alpha == 0:  # static condensation of the axis node
            h -= c * np.outer(mesh.axis, mesh.axis)
        states.append(solve_lowest(h, mesh, 1,
                                   start=starts[alpha] if alpha < len(starts) else None))
    u_alpha = {alpha: float(sol.energies[0]) for alpha, sol in enumerate(states)}

    # R_1 on the nodes off the axis, normalized by the integral of rho R_1^2
    r, m, r1 = mesh.points[1:-1], mesh.mass[1:-1], states[1].wavefunctions[0, 1:-1]
    rho_e = float(np.sum(m * r * r1 ** 2))
    rho_e_line = float(1.0 / np.sum(m / r * r1 ** 2))

    # bound if the ground state sits below the far-field potential rim and
    # its density rho R_0^2 does not lean on the outer wall
    bound = u_alpha[0] < float(v[-1, -1]) and states[0].is_bound()
    return LateralSpectrum(u_alpha=u_alpha, rho_e=rho_e, rho_e_line=rho_e_line,
                           bound=bound, states=states)


def default_rho_max(R: float) -> float:
    """Radial box (nm) for a pillar of radius R: wide enough that V_par is flat at the wall."""
    return max(3.0 * R, R + 200.0)


def pillar_breakpoints(R: float, b: float, rho_max: float) -> tuple:
    """Radial mesh breakpoints (0, ..., rho_max) for a pillar of radius R and step width b.

    Four elements of 4b cover the step, R - 8b to R + 8b.  One element covers
    the pillar inside it, two when that span is longer than 96b.  Outside, the
    element lengths grow from 16b by a factor of 3 up to rho_max.  Breakpoints
    within b of the axis or of rho_max are dropped.
    """
    inner = R - 8.0 * b
    points = [0.5 * inner] if inner > 96.0 * b else []
    points += [inner + 4.0 * b * k for k in range(5)]
    length = 16.0 * b
    while points[-1] < rho_max:
        points.append(points[-1] + length)
        length *= 3.0
    return (0.0, *(float(p) for p in points if b <= p <= rho_max - b), float(rho_max))


def pillar_spectrum(curve: EnergyCurve, profile: PillarProfile, *,
                    alpha_max: int = 1, rho_max: float | None = None,
                    start: LateralSpectrum | None = None) -> LateralSpectrum:
    """Radial spectrum of the trap formed by a pillar profile, on pillar_breakpoints.

    start, a previous spectrum, chains its solves to that one's (radial_spectrum).
    """
    if rho_max is None:
        rho_max = default_rho_max(profile.R)
    pot = lambda r: lta_potential(curve, profile, r)
    return radial_spectrum(pot, alpha_max,
                           breakpoints=pillar_breakpoints(profile.R, profile.b, rho_max),
                           start=start)


def harmonic_field_model(hbar_omega0_uev: float, beta1: float, e_ex: float) -> float:
    """Delta U of the harmonic trap model, sqrt((hbar w0)^2 + beta1 E_ex), in ueV.

    beta1 (ueV^2 per V/m) absorbs hbar^2/m_e times the microscopic
    field-coupling coefficient.  A negative radicand means the field has
    destroyed the trap.
    """
    radicand = hbar_omega0_uev ** 2 + beta1 * e_ex
    if radicand < 0.0:
        raise ModelInvalidError(
            f"field {e_ex} V/m destroys the harmonic trap (negative radicand)")
    return math.sqrt(radicand)


def fit_harmonic_field_model(e_ex, delta_u_uev) -> tuple[float, float]:
    """Least-squares fit of (hbar w0, beta1) from a Delta U(E_ex) table.

    Linear regression on Delta U^2 = (hbar w0)^2 + beta1 E_ex.
    """
    e = np.asarray(e_ex, dtype=float)
    du = np.asarray(delta_u_uev, dtype=float)
    if e.size < 2:
        raise ValueError("need at least two field points to fit")
    a = np.column_stack([np.ones_like(e), e])
    coef, *_ = np.linalg.lstsq(a, du ** 2, rcond=None)
    p0, p1 = coef
    if p0 < 0.0:
        raise ModelInvalidError("fit produced a negative zero-field stiffness")
    return math.sqrt(p0), float(p1)


def near_zero_slopes(e_ex, delta_u_uev) -> tuple[float | None, float | None]:
    """One-sided dDelta U/dE_ex slopes (ueV per V/m) between E_ex = 0 and the
    nearest field on each side of it, from the points fit_harmonic_field_model
    takes; (None, None) without E_ex = 0 or without a field on either side.
    """
    points = list(zip(e_ex, delta_u_uev))
    zero = [p for p in points if p[0] == 0.0]
    neg = [p for p in points if p[0] < 0.0]
    pos = [p for p in points if p[0] > 0.0]
    if not zero or not neg or not pos:
        return None, None
    (ez, dz), (en, dn) = zero[0], max(neg, key=lambda p: p[0])
    ep, dp = min(pos, key=lambda p: p[0])
    return (dz - dn) / (ez - en), (dp - dz) / (ep - ez)
