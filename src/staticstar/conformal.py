"""Conformally flat fluid models built from quadric invariants.

The construction lives on R^n with metric g = phi^{-2} delta.  The conformal
factor is a profile phi(u) in a *basic invariant*

    u(x) = sum_i (tau x_i^2 + alpha_i x_i + beta_i),

whose two identities

    |grad u|^2 = 4 tau u + C,      Lap u = 2 n tau,
    C = sum_i (alpha_i^2 - 4 tau beta_i),

close the field equations into ordinary differential relations in u.  The
lapse then satisfies the linear ODE (in the invariant variable)

    (n-2) f phi'' - f'' phi - 2 phi' f' = 0,

and the fluid follows algebraically:

    mu_geo  = (n-1)/2 * [ 4 n tau phi phi'
                          + (2 phi phi'' - n phi'^2)(4 tau u + C) ]
    rho_geo =  [ (n-1) Lap_g f / f - (n-2) mu_geo ] / n,

with Lap_g f = phi^2 [ f'' q + 2 n tau f' + (2-n) phi' f' q / phi ],
q = 4 tau u + C.  A second, independent closed form for the pressure, which
eliminates f'' through the lapse ODE instead of taking the trace, is the
oracle ``tests/test_conformal.py`` compares this route against on solutions.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, DomainError, SignLoss, StepFailure
from .geometry import (
    ConformalFlat,
    FluidData,
    Piece,
    ResidualReport,
    _entry,
    _report,
    _spf_arrays_conformal,
    _spf_report_conformal,
    to_physical,
)
from .numerics import (
    EPS_DOM,
    ProfileAt,
    RadialFunction,
    as_points,
    chebyshev_grid,
    solve_ivp,
)

__all__ = [
    "BasicInvariant",
    "witten_lapse",
    "solve_lapse",
    "ConformalModel",
    "build_model",
    "N_MAX",
]

# Seed of build_model's random off-axis check ray: one fixed draw, so builds
# are reproducible.
_OFF_AXIS_SEED = 7

# The largest dimension n build_model takes.  Its checks hold (N, n, n)
# Hessians; ``build --phi unit --n N`` peaks at about 37 MiB + 1.8 kB * n^2
# (ru_maxrss at n = 64 to 256, CPython 3.11, numpy 2.4, x86-64 Linux), so
# this n stays near the 1.6 GiB a grid of GRID_N_MAX points takes.
N_MAX = 960


# ----------------------------------------------------------------------------
# basic invariants
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BasicInvariant:
    """u(x) = sum(tau x_i^2 + alpha_i x_i + beta_i) on R^n.

    ``C`` is computed from (tau, alpha, beta) on first read; it is not an input.
    For tau > 0 the level sets are round spheres about ``center``; for tau = 0
    with alpha != 0 they are parallel hyperplanes; tau = 0 = alpha is the
    degenerate case (u constant).  tau < 0, whose level sets ``point_at``
    does not sample, and a non-finite tau, alpha or beta are BadParams.
    """

    tau: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise BadParams(
                f"alpha and beta lengths differ: {len(self.alpha)} vs {len(self.beta)}"
            )
        if len(self.alpha) == 0:
            raise BadParams("invariant needs at least one coordinate")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "tau", float(self.tau))
        if not all(map(math.isfinite, (self.tau, *self.alpha, *self.beta))):
            raise BadParams(f"invariant needs finite tau, alpha and beta, got tau={self.tau}, "
                            f"alpha={self.alpha}, beta={self.beta}")
        if self.tau < 0.0:
            raise BadParams(f"invariant needs tau >= 0, got tau={self.tau}")

    @property
    def n(self) -> int:
        return len(self.alpha)

    @functools.cached_property
    def C(self) -> float:
        return float(sum(a * a - 4.0 * self.tau * b for a, b in zip(self.alpha, self.beta)))

    def grad_sq(self, u):
        """q = |grad u|^2 = 4 tau u + C, a function of u alone; elementwise."""
        return 4.0 * self.tau * u + self.C

    @property
    def degenerate(self) -> bool:
        return self.tau == 0.0 and all(a == 0.0 for a in self.alpha)

    @property
    def center(self) -> np.ndarray:
        """Center of the level spheres (tau > 0 only)."""
        if self.tau == 0.0:
            raise DomainError("tau = 0 invariants have no spherical center")
        return -np.asarray(self.alpha) / (2.0 * self.tau)

    def value(self, x):
        """u at one point ``(n,)`` (a float) or at each row of ``(N, n)``."""
        x = as_points(x, self.n)
        a = np.asarray(self.alpha)
        b = np.asarray(self.beta)
        return np.sum(self.tau * x * x + a * x + b, axis=-1)

    def sphere_radius(self, u):
        """Euclidean radius of the level sphere {u(x) = u} (tau > 0), elementwise."""
        if self.tau <= 0.0:
            raise DomainError("level sets are spheres only for tau > 0")
        disc = self.grad_sq(np.asarray(u, dtype=float))
        if np.any(disc < 0.0):
            raise DomainError(f"empty level set: 4 tau u + C = {np.min(disc)} < 0")
        return np.sqrt(disc) / (2.0 * self.tau)

    def point_at(self, u, direction=None) -> np.ndarray:
        """Points x with u(x) = u, on the ray ``direction`` from the center.

        tau > 0: center + s(u) * e (e defaults to the first axis).
        tau = 0, alpha != 0: moves along alpha from the plane u = sum(beta).
        A float u gives one point ``(n,)``; an array gives ``u.shape + (n,)``.
        """
        u = np.asarray(u, dtype=float)
        if self.tau > 0.0:
            s = self.sphere_radius(u)
            if direction is None:
                e = np.zeros(self.n)
                e[0] = 1.0
            else:
                e = np.asarray(direction, dtype=float)
                nrm = float(np.linalg.norm(e))
                if nrm == 0.0:
                    raise BadParams("direction must be nonzero")
                e = e / nrm
            return self.center + s[..., None] * e
        a = np.asarray(self.alpha)
        a2 = float(a @ a)
        if a2 == 0.0:
            raise DomainError("degenerate invariant: u is constant")
        return ((u - float(np.sum(self.beta))) / a2)[..., None] * a

    def gradient(self, x) -> np.ndarray:
        """grad u = 2 tau x + alpha at one point ``(n,)`` or at each row of ``(N, n)``."""
        return 2.0 * self.tau * as_points(x, self.n) + np.asarray(self.alpha)

    def hessian(self, x) -> np.ndarray:
        """Hess u = 2 tau I, broadcast to ``(n, n)`` or ``(N, n, n)`` (read-only)."""
        x = as_points(x, self.n)
        return np.broadcast_to(2.0 * self.tau * np.eye(self.n), x.shape + (self.n,))


# ----------------------------------------------------------------------------
# lapse solutions
# ----------------------------------------------------------------------------

def _witten_form(n: int, A: float, B: float, lam):
    """A sin(w lam) + B cos(w lam) with w = sqrt(n-2)/2: the Witten lapse in
    its phase lam = log(1 + u) = 2 log(cosh r).

    Each chart supplies its own lam; a float, an array or a :class:`Jet`
    passes through.
    """
    phase = 0.5 * math.sqrt(n - 2.0) * lam
    return A * np.sin(phase) + B * np.cos(phase)


def witten_lapse(n: int, A: float, B: float, r):
    """Closed-form lapse in the warped variable: A sin(w L) + B cos(w L).

    L = 2 log(cosh r) and w = sqrt(n-2)/2.  (In the invariant variable
    u = sinh^2 r this is the Euler-equation solution with frequency
    sqrt(n-2)/2 in log(1+u).)  A float, an array or a :class:`Jet` passes
    through; a float gives a float.
    """
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    return _witten_form(n, A, B, 2.0 * np.log(np.cosh(r)))


def _witten_u_lapse(n: int, A: float, B: float, domain) -> RadialFunction:
    """The same solution as a RadialFunction of the invariant u (analytic)."""
    return RadialFunction.from_formula(lambda u: _witten_form(n, A, B, np.log1p(u)), domain)


def _witten_u_zero(n: int, A: float, B: float, u0: float) -> float:
    """The first downward zero u >= u0 of the u-lapse A sin(psi) + B cos(psi),
    psi = w log(1 + u): where its phase psi + atan2(B, A) reaches pi mod 2 pi."""
    w = 0.5 * math.sqrt(n - 2.0)
    theta = math.atan2(B, A)
    k = math.ceil((w * math.log1p(u0) + theta - math.pi) / (2.0 * math.pi))
    return math.expm1((math.pi * (2 * k + 1) - theta) / w)


def _lapse_end(u_zero: float | None, u0: float, u1: float) -> float:
    """The end of a lapse's domain on the span [u0, u1]: u1, or just before
    its first downward zero ``u_zero`` in the span, beyond which the
    solution is meaningless, by max(EPS_DOM, 1e-9 (u_zero - u0)).  A zero at
    the left end, which would leave nothing, is a SignLoss."""
    if u_zero is None or u_zero > u1:
        return u1
    u_end = u_zero - max(EPS_DOM, 1e-9 * (u_zero - u0))
    if u_end <= u0:
        raise SignLoss(f"lapse crossed zero immediately at u={u_zero}")
    return u_end


def solve_lapse(
    phi: RadialFunction,
    n: int,
    span: tuple[float, float],
    ic: tuple[float, float],
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> RadialFunction:
    """Integrate (n-2) f phi'' = f'' phi + 2 phi' f' across ``span`` in u.

    ``ic = (f, f')`` at ``span[0]``.  The returned RadialFunction reads the
    integrator's dense output as one piecewise polynomial: the value and
    first derivative are its two components, and the second derivative is
    evaluated from the ODE right-hand side on one reading of phi at the
    points (exact given the solution), not by differencing.

    If the lapse crosses zero downward the returned domain stops just before
    the crossing, as every lapse of :func:`build_model` does; a crossing at
    the left end, which would leave nothing, is a SignLoss.  A phi that is
    not positive, or a phi, phi' or phi'' that is not finite, where the
    integrator reads it is a DomainError naming u.  StepFailure propagates
    integrator breakdowns, and :func:`solve_ivp`'s BadParams a negative or
    NaN tolerance.
    """
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    u0, u1 = float(span[0]), float(span[1])
    if not u0 < u1:
        raise BadParams(f"need an increasing span, got {span}")

    def rhs(u, y):
        p = float(phi.value(u))
        if p <= 0.0:
            raise DomainError(f"conformal factor non-positive at u={u}")
        p1 = float(phi.d1(u))
        p2 = float(phi.d2(u))
        if not (math.isfinite(p) and math.isfinite(p1) and math.isfinite(p2)):
            # a NaN would otherwise shrink the step until it underflows
            raise DomainError(f"conformal factor or its derivatives not finite at u={u}: "
                              f"phi={p}, phi'={p1}, phi''={p2}")
        return (y[1], ((n - 2.0) * y[0] * p2 - 2.0 * p1 * y[1]) / p)

    def lapse_zero(u, y):
        return y[0]

    lapse_zero.terminal = True
    lapse_zero.direction = -1.0

    sol = solve_ivp(
        rhs,
        (u0, u1),
        (float(ic[0]), float(ic[1])),
        rtol=rel_tol,
        atol=abs_tol,
        events=(lapse_zero,),
    )
    if sol.status == -1:
        raise StepFailure(f"lapse integration failed at u={sol.t[-1]}: {sol.message}")

    dense = sol.dense

    def d2(u):
        u = np.asarray(u, dtype=float)
        y = dense(u)
        at = ProfileAt(phi, u).with_derivatives()
        out = ((n - 2.0) * y[..., 0] * at.d2 - 2.0 * at.d1 * y[..., 1]) / at.v
        return float(out) if out.ndim == 0 else out

    u_zero = float(sol.t_events[0][0]) if len(sol.t_events[0]) else None
    return RadialFunction(dense.component(0), dense.component(1), d2, provenance="analytic",
                          domain=(u0, _lapse_end(u_zero, u0, u1)))


# ----------------------------------------------------------------------------
# fluid from (phi, f)
# ----------------------------------------------------------------------------

def _geo_pair(invariant: BasicInvariant, n: int, u, phi: ProfileAt, f: ProfileAt,
              rows=...):
    """(mu_geo, rho_geo) at u[rows] from the readings of phi and f at u, with
    rho via the conformal-Laplacian trace route.  The algebra is elementwise,
    so a pair formed on some rows of a reading has the bits of one formed on
    a reading of those rows alone."""
    p, p1, p2 = phi.v[rows], phi.d1[rows], phi.d2[rows]
    fv, f1, f2 = f.v[rows], f.d1[rows], f.d2[rows]
    if np.any(p <= 0.0):
        raise DomainError("conformal factor non-positive on evaluation set")
    if np.any(fv == 0.0):
        raise DomainError("lapse vanishes on evaluation set")
    tau = invariant.tau
    q = invariant.grad_sq(u[rows])
    mu_geo = 0.5 * (n - 1) * (4.0 * n * tau * p * p1 + (2.0 * p * p2 - n * p1 * p1) * q)
    lap_flat_part = f2 * q + 2.0 * n * tau * f1 + (2.0 - n) * p1 * f1 * q / p
    lap_g = p * p * lap_flat_part
    rho_geo = ((n - 1) * lap_g / fv - (n - 2) * mu_geo) / n
    return mu_geo, rho_geo


# ----------------------------------------------------------------------------
# assembled models
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalModel:
    """A conformally flat static fluid: factor phi(u), lapse f(u), invariant.

    ``checks`` holds the construction-time validation reports (lapse ODE
    residual, traceless field equations on- and off-axis, scalar-curvature
    closure); ``passed`` aggregates them.  ``truncated`` records that the
    lapse lost positivity before the requested span ended and the domain was
    cut back.  ``n`` and ``degenerate`` are read from the invariant.

    ``domain`` is the lapse's domain, and its ends may be zeros of f (the
    witten preset's default lapse starts on one), where ``mu`` and ``rho``
    raise DomainError or blow up; ``pieces[0].interval`` and its
    ``scan_interval`` are the windows to evaluate the fluid on.
    """

    phi: RadialFunction
    f: RadialFunction
    invariant: BasicInvariant
    lam: float
    domain: tuple[float, float]
    label: str = "custom"
    truncated: bool = False
    checks: dict = field(default_factory=dict, repr=False)
    _geo_last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.invariant.n

    @property
    def degenerate(self) -> bool:
        return self.invariant.degenerate

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.checks.values())

    def _geo(self, u):
        """(mu_geo, rho_geo) at u; the four accessors share one evaluation
        per set of points, as the residual checks call them.  The shared
        arrays are read-only, and the pair is replaced in one assignment."""
        points, pair = self._geo_last
        if points is None or not np.array_equal(points, u):
            u = np.asarray(u, dtype=float)
            pair = _geo_pair(self.invariant, self.n, u,
                             ProfileAt(self.phi, u), ProfileAt(self.f, u))
            for part in pair:
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            object.__setattr__(self, "_geo_last", (np.array(u, dtype=float), pair))
        return pair

    def mu(self, u):
        return to_physical(*self._geo(u), self.lam)[0]

    def rho(self, u):
        return to_physical(*self._geo(u), self.lam)[1]

    def mu_geo(self, u):
        return self._geo(u)[0]

    def fluid(self) -> FluidData:
        return FluidData(f=self.f, mu=self.mu_geo, rho=lambda u: self._geo(u)[1])

    @property
    def pieces(self) -> list[Piece]:
        """The model as one :class:`Piece`, built on each read, with the
        windows :func:`_windows` gives its domain."""
        interval, scan_interval = _windows(*self.domain)
        return [Piece(self.label, ConformalFlat(self.phi, self.invariant), self.f,
                      mu_phys=self.mu, rho_phys=self.rho, interval=interval,
                      scan_interval=scan_interval, lam=self.lam)]


def _windows(lo: float, hi: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two windows of a conformal model on the domain [lo, hi]: the
    domain less max(1e-6 span, 1e-9) at each end, where the build's checks
    sample, and less max(1e-9, 1e-9 span), where level sets are searched.
    The first is empty on a domain at most 2e-9 long."""
    pad, scan_pad = max(1e-6 * (hi - lo), 1e-9), max(1e-9, 1e-9 * (hi - lo))
    return (lo + pad, hi - pad), (lo + scan_pad, hi - scan_pad)


def _too_short(lo: float, hi: float) -> bool:
    """Whether the domain [lo, hi] leaves the build's checks no window."""
    start, end = _windows(lo, hi)[0]
    return not start < end


def _ode_residual_report(phi_at: ProfileAt, f_at: ProfileAt, n, grid, tol) -> ResidualReport:
    """The lapse-ODE residual on ``grid`` from the readings of phi and f there."""
    res = (n - 2.0) * f_at.v * phi_at.d2 - f_at.d2 * phi_at.v - 2.0 * phi_at.d1 * f_at.d1
    return _report([_entry("lapse-ode", res, grid)], grid, tol)


@functools.cache
def _off_axis_draw(n: int) -> np.ndarray:
    """The one standard-normal draw behind build_model's off-axis ray on R^n,
    read-only."""
    vec = np.random.default_rng(_OFF_AXIS_SEED).standard_normal(n)
    vec.flags.writeable = False
    return vec


def build_model(
    phi="witten",
    n: int = 3,
    ic: tuple[float, float] | None = None,
    invariant: BasicInvariant | None = None,
    lam: float = 0.0,
    span: tuple[float, float] = (0.0, 10.0),
) -> ConformalModel:
    """Assemble and validate a conformally flat model.

    ``phi`` is a RadialFunction in the invariant variable, or one of the
    presets ``"witten"`` (phi = sqrt(1+u), closed-form lapse — no integration)
    and ``"unit"`` (phi = 1, affine lapse).  ``ic = (f, f')`` at ``span[0]``;
    preset defaults: witten (0, sqrt(n-2)/2) — the pure-sine solution — and
    unit (1, 0).  A ``span`` that is not finite and increasing, or that
    starts below the invariant's range u >= -C/(4 tau) (tau > 0), a
    non-finite ``lam`` or a non-finite ``ic`` is BadParams, as is n above
    ``N_MAX``.  Every lapse, preset or solved, is cut just before its first
    downward zero in the span (``truncated``), as :func:`solve_lapse` cuts;
    a start on such a zero, f = 0 with f' <= 0, is a SignLoss.  The checks
    sample the domain less max(1e-6 span, 1e-9) at each end, which leaves
    nothing of a domain at most 2e-9 long: such a span is BadParams, and a
    cut that leaves such a domain is a SignLoss naming the zero.

    Construction always runs four independent validations (a degenerate
    invariant, whose lapse is the constant f(u0) (SignLoss if 0, DomainError
    if negative, BadParams if f'(u0) != 0) and whose fluid is the vacuum pair, runs none):
    the lapse-ODE residual, the traceless field equations sampled on the
    reference ray and on a fixed random off-axis ray, and the closure of the
    closed-form density against R/2 computed by the generic
    conformal-curvature machinery.  The last three share one batched evaluation: both rays are
    stacked into one set of points, the curvature and the lapse Hessian are
    evaluated on it once, and each report reads its slice.  Results land in
    ``.checks``; nothing is raised on failure — inspect ``.passed``.

    A build reads phi and f (value, first and second derivative) on two
    point sets: the lapse-ODE residual's 64-point grid, whose readings at
    every fourth grid value also give the rays' fluid, and u on the stacked
    rays.  So a custom phi must be elementwise, as a RadialFunction's
    vectorized callables are: its value at a point may not depend on the
    other points read with it.
    """
    if not 3 <= n <= N_MAX:
        raise BadParams(f"need 3 <= n <= {N_MAX}, got {n}")
    if invariant is None:
        invariant = BasicInvariant(1.0, (0.0,) * n, (0.0,) * n)
    if invariant.n != n:
        raise BadParams(f"invariant lives on R^{invariant.n}, model wants n={n}")
    u0, u1 = float(span[0]), float(span[1])
    if not (math.isfinite(u0) and math.isfinite(u1) and u0 < u1):
        raise BadParams(f"span must be finite and increasing, got {span}")
    if _too_short(u0, u1):
        raise BadParams(f"span {span} is too short for the checks, which sample it less "
                        f"max(1e-6 span, 1e-9) at each end: it must be longer than 2e-9")
    if not all(map(math.isfinite, (lam, *(ic or ())))):
        raise BadParams(f"lam and ic must be finite, got lam={lam}, ic={ic}")
    disc = invariant.grad_sq(u0)
    if invariant.tau > 0.0 and disc < 0.0:
        raise BadParams(f"span starts at u = {u0}, below the invariant's range "
                        f"u >= -C/(4 tau): its level set is empty, 4 tau u + C = {disc} < 0")
    if isinstance(phi, str) and phi not in ("witten", "unit"):
        raise BadParams(f"unknown phi preset {phi!r} (use 'witten' or 'unit')")
    if ic is not None and ic[0] == 0.0 and (ic[1] <= 0.0 or invariant.degenerate):
        # a zero at u0 that goes down (or stays, on a degenerate invariant)
        raise SignLoss(f"lapse crossed zero immediately at u={u0}")
    label = phi if isinstance(phi, str) else "custom"

    if invariant.degenerate:
        # u is constant: the metric is a constant rescaling of flat space, the
        # lapse is the constant f(u0) and the fluid degenerates to the vacuum
        # pair (-Lambda, +Lambda)/8 pi.
        if ic is not None and ic[0] < 0.0:
            raise DomainError(f"lapse non-positive at grid value {u0}")
        if ic is not None and ic[1] != 0.0:
            raise BadParams(f"a degenerate invariant's lapse is constant, not f'(u0) = {ic[1]}")
        everywhere = (-math.inf, math.inf)
        return ConformalModel(
            phi=RadialFunction.constant(1.0, everywhere) if isinstance(phi, str) else phi,
            f=RadialFunction.constant(ic[0] if ic else 1.0, everywhere),
            invariant=invariant, lam=lam, domain=(u0, u1), label=label,
        )

    if isinstance(phi, str):
        if phi == "witten":
            phi_rf = RadialFunction.from_formula(
                lambda u: np.sqrt(1.0 + u), (-1.0 + EPS_DOM, math.inf)
            )
            if u0 <= -1.0:
                raise DomainError(f"conformal factor sqrt(1 + u) non-positive at u={u0}")
            if ic is None:
                A, B = 1.0, 0.0
            else:
                # rotate (f, f') at u0 into the (A, B) basis
                basis = [_witten_u_lapse(n, *ab, (u0, u1)) for ab in ((1.0, 0.0), (0.0, 1.0))]
                mat = [[g(u0) for g in basis], [g.d1(u0) for g in basis]]
                A, B = (float(c) for c in np.linalg.solve(mat, np.asarray(ic, dtype=float)))
            u_zero = _witten_u_zero(n, A, B, u0)
            f_rf = _witten_u_lapse(n, A, B, (u0, _lapse_end(u_zero, u0, u1)))
        else:  # "unit"
            phi_rf = RadialFunction.constant(1.0, (-math.inf, math.inf))
            f0, f1 = ic if ic is not None else (1.0, 0.0)
            # ODE reduces to f'' = 0: affine lapse
            u_zero = u0 - f0 / f1 if f1 < 0.0 <= f0 else None
            u_end = _lapse_end(u_zero, u0, u1)
            f_rf = RadialFunction.from_formula(lambda u: f0 + f1 * (u - u0), (u0, u_end))
    else:
        phi_rf = phi
        f_rf = solve_lapse(phi_rf, n, (u0, u1), ic if ic is not None else (1.0, 0.0))
        u_zero = None  # solve_lapse returns its lapse's cut, not the zero

    domain = f_rf.domain
    if _too_short(*domain):
        # the span passed this test, so the lapse was cut
        where = f"at u={u_zero}" if u_zero is not None else f"just past u={domain[1]}"
        raise SignLoss(f"lapse crosses zero {where}, which leaves the domain "
                       f"[{u0}, {domain[1]}], too short for the checks, which sample it "
                       f"less max(1e-6 span, 1e-9) at each end")
    model = ConformalModel(
        phi=phi_rf, f=f_rf, invariant=invariant, lam=lam,
        domain=domain, label=label, truncated=domain[1] < u1,
    )
    piece = model.pieces[0]
    grid = chebyshev_grid(*piece.interval, 64)
    # phi and f are read once on the 64-point grid: the lapse-ODE residual
    # reads them there, and the rays' fluid at its rows ``ray_rows``
    phi_at, f_at = (ProfileAt(rf, grid).with_derivatives() for rf in (phi_rf, f_rf))
    checks = {"lapse-ode": _ode_residual_report(phi_at, f_at, n, grid, tol=1e-9)}

    # the on- and off-axis residuals and the closure read one batched
    # evaluation of both rays
    sparse_rows = np.arange(0, len(grid), max(1, len(grid) // 16))
    sparse = grid[sparse_rows]
    on_axis = invariant.point_at(sparse)
    if invariant.tau > 0.0:
        off_axis = invariant.point_at(sparse, direction=_off_axis_draw(n))
    else:
        a = np.asarray(invariant.alpha)
        w = _off_axis_draw(n)
        off_axis = on_axis + (w - (w @ a) / (a @ a) * a)
    points = np.concatenate([on_axis, off_axis])
    ray_rows = np.concatenate([sparse_rows, sparse_rows])
    rays = grid[ray_rows]
    residuals, r_scal, batch = _spf_arrays_conformal(
        piece.ansatz, f_rf, points, rays,
        lambda: _geo_pair(invariant, n, grid, phi_at, f_at, ray_rows))
    k = len(sparse)
    checks["field[on-axis]"] = _spf_report_conformal(residuals, rays, slice(None, k), tol=1e-7)
    checks["field[off-axis]"] = _spf_report_conformal(residuals, rays, slice(k, None), tol=1e-7)

    # the closed-form mu_geo against R/2 from the generic curvature route,
    # both read from the batch's u(x) and its readings of phi and f
    us = batch.u
    closure = _geo_pair(invariant, n, us, batch.phi, batch.f)[0] - 0.5 * r_scal
    checks["closure"] = _report([_entry("mu-vs-half-R", closure, us)], us, tol=1e-7)

    return dataclasses.replace(model, checks=checks)
