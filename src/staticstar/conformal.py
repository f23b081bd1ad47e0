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
    ResidualReport,
    _entry,
    _report,
    _spf_arrays_conformal,
    _spf_report_conformal,
    to_physical,
)
from .numerics import (
    EPS_DOM,
    RadialFunction,
    ScalarField,
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

    ``C`` is always recomputed from (tau, alpha, beta); it is not an input.
    For tau > 0 the level sets are round spheres about ``center``; for tau = 0
    with alpha != 0 they are parallel hyperplanes; tau = 0 = alpha is the
    degenerate case (u constant).
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

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def C(self) -> float:
        return float(sum(a * a - 4.0 * self.tau * b for a, b in zip(self.alpha, self.beta)))

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
        disc = 4.0 * self.tau * np.asarray(u, dtype=float) + self.C
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

    def as_field(self) -> ScalarField:
        """The invariant as an exact ScalarField (polynomial derivatives)."""
        m = self.n
        a = np.asarray(self.alpha)
        tau = self.tau

        hess = 2.0 * tau * np.eye(m)
        return ScalarField(
            value=self.value,
            gradient=lambda x: 2.0 * tau * as_points(x, m) + a,
            hessian=lambda x: np.broadcast_to(hess, as_points(x, m).shape + (m,)),
            n=m,
        )


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
    solution is meaningless.  A zero at the left end, which would leave
    nothing, is a SignLoss."""
    if u_zero is None or u_zero > u1:
        return u1
    u_end = u_zero - max(EPS_DOM, 1e-9 * (u1 - u0))
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
    evaluated from the ODE right-hand side (exact given the solution), not
    by differencing.

    If the lapse crosses zero downward the returned domain stops just before
    the crossing, as every lapse of :func:`build_model` does; a crossing at
    the left end, which would leave nothing, is a SignLoss.  StepFailure
    propagates integrator breakdowns, and :func:`solve_ivp`'s BadParams a
    negative or NaN tolerance.
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
        p = np.asarray(phi.value(u), dtype=float)
        p1 = np.asarray(phi.d1(u), dtype=float)
        p2 = np.asarray(phi.d2(u), dtype=float)
        out = ((n - 2.0) * y[..., 0] * p2 - 2.0 * p1 * y[..., 1]) / p
        return float(out) if out.ndim == 0 else out

    u_zero = float(sol.t_events[0][0]) if len(sol.t_events[0]) else None
    return RadialFunction(dense.component(0), dense.component(1), d2, provenance="analytic",
                          domain=(u0, _lapse_end(u_zero, u0, u1)))


# ----------------------------------------------------------------------------
# fluid from (phi, f)
# ----------------------------------------------------------------------------

def _geo_pair(phi: RadialFunction, f: RadialFunction, invariant: BasicInvariant,
              n: int, u):
    """(mu_geo, rho_geo) at u, with rho via the conformal-Laplacian trace route."""
    u = np.asarray(u, dtype=float)
    tau, C = invariant.tau, invariant.C
    q = 4.0 * tau * u + C
    p = np.asarray(phi.value(u), dtype=float)
    p1 = np.asarray(phi.d1(u), dtype=float)
    p2 = np.asarray(phi.d2(u), dtype=float)
    fv = np.asarray(f.value(u), dtype=float)
    f1 = np.asarray(f.d1(u), dtype=float)
    f2 = np.asarray(f.d2(u), dtype=float)
    if np.any(p <= 0.0):
        raise DomainError("conformal factor non-positive on evaluation set")
    if np.any(fv == 0.0):
        raise DomainError("lapse vanishes on evaluation set")

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
            pair = _geo_pair(self.phi, self.f, self.invariant, self.n, u)
            for part in pair:
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            object.__setattr__(self, "_geo_last", (np.array(u, dtype=float), pair))
        return pair

    def mu(self, u):
        return to_physical(*self._geo(u), self.lam)[0]

    def rho(self, u):
        return to_physical(*self._geo(u), self.lam)[1]

    def rho_geo(self, u):
        return self._geo(u)[1]

    def mu_geo(self, u):
        return self._geo(u)[0]

    def to_ansatz(self) -> ConformalFlat:
        return ConformalFlat(self.phi, self.invariant)

    def fluid(self) -> FluidData:
        return FluidData(f=self.f, mu=self.mu_geo, rho=self.rho_geo)


def _ode_residual_report(phi, f, n, grid, tol) -> ResidualReport:
    p = np.asarray(phi.value(grid), dtype=float)
    p1 = np.asarray(phi.d1(grid), dtype=float)
    p2 = np.asarray(phi.d2(grid), dtype=float)
    fv = np.asarray(f.value(grid), dtype=float)
    f1 = np.asarray(f.d1(grid), dtype=float)
    f2 = np.asarray(f.d2(grid), dtype=float)
    res = (n - 2.0) * fv * p2 - f2 * p - 2.0 * p1 * f1
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
    a start on such a zero, f = 0 with f' <= 0, is a SignLoss.

    Construction always runs four independent validations (a degenerate
    invariant, whose lapse is the constant f(u0), SignLoss if 0 and
    DomainError if negative, and whose fluid is the vacuum pair, runs none):
    the lapse-ODE residual, the traceless field equations sampled on the
    reference ray and on a fixed random off-axis ray, and the closure of the
    closed-form density against R/2 computed by the generic
    conformal-curvature machinery.  The last three share one batched evaluation: both rays are
    stacked into one set of points, the curvature and the lapse Hessian are
    evaluated on it once, and each report reads its slice.  Results land in
    ``.checks``; nothing is raised on failure — inspect ``.passed``.
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
    if not all(map(math.isfinite, (lam, *(ic or ())))):
        raise BadParams(f"lam and ic must be finite, got lam={lam}, ic={ic}")
    disc = 4.0 * invariant.tau * u0 + invariant.C
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
            u_end = _lapse_end(_witten_u_zero(n, A, B, u0), u0, u1)
            f_rf = _witten_u_lapse(n, A, B, (u0, u_end))
        else:  # "unit"
            phi_rf = RadialFunction.constant(1.0, (-math.inf, math.inf))
            f0, f1 = ic if ic is not None else (1.0, 0.0)
            # ODE reduces to f'' = 0: affine lapse
            u_end = _lapse_end(u0 - f0 / f1 if f1 < 0.0 <= f0 else None, u0, u1)
            f_rf = RadialFunction.from_formula(lambda u: f0 + f1 * (u - u0), (u0, u_end))
    else:
        phi_rf = phi
        f_rf = solve_lapse(phi_rf, n, (u0, u1), ic if ic is not None else (1.0, 0.0))

    domain = f_rf.domain
    model = ConformalModel(
        phi=phi_rf, f=f_rf, invariant=invariant, lam=lam,
        domain=domain, label=label, truncated=domain[1] < u1,
    )
    lo, hi = domain
    pad = max(1e-6 * (hi - lo), 1e-9)
    grid = chebyshev_grid(lo + pad, hi - pad, 64)
    checks = {"lapse-ode": _ode_residual_report(phi_rf, f_rf, n, grid, tol=1e-9)}

    # the on- and off-axis residuals and the closure read one batched
    # evaluation of both rays
    sparse = grid[:: max(1, len(grid) // 16)]
    on_axis = invariant.point_at(sparse)
    if invariant.tau > 0.0:
        off_axis = invariant.point_at(sparse, direction=_off_axis_draw(n))
    else:
        a = np.asarray(invariant.alpha)
        w = _off_axis_draw(n)
        off_axis = on_axis + (w - (w @ a) / (a @ a) * a)
    points = np.concatenate([on_axis, off_axis])
    ansatz = model.to_ansatz()
    rays = np.concatenate([sparse, sparse])
    residuals, r_scal = _spf_arrays_conformal(ansatz, model.fluid(), points, rays)
    k = len(sparse)
    checks["field[on-axis]"] = _spf_report_conformal(residuals, rays, slice(None, k), tol=1e-7)
    checks["field[off-axis]"] = _spf_report_conformal(residuals, rays, slice(k, None), tol=1e-7)

    # the closed-form mu_geo against R/2 from the generic curvature route
    us = invariant.value(points)
    closure = np.asarray(model.mu_geo(us), dtype=float) - 0.5 * r_scal
    checks["closure"] = _report([_entry("mu-vs-half-R", closure, us)], us, tol=1e-7)

    return dataclasses.replace(model, checks=checks)
