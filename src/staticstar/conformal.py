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
q = 4 tau u + C.  A second, independent closed form for the pressure is kept
in :func:`pressure_closed_form` so the two routes can be compared; they are
never collapsed into one code path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PPoly

from .errors import BadParams, DomainError, SignLoss, StepFailure
from .geometry import (
    EIGHT_PI,
    ConformalFlat,
    FluidData,
    ResidualEntry,
    ResidualReport,
    conformal_curvature,
    spf_residuals,
)
from .numerics import (
    EPS_DOM,
    RadialFunction,
    ScalarField,
    as_points,
    chebyshev_grid,
    max_rms,
    ode_ppoly,
)

__all__ = [
    "BasicInvariant",
    "basic_invariant_eval",
    "witten_lapse",
    "solve_lapse",
    "density_pressure",
    "pressure_closed_form",
    "ConformalModel",
    "build_model",
]


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

    def as_field(self, n: int | None = None) -> ScalarField:
        """The invariant as an exact ScalarField (polynomial derivatives)."""
        if n is not None and n != self.n:
            raise BadParams(f"invariant is on R^{self.n}, requested n={n}")
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


def basic_invariant_eval(x, invariant: BasicInvariant) -> float:
    """Evaluate u(x), asserting both defining identities to 1e-12.

    |grad u|^2 = 4 tau u + C and Lap u = 2 n tau are algebraic identities of
    the quadric; a violation means the inputs are corrupt (NaN, overflow), so
    it is reported as a DomainError rather than silently propagated.
    """
    x = np.asarray(x, dtype=float)
    fld = invariant.as_field()
    with np.errstate(invalid="ignore", over="ignore"):
        u = fld.value(x)
        g = fld.gradient(x)
        lap = float(np.trace(fld.hessian(x)))
        lhs = float(g @ g)
    rhs = 4.0 * invariant.tau * u + invariant.C
    if not math.isfinite(u) or abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
        raise DomainError(f"|grad u|^2 = {lhs} but 4 tau u + C = {rhs} at x={x}")
    if abs(lap - 2.0 * invariant.n * invariant.tau) > 1e-12 * max(1.0, abs(lap)):
        raise DomainError(f"Lap u = {lap} != 2 n tau at x={x}")
    return u


# ----------------------------------------------------------------------------
# lapse solutions
# ----------------------------------------------------------------------------

def witten_lapse(n: int, A: float, B: float, r):
    """Closed-form lapse in the warped variable: A sin(w L) + B cos(w L).

    L = sqrt(n-2) * log(cosh r).  (In the invariant variable u = sinh^2 r this
    is the Euler-equation solution with frequency sqrt(n-2)/2 in log(1+u).)
    """
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    r = np.asarray(r, dtype=float)
    L = math.sqrt(n - 2.0) * np.log(np.cosh(r))
    out = A * np.sin(L) + B * np.cos(L)
    return float(out) if out.ndim == 0 else out


def _witten_u_lapse(n: int, A: float, B: float, domain) -> RadialFunction:
    """The same solution as a RadialFunction of the invariant u (analytic)."""
    w = 0.5 * math.sqrt(n - 2.0)

    def lapse(u):
        L = w * np.log1p(u)
        return A * np.sin(L) + B * np.cos(L)

    return RadialFunction.from_formula(lapse, domain)


def solve_lapse(
    phi: RadialFunction,
    n: int,
    span: tuple[float, float],
    ic: tuple[float, float],
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    on_sign_loss: str = "truncate",
) -> RadialFunction:
    """Integrate (n-2) f phi'' = f'' phi + 2 phi' f' across ``span`` in u.

    ``ic = (f, f')`` at ``span[0]``.  The returned RadialFunction reads the
    integrator's dense output as one ``PPoly``: the value and first derivative
    are its two components, and the second derivative is evaluated from the
    ODE right-hand side (exact given the solution), not by differencing.

    If the lapse crosses zero the solution beyond that point is meaningless;
    with ``on_sign_loss="truncate"`` the returned domain stops just before the
    crossing, with ``"raise"`` a SignLoss is raised.  StepFailure propagates
    integrator breakdowns.
    """
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    u0, u1 = float(span[0]), float(span[1])
    if not u0 < u1:
        raise BadParams(f"need an increasing span, got {span}")
    if on_sign_loss not in ("truncate", "raise"):
        raise BadParams(f"on_sign_loss must be 'truncate' or 'raise', not {on_sign_loss!r}")

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
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=True,
        events=(lapse_zero,),
    )
    if sol.status == -1:
        raise StepFailure(f"lapse integration failed at u={sol.t[-1]}: {sol.message}")

    u_end = u1
    if len(sol.t_events[0]):
        u_zero = float(sol.t_events[0][0])
        if on_sign_loss == "raise":
            raise SignLoss(f"lapse crossed zero at u={u_zero}")
        u_end = u_zero - max(EPS_DOM, 1e-9 * (u1 - u0))
        if u_end <= u0:
            # the crossing is at (or numerically at) the left endpoint:
            # truncation would leave nothing
            raise SignLoss(f"lapse crossed zero immediately at u={u_zero}")

    dense = ode_ppoly(sol.sol)
    f_pp, f1_pp = (PPoly.construct_fast(dense.c[..., i], dense.x) for i in range(2))

    def val(u):
        out = f_pp(u)
        return float(out) if out.ndim == 0 else out

    def d1(u):
        out = f1_pp(u)
        return float(out) if out.ndim == 0 else out

    def d2(u):
        u = np.asarray(u, dtype=float)
        y = dense(u)
        p = np.asarray(phi.value(u), dtype=float)
        p1 = np.asarray(phi.d1(u), dtype=float)
        p2 = np.asarray(phi.d2(u), dtype=float)
        out = ((n - 2.0) * y[..., 0] * p2 - 2.0 * p1 * y[..., 1]) / p
        return float(out) if out.ndim == 0 else out

    return RadialFunction(val, d1, d2, provenance="analytic", domain=(u0, u_end))


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


def density_pressure(
    phi: RadialFunction,
    f: RadialFunction,
    invariant: BasicInvariant,
    lam: float,
    n: int,
    u,
) -> tuple:
    """Physical (mu, rho) at invariant value(s) u.

    mu comes from the closed-form scalar-curvature expression; rho from the
    trace of the conformal Hessian of f (so it is exact whenever f actually
    solves the lapse ODE).  Physical values are the geometric ones with the
    cosmological constant split off: mu = (mu_geo - Lambda)/8 pi,
    rho = (rho_geo + Lambda)/8 pi.
    """
    mu_geo, rho_geo = _geo_pair(phi, f, invariant, n, u)
    return (mu_geo - lam) / EIGHT_PI, (rho_geo + lam) / EIGHT_PI


def pressure_closed_form(
    phi: RadialFunction,
    f: RadialFunction,
    invariant: BasicInvariant,
    lam: float,
    n: int,
    u,
):
    """Independent closed form for the physical pressure.

        8 pi rho - Lambda = (n-1)/n * { [ (n/2)(n-2) phi'^2 - n phi phi' f'/f ] q
                                        + 2 n tau (phi/f) [ f' phi - (n-2) f phi' ] }

    with q = 4 tau u + C.  Kept as a separate code path from
    :func:`density_pressure` deliberately; the two must agree on solutions of
    the lapse ODE and the tests compare them.
    """
    u = np.asarray(u, dtype=float)
    tau, C = invariant.tau, invariant.C
    q = 4.0 * tau * u + C
    p = np.asarray(phi.value(u), dtype=float)
    p1 = np.asarray(phi.d1(u), dtype=float)
    fv = np.asarray(f.value(u), dtype=float)
    f1 = np.asarray(f.d1(u), dtype=float)
    if np.any(fv == 0.0):
        raise DomainError("lapse vanishes on evaluation set")
    bracket = (0.5 * n * (n - 2) * p1 * p1 - n * p * p1 * f1 / fv) * q \
        + 2.0 * n * tau * (p / fv) * (f1 * p - (n - 2) * fv * p1)
    rho_geo = (n - 1) / n * bracket
    return (rho_geo + lam) / EIGHT_PI


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
    cut back.
    """

    phi: RadialFunction
    f: RadialFunction
    invariant: BasicInvariant
    n: int
    lam: float
    domain: tuple[float, float]
    label: str = "custom"
    truncated: bool = False
    degenerate: bool = False
    checks: dict = field(default_factory=dict, repr=False)

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.checks.values())

    def mu(self, u):
        return density_pressure(self.phi, self.f, self.invariant, self.lam, self.n, u)[0]

    def rho(self, u):
        return density_pressure(self.phi, self.f, self.invariant, self.lam, self.n, u)[1]

    def rho_geo(self, u):
        return _geo_pair(self.phi, self.f, self.invariant, self.n, u)[1]

    def mu_geo(self, u):
        return _geo_pair(self.phi, self.f, self.invariant, self.n, u)[0]

    def to_ansatz(self) -> ConformalFlat:
        inv_field = self.invariant.as_field()
        return ConformalFlat(
            phi=ScalarField.compose(self.phi, inv_field),
            phi_radial=self.phi,
            n=self.n,
            radial=inv_field,
            point_of=self.invariant.point_at,
            kind="invariant",
            quadric=(self.invariant.tau, self.invariant.C),
            domain=self.domain,
        )

    def fluid(self) -> FluidData:
        mu_rf = RadialFunction.from_callables(
            lambda u: self.mu_geo(u), domain=self.domain
        )
        rho_rf = RadialFunction.from_callables(
            lambda u: self.rho_geo(u), domain=self.domain
        )
        return FluidData(f=self.f, mu=mu_rf, rho=rho_rf, lam=self.lam)

    def verify_reports(self) -> dict:
        return dict(self.checks)


def _ode_residual_report(phi, f, n, grid, tol) -> ResidualReport:
    p = np.asarray(phi.value(grid), dtype=float)
    p1 = np.asarray(phi.d1(grid), dtype=float)
    p2 = np.asarray(phi.d2(grid), dtype=float)
    fv = np.asarray(f.value(grid), dtype=float)
    f1 = np.asarray(f.d1(grid), dtype=float)
    f2 = np.asarray(f.d2(grid), dtype=float)
    res = (n - 2.0) * fv * p2 - f2 * p - 2.0 * p1 * f1
    mx, rms = max_rms(res)
    worst = float(grid[int(np.argmax(np.abs(res)))])
    entry = ResidualEntry("lapse-ode", mx, rms, worst)
    return ResidualReport(entries=(entry,), grid=np.asarray(grid), passed=mx <= tol, tol=tol)


def _closure_report(model: ConformalModel, points, tol) -> ResidualReport:
    """|mu_geo(closed form) - R/2| with R from the generic conformal machinery.

    ``points`` is an ``(N, n)`` batch; both sides are evaluated on it at once.
    """
    ansatz = model.to_ansatz()
    us = model.invariant.value(points)
    _, r_scal = conformal_curvature(ansatz.phi, points)
    vals = np.abs(np.asarray(model.mu_geo(us), dtype=float) - 0.5 * r_scal)
    mx, rms = max_rms(vals)
    worst = float(us[int(np.argmax(vals))]) if vals.size else float("nan")
    entry = ResidualEntry("mu-vs-half-R", mx, rms, worst)
    return ResidualReport(entries=(entry,), grid=us, passed=mx <= tol, tol=tol)


def build_model(
    phi="witten",
    n: int = 3,
    ic: tuple[float, float] | None = None,
    invariant: BasicInvariant | None = None,
    lam: float = 0.0,
    span: tuple[float, float] = (0.0, 10.0),
    run_checks: bool = True,
    rng_seed: int = 7,
) -> ConformalModel:
    """Assemble and validate a conformally flat model.

    ``phi`` is a RadialFunction in the invariant variable, or one of the
    presets ``"witten"`` (phi = sqrt(1+u), closed-form lapse — no integration)
    and ``"unit"`` (phi = 1, affine lapse).  ``ic = (f, f')`` at ``span[0]``;
    preset defaults: witten (0, sqrt(n-2)/2) — the pure-sine solution — and
    unit (1, 0).

    Construction always runs three independent validations (skippable with
    ``run_checks=False`` for speed): the lapse-ODE residual, the traceless
    field equations sampled on the reference ray and on a random off-axis
    ray, and the closure of the closed-form density against R/2 computed by
    the generic conformal-curvature machinery.  Results land in ``.checks``;
    nothing is raised on failure — inspect ``.passed``.
    """
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    if invariant is None:
        invariant = BasicInvariant(1.0, (0.0,) * n, (0.0,) * n)
    if invariant.n != n:
        raise BadParams(f"invariant lives on R^{invariant.n}, model wants n={n}")
    u0, u1 = float(span[0]), float(span[1])
    label = phi if isinstance(phi, str) else "custom"

    if invariant.degenerate:
        # u is constant: the metric is a constant rescaling of flat space and
        # the fluid degenerates to the vacuum pair (-Lambda, +Lambda)/8 pi.
        if isinstance(phi, str):
            phi_rf = RadialFunction.constant(1.0, (-math.inf, math.inf))
        else:
            phi_rf = phi
        f_rf = RadialFunction.constant(ic[0] if ic else 1.0, (-math.inf, math.inf))
        return ConformalModel(
            phi=phi_rf, f=f_rf, invariant=invariant, n=n, lam=lam,
            domain=(u0, u1), label=label, degenerate=True,
        )

    if isinstance(phi, str):
        if phi == "witten":
            phi_rf = RadialFunction.from_formula(
                lambda u: np.sqrt(1.0 + u), (-1.0 + EPS_DOM, math.inf)
            )
            if ic is None:
                A, B = 1.0, 0.0
            else:
                # rotate (f, f') at u0 into the (A, B) basis
                basis = [_witten_u_lapse(n, *ab, (u0, u1)) for ab in ((1.0, 0.0), (0.0, 1.0))]
                mat = [[g(u0) for g in basis], [g.d1(u0) for g in basis]]
                A, B = np.linalg.solve(mat, np.asarray(ic, dtype=float))
            f_rf = _witten_u_lapse(n, float(A), float(B), (u0, u1))
            truncated = False
        elif phi == "unit":
            phi_rf = RadialFunction.constant(1.0, (-math.inf, math.inf))
            f0, f1 = ic if ic is not None else (1.0, 0.0)
            # ODE reduces to f'' = 0: affine lapse
            f_rf = RadialFunction.from_formula(lambda u: f0 + f1 * (u - u0), (u0, u1))
            truncated = False
        else:
            raise BadParams(f"unknown phi preset {phi!r} (use 'witten' or 'unit')")
    else:
        phi_rf = phi
        if ic is None:
            ic = (1.0, 0.0)
        f_rf = solve_lapse(phi_rf, n, (u0, u1), ic)
        truncated = f_rf.domain[1] < u1

    domain = (u0, min(u1, f_rf.domain[1]))
    model = ConformalModel(
        phi=phi_rf, f=f_rf, invariant=invariant, n=n, lam=lam,
        domain=domain, label=label, truncated=truncated,
    )
    if not run_checks:
        return model

    lo, hi = domain
    pad = max(1e-6 * (hi - lo), 1e-9)
    grid = chebyshev_grid(lo + pad, hi - pad, 64)
    checks = {"lapse-ode": _ode_residual_report(phi_rf, f_rf, n, grid, tol=1e-9)}

    ansatz = model.to_ansatz()
    fluid = model.fluid()
    sparse = grid[:: max(1, len(grid) // 16)]
    checks["field[on-axis]"] = spf_residuals(ansatz, fluid, sparse, tol=1e-7)

    rng = np.random.default_rng(rng_seed)
    if invariant.tau > 0.0:
        vec = rng.standard_normal(n)
        off_ray = lambda u, _v=vec: invariant.point_at(u, direction=_v)  # noqa: E731
    else:
        a = np.asarray(invariant.alpha)
        w_perp = rng.standard_normal(n)
        w_perp -= (w_perp @ a) / (a @ a) * a
        off_ray = lambda u, _w=w_perp: invariant.point_at(u) + _w  # noqa: E731
    ansatz_off = dataclasses.replace(ansatz, point_of=off_ray)
    checks["field[off-axis]"] = spf_residuals(ansatz_off, fluid, sparse, tol=1e-7)

    pts = np.concatenate([ansatz.point_of(sparse), off_ray(sparse)])
    checks["closure"] = _closure_report(model, pts, tol=1e-7)

    return dataclasses.replace(model, checks=checks)
