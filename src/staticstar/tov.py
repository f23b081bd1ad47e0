"""Interior integration for static stars: equations of state, TOV system, lapse.

Geometrized units throughout (G = c = 1).  The interior system integrated is

    rho'(r) = -(m + 4 pi r^3 rho)(mu + rho) / (r (r - 2m))
    m'(r)   =  4 pi r^2 mu
    v'(r)   =  2 (m + 4 pi r^3 rho) / (r (r - 2m))
    mu      =  eos(rho)

with the center regularized by the series

    rho(r) = rho_c - 2 pi (mu_c/3 + rho_c)(mu_c + rho_c) r^2 + O(r^4)
    m(r)   = (4 pi / 3) mu_c r^3 + O(r^5),

which gives the start state at r = R_START and is the profile's first piece,
on [0, R_START], ahead of the integrator's dense output.  The lapse
potential v = log f^2 is carried
by the same solution, up to its additive constant, which :func:`integrate_tov`
pins where the integration stopped: e^{v(r_b)} = 1 - 2M/r_b at the surface
event, or v(r_end) = 0 without one.  Every profile therefore has its lapse;
:func:`integrate_lapse` re-pins it at another radius.

Evaluators are array in, array out: ``EquationOfState.mu`` and the dense
profile and model evaluators take a float or an ndarray of radii (or
pressures) and return a float or an ndarray of the same shape.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .config import call_with, parse_spec
from .errors import (
    BadParams,
    CenterSingularity,
    DomainError,
    HorizonHit,
    NoSurface,
    StepFailure,
)
from .numerics import (
    EPS_DOM,
    PiecewisePoly,
    RadialFunction,
    chebyshev_grid,
    check_grid_n,
    pchip,
    solve_ivp,
)

__all__ = [
    "EquationOfState",
    "ConstantDensity",
    "Chaplygin",
    "Tabulated",
    "Custom",
    "EOS_KINDS",
    "SolverOptions",
    "RadialProfile",
    "StellarModel",
    "integrate_tov",
    "detect_surface",
    "integrate_lapse",
    "match_exterior",
    "profile_to_csv",
]

FOUR_PI = 4.0 * math.pi

R_START = 1e-6  # the integration starts here, off the regular center
SURFACE_TOL_SCALE = 1e-12  # the surface threshold on |rho| is this * max(1, |rho_center|)

CSV_COLUMNS = ("r", "m", "mu", "rho", "exp_neg_gamma", "exp_v", "f")


# ----------------------------------------------------------------------------
# equations of state
# ----------------------------------------------------------------------------

class EquationOfState:
    """Barotropic relation mu(rho).  Subclasses implement ``mu``.

    ``mu`` takes a float or an ndarray of pressures and returns a float or an
    ndarray of the same shape; the ODE right-hand side passes floats.
    """

    def mu(self, rho):  # pragma: no cover - interface
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: str) -> "EquationOfState":
        """Parse 'constant:c=0.001', 'chaplygin:c=1', 'table:points.csv'."""
        kind, _, path = spec.partition(":")
        if kind.strip().lower() != "table":
            kind, params = parse_spec(spec, "EOS")
            if kind not in EOS_KINDS:
                raise BadParams(f"unknown EOS kind {kind!r} in {spec!r}")
            return call_with(EOS_KINDS[kind], f"{kind} EOS", params)
        path = path.strip()
        if not path:
            raise BadParams("table EOS needs a CSV path: 'table:points.csv'")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise BadParams(f"table EOS {path!r} is not a numeric rho,mu CSV: {exc}") from None
        if data.shape[1] < 2:
            raise BadParams(f"table EOS {path!r} needs two columns rho,mu")
        return Tabulated(data[:, 0], data[:, 1])


@dataclass(frozen=True)
class ConstantDensity(EquationOfState):
    """mu == c for every pressure; c = 0 is the vacuum EOS."""

    c: float = 0.0

    def mu(self, rho):
        return self.c if _scalar(rho) else np.full(np.shape(rho), self.c)


@dataclass(frozen=True)
class Chaplygin(EquationOfState):
    """mu = -c^2 / rho (negative density for positive pressure)."""

    c: float = 0.0

    def __post_init__(self):
        if self.c == 0.0:
            raise BadParams("chaplygin EOS needs c != 0")

    def mu(self, rho):
        if (rho == 0.0) if _scalar(rho) else np.any(rho == 0.0):
            raise CenterSingularity("chaplygin EOS singular at rho = 0")
        return -self.c * self.c / rho


EOS_KINDS = {"constant": ConstantDensity, "chaplygin": Chaplygin}


class Tabulated(EquationOfState):
    """Monotone-cubic interpolation of (rho, mu) samples; no extrapolation.

    ``rho`` must be strictly increasing and both columns finite.  Evaluation
    outside the tabulated range raises DomainError — build the table wide
    enough for the run (for full-star integrations include a small margin
    below rho = 0, since the integrator evaluates slightly past the surface
    before the terminal event is located).
    """

    def __init__(self, rho, mu):
        rho = np.asarray(rho, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if rho.ndim != 1 or rho.size < 2 or rho.shape != mu.shape:
            raise BadParams("tabulated EOS needs matching 1-d rho/mu arrays")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(mu))):
            raise BadParams("tabulated EOS needs finite rho/mu values")
        if not np.all(np.diff(rho) > 0.0):
            raise BadParams("tabulated EOS needs strictly increasing rho")
        self.rho_min = float(rho[0])
        self.rho_max = float(rho[-1])
        # subnormal steps in mu overflow pchip's slope ratios harmlessly, so
        # the interpolant is judged by its coefficients, not by the warnings
        with np.errstate(all="ignore"):
            self._interp = pchip(rho, mu)
        if not np.all(np.isfinite(self._interp.c)):
            raise BadParams("tabulated EOS rows give a non-finite interpolant")

    def mu(self, rho):
        if isinstance(rho, float):  # one pressure, as the ODE right-hand side passes it
            # not `not lo <= rho <= hi`: NaN passes through, as on the array path
            if rho < self.rho_min or rho > self.rho_max:
                raise self._outside(rho)
            return self._interp(rho)
        outside = np.less(rho, self.rho_min) | np.greater(rho, self.rho_max)
        if np.any(outside):
            raise self._outside(rho if _scalar(rho) else np.asarray(rho)[outside][0])
        return self._interp(rho)

    def _outside(self, rho) -> DomainError:
        return DomainError(f"rho={rho} outside tabulated range "
                           f"[{self.rho_min}, {self.rho_max}] (extrapolation forbidden)")


@dataclass(frozen=True)
class Custom(EquationOfState):
    """Wrap a callable mu(rho).

    ``func`` must accept an ndarray of pressures, like a numpy ufunc: it may
    return an array of the same shape or one value for all of them, which is
    broadcast.  Scalar calls (the ODE right-hand side) pass floats.
    """

    func: Callable
    label: str = "custom"

    def mu(self, rho):
        out = np.asarray(self.func(rho), dtype=float)
        try:
            out = np.broadcast_to(out, np.shape(rho))
        except ValueError:
            raise BadParams(f"custom EOS {self.label!r} returned shape {out.shape} "
                            f"for pressures of shape {np.shape(rho)}") from None
        return float(out) if out.ndim == 0 else out.copy()


# ----------------------------------------------------------------------------
# solver options and profile container
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    """Knobs of :func:`integrate_tov`; its start radius and surface threshold
    are the constants ``R_START`` and ``SURFACE_TOL_SCALE``."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    r_max: float = 1e3
    grid_n: int = 512

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise BadParams("tolerances must be positive")
        if not R_START < self.r_max:
            raise BadParams(f"need r_max > R_START = {R_START}")
        check_grid_n(self.grid_n, 8)


@dataclass(frozen=True)
class RadialProfile:
    """Dense interior solution of :func:`integrate_tov`, its only constructor,
    with a sample table built on first read.

    ``rho``, ``m`` and ``v_free_fn`` are one
    :class:`~staticstar.numerics.PiecewisePoly` each, read from r = 0 to
    ``r_end``: the center series on [0, R_START], then the integrator's own
    dense output.  ``v_free_fn`` is the lapse potential up to its additive
    constant and ``v_shift`` the pinned constant, so v = v_free_fn + v_shift.
    The evaluators take a float or an ndarray of radii.

    ``samples`` is a (grid_n, 7) float array with columns ``CSV_COLUMNS``
    (r, m, mu, rho, exp_neg_gamma, exp_v, f); ``exp_neg_gamma`` is *defined*
    as 1 - 2 m(r)/r.  The table samples the dense evaluators on the Chebyshev
    grid of ``grid_n`` points over [R_START, r_end] the first time
    ``samples``, :meth:`column` or :func:`profile_to_csv` reads it, and keeps
    it; an EOS that refuses a sampled density raises there, not in
    integrate_tov.
    """

    R_START = R_START  # the innermost radius, where integrate_tov starts

    eos: EquationOfState
    rho_center: float
    r_end: float
    rho: PiecewisePoly
    m: PiecewisePoly
    v_free_fn: PiecewisePoly
    v_shift: float
    surface_event_r: float | None = None
    grid_n: int = 512

    @functools.cached_property
    def samples(self) -> np.ndarray:
        """The (grid_n, 7) table, built on this first read and kept."""
        return _sample_table(self)

    @property
    def surface_tol(self) -> float:
        """The surface threshold on |rho|: SURFACE_TOL_SCALE * max(1, |rho_center|)."""
        return SURFACE_TOL_SCALE * max(1.0, abs(self.rho_center))

    @property
    def lapse_normalized(self) -> bool:
        """The lapse is pinned by f(r_end) = 1, not at a surface."""
        return bool(self.f(self.r_end) == 1.0)

    @property
    def negative_density_seen(self) -> bool:
        """Advisory: a sampled rho lies below -surface_tol.  The surface root's
        own sign is round-off, so only densities past the threshold count."""
        return bool(np.any(self.rho(self._grid()) < -self.surface_tol))

    def _grid(self) -> np.ndarray:
        return chebyshev_grid(R_START, self.r_end, self.grid_n)

    # -- dense evaluators -----------------------------------------------------

    def mu(self, r):
        return self.eos.mu(self.rho(r))

    def exp_neg_gamma(self, r):
        return 1.0 - 2.0 * self.m(r) / r

    def v(self, r):
        return self.v_free_fn(r) + self.v_shift

    def f(self, r):
        return _out(np.exp(0.5 * self.v(r)))

    def column(self, name: str) -> np.ndarray:
        return self.samples[:, CSV_COLUMNS.index(name)]


def _sample_table(profile: RadialProfile) -> np.ndarray:
    """The ``CSV_COLUMNS`` table of a dense profile on its Chebyshev grid."""
    grid = profile._grid()
    rho, m = profile.rho(grid), profile.m(grid)
    v = profile.v_free_fn(grid) + profile.v_shift
    return np.column_stack(
        (grid, m, profile.eos.mu(rho), rho, 1.0 - 2.0 * m / grid, np.exp(v), np.exp(0.5 * v))
    )


def _scalar(x) -> bool:
    """True for a float (checked first: the ODE passes floats) or any 0-d value."""
    return isinstance(x, float) or np.ndim(x) == 0


def _out(x):
    """A float for a 0-d result, the ndarray otherwise."""
    return float(x) if _scalar(x) else x


def _lapse_rate(r, rho, m):
    """v' = 2 (m + 4 pi r^3 rho) / (r (r - 2m)), inside the star and (rho = 0) outside."""
    return 2.0 * (m + FOUR_PI * r**3 * rho) / (r * (r - 2.0 * m))


def _lapse_shift(m_fn, v_free_fn, r_end: float, r_b: float | None) -> float:
    """The constant of v = v_free + shift: e^{v(r_b)} = 1 - 2 m(r_b)/r_b at a
    surface r_b, or v(r_end) = 0 without one.  HorizonHit if r_b is trapped."""
    if r_b is None:
        return -v_free_fn(r_end)
    x_b = 1.0 - 2.0 * m_fn(r_b) / r_b
    if x_b <= EPS_DOM:
        raise HorizonHit(f"surface inside horizon: 1 - 2M/r_b = {x_b}")
    return math.log(x_b) - v_free_fn(r_b)


# ----------------------------------------------------------------------------
# TOV integration
# ----------------------------------------------------------------------------

def integrate_tov(
    eos: EquationOfState,
    rho_center: float,
    options: SolverOptions | None = None,
) -> RadialProfile:
    """Integrate the interior system outward from the regular center.

    Runs until the surface event (rho crossing zero from above), the horizon
    guard r - 2m <= EPS_DOM (HorizonHit), or r_max.  The returned profile
    holds one piecewise polynomial per component, the lapse potential
    included: the center series on [0, R_START], then the integrator's dense
    output.  It also holds the lapse constant, pinned
    where the integration stopped: e^{v(r_b)} = 1 - 2M/r_b at the surface
    event, or else v(r_end) = 0, flagged ``lapse_normalized``.  It samples
    nothing: its table of ``options.grid_n`` Chebyshev rows is built when
    first read (:class:`RadialProfile`).

    Raises BadParams for a non-finite rho_center, CenterSingularity if the
    EOS cannot be evaluated there, HorizonHit (also for a surface event
    inside the horizon) or StepFailure as described, DomainError where the
    EOS gives a non-finite mu along the way, and lets Tabulated range errors
    propagate as DomainError.  A density the integrator never passed to the
    EOS but the table samples is refused where the table is read.
    """
    opts = options or SolverOptions()
    rho_c = float(rho_center)
    if not math.isfinite(rho_c):
        raise BadParams(f"rho_center={rho_center} is not finite")
    mu_c = eos.mu(rho_c)
    if not math.isfinite(mu_c):
        raise CenterSingularity(f"EOS gives non-finite mu at rho_center={rho_c}")

    # the regular-center series rho_c - a2 r^2, m3 r^3
    a2 = 2.0 * math.pi * (mu_c / 3.0 + rho_c) * (mu_c + rho_c)
    m3 = FOUR_PI / 3.0 * mu_c

    def rhs(r, y):
        rho, m, _v = y
        mu = eos.mu(rho)
        if not math.isfinite(mu):
            # a NaN would otherwise shrink the step until it underflows
            raise DomainError(f"EOS gives non-finite mu={mu} at rho={rho} (r={r})")
        dv = _lapse_rate(r, rho, m)
        return (-0.5 * dv * (mu + rho), FOUR_PI * r * r * mu, dv)

    def surface(r, y):
        return y[0]

    surface.terminal = True
    surface.direction = -1.0

    def horizon(r, y):
        return (r - 2.0 * y[1]) - EPS_DOM

    horizon.terminal = True
    horizon.direction = -1.0

    # starting on the surface (rho_c = 0: vacuum or dust-edge runs) would trip
    # the terminal event at R_START itself; such runs get no surface event at all
    events = [horizon]
    if rho_c != 0.0:
        events.append(surface)

    sol = solve_ivp(
        rhs,
        (R_START, opts.r_max),
        (rho_c - a2 * R_START * R_START, m3 * R_START**3, 0.0),
        rtol=opts.rel_tol,
        # v is a logarithm: an absolute error in v is a relative error in f,
        # so v's absolute tolerance is the relative one
        atol=(opts.abs_tol, opts.abs_tol, opts.rel_tol),
        events=tuple(events),
    )
    if sol.status == -1:
        raise StepFailure(f"integrator failed at r={sol.t[-1]}: {sol.message}")
    if len(sol.t_events[0]):
        raise HorizonHit(f"r - 2m reached {EPS_DOM} at r={sol.t_events[0][0]}")

    surface_r = None
    if len(sol.t_events) > 1 and len(sol.t_events[1]):
        surface_r = float(sol.t_events[1][0])
    r_end = float(sol.t[-1])

    # the series as the first piece, on [0, R_START], in the dense output's
    # local powers (highest first): rho = rho_c - a2 r^2, m = m3 r^3, v_free = 0
    center = np.zeros((sol.dense.c.shape[0], 1, 3))
    center[-1, 0, 0], center[-3, 0, 0], center[-4, 0, 1] = rho_c, -a2, m3
    dense = PiecewisePoly(np.concatenate((center, sol.dense.c), axis=1),
                          np.concatenate(([0.0], sol.dense.x)))
    rho, m, v_free_fn = (dense.component(i) for i in range(3))
    return RadialProfile(
        eos=eos,
        rho_center=rho_c,
        r_end=r_end,
        rho=rho,
        m=m,
        v_free_fn=v_free_fn,
        v_shift=_lapse_shift(m, v_free_fn, r_end, surface_r),
        surface_event_r=surface_r,
        grid_n=opts.grid_n,
    )


def detect_surface(profile: RadialProfile) -> float:
    """The surface radius r_b: where the profile stopped because rho reached zero.

    That radius is ``surface_event_r``, the integrator's terminal event,
    accepted when |rho(r_b)| <= ``profile.surface_tol``.  Raises NoSurface
    otherwise: vacuum runs (rho_c = 0 installs no surface event), constant
    negative-pressure branches, integrations stopped by r_max.
    """
    r_b = profile.surface_event_r
    if r_b is None or abs(profile.rho(r_b)) > profile.surface_tol:
        raise NoSurface("density never crosses zero on the integrated range")
    return r_b


def integrate_lapse(profile: RadialProfile, r_b: float | None = None) -> RadialProfile:
    """Re-pin the profile's lapse: a copy with the constant of v moved.

    With a surface radius ``r_b`` the constant is fixed by continuity with
    the vacuum exterior, e^{v(r_b)} = 1 - 2 m(r_b)/r_b (HorizonHit if that
    is not positive).  Without one, f is normalized to 1 at the outer end
    ``r_end`` of the profile and the result is flagged ``lapse_normalized``.
    The copy's table is built from the new constant when read.
    """
    shift = _lapse_shift(profile.m, profile.v_free_fn, profile.r_end, r_b)
    return dataclasses.replace(profile, v_shift=shift)


# ----------------------------------------------------------------------------
# exterior matching
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class StellarModel:
    """Interior profile C^1-matched to the vacuum exterior at r_b.

    Evaluators are valid on (0, infinity) and read two regions: the profile
    below r_b (from r = 0, its first piece the center series) and, from r_b
    on, the vacuum closed forms with mass M = m(r_b).
    """

    profile: RadialProfile
    r_b: float
    mass: float

    def __post_init__(self):
        if self.r_b <= 2.0 * self.mass + EPS_DOM:
            raise HorizonHit(f"r_b = {self.r_b} <= 2M = {2*self.mass}")

    # -- piecewise evaluators (float or ndarray of radii) ----------------------

    def _piecewise(self, r, interior, exterior):
        """``interior`` below r_b, ``exterior`` from r_b on."""
        if _scalar(r):
            return float((exterior if r >= self.r_b else interior)(r))
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        outside = r >= self.r_b
        for mask, fn in ((~outside, interior), (outside, exterior)):
            if np.any(mask):
                out[mask] = fn(r[mask])
        return out

    def rho(self, r):
        return self._piecewise(r, self.profile.rho, lambda x: 0.0)

    def mu(self, r):
        return self._piecewise(r, self.profile.mu, lambda x: 0.0)

    def m(self, r):
        return self._piecewise(r, self.profile.m, lambda x: self.mass)

    def exp_neg_gamma(self, r):
        return 1.0 - 2.0 * self.m(r) / r

    def v(self, r):
        return self._piecewise(r, self.profile.v, lambda x: np.log(1.0 - 2.0 * self.mass / x))

    def f(self, r):
        return _out(np.exp(0.5 * self.v(r)))

    # -- derivative-carrying views ---------------------------------------------

    def mass_function(self) -> RadialFunction:
        """m(r) with the dense m's own derivatives inside (m' = 4 pi mu_c r^2 on
        the center piece) and 0 outside, each polynomial built on first read."""
        @functools.cache
        def dense(k):
            return self.profile.m if k == 0 else dense(k - 1).derivative()

        def derivative(k):
            return lambda r: self._piecewise(r, dense(k), lambda x: 0.0)

        return RadialFunction(self.m, derivative(1), derivative(2), domain=(EPS_DOM, math.inf))

    def lapse_function(self) -> RadialFunction:
        """f(r) with f' = f v'/2 and f'' = f (v''/2 + v'^2/4), all from the TOV
        right-hand side (its vacuum form outside): v' = N/D with
        N = 2 (m + 4 pi r^3 rho) and D = r (r - 2m), v'' = (N' - v' D')/D,
        m' = 4 pi r^2 mu and rho' = -(mu + rho) v'/2, so no EOS derivative."""

        def d1(r):
            return 0.5 * _lapse_rate(r, self.rho(r), self.m(r)) * self.f(r)

        def d2(r):
            rho, mu, m = self.rho(r), self.mu(r), self.m(r)
            dv = _lapse_rate(r, rho, m)
            m1 = FOUR_PI * r * r * mu
            rho1 = -0.5 * (mu + rho) * dv
            n1 = 2.0 * (m1 + 3.0 * FOUR_PI * r * r * rho + FOUR_PI * r**3 * rho1)
            dv2 = (n1 - dv * 2.0 * (r - m - r * m1)) / (r * (r - 2.0 * m))
            return _out(self.f(r) * (0.5 * dv2 + 0.25 * dv * dv))

        return RadialFunction(self.f, d1, d2, domain=(EPS_DOM, math.inf))


def match_exterior(profile: RadialProfile, r_b: float) -> StellarModel:
    """Glue the interior to the vacuum exterior at its surface event r_b.

    ``r_b`` must be the profile's ``surface_event_r``, the radius
    :func:`detect_surface` returns (BadParams otherwise), and the lapse must
    be pinned there, e^{v(r_b)} = 1 - 2M/r_b within 1e-9 (BadParams after an
    :func:`integrate_lapse` that pinned it elsewhere).  StellarModel refuses
    r_b <= 2M (HorizonHit).
    """
    if r_b != profile.surface_event_r:
        raise BadParams(f"r_b = {r_b} is not the profile's surface event "
                        f"radius {profile.surface_event_r}")
    mass = profile.m(r_b)
    x_b = 1.0 - 2.0 * mass / r_b
    ev_b = math.exp(profile.v(r_b))
    if abs(ev_b - x_b) > 1e-9:
        raise BadParams(
            f"lapse mismatch at surface: e^v = {ev_b}, 1-2M/r_b = {x_b}"
        )
    return StellarModel(profile=profile, r_b=float(r_b), mass=float(mass))


# ----------------------------------------------------------------------------
# odds and ends
# ----------------------------------------------------------------------------

def profile_to_csv(profile: RadialProfile, path) -> None:
    """Write the sample table with a header row and round-trip floats.

    The table is built before the file is opened, so an EOS that refuses a
    sampled density leaves no partial file.
    """
    samples = profile.samples
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in samples:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")

