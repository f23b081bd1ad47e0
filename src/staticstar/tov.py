"""Interior integration for static stars: equations of state, TOV system, lapse.

Geometrized units throughout (G = c = 1).  The interior system integrated is

    rho'(r) = -(m + 4 pi r^3 rho)(mu + rho) / (r (r - 2m))
    m'(r)   =  4 pi r^2 mu
    v'(r)   =  2 (m + 4 pi r^3 rho) / (r (r - 2m))
    mu      =  eos(rho)

with the center regularized by the series seed

    rho(r) = rho_c - 2 pi (mu_c/3 + rho_c)(mu_c + rho_c) r^2 + O(r^4)
    m(r)   = (4 pi / 3) mu_c r^3 + O(r^5)

started at a small r_start > 0.  The lapse potential v = log f^2 is carried
by the same solution, up to its additive constant; :func:`integrate_lapse`
pins that constant, e^{v(r_b)} = 1 - 2M/r_b at the surface or v(r_ref) = 0.

Evaluators are array in, array out: ``EquationOfState.mu`` and the dense
profile and model evaluators take a float or an ndarray of radii (or
pressures) and return a float or an ndarray of the same shape.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator, PPoly

from .errors import (
    BadParams,
    CenterSingularity,
    DegenerateFluid,
    DomainError,
    HorizonHit,
    NoSurface,
    StepFailure,
)
from .geometry import SchwarzschildForm
from .numerics import EPS_DOM, RadialFunction, bisect_root, chebyshev_grid, ode_ppoly

__all__ = [
    "EquationOfState",
    "ConstantDensity",
    "Chaplygin",
    "Tabulated",
    "Custom",
    "SolverOptions",
    "RadialProfile",
    "StellarModel",
    "integrate_tov",
    "detect_surface",
    "integrate_lapse",
    "match_exterior",
    "volkoff_gamma",
    "profile_to_csv",
    "profile_from_csv",
]

FOUR_PI = 4.0 * math.pi

CSV_COLUMNS = ("r", "m", "mu", "rho", "exp_neg_gamma", "exp_v", "f")


# ----------------------------------------------------------------------------
# equations of state
# ----------------------------------------------------------------------------

class EquationOfState:
    """Barotropic relation mu(rho).  Subclasses implement ``mu``.

    ``mu`` takes a float or an ndarray of pressures and returns a float or an
    ndarray of the same shape; the ODE right-hand side passes floats.
    """

    name = "eos"

    def mu(self, rho):  # pragma: no cover - interface
        raise NotImplementedError

    def spec_string(self) -> str:
        return self.name

    @staticmethod
    def from_spec(spec: str) -> "EquationOfState":
        """Parse 'constant:c=0.001', 'chaplygin:c=1', 'table:points.csv'."""
        kind, _, rest = spec.partition(":")
        kind = kind.strip().lower()
        params = {}
        path = None
        if kind == "table":
            path = rest.strip()
        elif rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if not _:
                    raise BadParams(f"bad EOS parameter {item!r} in {spec!r}")
                try:
                    params[key.strip()] = float(val)
                except ValueError:
                    raise BadParams(f"EOS parameter {item!r} in {spec!r} is not a number") from None
        if kind == "constant":
            return ConstantDensity(params.get("c", 0.0))
        if kind == "chaplygin":
            if "c" not in params:
                raise BadParams(f"chaplygin EOS needs c=..., got {spec!r}")
            return Chaplygin(params["c"])
        if kind == "table":
            if not path:
                raise BadParams("table EOS needs a CSV path: 'table:points.csv'")
            try:
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            except ValueError as exc:
                raise BadParams(f"table EOS {path!r} is not a numeric rho,mu CSV: {exc}") from None
            if data.shape[1] < 2:
                raise BadParams(f"table EOS {path!r} needs two columns rho,mu")
            return Tabulated(data[:, 0], data[:, 1])
        raise BadParams(f"unknown EOS kind {kind!r} in {spec!r}")


@dataclass(frozen=True)
class ConstantDensity(EquationOfState):
    """mu == c for every pressure; c = 0 is the vacuum EOS."""

    c: float
    name = "constant"

    def mu(self, rho):
        return self.c if _scalar(rho) else np.full(np.shape(rho), self.c)

    def spec_string(self):
        return f"constant:c={self.c!r}"


@dataclass(frozen=True)
class Chaplygin(EquationOfState):
    """mu = -c^2 / rho (negative density for positive pressure)."""

    c: float
    name = "chaplygin"

    def __post_init__(self):
        if self.c == 0.0:
            raise BadParams("chaplygin EOS needs c != 0")

    def mu(self, rho):
        if (rho == 0.0) if _scalar(rho) else np.any(rho == 0.0):
            raise CenterSingularity("chaplygin EOS singular at rho = 0")
        return -self.c * self.c / rho

    def spec_string(self):
        return f"chaplygin:c={self.c!r}"


class Tabulated(EquationOfState):
    """Monotone-cubic interpolation of (rho, mu) samples; no extrapolation.

    ``rho`` must be strictly increasing and both columns finite.  Evaluation
    outside the tabulated range raises DomainError — build the table wide
    enough for the run (for full-star integrations include a small margin
    below rho = 0, since the integrator evaluates slightly past the surface
    before the terminal event is located).
    """

    name = "table"

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
        try:
            with np.errstate(all="ignore"):
                self._interp = PchipInterpolator(rho, mu, extrapolate=False)
            finite = np.all(np.isfinite(self._interp.c))
        except ValueError:  # scipy refuses non-finite slopes
            finite = False
        if not finite:
            raise BadParams("tabulated EOS rows give a non-finite interpolant")

    def mu(self, rho):
        outside = np.less(rho, self.rho_min) | np.greater(rho, self.rho_max)
        if np.any(outside):
            bad = rho if _scalar(rho) else np.asarray(rho)[outside][0]
            raise DomainError(
                f"rho={bad} outside tabulated range "
                f"[{self.rho_min}, {self.rho_max}] (extrapolation forbidden)"
            )
        out = self._interp(rho)
        return float(out) if out.ndim == 0 else out

    def spec_string(self):
        return f"table:[{self.rho_min},{self.rho_max}]"


@dataclass(frozen=True)
class Custom(EquationOfState):
    """Wrap a callable mu(rho).

    ``func`` must accept an ndarray of pressures, like a numpy ufunc: it may
    return an array of the same shape or one value for all of them, which is
    broadcast.  Scalar calls (the ODE right-hand side) pass floats.
    """

    func: Callable
    label: str = "custom"
    name = "custom"

    def mu(self, rho):
        out = np.asarray(self.func(rho), dtype=float)
        try:
            out = np.broadcast_to(out, np.shape(rho))
        except ValueError:
            raise BadParams(f"custom EOS {self.label!r} returned shape {out.shape} "
                            f"for pressures of shape {np.shape(rho)}") from None
        return float(out) if out.ndim == 0 else out.copy()

    def spec_string(self):
        return self.label


# ----------------------------------------------------------------------------
# solver options and profile container
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverOptions:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    r_start: float = 1e-6
    r_max: float = 1e3
    grid_n: int = 512
    surface_ytol_scale: float = 1e-12  # threshold = scale * max(1, rho_center)

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise BadParams("tolerances must be positive")
        if not 0 < self.r_start < self.r_max:
            raise BadParams("need 0 < r_start < r_max")
        if self.grid_n < 8:
            raise BadParams("grid_n must be at least 8")


@dataclass(frozen=True)
class RadialProfile:
    """Sampled interior solution plus dense evaluators.

    ``samples`` is a (n, 7) float array with columns ``CSV_COLUMNS``
    (r, m, mu, rho, exp_neg_gamma, exp_v, f); the lapse columns are NaN until
    :func:`integrate_lapse` fills them.  ``exp_neg_gamma`` is *defined* as
    1 - 2 m(r)/r.  ``v_free_fn`` is the lapse potential up to its additive
    constant, which :func:`integrate_lapse` pins to give ``v_fn``.  Dense
    evaluation between samples reads a piecewise polynomial (``PPoly``): the
    integrator's own dense output (:func:`~staticstar.numerics.ode_ppoly`)
    after :func:`integrate_tov`, cubic splines after :func:`profile_from_csv`;
    the public interpolation contract is cubic either way.  The evaluators
    take a float or an ndarray of radii.
    """

    samples: np.ndarray
    eos: EquationOfState
    rho_center: float
    r_start: float
    r_end: float
    rho_fn: Callable
    m_fn: Callable
    surface_event_r: float | None = None
    v_fn: Callable | None = None
    lapse_normalized: bool = False  # True when f was pinned by f(r_ref) = 1
    negative_density_seen: bool = False  # advisory only
    options: SolverOptions = SolverOptions()
    v_free_fn: Callable | None = None

    interpolation = "cubic"

    def __post_init__(self):
        if self.r_start <= 0.0:
            raise BadParams("profiles start at r_start > 0")

    # -- dense evaluators -----------------------------------------------------

    def rho(self, r):
        return self.rho_fn(r)

    def m(self, r):
        return self.m_fn(r)

    def mu(self, r):
        return self.eos.mu(self.rho_fn(r))

    def exp_neg_gamma(self, r):
        return 1.0 - 2.0 * self.m_fn(r) / r

    def v(self, r):
        if self.v_fn is None:
            raise BadParams("lapse not integrated yet; call integrate_lapse")
        return self.v_fn(r)

    def f(self, r):
        return _out(np.exp(0.5 * self.v(r)))

    def column(self, name: str) -> np.ndarray:
        return self.samples[:, CSV_COLUMNS.index(name)]

    def has_lapse(self) -> bool:
        return self.v_fn is not None


def _scalar(x) -> bool:
    """True for a float (checked first: the ODE passes floats) or any 0-d value."""
    return isinstance(x, float) or np.ndim(x) == 0


def _out(x):
    """A float for a 0-d result, the ndarray otherwise."""
    return float(x) if _scalar(x) else x


def _lapse_rate(r, rho, m):
    """v' = 2 (m + 4 pi r^3 rho) / (r (r - 2m)), inside the star and (rho = 0) outside."""
    return 2.0 * (m + FOUR_PI * r**3 * rho) / (r * (r - 2.0 * m))


def _evaluator(fn):
    """``fn`` returning a float for a scalar radius."""
    return lambda r: _out(fn(r))


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
    guard r - 2m <= EPS_DOM (HorizonHit), or r_max.  The returned profile is
    sampled on a Chebyshev grid of ``options.grid_n`` points and keeps the
    integrator's dense output, as one ``PPoly``, for later refinement, the
    lapse potential included; its lapse columns stay NaN until
    :func:`integrate_lapse`.

    Raises CenterSingularity if the EOS cannot be evaluated at rho_center,
    HorizonHit or StepFailure as described, and lets Tabulated range errors
    propagate as DomainError.
    """
    opts = options or SolverOptions()
    rho_c = float(rho_center)
    if not math.isfinite(rho_c):
        raise CenterSingularity(f"rho_center={rho_center} is not finite")
    mu_c = eos.mu(rho_c)
    if not math.isfinite(mu_c):
        raise CenterSingularity(f"EOS gives non-finite mu at rho_center={rho_c}")

    r0 = opts.r_start
    rho0 = rho_c - 2.0 * math.pi * (mu_c / 3.0 + rho_c) * (mu_c + rho_c) * r0 * r0
    m0 = FOUR_PI / 3.0 * mu_c * r0**3

    def rhs(r, y):
        rho, m, _v = y
        mu = eos.mu(rho)
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
    # the terminal event at r0 itself; such runs get no surface event at all
    events = [horizon]
    if rho_c != 0.0:
        events.append(surface)

    sol = solve_ivp(
        rhs,
        (r0, opts.r_max),
        (rho0, m0, 0.0),
        method="RK45",
        rtol=opts.rel_tol,
        # v is a logarithm: an absolute error in v is a relative error in f,
        # so v's absolute tolerance is the relative one
        atol=(opts.abs_tol, opts.abs_tol, opts.rel_tol),
        dense_output=True,
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

    dense = ode_ppoly(sol.sol)
    rho_fn, m_fn, v_free_fn = (
        _evaluator(PPoly.construct_fast(dense.c[..., i], dense.x)) for i in range(3)
    )
    grid = chebyshev_grid(r0, r_end, opts.grid_n)
    rho, m, _v = dense(grid).T
    # the event root's own sign is round-off: count densities below the
    # surface threshold only
    ytol = opts.surface_ytol_scale * max(1.0, abs(rho_c))
    nan = np.full(grid.shape, np.nan)
    samples = np.column_stack((grid, m, eos.mu(rho), rho, 1.0 - 2.0 * m / grid, nan, nan))
    return RadialProfile(
        samples=samples,
        eos=eos,
        rho_center=rho_c,
        r_start=r0,
        r_end=r_end,
        rho_fn=rho_fn,
        m_fn=m_fn,
        surface_event_r=surface_r,
        negative_density_seen=bool(np.any(rho < -ytol)),
        options=opts,
        v_free_fn=v_free_fn,
    )


def detect_surface(profile: RadialProfile) -> float:
    """Locate the surface radius r_b with |rho(r_b)| < tol by bisection.

    tol = surface_ytol_scale * max(1, rho_center).  Raises NoSurface when the
    density never crosses zero on the integrated range (vacuum runs, constant
    negative-pressure branches, integrations stopped by r_max).
    """
    ytol = profile.options.surface_ytol_scale * max(1.0, abs(profile.rho_center))
    if profile.rho_center == 0.0:
        raise NoSurface("vacuum run: rho is identically zero")

    # the terminal event, if the integrator saw one, is already a root located
    # to integrator precision; accept it when it clears the threshold
    if profile.surface_event_r is not None:
        r_ev = min(profile.surface_event_r, profile.r_end)
        if abs(profile.rho(r_ev)) <= ytol:
            return float(r_ev)

    # otherwise bracket a sign change on the sample grid and bisect
    rr = profile.column("r")
    rho_s = profile.column("rho")
    sgn = math.copysign(1.0, profile.rho_center)
    idx = np.nonzero(rho_s * sgn <= 0.0)[0]
    if len(idx) == 0 or idx[0] == 0:
        raise NoSurface("density never crosses zero on the integrated range")
    i = idx[0]
    if rho_s[i] == 0.0:
        return float(rr[i])
    return float(bisect_root(profile.rho, rr[i - 1], rr[i], ytol=ytol))


def integrate_lapse(
    profile: RadialProfile,
    r_b: float | None = None,
    r_ref: float | None = None,
) -> RadialProfile:
    """Fill in v and f = e^{v/2} by pinning the constant of the carried v.

    With a surface radius ``r_b`` the constant of integration is fixed by
    continuity with the vacuum exterior, e^{v(r_b)} = 1 - 2 m(r_b)/r_b.
    Without one, f is normalized to 1 at ``r_ref`` (default: the outer end of
    the profile) and the result is flagged ``lapse_normalized``.

    Raises DegenerateFluid when mu + rho vanishes (|mu+rho| < 1e-14) on the
    sampled profile — including constant-density branches whose lapse the
    fluid equations do not determine.  A profile that is vacuum to round-off
    gets the flat lapse v = 0 directly.
    """
    rho_s = profile.column("rho")
    mu_s = profile.column("mu")

    vacuum = np.max(np.abs(rho_s)) < 1e-14 and np.max(np.abs(mu_s)) < 1e-14
    if vacuum:
        # flat interior, v = 0
        def v_fn(r):
            return _out(np.zeros(np.shape(r)))
    else:
        if np.min(np.abs(mu_s + rho_s)) < 1e-14:
            raise DegenerateFluid("mu + rho vanishes along the profile")
        if r_b is not None:
            x_b = 1.0 - 2.0 * profile.m(r_b) / r_b
            if x_b <= EPS_DOM:
                raise HorizonHit(f"surface inside horizon: 1 - 2M/r_b = {x_b}")
            ref, base = min(r_b, profile.r_end), math.log(x_b)
        else:
            ref, base = (r_ref if r_ref is not None else profile.r_end), 0.0
        v_free = profile.v_free_fn
        if v_free is None:
            raise BadParams("profile carries no lapse potential; build it with integrate_tov")
        shift = base - v_free(ref)

        def v_fn(r):
            return v_free(r) + shift

    samples = profile.samples.copy()
    v = v_fn(samples[:, 0])
    samples[:, 5] = np.exp(v)
    samples[:, 6] = np.exp(0.5 * v)
    return dataclasses.replace(
        profile,
        samples=samples,
        v_fn=v_fn,
        lapse_normalized=bool(vacuum or r_b is None),
    )


# ----------------------------------------------------------------------------
# exterior matching
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class StellarModel:
    """Interior profile C^1-matched to the vacuum exterior at r_b.

    Evaluators are valid on (0, infinity): inside ``r_start`` the center
    series is used, between r_start and r_b the dense interior solution, and
    outside r_b the vacuum closed forms with mass M = m(r_b).
    """

    profile: RadialProfile
    r_b: float
    mass: float

    def __post_init__(self):
        if self.r_b <= 2.0 * self.mass + EPS_DOM:
            raise HorizonHit(f"r_b = {self.r_b} <= 2M = {2*self.mass}")

    # -- piecewise evaluators (float or ndarray of radii) ----------------------

    def _piecewise(self, r, center, interior, exterior):
        """One evaluator per region: r < r_start, the interior, r >= r_b."""
        if _scalar(r):
            fn = exterior if r >= self.r_b else center if r < self.profile.r_start else interior
            return float(fn(r))
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        outside = r >= self.r_b
        core = ~outside & (r < self.profile.r_start)
        inside = ~(outside | core)
        for mask, fn in ((core, center), (inside, interior), (outside, exterior)):
            if np.any(mask):
                out[mask] = fn(r[mask])
        return out

    def rho(self, r):
        p = self.profile
        mu_c = p.eos.mu(p.rho_center)
        a2 = 2.0 * math.pi * (mu_c / 3.0 + p.rho_center) * (mu_c + p.rho_center)
        return self._piecewise(r, lambda x: p.rho_center - a2 * x * x, p.rho, lambda x: 0.0)

    def mu(self, r):
        return self._piecewise(
            r, lambda x: self.profile.eos.mu(self.rho(x)),
            self.profile.mu, lambda x: 0.0,
        )

    def m(self, r):
        p = self.profile
        mu_c = p.eos.mu(p.rho_center)
        return self._piecewise(r, lambda x: FOUR_PI / 3.0 * mu_c * x**3, p.m, lambda x: self.mass)

    def exp_neg_gamma(self, r):
        return 1.0 - 2.0 * self.m(r) / r

    def v(self, r):
        p = self.profile
        # flat to O(r^2) at the center
        return self._piecewise(
            r, lambda x: p.v(p.r_start), p.v, lambda x: np.log(1.0 - 2.0 * self.mass / x),
        )

    def f(self, r):
        return _out(np.exp(0.5 * self.v(r)))

    # -- derivative-carrying views ---------------------------------------------

    def gamma_function(self, r_max: float = math.inf) -> RadialFunction:
        """gamma(r) = -log(1 - 2 m(r)/r), derivatives from m' = 4 pi r^2 mu."""

        def val(r):
            return _out(-np.log(self.exp_neg_gamma(r)))

        def d1(r):
            xp = -8.0 * math.pi * r * self.mu(r) + 2.0 * self.m(r) / (r * r)
            return -xp / self.exp_neg_gamma(r)

        return RadialFunction.from_callables(val, d1, domain=(EPS_DOM, r_max))

    def v_function(self, r_max: float = math.inf) -> RadialFunction:
        """v(r) with v' = 2 (m + 4 pi r^3 rho)/(r (r - 2m)), the vacuum form outside."""
        return RadialFunction.from_callables(
            self.v, lambda r: _lapse_rate(r, self.rho(r), self.m(r)), domain=(EPS_DOM, r_max),
        )

    def lapse_function(self, r_max: float = math.inf) -> RadialFunction:
        return SchwarzschildForm(
            gamma=self.gamma_function(r_max), v=self.v_function(r_max)
        ).lapse()

    def to_csv(self, path) -> None:
        profile_to_csv(self.profile, path)


def match_exterior(profile: RadialProfile, r_b: float) -> StellarModel:
    """Glue the interior to the vacuum exterior at r_b and validate the seams.

    Checks (construction-time): rho(r_b) below the surface threshold,
    e^{v(r_b)} equal to 1 - 2M/r_b within 1e-9, and r_b > 2M (HorizonHit
    otherwise).  The profile must already carry its lapse.
    """
    if not profile.has_lapse():
        profile = integrate_lapse(profile, r_b=r_b)
    mass = profile.m(r_b)
    ytol = profile.options.surface_ytol_scale * max(1.0, abs(profile.rho_center))
    rho_b = profile.rho(min(r_b, profile.r_end))
    if abs(rho_b) > 10.0 * ytol:
        raise BadParams(f"rho(r_b) = {rho_b} is not a surface (tol {ytol})")
    x_b = 1.0 - 2.0 * mass / r_b
    if x_b <= EPS_DOM:
        raise HorizonHit(f"matching surface inside horizon: 1-2M/r_b = {x_b}")
    ev_b = math.exp(profile.v(min(r_b, profile.r_end)))
    if abs(ev_b - x_b) > 1e-9:
        raise BadParams(
            f"lapse mismatch at surface: e^v = {ev_b}, 1-2M/r_b = {x_b}"
        )
    return StellarModel(profile=profile, r_b=float(r_b), mass=float(mass))


# ----------------------------------------------------------------------------
# odds and ends
# ----------------------------------------------------------------------------

def volkoff_gamma(c: float, k: float, r):
    """e^{-gamma} for the constant-density family: 1 - (8 pi c / 3) r^2 + k / r.

    k = -2M with c = 0 is the vacuum exterior; k = 0 the regular interior.
    """
    r = np.asarray(r, dtype=float)
    return 1.0 - (8.0 * math.pi * c / 3.0) * r * r + k / r


def profile_to_csv(profile: RadialProfile, path) -> None:
    """Write the sample table with a header row and round-trip floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in profile.samples:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def profile_from_csv(path, eos: EquationOfState | None = None) -> RadialProfile:
    """Rebuild a profile from a CSV sample table (cubic-spline evaluators)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if tuple(header) != CSV_COLUMNS:
        raise BadParams(f"unexpected CSV columns {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    r, m, rho = data[:, 0], data[:, 1], data[:, 3]
    v_fn = None
    if np.all(np.isfinite(data[:, 5])):
        v_free = v_fn = _evaluator(CubicSpline(r, np.log(data[:, 5])))
    else:
        # no stored lapse: v' from the stored m and rho, integrated
        v_free = _evaluator(CubicSpline(r, _lapse_rate(r, rho, m)).antiderivative())
    return RadialProfile(
        samples=data,
        eos=eos if eos is not None else Custom(lambda rho: float("nan"), "csv"),
        rho_center=float(rho[0]),
        r_start=float(r[0]),
        r_end=float(r[-1]),
        rho_fn=_evaluator(CubicSpline(r, rho)),
        m_fn=_evaluator(CubicSpline(r, m)),
        v_fn=v_fn,
        v_free_fn=v_free,
    )

