"""Shared numerical kernels: radial functions, derivatives, grids, roots, quadrature.

Everything geometric in this package is assembled from two building blocks:

* :class:`RadialFunction` — a scalar function of one radial variable together
  with its first two derivatives and a provenance tag saying whether those
  derivatives are analytic or produced by the finite-difference fallback.
  Closed forms are written once and differentiated by a second-order
  :class:`Jet` (:meth:`RadialFunction.from_formula`).
* :class:`ScalarField` — a scalar function on R^n with gradient and Hessian,
  used by the conformally flat machinery.

ODE solutions are read back through :func:`ode_ppoly`, which turns the dense
output of one Runge–Kutta solve into a single compiled piecewise polynomial.

The finite-difference fallback is deliberately boring and well-characterised:
4th-order central stencils with step ``h = max(1e-5, 1e-5 |r|)`` and one
Richardson halving, which eliminates the leading h^4 error term.  On smooth
functions this lands comfortably below the 1e-6 agreement tolerance the
residual checks assume.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp.rk import RkDenseOutput
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from .errors import BadParams, DerivativeError, DomainError

__all__ = [
    "EPS_DOM",
    "DEFAULT_GRID_N",
    "Jet",
    "RadialFunction",
    "ScalarField",
    "as_points",
    "fd_derivative",
    "chebyshev_grid",
    "find_brackets",
    "sign_brackets",
    "refine_root",
    "bisect_root",
    "sphere_rule",
    "max_rms",
    "ode_ppoly",
]

# Domain guard used across the package: evaluators refuse points closer than
# this to a declared singular boundary (horizon, axis, lapse zero).
EPS_DOM = 1e-9

# Default resolution for residual grids.
DEFAULT_GRID_N = 512

_FD_BASE_STEP = 1e-5
# Second derivatives divide by h^2, so roundoff forces a much larger step:
# with h ~ 5e-4 truncation (~h^4) and cancellation (~eps/h^2) balance near 1e-9.
_FD_BASE_STEP_D2 = 5e-4


# ----------------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------------

def _fd_once(func: Callable, r: np.ndarray, h: np.ndarray, order: int) -> np.ndarray:
    """One 4th-order central stencil evaluation at step h (vectorized)."""
    fm2 = np.asarray(func(r - 2.0 * h), dtype=float)
    fm1 = np.asarray(func(r - h), dtype=float)
    fp1 = np.asarray(func(r + h), dtype=float)
    fp2 = np.asarray(func(r + 2.0 * h), dtype=float)
    if order == 1:
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    f0 = np.asarray(func(r), dtype=float)
    return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)


def fd_derivative(
    func: Callable,
    r,
    order: int = 1,
    domain: tuple[float, float] | None = None,
):
    """Derivative of ``func`` at ``r`` by 4th-order central differences.

    One Richardson halving is applied, ``(16 D(h/2) - D(h)) / 15``, so the
    effective truncation order is six.  ``order`` is 1 or 2.

    Raises
    ------
    DerivativeError
        If the stencil footprint ``r ± 2h`` leaves ``domain``, or any sampled
        value is non-finite.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    base = _FD_BASE_STEP if order == 1 else _FD_BASE_STEP_D2
    if scalar:
        # keep plain floats so scalar-only callables (math.sin, ...) work
        r_s = float(r_arr)
        h = max(base, base * abs(r_s))
        if domain is not None and (r_s - 2.0 * h < domain[0] or r_s + 2.0 * h > domain[1]):
            raise DerivativeError(
                f"finite-difference stencil leaves domain {domain}"
            )
        coarse = _fd_once(func, r_s, h, order)
        fine = _fd_once(func, r_s, 0.5 * h, order)
        out = (16.0 * float(fine) - float(coarse)) / 15.0
        if not math.isfinite(out):
            raise DerivativeError("non-finite values inside finite-difference stencil")
        return out
    h = np.maximum(base, base * np.abs(r_arr))
    if domain is not None:
        lo, hi = domain
        if np.any(r_arr - 2.0 * h < lo) or np.any(r_arr + 2.0 * h > hi):
            raise DerivativeError(
                f"finite-difference stencil leaves domain ({lo}, {hi})"
            )
    coarse = _fd_once(func, r_arr, h, order)
    fine = _fd_once(func, r_arr, 0.5 * h, order)
    out = (16.0 * fine - coarse) / 15.0
    if not np.all(np.isfinite(out)):
        raise DerivativeError("non-finite values inside finite-difference stencil")
    return out


# ----------------------------------------------------------------------------
# second-order jets
# ----------------------------------------------------------------------------

def _jet_add(a, b):
    if not isinstance(a, Jet):
        return Jet(a + b.v, b.d1, b.d2)
    if not isinstance(b, Jet):
        return Jet(a.v + b, a.d1, a.d2)
    return Jet(a.v + b.v, a.d1 + b.d1, a.d2 + b.d2)


def _jet_sub(a, b):
    return _jet_add(a, -b)


def _jet_mul(a, b):
    if not isinstance(a, Jet):
        return Jet(a * b.v, a * b.d1, a * b.d2)
    if not isinstance(b, Jet):
        return Jet(a.v * b, a.d1 * b, a.d2 * b)
    return Jet(a.v * b.v, a.d1 * b.v + a.v * b.d1,
               a.d2 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d2)


def _jet_div(a, b):
    if not isinstance(b, Jet):
        return Jet(a.v / b, a.d1 / b, a.d2 / b)
    a0, a1, a2 = (a.v, a.d1, a.d2) if isinstance(a, Jet) else (a, 0.0, 0.0)
    q = a0 / b.v
    q1 = (a1 - q * b.d1) / b.v
    return Jet(q, q1, (a2 - 2.0 * q1 * b.d1 - q * b.d2) / b.v)


def _jet_pow(a, n):
    if isinstance(n, Jet):
        return NotImplemented
    x = a.v
    return a._chain(x**n, n * x ** (n - 1), n * (n - 1) * x ** (n - 2))


class Jet:
    """A value with its first and second derivative in one variable, carried forward.

    Arithmetic and the numpy ufuncs in ``_JET_UFUNCS`` apply the chain rule,
    so a formula written with ``np.sin``, ``np.arccos``, ``np.tanh``, ...
    runs unchanged on floats, arrays and jets: ``fn(Jet(r, 1, 0))`` holds
    fn(r), fn'(r) and fn''(r).  Components may be floats, arrays or jets;
    ``fn(Jet(r, 1, 0)).d1`` is therefore fn' as a formula that itself takes
    a jet.  Exponents are constants, and a jet meets only constants and jets
    of the same variable.
    """

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    def _chain(self, g0, g1, g2):
        """g(self) from g, g', g'' at self.v."""
        return Jet(g0, g1 * self.d1, g1 * self.d2 + g2 * self.d1 * self.d1)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        rule = _JET_UFUNCS.get(ufunc)
        if method != "__call__" or kwargs or rule is None:
            return NotImplemented
        return rule(*inputs)

    # each operator is the rule its ufunc uses; + and * commute exactly
    __add__ = __radd__ = _jet_add
    __sub__ = _jet_sub
    __mul__ = __rmul__ = _jet_mul
    __truediv__ = _jet_div
    __pow__ = _jet_pow

    def __rsub__(self, other):
        return _jet_sub(other, self)

    def __rtruediv__(self, other):
        return _jet_div(other, self)

    def __neg__(self):
        return Jet(-self.v, -self.d1, -self.d2)


def _jet_sqrt(a):
    s = np.sqrt(a.v)
    return a._chain(s, 0.5 / s, -0.25 / (s * a.v))


def _jet_log(a):
    return a._chain(np.log(a.v), 1.0 / a.v, -1.0 / (a.v * a.v))


def _jet_log1p(a):
    p = 1.0 + a.v
    return a._chain(np.log1p(a.v), 1.0 / p, -1.0 / (p * p))


def _jet_sin(a):
    s = np.sin(a.v)
    return a._chain(s, np.cos(a.v), -s)


def _jet_cos(a):
    c = np.cos(a.v)
    return a._chain(c, -np.sin(a.v), -c)


def _jet_tan(a):
    t = np.tan(a.v)
    sec2 = 1.0 + t * t
    return a._chain(t, sec2, 2.0 * t * sec2)


def _jet_sinh(a):
    s = np.sinh(a.v)
    return a._chain(s, np.cosh(a.v), s)


def _jet_cosh(a):
    c = np.cosh(a.v)
    return a._chain(c, np.sinh(a.v), c)


def _jet_tanh(a):
    # sech^2 from cosh, not 1 - tanh^2, which cancels for large arguments
    t = np.tanh(a.v)
    sech2 = 1.0 / np.cosh(a.v) ** 2
    return a._chain(t, sech2, -2.0 * t * sech2)


def _jet_arccos(a):
    w = (1.0 - a.v) * (1.0 + a.v)
    g1 = -1.0 / np.sqrt(w)
    return a._chain(np.arccos(a.v), g1, a.v * g1 / w)


_JET_UFUNCS = {
    np.add: _jet_add,
    np.subtract: _jet_sub,
    np.multiply: _jet_mul,
    np.true_divide: _jet_div,
    np.power: _jet_pow,
    np.sqrt: _jet_sqrt,
    np.log: _jet_log,
    np.log1p: _jet_log1p,
    np.sin: _jet_sin,
    np.cos: _jet_cos,
    np.tan: _jet_tan,
    np.sinh: _jet_sinh,
    np.cosh: _jet_cosh,
    np.tanh: _jet_tanh,
    np.arccos: _jet_arccos,
}


# ----------------------------------------------------------------------------
# radial functions
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialFunction:
    """A scalar function of one radial variable with two derivatives.

    Attributes
    ----------
    value, d1, d2:
        Vectorized callables (accept float or ndarray).
    provenance:
        ``"analytic"`` if both derivatives are exact (supplied in closed form,
        or from a :class:`Jet` through one formula), ``"finite-difference"``
        if either fell back to the stencil.
    domain:
        Open interval ``(lo, hi)`` on which evaluation is admissible; ``hi``
        may be ``math.inf``.
    """

    value: Callable
    d1: Callable
    d2: Callable
    provenance: str = "analytic"
    domain: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if self.provenance not in ("analytic", "finite-difference"):
            raise ValueError(f"bad provenance {self.provenance!r}")
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain {self.domain}")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_callables(
        cls,
        value: Callable,
        d1: Callable | None = None,
        d2: Callable | None = None,
        domain: tuple[float, float] = (-math.inf, math.inf),
    ) -> "RadialFunction":
        """Build a RadialFunction, filling missing derivatives by differencing.

        Missing ``d2`` with analytic ``d1`` differences ``d1`` once (keeping
        the error budget of a first derivative); with no ``d1`` either, ``d2``
        uses one order-2 stencil on ``value`` rather than nesting two order-1
        stencils (which would square the roundoff).
        """
        analytic = d1 is not None and d2 is not None
        had_d1 = d1 is not None
        if d1 is None:
            def d1(r, _v=value, _dom=domain):  # noqa: E731 - closure over value
                return fd_derivative(_v, r, order=1, domain=_dom)
        if d2 is None:
            if had_d1:
                def d2(r, _d1=d1, _dom=domain):
                    return fd_derivative(_d1, r, order=1, domain=_dom)
            else:
                def d2(r, _v=value, _dom=domain):
                    return fd_derivative(_v, r, order=2, domain=_dom)
        return cls(
            value=value,
            d1=d1,
            d2=d2,
            provenance="analytic" if analytic else "finite-difference",
            domain=domain,
        )

    @classmethod
    def from_formula(cls, fn: Callable, domain=(-math.inf, math.inf)) -> "RadialFunction":
        """One closed form: ``fn(r)`` is the value, and a :class:`Jet` through
        ``fn`` gives both derivatives exactly (provenance ``"analytic"``).

        ``fn`` takes a float or an array, and must use only the operations a
        Jet implements.  ``d1`` and ``d2`` called at the same points (as the
        residual checks call them) share one jet evaluation.
        """
        last = (None, None)  # (a copy of the points, their jet)

        def jet(r):
            nonlocal last
            points, j = last
            if points is None or not np.array_equal(points, r):
                j = fn(Jet(r, 1.0, 0.0))
                last = (np.array(r, dtype=float), j)
            return j

        def shaped(x, r):
            # a new array each call, so no caller can write into the shared
            # jet; a formula linear in r also gets its constant derivative in
            # r's shape
            return x + np.zeros(np.shape(r))

        return cls(
            value=fn,
            d1=lambda r: shaped(jet(r).d1, r),
            d2=lambda r: shaped(jet(r).d2, r),
            provenance="analytic",
            domain=domain,
        )

    @classmethod
    def constant(cls, c: float, domain=(-math.inf, math.inf)) -> "RadialFunction":
        c = float(c)
        return cls(
            value=lambda r: np.full_like(np.asarray(r, dtype=float), c) if np.ndim(r) else c,
            d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0,
            d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0,
            provenance="analytic",
            domain=domain,
        )

    # -- evaluation ----------------------------------------------------------

    def check_domain(self, r) -> None:
        lo, hi = self.domain
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < lo) or np.any(r_arr > hi):
            raise DomainError(f"r={r} outside domain ({lo}, {hi})")

    def __call__(self, r):
        return self.value(r)

    def restricted(self, lo: float, hi: float) -> "RadialFunction":
        """Same function on a narrower domain."""
        new_lo, new_hi = max(lo, self.domain[0]), min(hi, self.domain[1])
        return dataclasses.replace(self, domain=(new_lo, new_hi))


# ----------------------------------------------------------------------------
# ODE dense output
# ----------------------------------------------------------------------------

def ode_ppoly(sol) -> PPoly:
    """The dense output of an RK45 (or RK23) solve as one ``PPoly``.

    ``sol`` is the ``OdeSolution`` of ``solve_ivp(..., dense_output=True)``.
    Each of its segments is y_old + h Q [x, x^2, ..., x^k] with
    x = (t - t_old)/h, so in local powers of (t - t_old) the coefficients are
    c[k] = y_old and c[k-1-j] = Q[:, j] / h^j.  The breakpoints are
    ``sol.ts`` and the polynomial extrapolates, as ``OdeSolution`` does.

    Values carry the state component on the last axis: ``ode_ppoly(sol)(t)``
    has shape ``t.shape + (n_states,)`` and equals ``sol(t).T`` to round-off
    (at a breakpoint ``sol`` takes the left segment, the PPoly the right one).
    One component alone is ``PPoly.construct_fast(pp.c[..., i], pp.x)``.

    Raises BadParams for a dense output other than ``RkDenseOutput``
    (DOP853, the implicit methods, LSODA).
    """
    parts = sol.interpolants
    kinds = {type(p).__name__ for p in parts if not isinstance(p, RkDenseOutput)}
    if kinds:
        raise BadParams(
            f"ode_ppoly needs explicit Runge-Kutta (RK45/RK23) dense output, got {sorted(kinds)}"
        )
    h = np.array([p.h for p in parts])
    q = np.array([p.Q for p in parts])  # (segments, states, k)
    k = q.shape[2]
    c = np.empty((k + 1,) + q.shape[:2])
    c[k] = [p.y_old for p in parts]
    c[k - 1::-1] = np.moveaxis(q / h[:, None, None] ** np.arange(k), 2, 0)
    return PPoly(c, sol.ts, extrapolate=True)


# ----------------------------------------------------------------------------
# scalar fields on R^n
# ----------------------------------------------------------------------------

def as_points(x, n: int) -> np.ndarray:
    """``x`` as a float array of one point ``(n,)`` or a batch ``(N, n)``.

    Raises BadParams for any other shape, so a mismatched dimension never
    broadcasts into a wrong answer.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise BadParams(f"expected a point (n,) or points (N, n) with n={n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on R^n exposing value, gradient, and Hessian.

    Fields built by this package take one point ``(n,)`` or a batch
    ``(N, n)`` and return values shaped ``()``/``(N,)``, gradients
    ``(..., n)`` and Hessians ``(..., n, n)``; other shapes raise BadParams.
    A hand-written field only needs to handle the shapes its caller passes.
    Fields built by the ``from_radial_*`` constructors are exact compositions
    (chain rule), not finite differences.
    """

    value: Callable
    gradient: Callable
    hessian: Callable
    n: int

    @classmethod
    def from_radial_euclidean(cls, rf: RadialFunction, n: int) -> "ScalarField":
        """Lift ``F(x) = rf(|x|)`` to a field on R^n.

        At the origin the gradient is 0 and the Hessian is ``rf''(0) * I``
        (valid for even radial profiles, which is the only case the package
        constructs); elsewhere the exact chain rule is used.  The origin is
        masked per point, and ``rf`` is only evaluated where it is needed.
        """
        eye = np.eye(n)

        def radii(x):
            x = as_points(x, n)
            s = np.linalg.norm(x, axis=-1)
            return x, s, s > 0.0

        def value(x):
            return rf.value(np.linalg.norm(as_points(x, n), axis=-1))

        def gradient(x):
            x, s, off = radii(x)
            out = np.zeros(x.shape)
            if np.any(off):
                so = s[off]
                out[off] = (np.asarray(rf.d1(so), dtype=float) / so)[:, None] * x[off]
            return out

        def hessian(x):
            x, s, off = radii(x)
            out = np.empty(x.shape + (n,))
            if not np.all(off):
                out[~off] = float(rf.d2(0.0)) * eye
            if np.any(off):
                so = s[off]
                d1 = np.asarray(rf.d1(so), dtype=float) / so
                d2 = np.asarray(rf.d2(so), dtype=float)
                xs = x[off] / so[:, None]
                out[off] = (d2 - d1)[:, None, None] * (xs[:, :, None] * xs[:, None, :]) \
                    + d1[:, None, None] * eye
            return out

        return cls(value=value, gradient=gradient, hessian=hessian, n=n)

    @classmethod
    def compose(cls, rf: RadialFunction, inner: "ScalarField") -> "ScalarField":
        """Exact chain-rule lift of ``F(x) = rf(inner(x))``; batches as ``inner`` does."""

        def value(x):
            return rf.value(inner.value(x))

        def gradient(x):
            u = inner.value(x)
            return np.asarray(rf.d1(u), dtype=float)[..., None] * np.asarray(inner.gradient(x))

        def hessian(x):
            u = inner.value(x)
            g = np.asarray(inner.gradient(x), dtype=float)
            d1 = np.asarray(rf.d1(u), dtype=float)[..., None, None]
            d2 = np.asarray(rf.d2(u), dtype=float)[..., None, None]
            return d2 * (g[..., :, None] * g[..., None, :]) + d1 * np.asarray(inner.hessian(x))

        return cls(value=value, gradient=gradient, hessian=hessian, n=inner.n)

    @classmethod
    def constant(cls, c: float, n: int) -> "ScalarField":
        c = float(c)
        return cls(
            value=lambda x: np.full(as_points(x, n).shape[:-1], c),
            gradient=lambda x: np.zeros(as_points(x, n).shape),
            hessian=lambda x: np.zeros(as_points(x, n).shape + (n,)),
            n=n,
        )


# ----------------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------------

def chebyshev_grid(lo: float, hi: float, n: int = DEFAULT_GRID_N, margin: float = 0.0):
    """Chebyshev–Lobatto points on [lo + margin, hi - margin], increasing.

    Lobatto points cluster near the interval ends, which is where the residual
    checks need resolution (centers, surfaces, horizons).
    """
    if not lo < hi:
        raise DomainError(f"empty grid interval ({lo}, {hi})")
    a, b = lo + margin, hi - margin
    if not a < b:
        raise DomainError(f"margin {margin} exhausts interval ({lo}, {hi})")
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    j = np.arange(n)
    grid = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * j / (n - 1))
    # the affine map can land an ulp off the interval ends; pin them so that
    # callers may rely on grid[0] == a and grid[-1] == b
    grid[0], grid[-1] = a, b
    return grid


# ----------------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------------

def find_brackets(func: Callable, grid) -> list[tuple[float, float]]:
    """Sign-change brackets of ``func`` along ``grid`` (assumed increasing).

    ``func`` is called once per grid point, so scalar-only callables work;
    for a callable that takes arrays, evaluate it on the grid once and use
    :func:`sign_brackets`.
    """
    grid = np.asarray(grid, dtype=float)
    return sign_brackets(grid, np.asarray([float(func(g)) for g in grid]))


def sign_brackets(grid, vals) -> list[tuple[float, float]]:
    """Sign-change brackets of values ``vals`` sampled on increasing ``grid``.

    An exact zero at a grid point is reported as the degenerate bracket
    (g, g); brackets come in grid order.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("non-finite values while bracketing")
    zero = vals == 0.0
    hits = np.flatnonzero(zero[:-1] | (vals[:-1] * vals[1:] < 0.0))
    out = [(float(grid[i]), float(grid[i if zero[i] else i + 1])) for i in hits]
    if zero[-1]:
        out.append((float(grid[-1]), float(grid[-1])))
    return out


def refine_root(func: Callable, a: float, b: float, xtol: float = 1e-12) -> float:
    """Brent's method on a bracket; degenerate brackets return the endpoint."""
    if a == b:
        return float(a)
    return float(brentq(func, a, b, xtol=xtol, rtol=4.0 * np.finfo(float).eps))


def bisect_root(
    func: Callable,
    a: float,
    b: float,
    ytol: float,
    max_iter: int = 200,
) -> float:
    """Plain bisection until ``|func| < ytol`` (and the bracket is tight).

    Used where the contract is phrased in terms of the residual value rather
    than the abscissa (surface detection).
    """
    fa, fb = float(func(a)), float(func(b))
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if fa * fb > 0.0:
        raise DomainError("bisection bracket does not straddle a sign change")
    lo, hi = float(a), float(b)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = float(func(mid))
        if abs(fm) < ytol and (hi - lo) < max(1e-13, 1e-13 * abs(mid)) * 1e3:
            return mid
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            hi, fb = mid, fm
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------------
# spherical quadrature
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def sphere_rule(degree: int = 35) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the unit sphere S^2, exact through ``degree``.

    Product rule: Gauss–Legendre in cos(theta) with ceil((degree+1)/2) nodes
    crossed with ``degree + 1`` equally spaced azimuths.  Equal-angle azimuths
    integrate e^{i m phi} exactly for |m| <= degree, and GL handles the
    polar polynomial degree, so the product is exact for all spherical
    harmonics through ``degree``.  Weights sum to 4*pi at machine precision.

    Nodes run theta-major, then phi.  The rule is computed once per degree
    and shared, so both arrays are read-only.

    Returns
    -------
    points : (N, 3) unit vectors
    weights : (N,) positive weights
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    n_theta = (degree + 2) // 2
    n_phi = degree + 1
    mu, w_mu = np.polynomial.legendre.leggauss(n_theta)  # mu = cos(theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    sin_theta = np.sqrt(1.0 - mu**2)
    pts = np.stack([
        np.outer(sin_theta, np.cos(phi)).ravel(),
        np.outer(sin_theta, np.sin(phi)).ravel(),
        np.repeat(mu, n_phi),
    ], axis=-1)
    wts = np.repeat(w_mu * w_phi, n_phi)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


# ----------------------------------------------------------------------------
# misc
# ----------------------------------------------------------------------------

def max_rms(values) -> tuple[float, float]:
    """(max |v|, rms |v|) of an array; both zero for empty input."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    if v.size == 0:
        return 0.0, 0.0
    return float(np.max(v)), float(np.sqrt(np.mean(v * v)))
