"""Shared numerical kernels: radial functions, grids, roots, quadrature, ODEs.

Everything geometric in this package is assembled from two building blocks:

* :class:`RadialFunction` — a scalar function of one radial variable together
  with its first two derivatives, every one of them exact.  Closed forms are
  written once and differentiated by a second-order :class:`Jet`
  (:meth:`RadialFunction.from_formula`); ODE solutions differentiate their
  dense output (:meth:`PiecewisePoly.derivative`) or their right-hand side.
* :class:`ProfileAt` — a radial function read once on a set of points u; given
  the gradient and Hessian of u(x) on R^n there, it also gives those of the
  function in x by the chain rule, as the conformally flat machinery reads
  them.

ODE solutions come from :func:`solve_ivp`, a step-for-step port of scipy's
RK45 whose dense output is one :class:`PiecewisePoly`: its right-hand side
and events get the state as a list of Python floats, only the tableau
products are numpy, and ``nfev`` counts as scipy's does.  Tabulated data is
fitted by :func:`pchip`.  All of it runs on numpy alone and returns scipy's
floats, so the package needs no scipy at run time; the tests keep scipy as
the oracle, and finite differences as the independent check of every
derivative.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BadParams, DomainError

__all__ = [
    "EPS_DOM",
    "GRID_N_MAX",
    "Jet",
    "RadialFunction",
    "ProfileAt",
    "as_points",
    "check_grid_n",
    "chebyshev_grid",
    "sign_brackets",
    "refine_root",
    "sphere_rule",
    "PiecewisePoly",
    "pchip",
    "OdeResult",
    "solve_ivp",
]

# Domain guard used across the package: evaluators refuse points closer than
# this to a declared singular boundary (horizon, axis, lapse zero).
EPS_DOM = 1e-9


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

def _shaped(x, r):
    """A jet component at r as a new array of r's shape: no caller can write
    into the shared jet, and a formula linear in r gets its constant
    derivative in r's shape."""
    return x + np.zeros(np.shape(r))


@dataclass(frozen=True)
class RadialFunction:
    """A scalar function of one radial variable with two derivatives.

    Attributes
    ----------
    value, d1, d2:
        Vectorized callables (accept float or ndarray), elementwise: the
        value at a point does not depend on the other points read with it.
    provenance:
        ``"analytic"``, the only value: both derivatives are exact (closed
        forms, a :class:`Jet` through one formula, or an ODE's own equations).
    domain:
        Open interval ``(lo, hi)`` on which evaluation is admissible; ``hi``
        may be ``math.inf``.
    jet:
        Set by :meth:`from_formula` only: ``jet(r)`` is the formula's
        ``fn(Jet(r, 1, 0))``, through the point cache ``d1`` and ``d2`` read.
        None on every other profile, and on a ``dataclasses.replace`` copy,
        whose callables need not be the formula's.
    """

    value: Callable
    d1: Callable
    d2: Callable
    provenance: str = "analytic"
    domain: tuple[float, float] = (-math.inf, math.inf)
    jet: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.provenance != "analytic":
            raise BadParams(f"bad provenance {self.provenance!r}")
        lo, hi = self.domain
        if not lo < hi:
            raise BadParams(f"empty domain {self.domain}")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_formula(cls, fn: Callable, domain=(-math.inf, math.inf)) -> "RadialFunction":
        """One closed form: ``fn(r)`` is the value, and a :class:`Jet` through
        ``fn`` gives both derivatives exactly (provenance ``"analytic"``).

        ``fn`` takes a float or an array, and must use only the operations a
        Jet implements.  ``d1`` and ``d2`` called at the same points (as the
        residual checks call them) share one jet evaluation.  ``value`` is
        ``fn`` itself and builds no jet.  A :class:`ProfileAt` that reads a
        derivative takes its value from that jet too: the jet's value runs the
        ufuncs ``fn(r)`` runs on the same arrays, so it has ``value(r)``'s bits.
        """
        last = (None, None)  # (a copy of the points, their jet)

        def jet(r):
            nonlocal last
            points, j = last
            if points is None or not np.array_equal(points, r):
                j = fn(Jet(r, 1.0, 0.0))
                last = (np.array(r, dtype=float), j)
            return j

        rf = cls(
            value=fn,
            d1=lambda r: _shaped(jet(r).d1, r),
            d2=lambda r: _shaped(jet(r).d2, r),
            provenance="analytic",
            domain=domain,
        )
        object.__setattr__(rf, "jet", jet)
        return rf

    @classmethod
    def constant(cls, c: float, domain=(-math.inf, math.inf)) -> "RadialFunction":
        c = float(c)
        return cls(
            value=lambda r: np.full(np.shape(r), c) if np.ndim(r) else c,
            d1=lambda r: np.zeros(np.shape(r)) if np.ndim(r) else 0.0,
            d2=lambda r: np.zeros(np.shape(r)) if np.ndim(r) else 0.0,
            provenance="analytic",
            domain=domain,
        )

    # -- evaluation ----------------------------------------------------------

    def __call__(self, r):
        return self.value(r)


# ----------------------------------------------------------------------------
# piecewise polynomials and the fits built on them
# ----------------------------------------------------------------------------

def _power_sums(c, s):
    """sum_k c[k] s^(K-k) over the leading axis of ``c``, lowest power first,
    each s^j the product of the one before and s."""
    res, z = c[-1] + 0.0, None  # + 0.0 as a sum from 0.0 does: -0.0 becomes 0.0
    for ck in c[-2::-1]:
        z = s if z is None else z * s
        res = res + ck * z
    return res


# up to this many points, one-component polynomials are read one float at a time
_FEW_POINTS = 4


class PiecewisePoly:
    """A piecewise polynomial in local powers, evaluated as scipy's ``PPoly``.

    On [x[i], x[i+1]) the value is sum_k c[k, i] (t - x[i])^(K-k), highest
    power first.  The last piece is closed, and the end pieces extrapolate:
    t < x[0] reads piece 0 and t > x[-1] the last one.  Terms are summed
    lowest power first, as scipy's compiled ``evaluate_poly1`` sums them, so
    the values are ``PPoly``'s bit for bit.

    ``c`` may carry trailing axes (the state components of an ODE solution):
    points ``t`` then give values shaped ``t.shape + c.shape[2:]``, and
    :meth:`component` picks one.  A one-component polynomial called with a
    float, or any 0-d value, returns a float through a pure-Python path: root
    finders and ODE right-hand sides call it one point at a time.  An array
    of at most ``_FEW_POINTS`` points takes that path point by point, which
    costs less than the array operations there and gives the same bits.
    """

    def __init__(self, c, x):
        self.c = np.asarray(c, dtype=float)
        self.x = np.asarray(x, dtype=float)
        # the count of interior breakpoints <= t is t's piece, both ends included
        self._inner = self.x[1:-1]
        if self.c.ndim == 2:
            self._breaks, self._pieces = self.x.tolist(), self.c.T.tolist()

    def __call__(self, t):
        if self.c.ndim == 2 and (isinstance(t, float) or np.ndim(t) == 0):
            return self._at(float(t))
        t = np.asarray(t, dtype=float)
        if self.c.ndim == 2 and t.size <= _FEW_POINTS:
            return np.array([self._at(x) for x in t.ravel().tolist()]).reshape(t.shape)
        flat = t.ravel()
        i = np.searchsorted(self._inner, flat, side="right")
        s = (flat - self.x[i]).reshape((-1,) + (1,) * (self.c.ndim - 2))
        # np.take gathers the pieces' columns faster than the same fancy index
        return _power_sums(np.take(self.c, i, axis=1), s).reshape(t.shape + self.c.shape[2:])

    def _at(self, t: float) -> float:
        """The value at a float t, in floats: the same operations in the same
        order as the array path, so the same bits."""
        i = bisect.bisect_right(self._breaks, t, 1, len(self._breaks) - 1) - 1
        return _power_sums(self._pieces[i], t - self._breaks[i])

    def component(self, i: int) -> "PiecewisePoly":
        """State component ``i`` as a one-component polynomial."""
        return PiecewisePoly(self.c[..., i], self.x)

    def derivative(self) -> "PiecewisePoly":
        """The derivative, c[:-1] * [K, ..., 1] as scipy's ``PPoly.derivative()``
        forms it; a constant's is one row of zeros.  Built on the first call
        and kept."""
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> "PiecewisePoly":
        k = self.c.shape[0] - 1
        if k == 0:
            return PiecewisePoly(np.zeros_like(self.c), self.x)
        powers = np.arange(k, 0, -1).reshape((k,) + (1,) * (self.c.ndim - 1))
        return PiecewisePoly(self.c[:-1] * powers, self.x)


def _hermite(x, y, h, m, slopes) -> PiecewisePoly:
    """The cubic through (x, y) with the given slopes, as scipy's ``CubicHermiteSpline``;
    ``h`` and ``m`` are the steps ``np.diff(x)`` and secants ``np.diff(y) / h``."""
    t = (slopes[:-1] + slopes[1:] - 2 * m) / h
    c = np.empty((4, h.size))
    c[0], c[1], c[2], c[3] = t / h, (m - slopes[:-1]) / h - t, slopes[:-1], y[:-1]
    return PiecewisePoly(c, x)


def _sign(v: float):
    """np.sign of a float: -1, 0 or 1, and NaN for NaN."""
    return (v > 0.0) - (v < 0.0) if v == v else math.nan


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """The one-sided three-point slope at an end, clipped to keep the data's
    shape, on floats with numpy's operations in scipy's order."""
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(end) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(end) > 3.0 * abs(m0):
        return 3.0 * m0
    return end


def pchip(x, y) -> PiecewisePoly:
    """Monotone cubic through (x, y) (Fritsch & Carlson, *SIAM J. Numer. Anal.*
    17, 1980): scipy's ``PchipInterpolator`` slopes, bit for bit.

    ``x`` is strictly increasing and both arrays are finite; the caller judges
    the result, whose coefficients overflow on extreme data.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = x[1:] - x[:-1]  # np.diff's subtraction
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        return _hermite(x, y, h, m, np.array([m[0], m[0]]))
    # the weighted harmonic mean of the two secants, or 0 at an extremum or a flat run
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    (h0, h1), (hn, hn1) = h[:2].tolist(), h[:-3:-1].tolist()
    (m0, m1), (mn, mn1) = m[:2].tolist(), m[:-3:-1].tolist()
    d[0], d[-1] = _end_slope(h0, h1, m0, m1), _end_slope(hn, hn1, mn, mn1)
    return _hermite(x, y, h, m, d)


# ----------------------------------------------------------------------------
# ODE solutions and their dense output
# ----------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)

# Dormand & Prince, J. Comput. Appl. Math. 6 (1980): the 5(4) pair with
# Shampine's dense-output weights P, written as scipy's RK45 writes them
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


@dataclass(frozen=True)
class OdeResult:
    """One :func:`solve_ivp` run: the breakpoints ``t`` (the start, each step
    and a terminal event's root; ``t[-1]`` is the end point), the ``dense``
    solution on them, state on the last axis (None if no step was accepted),
    and ``status`` 0 (span done), 1 (event j fired, its root in
    ``t_events[j]``) or -1 (the step size collapsed)."""

    t: np.ndarray
    dense: PiecewisePoly | None
    t_events: list[np.ndarray]
    nfev: int
    status: int
    message: str


# the stages s = 1..6: (s, c_s as a float, the row a_s[:s]).  The sixth forms
# y_new = y + h K[:6]^T B and calls fun at t + 1.0 h = t + h; that value, K[6],
# starts the next step as its K[0] (first same as last)
_RK_STAGES = [(s, float(c), a[:s]) for s, (a, c) in enumerate(zip(_RK_A[1:], _RK_C[1:]), start=1)]
_RK_STAGES.append((6, 1.0, _RK_B))


def _rms(x):
    """np.linalg.norm(x) / sqrt(x.size) for a real 1-d x, as that norm computes it."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


@functools.lru_cache(maxsize=None)
def _packer(n: int):
    """``struct.Struct(f"{n}d").pack_into``: n floats into a float64 buffer."""
    return struct.Struct(f"{n}d").pack_into


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """The first step size of Hairer, Nørsett & Wanner, *Solving ODEs I*, Sec. II.4.
    ``y0``, ``f0`` and ``atol`` are arrays; ``fun`` gets its probe as a list."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.asarray(fun(t0 + h0, (y0 + h0 * f0).tolist()), dtype=float)
    d2 = _rms((f1 - f0) / scale)
    # h0 is 0 when d1 overflowed: scipy's numpy floats then divide to inf or nan
    d2 = d2 / h0 if h0 else float(np.divide(d2, h0))
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


# the largest state an attempt kernel names float by float.  Unrolled, an
# attempt ran 17-33% faster than the comprehension form at every size from 1
# to 128, but each state adds about 60 us of compile time: up to 8 states it
# is repaid within about 80 attempts (three TOV solves), at 64 within 360
_UNROLL_MAX = 8

# one stage of an attempt: y_new = y + h K[:s]^T a_s, then fun's result into
# row s of K, packed when it is a tuple or list of n floats, else (or when it
# is not n floats) assigned as numpy assigns it
_STAGE = """\
        {d} = K{s}.dot(A{s}).tolist()
        y_new = {state}
        f = fun(t + {c!r} * h, y_new)
        if type(f) is tuple or type(f) is list:
            try:
                pack(K, {offset}, *f)
            except struct_error:
                K[{s}] = f
        else:
            K[{s}] = f
"""

# scipy's RMS of e h / (atol + max(|y|, |y_new|) rtol); the max propagates NaN
# as np.maximum does, and a zero scale divides as numpy divides.  The terms are
# packed into ``out`` for one BLAS dot
_ERROR_TERM = "{e} * h / ({at} + ({b} if {b} > {a} or {b} != {b} else {a}) * rtol)"
_ERROR_NORM = """\
def error_norm(e, y, y_new, h, rtol, atol, out):
{unpack}    try:
        pack(out, 0, {terms})
    except ZeroDivisionError:  # atol 0 on a state at 0 both ends: scipy's numpy expression
        out[:] = array(e) * h / (array(atol) + maximum(absolute(y), absolute(y_new)) * rtol)
    return sqrt(out.dot(out)) / {root_n!r}
"""

_ATTEMPT = """\
def bind(fun, K, rtol, atol):
    KT = K.T
    {views} = [KT[:, :s] for s, _, _ in STAGES]
    err = empty({n})

    def attempt(t, h, y):
{unpack}{stages}        return y_new, error_norm(KT.dot(E).tolist(), y, y_new, h, rtol, atol, err)

    return attempt
"""


class _Kernel(NamedTuple):
    """One state size's attempt kernel: ``bind`` and the norm its attempts return."""

    bind: Callable
    error_norm: Callable


@functools.lru_cache(maxsize=16)
def _attempt_kernel(n: int) -> _Kernel:
    """The RK45 attempt for a state of ``n`` floats, compiled from the tableau.

    ``bind(fun, K, rtol, atol)`` gives ``attempt(t, h, y)``, which runs the
    six stages from ``y``, a list of n floats, over the solve's C-ordered
    ``(7, n)`` stage rows ``K`` (K[0] set) and returns the step's state
    ``y_new`` and its ``error_norm(e, y, y_new, h, rtol, atol, out)``, scipy's.
    Up to ``_UNROLL_MAX`` states each float has its own local name; a larger
    state runs the same statements as comprehensions over the lists.  The
    BLAS calls are those of scipy's step: five stage products, B, E and the
    norm's dot.
    """

    def names(x):  # "x0, x1, ..." as an unpacking target
        return ", ".join(f"{x}{i}" for i in range(n)) + ("," if n == 1 else "")

    if n <= _UNROLL_MAX:
        unpack_y = f"        {names('y')} = y\n"
        state = "[" + ", ".join(f"y{i} + d{i} * h" for i in range(n)) + "]"
        d = names("d")
        norm_unpack = "".join(f"    {names(x)} = {src}\n" for x, src in
                              [("e", "e"), ("at", "atol"), ("a", "map(abs, y)"),
                               ("b", "map(abs, y_new)")])
        terms = ", ".join(_ERROR_TERM.format(e=f"e{i}", at=f"at{i}", a=f"a{i}", b=f"b{i}")
                          for i in range(n))
    else:
        unpack_y, d, state = "", "d", "[yi + di * h for yi, di in zip(y, d)]"
        norm_unpack = ""
        terms = (f"*[{_ERROR_TERM.format(e='ei', at='at', a='a', b='b')}"
                 " for ei, at, a, b in zip(e, atol, map(abs, y), map(abs, y_new))]")
    row = 8 * n  # the bytes of one float64 row of K
    stages = "".join(_STAGE.format(d=d, s=s, state=state, c=c, offset=s * row)
                     for s, c, _ in _RK_STAGES)
    source = (_ERROR_NORM.format(unpack=norm_unpack, terms=terms, root_n=n ** 0.5)
              + _ATTEMPT.format(views=", ".join(f"K{s}" for s, _, _ in _RK_STAGES), n=n,
                                unpack=unpack_y, stages=stages))
    namespace = {
        "STAGES": _RK_STAGES, "E": _RK_E, "pack": _packer(n), "struct_error": struct.error,
        "empty": np.empty, "array": np.array, "maximum": np.maximum, "absolute": np.abs,
        "sqrt": math.sqrt, **{f"A{s}": a for s, _, a in _RK_STAGES},
    }
    exec(compile(source, f"<RK45 attempt, n={n}>", "exec"), namespace)
    return _Kernel(namespace["bind"], namespace["error_norm"])


# the accepted steps the dense-output buffers hold at first; they double when full
_FIRST_STEPS = 64


def solve_ivp(fun, t_span, y0, rtol: float = 1e-3, atol=1e-6, events=()) -> OdeResult:
    """Integrate y' = fun(t, y) forward over ``t_span`` with adaptive RK45.

    A step-for-step port of scipy's ``solve_ivp(method="RK45",
    dense_output=True)``: the same tableau, first step, RMS error norm and
    step control (safety 0.9, step factors 0.2 to 10, a minimum step of ten
    ulps of t), with ``rtol`` raised to at least 100 eps.  On the same
    problem it takes the same steps and returns the same floats, and
    ``nfev`` counts as scipy's does: f(t0), the first-step probe and six
    calls per attempted step.

    ``fun`` and every event get ``y`` as a list of Python floats, in every
    call; ``fun`` may return a tuple, list or array.  A tuple or list of
    ``len(y)`` floats is packed straight into its stage row; any other
    result (an array, one bare value for a one-state system, one value to
    broadcast) is assigned to the row as numpy assigns it, so what numpy
    refuses raises numpy's error, as in scipy.  The step holds its state as
    such a list and does its elementwise arithmetic on floats, which round
    as numpy's do; only the tableau products and the error norm's dot
    product are numpy's, the BLAS calls scipy makes: per attempt the five
    stage products, B and E, then the norm's dot, and P per accepted step,
    written straight into a buffer of the steps' Q = K^T P that doubles when
    full.  Each attempt is one call of straight-line code compiled from the
    tableau once per state size (:func:`_attempt_kernel`): the six stages
    and the error norm, each float of a state of up to ``_UNROLL_MAX`` (8)
    under its own name, a larger state in comprehensions over its lists.

    Every event ``g(t, y)`` is terminal and may carry a ``direction``
    attribute, as in scipy: the solve stops at the first root, which Brent's
    method (:func:`refine_root`, ``xtol = 4 eps``) finds on the step's own
    dense output.  Raises BadParams for an empty or backward span, for an
    initial state that is empty, not 1-d or not finite, for an ``atol`` that
    is neither one value nor one per state, and for a negative or NaN
    ``rtol`` or entry of ``atol`` (scipy refuses all three of the last).
    """
    t0, t_bound = map(float, t_span)
    if not t0 < t_bound:
        raise BadParams(f"need an increasing span, got {t_span}")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1:
        raise BadParams(f"the initial state must be 1-d, as scipy's, got shape {y.shape}")
    # from here on the state and atol are lists of floats
    y = y.tolist()
    n = len(y)
    if not n:
        raise BadParams("the initial state is empty")
    if not all(map(math.isfinite, y)):
        raise BadParams(f"the initial state {y0} is not finite")
    rtol, atol_given = float(rtol), np.asarray(atol, dtype=float)
    if atol_given.ndim == 0:
        atol = [atol_given.item()] * n
    elif atol_given.shape == (n,):
        atol = atol_given.tolist()
    else:
        raise BadParams(f"atol must be one value or one per state ({n}), as scipy's; "
                        f"got shape {atol_given.shape}")
    if not (rtol >= 0.0 and all(a >= 0.0 for a in atol)):  # NaN compares false
        raise BadParams(f"tolerances must be non-negative, got rtol={rtol}, atol={atol_given}")
    rtol = max(rtol, 100 * _EPS)
    # the stage rows: K[0] is f at the step's start, K[s] stage s's right-hand
    # side and K[6] f(t + h, y_new), which an accepted step moves to K[0]
    K = np.empty((len(_RK_C) + 1, n))
    K[0] = fun(t0, y)
    h_abs = _initial_step(fun, t0, np.array(y), t_bound, K[0], rtol, np.array(atol))
    pack = _packer(n)
    attempt = _attempt_kernel(n).bind(fun, K, rtol, atol)
    nfev = 2
    KT = K.T
    # each accepted step's Q, y_old and h: the step's dense output
    qs = np.empty((_FIRST_STEPS, n, _RK_P.shape[1]))
    y_olds = np.empty((_FIRST_STEPS, n))
    hs = []
    watched = [(event, getattr(event, "direction", 0)) for event in events]
    g = [event(t0, y) for event in events]
    t_events = [[] for _ in events]
    t, ts = t0, [t0]
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            y_new, error_norm = attempt(t, h, y)
            nfev += 6
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        else:  # the step size fell below ten ulps of t
            status = -1
            break
        factor = _MAX_FACTOR if error_norm == 0 else min(
            _MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        h_abs *= min(1, factor) if rejected else factor  # after a rejection no growth
        step = len(hs)
        if step == len(qs):
            qs = np.concatenate((qs, np.empty_like(qs)))
            y_olds = np.concatenate((y_olds, np.empty_like(y_olds)))
        Q = KT.dot(_RK_P, out=qs[step])
        pack(y_olds, step * y_olds.strides[0], *y)
        hs.append(h)
        K[0] = K[6]
        t_old, y_old, t, y = t, y, t_new, y_new
        if t >= t_bound:
            status = 0

        hits = []
        for j, (event, direction) in enumerate(watched):
            a, b = g[j], event(t, y)
            g[j] = b
            if (a <= 0 <= b and direction >= 0) or (a >= 0 >= b and direction <= 0):
                hits.append(j)
        if hits:
            def y_at(s):  # the step's dense output, as scipy's RkDenseOutput computes it
                x = (s - t_old) / h
                powers = [x]  # x, x^2, ... as a running product, as cumprod forms them
                for _ in range(Q.shape[1] - 1):
                    powers.append(powers[-1] * x)
                return [d + yi for d, yi in zip((h * Q.dot(powers)).tolist(), y_old)]

            t, j = min((refine_root(lambda s: events[j](s, y_at(s)), t_old, t, xtol=4 * _EPS), j)
                       for j in hits)
            t_events[j].append(t)
            status = 1
        if len(ts) > 1 and ts[-1] == t:  # an event root on the last breakpoint
            hs.pop()
        else:
            ts.append(t)

    dense = None
    if hs:
        # each step's dense output y_old + h Q [x, ..., x^k], x = (t - t_old)/h,
        # in local powers of t - t_old, highest first: c[k] = y_old, c[k-1-j] = Q[:, j] / h^j
        steps = len(hs)
        k = qs.shape[2]
        c = np.empty((k + 1, steps, n))
        c[k] = y_olds[:steps]
        c[k - 1::-1] = (qs[:steps] / np.array(hs)[:, None, None] ** np.arange(k)).transpose(2, 0, 1)
        dense = PiecewisePoly(c, ts)
    return OdeResult(t=np.array(ts), dense=dense, t_events=[np.asarray(te) for te in t_events],
                     nfev=nfev, status=status, message=_MESSAGES[status])


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


class _lazy:
    """A read-once attribute: the method runs on the first read, and its
    value is stored on the instance, where every later read finds it.  This
    is ``functools.cached_property`` without the lock that Python 3.11 and
    earlier take on each first read, a cost the many small readings of one
    residual check would pay dozens of times."""

    def __init__(self, method: Callable):
        self.method, self.__doc__ = method, method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class ProfileAt:
    """A radial profile h read at u = u(x) on one set of points.

    ``v``, ``d1`` and ``d2`` are h, h' and h'' at u; given the gradient
    ``grad_u`` and Hessian ``hess_u`` of u at the points, ``grad`` and
    ``hess`` are those of h(u(x)) by the chain rule

        grad = h' grad u,      hess = h'' grad u grad u^T + h' Hess u.

    Each is evaluated on its first read and kept, so every reader of one set
    of points shares one evaluation, and a reader that stops early (a failed
    positivity check) leaves the rest unevaluated.

    For a :meth:`RadialFunction.from_formula` profile the first derivative
    read builds the formula's jet at u, and ``d1``, ``d2`` and, if it was not
    read before, ``v`` all come from that one jet, with the bits of
    ``value``, ``d1`` and ``d2`` called at u.  ``v`` read before any
    derivative calls ``value`` and builds no jet, so a values-only reading
    never runs the derivative rules; :meth:`with_derivatives` is the start of
    a reading that wants both.  ``rf`` may be any callable of the points for a
    reading that reads ``v`` alone.
    """

    def __init__(self, rf: RadialFunction, u, grad_u=None, hess_u=None):
        self.rf, self.u, self.grad_u, self.hess_u = rf, u, grad_u, hess_u
        self._jet = None  # rf's jet at u, once a derivative has built it

    def with_derivatives(self) -> "ProfileAt":
        """This reading with ``d1`` read now, so that a closed form's ``v``
        comes from the jet its derivatives need."""
        self.d1  # read for its jet
        return self

    def _derivative(self, name: str):
        make = getattr(self.rf, "jet", None)
        if make is None:
            return np.asarray(getattr(self.rf, name)(self.u), dtype=float)
        if self._jet is None:
            self._jet = make(self.u)
        return np.asarray(_shaped(getattr(self._jet, name), self.u), dtype=float)

    @_lazy
    def v(self):
        if self._jet is None:
            return np.asarray(self.rf(self.u), dtype=float)
        return np.array(self._jet.v, dtype=float)  # a copy: the jet is the cache's

    @_lazy
    def d1(self):
        return self._derivative("d1")

    @_lazy
    def d2(self):
        return self._derivative("d2")

    @_lazy
    def grad(self):
        return self.d1[..., None] * self.grad_u

    @_lazy
    def hess(self):
        g = self.grad_u
        return (self.d2[..., None, None] * (g[..., :, None] * g[..., None, :])
                + self.d1[..., None, None] * self.hess_u)


# ----------------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------------

# The most points any grid may have.  The hungriest request, ``verify wyman``,
# peaks at about 32 MiB + 424 bytes per point (ru_maxrss at 1e5 and 1e6 points,
# CPython 3.11, numpy 2.4, x86-64 Linux), so this many points stay near 1.6 GiB.
GRID_N_MAX = 4_000_000


def check_grid_n(n, least: int) -> None:
    """Refuse, as BadParams, a number of grid points ``n`` that is not an
    integer from ``least`` to GRID_N_MAX (a float, a bool, too few or too
    many points)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise BadParams(f"a grid needs an integer number of points, at least {least}; "
                        f"got {n!r}")
    if n > GRID_N_MAX:
        raise BadParams(f"a grid takes at most {GRID_N_MAX} points; got {n!r}")


# grids of up to this many points share their unit nodes, kept for the last
# 16 such sizes; larger grids compute theirs
_SHARED_NODES_MAX = 4096


@functools.lru_cache(maxsize=16)
def _lobatto_nodes(n: int) -> np.ndarray:
    """cos(pi j / (n - 1)) for j = 0..n-1, read-only: shared by every grid of n points."""
    nodes = np.cos(np.pi * np.arange(n) / (n - 1))
    nodes.flags.writeable = False
    return nodes


def chebyshev_grid(lo: float, hi: float, n: int):
    """Chebyshev–Lobatto points on [lo, hi], increasing; ``n`` is an integer
    of at least 2.  Each call returns a new array.

    Lobatto points cluster near the interval ends, which is where the residual
    checks need resolution (centers, surfaces, horizons).
    """
    if not lo < hi:
        raise DomainError(f"empty grid interval ({lo}, {hi})")
    check_grid_n(n, 2)
    nodes = _lobatto_nodes(n) if n <= _SHARED_NODES_MAX else _lobatto_nodes.__wrapped__(n)
    grid = 0.5 * (lo + hi) - 0.5 * (hi - lo) * nodes
    # the affine map can land an ulp off the interval ends; pin them so that
    # callers may rely on grid[0] == lo and grid[-1] == hi
    grid[0], grid[-1] = lo, hi
    return grid


# ----------------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------------

def sign_brackets(grid, vals) -> list:
    """Sign-change brackets of values ``vals`` sampled on increasing ``grid``.

    An exact zero at a grid point is reported as the degenerate bracket
    (g, g); brackets come in grid order.  ``vals`` shaped (L, N), one row
    per function on the same N-point grid, gives L lists of brackets, found
    in one pass over the array.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if np.count_nonzero(np.isfinite(vals)) < vals.size:
        raise DomainError("non-finite values while bracketing")
    n = vals.shape[-1]
    rows = vals.reshape(-1, n)
    zero = rows == 0.0
    hit = zero[:, :-1] | (rows[:, :-1] * rows[:, 1:] < 0.0)
    out = [[] for _ in rows]
    for h in np.flatnonzero(hit).tolist():
        k, i = divmod(h, n - 1)
        out[k].append((float(grid[i]), float(grid[i if zero[k, i] else i + 1])))
    for k in np.flatnonzero(zero[:, -1]).tolist():
        out[k].append((float(grid[-1]), float(grid[-1])))
    return out if vals.ndim > 1 else out[0]


_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def refine_root(func: Callable, a: float, b: float, xtol: float = 1e-12) -> float:
    """Brent's method on a sign-change bracket; a degenerate bracket returns a.

    A step-for-step port of scipy's ``brentq`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4) with ``rtol = 4 eps`` and
    at most 100 iterations: on the same bracket it returns the same float.
    Raises DomainError when f(a) and f(b) share a sign, when f is NaN, and
    when the iterations run out.
    """
    if a == b:
        return float(a)

    def f(x):
        fx = float(func(x))
        if math.isnan(fx):
            raise DomainError(f"f is NaN at x={x} while refining a root")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"root bracket [{a}, {b}] does not straddle a sign change")
    # xcur is the best estimate, xblk the other end of the bracket and xpre
    # the previous iterate; spre and scur are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # an underflowed denominator gives C an infinite step: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0.0 else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise DomainError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations "
                      f"on [{a}, {b}]")


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
        raise BadParams("degree must be positive")
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
