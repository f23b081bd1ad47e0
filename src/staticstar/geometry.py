"""Curvature and field-equation residuals for static perfect-fluid geometries.

The object under study is a Riemannian n-manifold (M, g) carrying a positive
lapse f and fluid data (mu, rho) satisfying

    f Ric = Hess f + ((mu - rho)/(n-1)) f g            (field equation)
    Lap f = ((n-2) mu + n rho)/(n-1) f                 (trace part)
    mu    = R / 2                                      (scalar constraint)

with mu, rho in the *geometric* convention.  Observational papers and the TOV
literature use *physical* variables instead; the two are related by

    mu_geo = 8 pi mu_phys + Lambda,     rho_geo = 8 pi rho_phys - Lambda,

which follows from eliminating the Lorentzian Ricci tensor between the two
formulations (the geometric pair is Lambda-free because Lambda enters the
Einstein equation and the stress tensor with opposite signs).  Use
:func:`to_geometric` / :func:`to_physical` rather than inlining 8*pi factors.

Everything here is evaluated on the spatial factor only; no Lorentzian metric
is ever constructed.

Supported metric ansatz classes
-------------------------------
* :class:`SchwarzschildForm` — g = dr^2/(1 - 2m(r)/r) + r^2 g_{S^2}, m the mass function
* :class:`WarpedProduct`     — g = dr^2 + phi(r)^2 g_{S^2}   (r = proper distance)
* :class:`ConformalFlat`     — g = phi(u(x))^{-2} delta  on a subset of R^n, u a quadric invariant
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadParams, DomainError
from .numerics import ProfileAt, RadialFunction, as_points, _lazy

if TYPE_CHECKING:  # conformal imports this module
    from .conformal import BasicInvariant

__all__ = [
    "SchwarzschildForm",
    "WarpedProduct",
    "ConformalFlat",
    "ConformalBatch",
    "FluidData",
    "Piece",
    "RadialReading",
    "ResidualEntry",
    "ResidualReport",
    "to_geometric",
    "to_physical",
    "conformal_curvature",
    "conformal_hessian",
    "spf_residuals",
    "coordinate_sphere",
]

EIGHT_PI = 8.0 * math.pi


# ----------------------------------------------------------------------------
# convention bridge
# ----------------------------------------------------------------------------

def to_geometric(mu_phys: float, rho_phys: float, lam: float = 0.0) -> tuple[float, float]:
    """(mu, rho) physical -> geometric: (8 pi mu + Lambda, 8 pi rho - Lambda)."""
    return EIGHT_PI * mu_phys + lam, EIGHT_PI * rho_phys - lam


def to_physical(mu_geo: float, rho_geo: float, lam: float = 0.0) -> tuple[float, float]:
    """(mu, rho) geometric -> physical; inverse of :func:`to_geometric`."""
    return (mu_geo - lam) / EIGHT_PI, (rho_geo + lam) / EIGHT_PI


# ----------------------------------------------------------------------------
# metric ansatz classes
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SchwarzschildForm:
    """g = dr^2/(1 - 2m(r)/r) + r^2 g_{S^2}; the mass function m(r) is the
    Hawking mass of the coordinate sphere at r (Misner & Sharp 1964)."""

    m: RadialFunction

    @property
    def n(self) -> int:
        return 3


@dataclass(frozen=True)
class WarpedProduct:
    """g = dr^2 + phi(r)^2 g_{S^2}; r is proper radial distance."""

    phi: RadialFunction

    @property
    def n(self) -> int:
        return 3


@dataclass(frozen=True)
class ConformalFlat:
    """g = phi(u(x))^{-2} delta_ij on (a subset of) R^n, n >= 3, for a quadric
    invariant u (:class:`~staticstar.conformal.BasicInvariant`).

    ``phi_radial`` is the factor's profile in u; everything else is read from
    the invariant: ``n``, u(x) with its gradient and Hessian, and the
    reference ray ``invariant.point_at``, which embeds grid values u (a float
    or an array) into R^n as points shaped ``u.shape + (n,)``.  For tau > 0
    the level sets of u are round spheres about the invariant's center.  At
    points of R^n the chart is read through a :class:`ConformalBatch`.
    """

    phi_radial: RadialFunction
    invariant: BasicInvariant

    def __post_init__(self):
        if self.n < 3:
            raise BadParams(f"conformally flat ansatz needs n >= 3, got n={self.n}")

    @property
    def n(self) -> int:
        return self.invariant.n


MetricAnsatz = SchwarzschildForm | WarpedProduct | ConformalFlat


class ConformalBatch:
    """A :class:`ConformalFlat` chart evaluated once at points ``x``, ``(n,)``
    or ``(N, n)`` (BadParams for any other shape): u(x), grad u and Hess u
    from the invariant, and through them the
    :class:`~staticstar.numerics.ProfileAt` readings ``phi`` and, given a
    lapse profile in u, ``f``.  The curvature, g-Hessian and shape-operator
    kernels read these arrays, inside the package and behind the public
    :func:`conformal_curvature`, :func:`conformal_hessian` and
    :func:`~staticstar.quasilocal.shape_operator` alike."""

    def __init__(self, ansatz: ConformalFlat, x, f: RadialFunction | None = None):
        inv = ansatz.invariant
        x = as_points(x, ansatz.n)
        self.u = u = inv.value(x)
        grad_u, hess_u = inv.gradient(x), inv.hessian(x)
        self.phi = ProfileAt(ansatz.phi_radial, u, grad_u, hess_u)
        self.f = None if f is None else ProfileAt(f, u, grad_u, hess_u)


# ----------------------------------------------------------------------------
# fluid data
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidData:
    """Lapse and fluid profiles in the geometric convention.

    ``f`` carries its two derivatives; ``mu`` and ``rho`` are values only,
    callables of a float or an ndarray, since no residual differentiates the
    geometric pair.  They are geometric (mu = R/2 on solutions); a model's
    piece forms them from its physical profiles (:attr:`Piece.fluid`).

    The lapse must be positive on the evaluation domain; residual evaluation
    raises DomainError the moment it sees f <= 0.
    """

    f: RadialFunction
    mu: Callable
    rho: Callable


@dataclass(frozen=True)
class Piece:
    """One chart of a model: ansatz, lapse and physical fluid on an interval.

    ``mu_phys`` is values only: no residual differentiates it; the
    conservation residual of a radial chart reads rho'.  ``interval`` is the
    window verification grids are drawn from; ``scan_interval`` (defaults to
    ``interval``) is the usually wider window level-set searches may sample.
    ``lam`` is the cosmological constant.  ``pair_phys``, where given, gives
    ``(mu_phys(r), rho_phys(r))`` from one evaluation that the two share.
    """

    label: str
    ansatz: MetricAnsatz
    f: RadialFunction
    mu_phys: Callable
    rho_phys: Callable
    interval: tuple[float, float]
    scan_interval: tuple[float, float] | None = None
    lam: float = 0.0
    pair_phys: Callable | None = None

    @property
    def fluid(self) -> FluidData:
        """Lapse and fluid, geometric: (8 pi mu + Lambda, 8 pi rho - Lambda)."""
        return FluidData(
            f=self.f,
            mu=lambda r: EIGHT_PI * np.asarray(self.mu_phys(r), dtype=float) + self.lam,
            rho=lambda r: EIGHT_PI * np.asarray(self.rho_phys(r), dtype=float) - self.lam,
        )

    def scan_window(self):
        return self.scan_interval if self.scan_interval is not None else self.interval


def _chart_profile(ansatz) -> RadialFunction:
    """The profile a radial chart is written in: m in Schwarzschild form, phi
    in a warped product; BadParams for any other ansatz."""
    if isinstance(ansatz, SchwarzschildForm):
        return ansatz.m
    if isinstance(ansatz, WarpedProduct):
        return ansatz.phi
    raise BadParams(f"not a radial ansatz: {type(ansatz).__name__}")


def _read(x, r: np.ndarray, derivatives: bool = True) -> ProfileAt:
    """``x`` read at the points ``r``: a :class:`ProfileAt` on ``r`` as it is
    (BadParams if it was read on other points), a function as a new reading,
    its derivatives read at once unless it is read for values only."""
    if isinstance(x, ProfileAt):
        if x.u is not r and not np.array_equal(x.u, r):
            raise BadParams("a reading passed with a grid must be read on that grid")
        return x
    at = ProfileAt(x, r)
    return at.with_derivatives() if derivatives else at


class RadialReading:
    """A radial :class:`Piece` read once on a grid ``r``, for every check
    that reads it there: ``verify`` hands one per piece to
    :func:`spf_residuals` and the model's extra checks.

    ``f``, ``chart`` (the chart's profile, :func:`_chart_profile`), ``rho``
    and ``mu`` are :class:`~staticstar.numerics.ProfileAt` readings, each
    made on first use.  The ones a residual differentiates, f, the chart's
    and rho (the conservation residual reads rho'), are read with their
    derivatives, so a closed form's value and derivatives come from one jet;
    ``mu`` is values only.  ``mu`` and ``rho`` are physical, as the piece's
    are.  ``frame``, the curvature and lapse Hessian the field equations
    read, is formed from f and the chart's reading on first use too; a copy
    of the reading with another mu (Wyman's printed-mu check) shares it.
    """

    def __init__(self, piece: Piece, r):
        self.piece, self.r = piece, np.asarray(r, dtype=float)

    @_lazy
    def f(self) -> ProfileAt:
        return _read(self.piece.f, self.r)

    @_lazy
    def chart(self) -> ProfileAt:
        return _read(_chart_profile(self.piece.ansatz), self.r)

    @_lazy
    def mu(self) -> ProfileAt:
        return _read(self.piece.mu_phys, self.r, derivatives=False)

    @_lazy
    def rho(self) -> ProfileAt:
        return _read(self.piece.rho_phys, self.r)

    @_lazy
    def frame(self) -> dict:
        """The chart's curvature and the lapse Hessian on ``r`` (:func:`_radial_frame`)."""
        return _radial_frame(self.piece.ansatz, self.f, self.r, self.chart)


def _pieces(model) -> list[Piece]:
    """The pieces every model is read through; BadParams for an object with none."""
    pieces = getattr(model, "pieces", None)
    if pieces is None:
        raise BadParams(f"{type(model).__name__} is not a model: it has no pieces")
    return pieces


# ----------------------------------------------------------------------------
# residual reports
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualEntry:
    """Aggregated |residual| statistics for one equation over a grid."""

    eq: str
    max: float
    rms: float
    worst_r: float


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of a system of equations over a grid, plus a verdict.

    ``passed`` is ``max over entries <= tol`` for the tolerance the producing
    operation was given.  Serialization key is ``"pass"``.
    """

    entries: tuple[ResidualEntry, ...]
    grid: np.ndarray = field(repr=False)
    passed: bool
    tol: float

    @property
    def worst(self) -> float:
        return max((e.max for e in self.entries), default=0.0)

    def entry(self, eq: str) -> ResidualEntry:
        for e in self.entries:
            if e.eq == eq:
                return e
        raise KeyError(eq)

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"eq": e.eq, "max": e.max, "rms": e.rms, "worst_r": e.worst_r}
                for e in self.entries
            ],
            "pass": self.passed,
        }


# squares of values up to this, summed over GRID_N_MAX points, stay finite
_SQUARE_SAFE = 2.0**500


def _entry(eq: str, values: np.ndarray, grid: np.ndarray) -> ResidualEntry:
    """max |v|, rms |v| and the grid point of the max, in one pass over |v|.

    ``np.add.reduce`` is the float64 sum ``np.mean`` takes, and ``argmax``
    finds the first NaN, the one ``np.max`` returns.  A max above 2**500,
    whose square could overflow, scales |v| by a power of two before the
    squares and the root back after, which is exact; below it the RMS is
    that of the plain squares.  An inf or NaN max is also the RMS.  Empty
    input is (0, 0, nan).
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.ndim > 1:  # componentwise residual: collapse components first
        v = v.reshape(v.shape[0], -1).max(axis=1)
    v = v.ravel()
    if not v.size:
        return ResidualEntry(eq=eq, max=0.0, rms=0.0, worst_r=float("nan"))
    i = int(v.argmax())
    mx = float(v[i])
    if math.isfinite(mx):
        k = math.frexp(mx)[1] if mx > _SQUARE_SAFE else 0
        w = np.ldexp(v, -k) if k else v
        rms = math.ldexp(math.sqrt(float(np.add.reduce(w * w)) / v.size), k)
    else:  # the sum of the squares is inf, or NaN: no square is formed
        rms = mx
    return ResidualEntry(eq=eq, max=mx, rms=rms, worst_r=float(grid[i]))


def _report(entries: list[ResidualEntry], grid: np.ndarray, tol: float) -> ResidualReport:
    worst = max((e.max for e in entries), default=0.0)
    return ResidualReport(entries=tuple(entries), grid=np.asarray(grid, dtype=float),
                          passed=bool(worst <= tol), tol=tol)


# ----------------------------------------------------------------------------
# curvature: radial charts g = a(r)^2 dr^2 + b(r)^2 g_{S^2}
# ----------------------------------------------------------------------------

def _radial_chart(ansatz, r, chart: ProfileAt | None = None):
    """(b, b', b'', e^2, e e', 1 - b_s^2) of a radial chart at r, with
    e = 1/a = |grad r|_g, read from ``chart``, the reading of the chart's
    profile at r (read here if None).

    SchwarzschildForm is e^2 = 1 - 2m/r, b = r; WarpedProduct is a = 1,
    b = phi.  This is where the two are told apart for curvature (a
    coordinate sphere reads the first-order part, :func:`coordinate_sphere`): the
    radial quantities below are written once in proper distance s, where d/ds =
    e d/dr, so that f_s = e f' and f_ss = e^2 f'' + e e' f'.  1 - b_s^2 is
    formed in each chart's own terms, 2m/r and 1 - phi'^2; e e' = (m/r - m')/r,
    and no Schwarzschild-form entry is a difference that cancels at a centre.
    """
    r = np.asarray(r, dtype=float)
    chart = _read(_chart_profile(ansatz) if chart is None else chart, r)
    if isinstance(ansatz, SchwarzschildForm):
        two_m_r = 2.0 * chart.v / r
        ee1 = (0.5 * two_m_r - chart.d1) / r
        return r, 1.0, 0.0, 1.0 - two_m_r, ee1, two_m_r
    b1 = chart.d1
    return chart.v, b1, chart.d2, 1.0, 0.0, 1 - b1**2


def _chart_ricci(b, b1, b2, e2, ee1, one_minus_bs2):
    """(R_rr, Rab, R) from :func:`_radial_chart` data.

    With b_ss = e^2 b'' + e e' b': R_rr = -2 b_ss/b (orthonormal frame),
    Rab = 1 - b_s^2 - b b_ss (tangential block in coordinates, so the
    tangential Ricci is Rab g_{S^2}), and R = R_rr + 2 Rab/b^2.  In a warped
    product (b = phi, e = 1) these read -2 phi''/phi, 1 - phi'^2 - phi phi''
    and R_rr + 2 Rab/phi^2.
    """
    if np.any(b == 0.0):
        raise DomainError("areal radius b vanishes on the evaluation set")
    b_ss = e2 * b2 + ee1 * b1
    r11 = -2.0 * b_ss / b
    rab = one_minus_bs2 - b * b_ss
    return r11, rab, r11 + 2.0 * rab / (b * b)


# ----------------------------------------------------------------------------
# curvature: conformally flat metrics
# ----------------------------------------------------------------------------

def _positive(p: np.ndarray) -> np.ndarray:
    """The conformal factor's values ``p`` at a batch; DomainError unless all are positive."""
    if np.any(p <= 0.0):
        raise DomainError("conformal factor must be positive")
    return p


def conformal_curvature(ansatz: ConformalFlat, x) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor (coordinate components) and scalar curvature of phi^{-2} delta.

        Ric_ij = phi^{-2} { (n-2) phi phi_{,ij}
                            + [phi Lap phi - (n-1) |dphi|^2] delta_ij }
        R      = (n-1) [ 2 phi Lap phi - n |dphi|^2 ]

    with all derivatives Euclidean and phi = ``ansatz.phi_radial`` of u(x).
    ``x`` is one point ``(n,)`` or a batch ``(N, n)``; Ricci comes back shaped
    ``(..., n, n)`` and R ``(...)``.  DomainError where phi <= 0.  The
    g-trace of Ricci reproduces R (a cheap internal consistency check the
    tests pin to 1e-12).
    """
    phi = ConformalBatch(ansatz, x).phi
    return _conformal_ricci(_positive(phi.v), phi.grad, phi.hess)


def _conformal_ricci(p, grad, hess):
    """:func:`conformal_curvature` from phi, its gradient and its Hessian."""
    n = grad.shape[-1]
    lap = np.trace(hess, axis1=-2, axis2=-1)
    grad2 = np.einsum("...i,...i->...", grad, grad)
    ric = ((n - 2) * p[..., None, None] * hess
           + (p * lap - (n - 1) * grad2)[..., None, None] * np.eye(n)) / (p * p)[..., None, None]
    r_scalar = (n - 1) * (2.0 * p * lap - n * grad2)
    return ric, r_scalar


def conformal_hessian(ansatz: ConformalFlat, f: RadialFunction, x) -> np.ndarray:
    """Hessian of f(u(x)) with respect to g = phi^{-2} delta (coordinate components).

        (Hess_g f)_ij = f_{,ij} + (phi_i f_j + phi_j f_i)/phi
                        - delta_ij <dphi, df> / phi

    ``f`` is a radial profile in the ansatz's invariant u.  ``x`` is one point
    ``(n,)`` or a batch ``(N, n)``; the result is shaped ``(..., n, n)``.
    DomainError where phi <= 0.
    """
    batch = ConformalBatch(ansatz, x, f)
    phi = batch.phi
    return _g_hessian(_positive(phi.v), phi.grad, batch.f.grad, batch.f.hess)


def _g_hessian(p, grad_phi, grad_f, hess_f):
    """:func:`conformal_hessian` from phi, its gradient and f's gradient and Hessian."""
    cross = grad_phi[..., :, None] * grad_f[..., None, :]
    dot = np.einsum("...i,...i->...", grad_phi, grad_f)
    pp = p[..., None, None]
    return hess_f + (cross + np.swapaxes(cross, -1, -2)) / pp \
        - (dot[..., None, None] / pp) * np.eye(grad_phi.shape[-1])


# ----------------------------------------------------------------------------
# radial frame data (shared by the two radial ansatz classes)
# ----------------------------------------------------------------------------

def _radial_frame(ansatz, f, r: np.ndarray, chart: ProfileAt | None = None) -> dict:
    """Orthonormal-frame curvature and lapse Hessian data along a radial grid.

    ``f`` is the lapse, a RadialFunction or its reading at r, and ``chart``
    the reading of the chart's profile at r (read here if None).  Returns f,
    ric_rr, ric_tan, R, hess_rr, hess_tan and lap.
    """
    r = np.asarray(r, dtype=float)
    lapse = _read(f, r)
    f, f1, f2 = lapse.v, lapse.d1, lapse.d2
    chart = _radial_chart(ansatz, r, chart)
    b, b1, _, e2, ee1, _ = chart
    ric_rr, rab, scal = _chart_ricci(*chart)
    hess_rr = e2 * f2 + ee1 * f1  # f_ss
    hess_tan = e2 * b1 * f1 / b  # b_s f_s / b
    return {
        "f": f, "ric_rr": ric_rr, "ric_tan": rab / (b * b), "R": scal,
        "hess_rr": hess_rr, "hess_tan": hess_tan, "lap": hess_rr + 2.0 * hess_tan,
    }


# ----------------------------------------------------------------------------
# static perfect-fluid residuals
# ----------------------------------------------------------------------------

def spf_residuals(
    ansatz: MetricAnsatz,
    fluid: FluidData,
    grid,
    tol: float = 1e-7,
) -> ResidualReport:
    """Residuals of the static perfect-fluid system on a grid.

    Entries
    -------
    ``field[..]``          componentwise residual of f Ric - Hess f - ((mu-rho)/(n-1)) f g
    ``trace``              Lap f - ((n-2) mu + n rho)/(n-1) f
    ``scalar-curvature``   mu - R/2
    ``traceless``          f (Ric - (R/n) g) - (Hess f - (Lap f / n) g), componentwise
    ``conservation``       2 rho' + (2 f'/f) (rho + mu), physical; a reading's report only

    ``mu``/``rho`` are read from ``fluid`` in the geometric convention.
    On a radial chart ``fluid`` may instead be the :class:`RadialReading` on
    ``grid`` of a piece with this ansatz, whose readings other checks share;
    its report adds the conservation equation rho' + (f'/f)(mu + rho) = 0,
    the same in either radial chart, in the reading's physical variables,
    where Lambda cancels.  The lapse must be positive on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty residual grid")

    if isinstance(ansatz, ConformalFlat):
        residuals = _spf_arrays_conformal(ansatz, fluid.f, ansatz.invariant.point_at(grid), grid,
                                          lambda: (fluid.mu(grid), fluid.rho(grid)))[0]
        return _spf_report_conformal(residuals, grid, slice(None), tol)

    n = ansatz.n
    read = fluid if isinstance(fluid, RadialReading) else None
    if read is not None and read.piece.ansatz is not ansatz:
        raise BadParams("a piece's reading passed with another ansatz")
    if read is not None and read.r is not grid and not np.array_equal(read.r, grid):
        raise BadParams("a reading passed with a grid must be read on that grid")
    d = _radial_frame(ansatz, fluid.f, grid) if read is None else read.frame
    f = d["f"]
    if np.any(f <= 0.0):
        raise DomainError("lapse is not positive on the residual grid")
    if read is None:
        mu = np.asarray(fluid.mu(grid), dtype=float)
        rho = np.asarray(fluid.rho(grid), dtype=float)
    else:
        mu, rho = to_geometric(read.mu.v, read.rho.v, read.piece.lam)

    coef = (mu - rho) / (n - 1)
    e_rr = f * d["ric_rr"] - d["hess_rr"] - coef * f
    e_tan = f * d["ric_tan"] - d["hess_tan"] - coef * f
    e_trace = d["lap"] - ((n - 2) * mu + n * rho) / (n - 1) * f
    e_scal = mu - 0.5 * d["R"]
    t_rr = f * (d["ric_rr"] - d["R"] / n) - (d["hess_rr"] - d["lap"] / n)
    t_tan = f * (d["ric_tan"] - d["R"] / n) - (d["hess_tan"] - d["lap"] / n)

    entries = [
        _entry("field[rr]", e_rr, grid),
        _entry("field[tan]", e_tan, grid),
        _entry("trace", e_trace, grid),
        _entry("scalar-curvature", e_scal, grid),
        _entry("traceless", np.stack([t_rr, t_tan], axis=-1), grid),
    ]
    if read is not None:  # physical variables, where Lambda cancels
        entries.append(_entry("conservation", 2.0 * read.rho.d1
                              + 2.0 * read.f.d1 / f * (read.rho.v + read.mu.v), grid))
    return _report(entries, grid, tol)


def _spf_arrays_conformal(ansatz: ConformalFlat, f: RadialFunction, x: np.ndarray, grid: np.ndarray,
                          fluid: Callable) -> tuple[dict, np.ndarray, ConformalBatch]:
    """Pointwise residual arrays of the static perfect-fluid system, R, and the
    :class:`ConformalBatch` they read, at the points ``x`` ``(N, n)`` whose
    grid values are ``grid`` ``(N,)``, for the lapse profile ``f`` in u.

    ``fluid()`` gives the geometric pair (mu, rho) at ``grid``.  It is called
    after the batch's phi > 0 and f > 0 checks pass, so a batch that fails
    one raises before any fluid is formed.  Rows are independent: several
    rays may be stacked into one batch and each slice reported on its own by
    :func:`_spf_report_conformal`.
    """
    n = ansatz.n
    batch = ConformalBatch(ansatz, x, f)
    phi, f = batch.phi, batch.f
    p = phi.v
    if np.any(p <= 0.0):
        u = grid[int(np.argmax(p <= 0.0))]
        raise DomainError(f"conformal factor non-positive at grid value {u}")
    fval = f.v
    if np.any(fval <= 0.0):
        u = grid[int(np.argmax(fval <= 0.0))]
        raise DomainError(f"lapse non-positive at grid value {u}")
    mu, rho = (np.asarray(part, dtype=float) for part in fluid())

    ric, r_scal = _conformal_ricci(p, phi.grad, phi.hess)
    hess = _g_hessian(p, phi.grad, f.grad, f.hess)
    metric = np.eye(n) / (p * p)[:, None, None]
    lap = (p * p) * np.trace(hess, axis1=-2, axis2=-1)
    fc = fval[:, None, None]

    residuals = {
        "field[ij]": fc * ric - hess - ((mu - rho) / (n - 1))[:, None, None] * fc * metric,
        "trace": lap - ((n - 2) * mu + n * rho) / (n - 1) * fval,
        "scalar-curvature": mu - 0.5 * r_scal,
        "traceless": fc * (ric - (r_scal / n)[:, None, None] * metric)
        - (hess - (lap / n)[:, None, None] * metric),
    }
    return residuals, r_scal, batch


def _spf_report_conformal(residuals: dict, grid: np.ndarray, rows: slice,
                          tol: float) -> ResidualReport:
    """The report of the rows ``rows`` of :func:`_spf_arrays_conformal`'s arrays."""
    grid = grid[rows]
    return _report([_entry(eq, vals[rows], grid) for eq, vals in residuals.items()], grid, tol)


# ----------------------------------------------------------------------------
# coordinate spheres
# ----------------------------------------------------------------------------

def coordinate_sphere(ansatz: MetricAnsatz, r):
    """(b, H, e, 1 - b_s^2) on the coordinate sphere at radial value r.

    b is the areal radius, H the mean curvature for the normal of increasing
    r, and e = |grad r|_g, so a lapse f(r) has surface gravity e |f'(r)|
    there.  b_s = H b/(n-1), and 1 - b_s^2 is formed without cancelling.

    * radial charts, g = a^2 dr^2 + b^2 g_{S^2}: H = 2 b_s/b = 2 e b'/b with
      e = 1/a (so H = (2/r) sqrt(1 - 2m/r) in Schwarzschild form and
      2 phi'/phi in a warped product), and 1 - b_s^2 is 2m/r or 1 - phi'^2;
    * ConformalFlat: the level sphere of the invariant has Euclidean radius
      s = sqrt(4 tau u + C)/(2 tau) about its center, b = s/phi,
      H = (n-1) (phi - s dphi/ds)/s and e = phi |grad u|_euclid, where
      du/ds = 2 tau s; b_s = 1 - q with q = s (dphi/ds)/phi.

    A float r gives four floats, read as a one-point array; an array gives
    four arrays of its shape, each element the float its value alone gives.
    DomainError names the first value with no sphere.  Sign conventions for
    level-set normals are handled by the quasi-local layer, not here.
    """
    u = np.asarray(r, dtype=float)
    if u.ndim == 0:  # read as a one-point array, so a float gets an array's bits
        return tuple(float(v[0]) for v in coordinate_sphere(ansatz, u.reshape(1)))
    if isinstance(ansatz, ConformalFlat):
        s = ansatz.invariant.sphere_radius(u)
        phi = _read(ansatz.phi_radial, u)
        p, dp = phi.v, phi.d1
        bad = (s <= 0.0) | (p <= 0.0)
        if np.count_nonzero(bad):
            u0, s0, p0 = _first(bad, u, s, p)
            raise DomainError(f"no coordinate sphere at u={u0}: radius {s0}, phi {p0}")
        du_ds = 2.0 * ansatz.invariant.tau * s
        q = s * dp * du_ds / p
        out = s / p, (ansatz.n - 1) * (p - s * dp * du_ds) / s, p * du_ds, q * (2.0 - q)
    else:
        if np.count_nonzero(u <= 0.0):
            raise DomainError("coordinate sphere needs r > 0")
        if isinstance(ansatz, SchwarzschildForm):  # b = r, b' = 1
            two_m_r = 2.0 * np.asarray(ansatz.m.value(u), dtype=float) / u
            e2 = 1.0 - two_m_r
            if np.count_nonzero(e2 < 0.0):
                u0, e2_0 = _first(e2 < 0.0, u, e2)
                raise DomainError(f"no coordinate sphere at r={u0}, inside a horizon: "
                                  f"1 - 2m/r = {e2_0}")
            e = np.sqrt(e2)
            out = u, 2.0 * e / u, e, two_m_r
        elif isinstance(ansatz, WarpedProduct):  # b = phi, e = 1
            phi = _read(ansatz.phi, u)
            b, b1 = phi.v, phi.d1
            if np.count_nonzero(b <= 0.0):
                b0, u0 = _first(b <= 0.0, b, u)
                raise DomainError(f"non-positive areal radius {b0} at r={u0}")
            out = b, 2.0 * b1 / b, np.ones(u.shape), 1.0 - b1**2
        else:
            raise BadParams(f"not a radial ansatz: {type(ansatz).__name__}")
    return tuple(v if v.shape == u.shape else np.full(u.shape, v) for v in out)


def _first(bad, *arrays) -> list[float]:
    """The values of ``arrays`` (each of ``bad``'s shape, or one value) where ``bad`` is first true."""
    i = int(np.argmax(bad))
    return [float(np.broadcast_to(a, bad.shape).flat[i]) for a in arrays]
