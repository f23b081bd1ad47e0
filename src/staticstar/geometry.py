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
from .numerics import RadialFunction, ScalarField, as_points

if TYPE_CHECKING:  # conformal imports this module
    from .conformal import BasicInvariant

__all__ = [
    "SchwarzschildForm",
    "WarpedProduct",
    "ConformalFlat",
    "FluidData",
    "ResidualEntry",
    "ResidualReport",
    "to_geometric",
    "to_physical",
    "conformal_curvature",
    "conformal_hessian",
    "spf_residuals",
    "tolman_residuals",
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
    the invariant: ``n``, the field ``radial`` = u(x), the full factor field
    ``phi`` (built once per ansatz) and, unless ``point_of`` is given, the
    reference ray ``invariant.point_at``, which embeds grid values u (a float
    or an array) into R^n as points shaped ``u.shape + (n,)``.  For tau > 0
    the level sets of u are round spheres about the invariant's center.
    """

    phi_radial: RadialFunction
    invariant: BasicInvariant
    point_of: Callable[[np.ndarray], np.ndarray] | None = None
    radial: ScalarField = field(init=False, repr=False, compare=False)
    phi: ScalarField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise BadParams(f"conformally flat ansatz needs n >= 3, got n={self.n}")
        radial = self.invariant.as_field()
        object.__setattr__(self, "radial", radial)
        object.__setattr__(self, "phi", ScalarField.compose(self.phi_radial, radial))
        if self.point_of is None:
            object.__setattr__(self, "point_of", self.invariant.point_at)

    @property
    def n(self) -> int:
        return self.invariant.n

    def lift(self, rf: RadialFunction) -> ScalarField:
        """Interpret a radial profile as a field on R^n: F(x) = rf(u(x))."""
        return ScalarField.compose(rf, self.radial)


MetricAnsatz = SchwarzschildForm | WarpedProduct | ConformalFlat


# ----------------------------------------------------------------------------
# fluid data
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FluidData:
    """Lapse and fluid profiles in the geometric convention.

    ``f`` carries its two derivatives; ``mu`` and ``rho`` are values only,
    callables of a float or an ndarray, since no residual differentiates the
    geometric pair.  They are geometric (mu = R/2 on solutions); a catalog
    piece forms them from its physical profiles (``catalog.Piece.fluid``).

    The lapse must be positive on the evaluation domain; residual evaluation
    raises DomainError the moment it sees f <= 0.
    """

    f: RadialFunction
    mu: Callable
    rho: Callable


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

def _radial_chart(ansatz, r):
    """(b, b', b'', e^2, e e', 1 - b_s^2) of a radial chart at r, with
    e = 1/a = |grad r|_g.

    SchwarzschildForm is e^2 = 1 - 2m/r, b = r; WarpedProduct is a = 1,
    b = phi.  This is where the two are told apart for curvature (a
    coordinate sphere reads the first-order part, :func:`_sphere_chart`): the
    radial quantities below are written once in proper distance s, where d/ds =
    e d/dr, so that f_s = e f' and f_ss = e^2 f'' + e e' f'.  1 - b_s^2 is
    formed in each chart's own terms, 2m/r and 1 - phi'^2; e e' = (m/r - m')/r,
    and no Schwarzschild-form entry is a difference that cancels at a centre.
    """
    r = np.asarray(r, dtype=float)
    if isinstance(ansatz, SchwarzschildForm):
        two_m_r = 2.0 * np.asarray(ansatz.m.value(r), dtype=float) / r
        ee1 = (0.5 * two_m_r - np.asarray(ansatz.m.d1(r), dtype=float)) / r
        return r, 1.0, 0.0, 1.0 - two_m_r, ee1, two_m_r
    if isinstance(ansatz, WarpedProduct):
        phi = ansatz.phi
        b1 = np.asarray(phi.d1(r), dtype=float)
        return (np.asarray(phi.value(r), dtype=float), b1,
                np.asarray(phi.d2(r), dtype=float), 1.0, 0.0, 1 - b1**2)
    raise BadParams(f"not a radial ansatz: {type(ansatz).__name__}")


def _sphere_chart(ansatz, r):
    """(b, b', e^2) of a radial chart at r: the first-order part of
    :func:`_radial_chart`, all a coordinate sphere reads.  It evaluates m
    of a SchwarzschildForm, or phi and phi' of a WarpedProduct, and no
    derivative beyond those."""
    r = np.asarray(r, dtype=float)
    if isinstance(ansatz, SchwarzschildForm):
        return r, 1.0, 1.0 - 2.0 * np.asarray(ansatz.m.value(r), dtype=float) / r
    if isinstance(ansatz, WarpedProduct):
        phi = ansatz.phi
        return np.asarray(phi.value(r), dtype=float), np.asarray(phi.d1(r), dtype=float), 1.0
    raise BadParams(f"not a radial ansatz: {type(ansatz).__name__}")


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

def _conformal_factor(phi: ScalarField, x):
    """(points, phi(points)) for one point or a batch; DomainError unless phi > 0."""
    x = as_points(x, phi.n)
    p = np.asarray(phi.value(x), dtype=float)
    if np.any(p <= 0.0):
        raise DomainError("conformal factor must be positive")
    return x, p


def conformal_curvature(phi: ScalarField, x) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor (coordinate components) and scalar curvature of phi^{-2} delta.

        Ric_ij = phi^{-2} { (n-2) phi phi_{,ij}
                            + [phi Lap phi - (n-1) |dphi|^2] delta_ij }
        R      = (n-1) [ 2 phi Lap phi - n |dphi|^2 ]

    with all derivatives Euclidean.  ``x`` is one point ``(n,)`` or a batch
    ``(N, n)``; Ricci comes back shaped ``(..., n, n)`` and R ``(...)``.  The
    g-trace of Ricci reproduces R (a cheap internal consistency check the
    tests pin to 1e-12).
    """
    x, p = _conformal_factor(phi, x)
    n = phi.n
    grad = np.asarray(phi.gradient(x), dtype=float)
    hess = np.asarray(phi.hessian(x), dtype=float)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    grad2 = np.einsum("...i,...i->...", grad, grad)
    ric = ((n - 2) * p[..., None, None] * hess
           + (p * lap - (n - 1) * grad2)[..., None, None] * np.eye(n)) / (p * p)[..., None, None]
    r_scalar = (n - 1) * (2.0 * p * lap - n * grad2)
    return ric, r_scalar


def conformal_hessian(phi: ScalarField, f: ScalarField, x) -> np.ndarray:
    """Hessian of f with respect to g = phi^{-2} delta (coordinate components).

        (Hess_g f)_ij = f_{,ij} + (phi_i f_j + phi_j f_i)/phi
                        - delta_ij <dphi, df> / phi

    ``x`` is one point ``(n,)`` or a batch ``(N, n)``; the result is shaped
    ``(..., n, n)``.
    """
    x, p = _conformal_factor(phi, x)
    gp = np.asarray(phi.gradient(x), dtype=float)
    gf = np.asarray(f.gradient(x), dtype=float)
    hf = np.asarray(f.hessian(x), dtype=float)
    cross = gp[..., :, None] * gf[..., None, :]
    dot = np.einsum("...i,...i->...", gp, gf)
    pp = p[..., None, None]
    return hf + (cross + np.swapaxes(cross, -1, -2)) / pp \
        - (dot[..., None, None] / pp) * np.eye(phi.n)


# ----------------------------------------------------------------------------
# radial frame data (shared by the two radial ansatz classes)
# ----------------------------------------------------------------------------

def _radial_frame(ansatz, fluid_f: RadialFunction, r: np.ndarray) -> dict:
    """Orthonormal-frame curvature and lapse Hessian data along a radial grid.

    Returns f, ric_rr, ric_tan, R, hess_rr, hess_tan and lap.
    """
    r = np.asarray(r, dtype=float)
    f = np.asarray(fluid_f.value(r), dtype=float)
    f1 = np.asarray(fluid_f.d1(r), dtype=float)
    f2 = np.asarray(fluid_f.d2(r), dtype=float)
    chart = _radial_chart(ansatz, r)
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

    ``mu``/``rho`` are read from ``fluid`` in the geometric convention.
    The lapse must be positive on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty residual grid")

    if isinstance(ansatz, ConformalFlat):
        residuals, _ = _spf_arrays_conformal(ansatz, fluid, ansatz.point_of(grid), grid)
        return _spf_report_conformal(residuals, grid, slice(None), tol)

    n = ansatz.n
    d = _radial_frame(ansatz, fluid.f, grid)
    f = d["f"]
    if np.any(f <= 0.0):
        raise DomainError("lapse is not positive on the residual grid")
    mu = np.asarray(fluid.mu(grid), dtype=float)
    rho = np.asarray(fluid.rho(grid), dtype=float)

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
    return _report(entries, grid, tol)


def _spf_arrays_conformal(ansatz: ConformalFlat, fluid: FluidData, x: np.ndarray,
                          grid: np.ndarray) -> tuple[dict, np.ndarray]:
    """Pointwise residual arrays of the static perfect-fluid system, and R, at
    the points ``x`` ``(N, n)`` whose grid values are ``grid`` ``(N,)``.

    Rows are independent: several rays may be stacked into one batch and each
    slice reported on its own by :func:`_spf_report_conformal`.
    """
    n = ansatz.n
    f_field = ansatz.lift(fluid.f)
    p = np.asarray(ansatz.phi.value(x), dtype=float)
    if np.any(p <= 0.0):
        u = grid[int(np.argmax(p <= 0.0))]
        raise DomainError(f"conformal factor non-positive at grid value {u}")
    fval = np.asarray(f_field.value(x), dtype=float)
    if np.any(fval <= 0.0):
        u = grid[int(np.argmax(fval <= 0.0))]
        raise DomainError(f"lapse non-positive at grid value {u}")
    mu = np.asarray(fluid.mu(grid), dtype=float)
    rho = np.asarray(fluid.rho(grid), dtype=float)

    ric, r_scal = conformal_curvature(ansatz.phi, x)
    hess = conformal_hessian(ansatz.phi, f_field, x)
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
    return residuals, r_scal


def _spf_report_conformal(residuals: dict, grid: np.ndarray, rows: slice,
                          tol: float) -> ResidualReport:
    """The report of the rows ``rows`` of :func:`_spf_arrays_conformal`'s arrays."""
    grid = grid[rows]
    return _report([_entry(eq, vals[rows], grid) for eq, vals in residuals.items()], grid, tol)


# ----------------------------------------------------------------------------
# Tolman-form residuals (Schwarzschild-form coordinates, physical variables)
# ----------------------------------------------------------------------------

def tolman_residuals(
    m: RadialFunction,
    f: RadialFunction,
    mu: RadialFunction,
    rho: RadialFunction,
    grid,
    tol: float = 1e-9,
) -> ResidualReport:
    """Residuals of the first-order static-star system in physical variables.

    With x = 1 - 2m/r and v' = 2 f'/f (v = log f^2 is Tolman's potential):

        density:       8 pi mu  - 2 m' / r^2
        pressure:      8 pi rho - [ x v'/r - 2m/r^3 ]
        conservation:  2 rho' + v' (rho + mu)

    ``mu``/``rho`` here are *physical* (no 8 pi, no Lambda).
    """
    r = np.asarray(grid, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("Tolman residuals need r > 0")
    two_m_r = 2.0 * np.asarray(m.value(r), dtype=float) / r
    v1 = 2.0 * np.asarray(f.d1(r), dtype=float) / np.asarray(f.value(r), dtype=float)
    mu_v = np.asarray(mu.value(r), dtype=float)
    rho_v = np.asarray(rho.value(r), dtype=float)
    rho1 = np.asarray(rho.d1(r), dtype=float)

    t_density = EIGHT_PI * mu_v - 2.0 * np.asarray(m.d1(r), dtype=float) / (r * r)
    t_pressure = EIGHT_PI * rho_v - ((1.0 - two_m_r) * v1 / r - two_m_r / (r * r))
    t_conserv = 2.0 * rho1 + v1 * (rho_v + mu_v)

    entries = [
        _entry("density", t_density, r),
        _entry("pressure", t_pressure, r),
        _entry("conservation", t_conserv, r),
    ]
    return _report(entries, r, tol)


# ----------------------------------------------------------------------------
# coordinate spheres
# ----------------------------------------------------------------------------

def coordinate_sphere(ansatz: MetricAnsatz, r: float) -> tuple[float, float, float]:
    """(b, H, e) on the coordinate sphere at radial value r.

    b is the areal radius, H the mean curvature for the normal of increasing
    r, and e = |grad r|_g, so a lapse f(r) has surface gravity e |f'(r)|
    there.

    * radial charts, g = a^2 dr^2 + b^2 g_{S^2}: H = 2 b_s/b = 2 e b'/b with
      e = 1/a (so H = (2/r) sqrt(1 - 2m/r) in Schwarzschild form and
      2 phi'/phi in a warped product);
    * ConformalFlat: the level sphere of the invariant has Euclidean radius
      s = sqrt(4 tau u + C)/(2 tau) about its center, b = s/phi,
      H = (n-1) (phi - s dphi/ds)/s and e = phi |grad u|_euclid, where
      du/ds = 2 tau s.

    Sign conventions for level-set normals are handled by the quasi-local
    layer, not here.
    """
    u = float(r)
    if isinstance(ansatz, ConformalFlat):
        s = float(ansatz.invariant.sphere_radius(u))
        p = float(ansatz.phi_radial.value(u))
        dp = float(ansatz.phi_radial.d1(u))
        if s <= 0.0 or p <= 0.0:
            raise DomainError(f"no coordinate sphere at u={u}: radius {s}, phi {p}")
        du_ds = 2.0 * ansatz.invariant.tau * s
        return s / p, (ansatz.n - 1) * (p - s * dp * du_ds) / s, p * du_ds
    if u <= 0.0:
        raise DomainError("coordinate sphere needs r > 0")
    b, b1, e2 = (float(v) for v in _sphere_chart(ansatz, u))
    if b <= 0.0:
        raise DomainError(f"non-positive areal radius {b} at r={u}")
    e = math.sqrt(e2)
    return b, 2.0 * e * b1 / b, e
