"""Closed-form static perfect-fluid models with built-in verification.

Each entry packages a metric ansatz, the fluid it supports, and a ``verify``
routine that recomputes field-equation residuals from scratch on a fresh
grid.  All stored density/pressure accessors are *physical*; the geometric
combinations 8*pi*mu + Lambda and 8*pi*rho - Lambda are formed internally
when residuals are evaluated.

Registry: ``MODELS`` maps id -> factory; ``build(model_id, **params)`` and
``parse_model_spec("wyman:R=2,M=0.2")`` construct instances.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .config import call_with, parse_spec
from .errors import BadParams, UnknownModel
from .geometry import (
    EIGHT_PI,
    ConformalFlat,
    Piece,
    RadialReading,
    ResidualReport,
    SchwarzschildForm,
    WarpedProduct,
    _entry,
    _radial_chart,
    _report,
    spf_residuals,
)
from .numerics import Jet, ProfileAt, RadialFunction, chebyshev_grid

__all__ = [
    "VerifyResult",
    "AnalyticModel",
    "vacuum_piece",
    "MODELS",
    "build",
    "parse_model_spec",
    "schwarzschild_exterior",
    "schwarzschild_interior",
    "gamma_zero",
    "einstein_static",
    "wyman",
    "witten_stellar",
]

JUNCTION_TOL = 1e-9
RESIDUAL_TOL = 1e-9  # every model's field-equation residual gate


@dataclass(frozen=True)
class VerifyResult:
    model_id: str
    reports: dict[str, ResidualReport]
    junction: dict[str, float]
    passed: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self):
        return {
            "model": self.model_id,
            "passed": self.passed,
            "junction": {k: float(v) for k, v in self.junction.items()},
            "reports": {k: v.to_json_dict() for k, v in self.reports.items()},
            "notes": list(self.notes),
        }


class AnalyticModel:
    """A catalog entry: pieces, parameters, and verification hooks.

    Diagnostic checks (report keys starting with ``diagnostic``) are reported
    but excluded from the aggregate pass flag; they exist to document known
    discrepancies rather than to gate correctness.

    Each ``extra_verify`` hook is called as ``hook(model, grid_n, readings)``
    and returns a ``dict[str, ResidualReport]`` of report name to report,
    which may be empty; several checks that share one evaluation return
    together.  ``readings`` holds, for each piece in order, its
    :class:`~staticstar.geometry.RadialReading` on the piece's verification
    grid, or None for a conformally flat piece, which has no default field
    report: its model's hooks check it, as
    :class:`~staticstar.conformal.ConformalModel`'s one hook does.
    """

    def __init__(
        self,
        model_id: str,
        params: dict,
        pieces: list[Piece],
        junction_points: tuple[float, ...] = (),
        extra_verify: tuple[Callable, ...] = (),
        extras: dict | None = None,
        notes: tuple[str, ...] = (),
    ):
        self.id = model_id
        self.params = dict(params)
        self.pieces = list(pieces)
        self.junction_points = tuple(junction_points)
        self.extra_verify = tuple(extra_verify)
        self.extras = dict(extras or {})
        self.notes = tuple(notes)

    # -- piecewise accessors (physical units) ----------------------------------

    def _piecewise(self, r, part: Callable[[Piece], RadialFunction]):
        """Evaluate ``part(piece)`` at each r on the piece that owns it.

        A point belongs to the first piece whose scan window holds it; a
        point in no window falls back on the first piece whose lapse domain
        holds it (open interval).  A float gives a float.
        """
        windows = [(p, *p.scan_window(), True) for p in self.pieces]
        windows += [(p, *p.f.domain, False) for p in self.pieces]
        r_arr = np.asarray(r, dtype=float)
        out = np.empty(r_arr.shape)
        todo = np.ones(r_arr.shape, dtype=bool)
        for piece, lo, hi, closed in windows:
            inside = (lo <= r_arr) & (r_arr <= hi) if closed else (lo < r_arr) & (r_arr < hi)
            mask = todo & inside
            if np.any(mask):
                out[mask] = part(piece)(r_arr[mask])
                todo &= ~mask
        if np.any(todo):
            raise BadParams(f"r={r_arr[todo][0]} outside every piece of {self.id}")
        return float(out) if out.ndim == 0 else out

    def mu(self, r):
        return self._piecewise(r, lambda p: p.mu_phys)

    def rho(self, r):
        return self._piecewise(r, lambda p: p.rho_phys)

    def f(self, r):
        return self._piecewise(r, lambda p: p.f)

    # -- verification -----------------------------------------------------------

    def verify(self, grid_n: int = 96) -> VerifyResult:
        """Recompute field-equation residuals for every piece on fresh grids.

        A radial piece is read once on its grid (a RadialReading): the field
        equations, conservation among them, and the extra checks share its
        readings of f, m or phi, mu and rho.  A conformally flat piece is
        checked by its model's hooks alone, and BadParams in a model with none.
        """
        reports: dict[str, ResidualReport] = {}
        readings: list[RadialReading | None] = []
        for p in self.pieces:
            if isinstance(p.ansatz, ConformalFlat):
                if not self.extra_verify:  # it would pass unchecked
                    raise BadParams(f"{self.id} has a conformally flat piece and no hook "
                                    "to check it")
                readings.append(None)
                continue
            lo, hi = p.interval
            pad = 1e-6 * (hi - lo)
            grid = chebyshev_grid(lo + pad, hi - pad, grid_n)
            read = RadialReading(p, grid)
            readings.append(read)
            reports[f"field[{p.label}]"] = spf_residuals(p.ansatz, read, grid, tol=RESIDUAL_TOL)
        junction = self._junction_residuals()
        for hook in self.extra_verify:
            reports.update(hook(self, grid_n, readings))
        passed = all(
            rep.passed for name, rep in reports.items() if not name.startswith("diagnostic")
        ) and all(v <= JUNCTION_TOL for v in junction.values())
        return VerifyResult(
            model_id=self.id,
            reports=reports,
            junction=junction,
            passed=passed,
            notes=self.notes,
        )

    def _junction_residuals(self) -> dict[str, float]:
        """|inner - outer| of f, f' and x = 1 - 2m/r at each junction radius,
        f and f' of each side from one reading."""
        out: dict[str, float] = {}
        for r_j in self.junction_points:
            sides = []
            for p in (self.pieces[0], self.pieces[1]):
                f = ProfileAt(p.f, r_j).with_derivatives()
                sides.append((f.v, f.d1, 1.0 - 2.0 * p.ansatz.m(r_j) / r_j))
            for key, inner, outer in zip(("f", "df", "exp_neg_gamma"), *sides):
                out[f"{key}@{r_j:.6g}"] = abs(float(inner) - float(outer))
        return out


def vacuum_piece(M: float, interval, scan_interval) -> Piece:
    """The vacuum exterior of mass M on (2M, infinity): m = M, f = sqrt(1 - 2M/r)."""
    domain = (2.0 * M, math.inf)
    zero = RadialFunction.constant(0.0, domain)
    return Piece(
        label="exterior",
        ansatz=SchwarzschildForm(RadialFunction.constant(M, domain)),
        f=RadialFunction.from_formula(lambda r: np.sqrt(1.0 - 2.0 * M / r), domain),
        mu_phys=zero,
        rho_phys=zero,
        interval=interval,
        scan_interval=scan_interval,
    )


# ----------------------------------------------------------------------------
# the models
# ----------------------------------------------------------------------------

def schwarzschild_exterior(M: float = 1.0) -> AnalyticModel:
    """Vacuum exterior of mass M on (2M, infinity)."""
    if M <= 0:
        raise BadParams(f"need M > 0, got {M}")
    piece = vacuum_piece(M, (2.02 * M, 60.0 * M), (2.0 * M * (1.0 + 1e-9), 2000.0 * M))
    return AnalyticModel("schwarzschild_exterior", {"M": M}, [piece])


def schwarzschild_interior(c: float = 0.0) -> AnalyticModel:
    """Constant negative pressure: mu = c, rho = -c, m = (4 pi c/3) r^3, f^2 = 1 - 2m/r.

    c = 0 degenerates to flat space with vanishing fluid.
    """
    a = EIGHT_PI * c / 3.0
    if c > 0:
        r_h = math.sqrt(1.0 / a)
        domain = (0.0, r_h)
        hi = 0.995 * r_h
    else:
        domain = (0.0, math.inf)
        hi = 10.0

    m = RadialFunction.from_formula(lambda r: 0.5 * a * r**3, domain)
    ansatz = SchwarzschildForm(m)
    f = RadialFunction.from_formula(lambda r: np.sqrt(1.0 - 2.0 * m(r) / r), domain)
    mu_phys = RadialFunction.constant(c, domain)
    rho_phys = RadialFunction.constant(-c, domain)
    piece = Piece(
        label="interior",
        ansatz=ansatz,
        f=f,
        mu_phys=mu_phys,
        rho_phys=rho_phys,
        interval=(1e-3 * hi, hi),
    )
    return AnalyticModel(
        "schwarzschild_interior",
        {"c": c},
        [piece],
        notes=("c = 0 is flat space with zero fluid",),
    )


def gamma_zero(c1: float = 1.0, c2: float = 1.0) -> AnalyticModel:
    """Spatially flat slice: m = 0, rho = 1/(2 pi r^2 + c1), f = sqrt(c2) (2 pi r^2 + c1).

    The fluid fills all of space (rho -> 0 only as r -> infinity), so there is
    no surface to match; the model's note says so.
    """
    if c1 <= 0 or c2 <= 0:
        raise BadParams(f"need c1, c2 > 0, got c1={c1}, c2={c2}")
    domain = (0.0, math.inf)
    TWO_PI = 2.0 * math.pi
    rt = math.sqrt(c2)

    def q(r):
        return TWO_PI * r**2 + c1

    ansatz = SchwarzschildForm(RadialFunction.constant(0.0, domain))
    f = RadialFunction.from_formula(lambda r: rt * q(r), domain)
    mu_phys = RadialFunction.constant(0.0, domain)
    rho_phys = RadialFunction.from_formula(lambda r: 1.0 / q(r), domain)
    piece = Piece(
        label="flat-slice",
        ansatz=ansatz,
        f=f,
        mu_phys=mu_phys,
        rho_phys=rho_phys,
        interval=(0.05, 20.0),
        scan_interval=(1e-4, 50.0),
    )
    return AnalyticModel(
        "gamma_zero",
        {"c1": c1, "c2": c2},
        [piece],
        notes=("unbounded fluid: exempt from surface matching",),
    )


def einstein_static(c: float = 1.0) -> AnalyticModel:
    """Closed static universe: mu = sqrt(3) c, rho = -c/sqrt(3), m = (4 pi mu/3) r^3, f = 1."""
    if c <= 0:
        raise BadParams(f"need c > 0, got {c}")
    a = EIGHT_PI * math.sqrt(3.0) * c / 3.0
    r_h = math.sqrt(1.0 / a)
    domain = (0.0, r_h)

    ansatz = SchwarzschildForm(RadialFunction.from_formula(lambda r: 0.5 * a * r**3, domain))
    f = RadialFunction.constant(1.0, domain)
    mu_phys = RadialFunction.constant(math.sqrt(3.0) * c, domain)
    rho_phys = RadialFunction.constant(-c / math.sqrt(3.0), domain)
    piece = Piece(
        label="interior",
        ansatz=ansatz,
        f=f,
        mu_phys=mu_phys,
        rho_phys=rho_phys,
        interval=(1e-3 * r_h, 0.995 * r_h),
    )
    return AnalyticModel(
        "einstein_static",
        {"c": c},
        [piece],
        notes=("lapse is constant: every level set of f is critical",),
    )


# -- quartic-density interior -------------------------------------------------

def _wyman_lapse(R: float, M: float):
    """The lapse of the m = r^5/(2 R^4) interior, as one formula.

    f = a1 sinh(w/2) + a2 cosh(w/2) with w = asin(sqrt(1 - r^4/R^4)), written
    as w = acos(r^2/R^2), which keeps full precision near the centre;
    (a1, a2) solve the C^1 junction with the vacuum exterior at
    r_b = (2 M R^4)^{1/5}.
    """
    r_b = (2.0 * M * R**4) ** 0.2
    s_b = math.sqrt(1.0 - 2.0 * M / r_b)
    h_b = 0.5 * math.acos(r_b * r_b / (R * R))
    # a1 sinh(h_b) + a2 cosh(h_b) = s_b        (continuity of f)
    # a1 cosh(h_b) + a2 sinh(h_b) = -r_b^2/(2 R^2)   (continuity of f')
    rhs2 = -r_b * r_b / (2.0 * R * R)
    # 2x2 solve with determinant sinh^2 - cosh^2 = -1
    a1 = rhs2 * math.cosh(h_b) - s_b * math.sinh(h_b)
    a2 = s_b * math.cosh(h_b) - rhs2 * math.sinh(h_b)

    def lapse(r):
        h = 0.5 * np.arccos(r**2 / (R * R))
        return a1 * np.sinh(h) + a2 * np.cosh(h)

    return r_b, a1, a2, lapse


def wyman(R: float = 2.0, M: float = 0.2) -> AnalyticModel:
    """Quartic interior m = r^5/(2 R^4) glued to the vacuum exterior.

    Requires 2M < R (equivalently r_b > 2M and r_b < R) and a positive lapse
    at the centre, where the interior lapse, which grows outward, is least:
    f(0) <= 0, which holds from 2M/R = 0.90716 on, is BadParams, since such
    a model is not a static star.  The bundled density
    accessor is the internally consistent 8 pi mu = 5 r^2 / R^4; the historical
    printed form 8 pi mu = (5/R) r^2 is kept as ``mu_printed`` and surfaced by
    a diagnostic verify entry that is expected to fail.
    """
    if not (R > 0 and M > 0 and 2.0 * M < R):
        raise BadParams(f"need R > 0, M > 0, 2M < R; got R={R}, M={M}")
    R4 = R**4
    r_b, a1, a2, lapse = _wyman_lapse(R, M)
    f0 = float(lapse(0.0))
    if not f0 > 0.0:
        raise BadParams(f"the lapse is not positive at the centre, f(0) = {f0}, as for "
                        f"every 2M/R from about 0.90716 on; got R={R}, M={M}")

    dom_i = (0.0, R * (1.0 - 1e-9))
    m_i = RadialFunction.from_formula(lambda r: 0.5 * r**5 / R4, dom_i)
    f_i = RadialFunction.from_formula(lapse, dom_i)
    mu_i = RadialFunction.from_formula(lambda r: 5.0 * r**2 / (EIGHT_PI * R4), dom_i)
    mu_printed = RadialFunction.from_formula(lambda r: 5.0 * r**2 / (EIGHT_PI * R), dom_i)

    def rho(r):
        # 8 pi rho = -1/r^2 + (1 - 2m/r) (2 f'/(r f) + 1/r^2); the two 1/r^2
        # terms cancel to -r^2/R^4, which stays exact near the centre
        f = lapse(Jet(r, 1.0, 0.0))
        return (-r**2 / R4 + (1.0 - r**4 / R4) * 2.0 * f.d1 / (r * f.v)) / EIGHT_PI

    rho_i = RadialFunction.from_formula(rho, (1e-8, dom_i[1]))
    piece_i = Piece(
        label="interior",
        ansatz=SchwarzschildForm(m_i),
        f=f_i,
        mu_phys=mu_i,
        rho_phys=rho_i,
        interval=(5e-3 * r_b, r_b),
    )

    piece_o = vacuum_piece(M, (r_b, 40.0 * max(M, 1.0)), (r_b, 500.0 * max(M, 1.0)))

    def printed_mu_diagnostic(model: AnalyticModel, grid_n: int, readings):
        # the interior's field report with mu_printed, on a copy of the
        # interior's reading: only mu_printed is evaluated here
        read = readings[0]
        printed = copy.copy(read)
        printed.piece = replace(read.piece, mu_phys=model.extras["mu_printed"])
        vars(printed).pop("mu", None)
        return {"diagnostic[printed-mu]": spf_residuals(
            printed.piece.ansatz, printed, read.r, tol=RESIDUAL_TOL)}

    return AnalyticModel(
        "wyman",
        {"R": R, "M": M},
        [piece_i, piece_o],
        junction_points=(r_b,),
        extra_verify=(printed_mu_diagnostic,),
        extras={"r_b": r_b, "a1": a1, "a2": a2, "mu_printed": mu_printed},
        notes=(
            "mu accessor uses the self-consistent 5 r^2/(8 pi R^4); "
            "the printed 5 r^2/(8 pi R) variant fails the density equation "
            "and is reported under diagnostic[printed-mu]",
        ),
    )


# -- bounded warped-product star ----------------------------------------------

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


def _witten_zeros(delta: float, t_max: float) -> list[float]:
    """t with log(cosh t) + delta = k pi (the lapse zeros / pressure poles)."""
    zeros = []
    k = 0
    while True:
        L = k * math.pi - delta
        if L >= 0.0:
            t = math.acosh(math.exp(L))
            if t > t_max:
                break
            zeros.append(t)
        k += 1
        if k > 64:  # pragma: no cover - t_max caps well before this
            break
    return zeros


def witten_stellar(
    A: float = 1.0,
    B: float = 0.0,
    lam: float = 0.0,
    M: float = 1.0,
    t_max: float = 8.0,
) -> AnalyticModel:
    """Bounded star in a warped chart: g = dt^2 + tanh(t)^2 g_{S^2}.

    Lapse f = A sin(log cosh t) + B cos(log cosh t); fluid (geometric units)
    mu = 1 + 5 sech^2 t, rho = -1 - sech^2 t + 2 cot(log cosh t + delta) sech^2 t
    with delta = atan2(B, A).  The lapse vanishes and the pressure diverges
    where log cosh t + delta hits a multiple of pi; the model excludes 1e-6
    neighborhoods of those radii and keeps the windows where f > 0.

    M re-labels the radial coordinate (r~ = M cosh^2 t) without changing the
    geometry; it enters the r~-chart formulas checked by verify().
    """
    if M <= 0:
        raise BadParams(f"need M > 0, got {M}")
    if A == 0.0 and B == 0.0:
        raise BadParams("lapse coefficients A, B cannot both vanish")
    delta = math.atan2(B, A)
    amp = math.hypot(A, B)

    zeros = _witten_zeros(delta, t_max)
    # windows between consecutive zeros (or chart edges) where f > 0
    edges = [0.0] + zeros + [t_max]
    windows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 2e-6:
            continue
        mid = 0.5 * (lo + hi)
        Lmid = math.log(math.cosh(mid)) + delta
        if amp * math.sin(Lmid) > 0.0:
            # keep clear of the lapse zeros / pressure poles (and the
            # degenerate chart center) by 1e-6 on each side
            windows.append((lo + 1e-6, hi - (1e-6 if hi < t_max else 0.0)))
    if not windows:
        raise BadParams("no window with positive lapse below t_max")
    lo0, hi0 = windows[0]
    domain = (max(lo0, 0.0), hi0)

    phi = RadialFunction.from_formula(np.tanh, domain)
    ansatz = WarpedProduct(phi)

    def mu(t):
        return (1.0 + 5.0 / np.cosh(t) ** 2 - lam) / EIGHT_PI

    def rho(t):
        c = np.cosh(t)  # once, so that a jet through rho builds one cosh jet
        s2 = 1.0 / c ** 2
        return (-1.0 - s2 + 2.0 * s2 / np.tan(np.log(c) + delta) + lam) / EIGHT_PI

    f = RadialFunction.from_formula(lambda t: witten_lapse(3, A, B, t), domain)
    mu_phys = RadialFunction.from_formula(mu, domain)
    rho_phys = RadialFunction.from_formula(rho, domain)
    piece = Piece(
        label="star",
        ansatz=ansatz,
        f=f,
        mu_phys=mu_phys,
        rho_phys=rho_phys,
        interval=(max(0.05, domain[0] + 0.05), min(domain[1], t_max) - 0.05),
        scan_interval=domain,
        lam=lam,
    )

    def tilde_chart_check(model: AnalyticModel, grid_n: int, readings):
        # the one piece's scan window holds its whole interval: read mu and
        # rho off the piece, not through model.mu's window search
        star = model.pieces[0]
        grid = chebyshev_grid(*star.interval, grid_n)
        r_t = M * np.cosh(grid) ** 2
        mu_res = np.abs(EIGHT_PI * star.mu_phys(grid) - (1.0 + 5.0 * M / r_t - lam))
        # phase delta = atan2(B, A); the printed sine-branch form is delta = 0
        rho_claim = (
            2.0 * M / (r_t * np.tan(np.log(np.sqrt(r_t / M)) + delta))
            - M / r_t - 1.0 + lam
        )
        rho_res = np.abs(EIGHT_PI * star.rho_phys(grid) - rho_claim)
        entries = [_entry("tilde-density", mu_res, grid), _entry("tilde-pressure", rho_res, grid)]
        return {"tilde-chart[star]": _report(entries, grid, tol=1e-9)}

    def sectional_check(model: AnalyticModel, grid_n: int, readings):
        # K_rad = -b_ss/b and K_tan = (1 - b_s^2)/b^2 of the model's own
        # chart, on a grid of its own: _radial_chart reads phi there once
        star = model.pieces[0]
        grid = np.linspace(*star.interval, 1000)
        b, b1, b2, e2, ee1, one_minus_bs2 = _radial_chart(star.ansatz, grid)
        k_rad = -(e2 * b2 + ee1 * b1) / b
        k_tan = one_minus_bs2 / (b * b)
        viol_rad = np.maximum(0.0, -k_rad)
        viol_tan = np.maximum(0.0, -k_tan)
        entries = [
            _entry("positivity[rad]", viol_rad, grid),
            _entry("positivity[tan]", viol_tan, grid),
        ]
        return {"sectional-curvature[star]": _report(entries, grid, tol=0.0)}

    note_windows = ", ".join(f"({a:.4f}, {b:.4f})" for a, b in windows)
    return AnalyticModel(
        "witten_stellar",
        {"A": A, "B": B, "lam": lam, "M": M, "t_max": t_max},
        [piece],
        extra_verify=(tilde_chart_check, sectional_check),
        extras={
            "delta": delta,
            "zeros": tuple(zeros),
            "windows": tuple(windows),
            "pressure_pole_formula": "t_k = acosh(exp(k pi - atan2(B, A)))",
        },
        notes=(f"positive-lapse windows below t_max: {note_windows}",),
    )


# ----------------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------------

MODELS: dict[str, Callable[..., AnalyticModel]] = {
    "schwarzschild_exterior": schwarzschild_exterior,
    "schwarzschild_interior": schwarzschild_interior,
    "gamma_zero": gamma_zero,
    "einstein_static": einstein_static,
    "wyman": wyman,
    "witten_stellar": witten_stellar,
}


def build(model_id: str, /, **params) -> AnalyticModel:
    try:
        factory = MODELS[model_id]
    except KeyError:
        raise UnknownModel(
            f"unknown model {model_id!r}; known: {', '.join(sorted(MODELS))}"
        ) from None
    return call_with(factory, model_id, params)


def parse_model_spec(spec: str) -> AnalyticModel:
    """Build a model from 'id' or 'id:key=val,key=val'."""
    model_id, params = parse_spec(spec, "model")
    return build(model_id, **params)
