"""Quasi-local mass and topology diagnostics on lapse level sets (n = 3).

For a level set {f = c} of the lapse with area A and outward mean curvature H:

    Hawking mass     m_H  = sqrt(A / 16 pi) (1 - W / 16 pi),  W = int H^2 dA
    Brown-York mass  m_BY = (1/8 pi) int (H_0 - H) dA,        H_0 = 2 / b

with b the areal radius (A = 4 pi b^2).  The topology identity

    2 pi chi = [ h (h/4 - kappa/c) - rho_0 ] A

uses the *signed* level-set mean curvature h = -sign(f') H_out and the surface
gravity kappa = |grad f|; rho_0 is the geometric pressure on the surface.
Balancing it against the Hawking inequality gives a slack that vanishes
exactly on umbilical level sets of the catalog solutions.

Everything here is specific to three spatial dimensions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import catalog as _catalog
from . import conformal as _conformal
from . import tov as _tov
from .errors import (
    BadParams,
    DomainError,
    NoLevelSet,
    NotARegularValue,
)
from .geometry import (
    EIGHT_PI,
    ConformalFlat,
    SchwarzschildForm,
    conformal_hessian,
    coordinate_sphere,
)
from .numerics import ScalarField, as_points, check_grid_n, refine_root, sign_brackets, sphere_rule

__all__ = [
    "SphereClass",
    "QuasiLocalReport",
    "hawking_mass",
    "willmore_energy",
    "topology_identity_residual",
    "sphere_classification",
    "hawking_inequality_slack",
    "shape_operator",
    "level_set_data",
    "mass_sweep",
    "write_sweep_csv",
]

AUDIT_DEGREE = 35  # of the sphere rule that audits a conformal level sphere

SWEEP_COLUMNS = (
    "c", "r", "area", "H", "kappa", "rho0",
    "m_hawking", "m_brown_york", "chi_residual", "ineq_slack",
)


class SphereClass(enum.Enum):
    """Topology verdict for a level set from the threshold window test."""

    SPHERE_FORCED = "SphereForced"
    TORUS_WINDOW = "TorusWindow"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class QuasiLocalReport:
    """Everything measured on one connected level-set sphere {f = level}.

    ``r`` is the coordinate location (radius, warped coordinate, or invariant
    value, depending on the model chart).  ``mean_curvature`` is the outward
    H; ``h_level`` the signed level-set convention -sign(f') H.  The
    umbilicity fields are populated only when the surface was sampled
    pointwise (conformal models); radial charts are umbilical by symmetry.
    """

    level: float
    r: float
    area: float
    mean_curvature: float
    h_level: float
    h0: float
    willmore: float
    kappa: float
    rho0: float
    m_hawking: float
    m_brown_york: float
    chi_identity_residual: float
    inequality_slack: float
    classification: SphereClass
    thresholds: tuple[float, float] | None
    umbilical_spread: float | None = None
    grad_constancy: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "level": self.level,
            "r": self.r,
            "area": self.area,
            "H": self.mean_curvature,
            "h_level": self.h_level,
            "H0": self.h0,
            "willmore": self.willmore,
            "kappa": self.kappa,
            "rho0": self.rho0,
            "m_hawking": self.m_hawking,
            "m_brown_york": self.m_brown_york,
            "chi_identity_residual": self.chi_identity_residual,
            "inequality_slack": self.inequality_slack,
            "classification": self.classification.value,
            "thresholds": None if self.thresholds is None else list(self.thresholds),
        }
        if self.umbilical_spread is not None:
            out["umbilical_spread"] = self.umbilical_spread
        if self.grad_constancy is not None:
            out["grad_constancy"] = self.grad_constancy
        return out


# ----------------------------------------------------------------------------
# the individual functionals
# ----------------------------------------------------------------------------

def hawking_mass(area: float, willmore: float) -> float:
    """sqrt(area/16pi) (1 - willmore/16pi)."""
    if area <= 0.0:
        raise DomainError(f"need positive area, got {area}")
    return math.sqrt(area / (16.0 * math.pi)) * (1.0 - willmore / (16.0 * math.pi))


def willmore_energy(h_point, areal_radius: float) -> float:
    """int H^2 dA over a round sphere of areal radius b, by the
    degree-``AUDIT_DEGREE`` sphere rule.

    ``h_point`` maps the ``(N, 3)`` batch of unit quadrature nodes to the
    mean curvature at the corresponding surface points, as ``(N,)`` values
    or one value for all of them; the area element is b^2 times the
    unit-sphere measure (the product rule used sums to 4 pi).
    """
    if areal_radius <= 0.0:
        raise DomainError(f"need positive areal radius, got {areal_radius}")
    pts, wts = sphere_rule(AUDIT_DEGREE)
    h = np.broadcast_to(np.asarray(h_point(pts), dtype=float), wts.shape)
    return float(areal_radius**2 * (wts @ h**2))


def _brown_york(area: float, b: float, H: float) -> float:
    """(1/8 pi) area (H_0 - H) on a round sphere of areal radius b, H_0 = 2/b."""
    return area * (2.0 / b - H) / EIGHT_PI


def topology_identity_residual(h_level: float, kappa: float, c: float,
                               rho0: float, area: float) -> float:
    """2 pi chi(S^2) - [h (h/4 - kappa/c) - rho_0] area, h in the signed convention."""
    if c == 0.0:
        raise DomainError("the identity divides by the level value c")
    return 4.0 * math.pi - (h_level * (h_level / 4.0 - kappa / c) - rho0) * area


def sphere_classification(h_level: float, kappa: float, c: float,
                          rho0: float) -> tuple[SphereClass, tuple[float, float] | None]:
    """Threshold test: toroidal topology needs h inside [I-, I+].

    I+- = (2/c)(kappa +- sqrt(kappa^2 + c^2 rho_0)).  A negative discriminant
    leaves the window empty of real endpoints; that case is reported as
    Indeterminate rather than forced, with no thresholds.  A discriminant
    within 1e-12 of the size of its terms is round-off of a zero: the window
    closes to the point 2 kappa / c.
    """
    if c <= 0.0:
        raise DomainError(f"classification needs a positive level value, got c={c}")
    disc = kappa * kappa + c * c * rho0
    if abs(disc) <= 1e-12 * (kappa * kappa + c * c * abs(rho0)):
        disc = 0.0
    if disc < 0.0:
        return SphereClass.INDETERMINATE, None
    root = math.sqrt(disc)
    lo = (2.0 / c) * (kappa - root)
    hi = (2.0 / c) * (kappa + root)
    if lo <= h_level <= hi:
        return SphereClass.TORUS_WINDOW, (lo, hi)
    return SphereClass.SPHERE_FORCED, (lo, hi)


def hawking_inequality_slack(h_level: float, kappa: float, c: float, rho0: float,
                             area: float, m_hawking: float, chi: float = 2.0) -> float:
    """Slack in the Hawking-mass bound:

        [ (2 - chi) - kappa/(2 pi c) * int h dA - rho_0 area / 2 pi ]
            - 2 sqrt(16 pi / area) m_H

    with int h dA = h_level * area (h constant on these spheres).  Zero, up
    to quadrature error, on umbilical level sets of the exact solutions.
    """
    if c == 0.0:
        raise DomainError("the slack divides by the level value c")
    if area <= 0.0:
        raise DomainError(f"need positive area, got {area}")
    lhs = (2.0 - chi) \
        - kappa / (2.0 * math.pi * c) * h_level * area \
        - rho0 * area / (2.0 * math.pi)
    rhs = 2.0 * math.sqrt(16.0 * math.pi / area) * m_hawking
    return lhs - rhs


def shape_operator(ansatz: ConformalFlat, f, x) -> tuple[np.ndarray, np.ndarray]:
    """Level-set shape operator at points of a conformally flat model.

    ``f`` is the lapse, as a radial profile in the ansatz's radial variable or
    already lifted to a ScalarField.  ``x`` is one point ``(3,)`` or a batch
    ``(N, 3)``.  Returns (A, trace), shaped ``(..., 2, 2)`` and ``(...)``, in a
    2-frame tangent to the level set of f through each point, for the unit
    normal along +grad f.  A_ab = phi (t_a . Hess_g f . t_b) / |grad f|_euclid
    with euclidean-orthonormal tangents t_a; the trace is the mean curvature
    with respect to that normal (so -h_level in the signed convention, and
    sign(f') H_outward).

    Raises NotARegularValue if grad f vanishes at any point of the batch.
    """
    x = as_points(x, 3)
    f_field = f if isinstance(f, ScalarField) else ansatz.lift(f)
    grad = np.asarray(f_field.gradient(x), dtype=float)
    gnorm = np.linalg.norm(grad, axis=-1)
    if np.any(gnorm < 1e-300):
        raise NotARegularValue(f"grad f vanishes at {x.reshape(-1, 3)[int(np.argmin(gnorm))]}")
    nu = grad / gnorm[..., None]
    # Gram-Schmidt from the axis least aligned with the normal
    e = np.eye(3)[np.argmin(np.abs(nu), axis=-1)]
    t1 = e - np.einsum("...i,...i->...", e, nu)[..., None] * nu
    t1 /= np.linalg.norm(t1, axis=-1)[..., None]
    t2 = np.cross(nu, t1)
    hess = conformal_hessian(ansatz.phi, f_field, x)
    scale = np.asarray(ansatz.phi.value(x), dtype=float) / gnorm

    def form(ta, tb):
        return scale * np.einsum("...i,...ij,...j->...", ta, hess, tb)

    a11, a22, a12 = form(t1, t1), form(t2, t2), form(t1, t2)
    A = np.stack([np.stack([a11, a12], axis=-1), np.stack([a12, a22], axis=-1)], axis=-2)
    return A, a11 + a22


# ----------------------------------------------------------------------------
# level-set extraction
# ----------------------------------------------------------------------------

def _root_scan(f_value, f_slope, c: float, lo: float, hi: float, grid_n: int,
               scans: dict, key=None):
    """All simple roots of f - c on [lo, hi]; raises on critical levels.

    ``f_value`` is evaluated on the whole grid in one call, which ``scans``
    keeps for the other levels of the same model; ``key`` tells the model's
    charts apart (the pieces of a catalog model).  Sign changes
    are polished by Brent's method.  A grid minimum of |f - c| with no sign
    change beside it is a tangential touch candidate: the extremum of f there
    is polished on f', and c is critical when f reaches it.  Minima at the
    ends of the grid are not candidates.
    """
    k = (key, lo, hi, grid_n)
    if k not in scans:
        grid = np.linspace(lo, hi, grid_n)
        scans[k] = grid, np.asarray(f_value(grid), dtype=float)
    grid, f_grid = scans[k]
    vals = f_grid - c
    tol = 1e-12 * max(1.0, abs(c))

    def g(r):
        return float(f_value(r)) - c

    def slope(r):
        return float(f_slope(r))

    roots = []
    for a, b in sign_brackets(grid, vals):
        r0 = refine_root(g, a, b)
        if abs(slope(r0)) < tol:
            raise NotARegularValue(
                f"c={c} is a critical value of the lapse (f'({r0}) ~ 0)"
            )
        roots.append(float(r0))

    mag = np.abs(vals)
    touch = (vals[:-2] * vals[1:-1] > 0.0) & (vals[1:-1] * vals[2:] > 0.0) \
        & (mag[1:-1] < mag[:-2]) & (mag[1:-1] <= mag[2:])
    for i in np.flatnonzero(touch) + 1:
        a, b = float(grid[i - 1]), float(grid[i + 1])
        if slope(a) * slope(b) > 0.0:
            continue
        r_star = refine_root(slope, a, b)
        if abs(g(r_star)) <= tol:
            raise NotARegularValue(
                f"c={c} is a critical value of the lapse (f = c where f'({r_star}) = 0)"
            )
    return roots


def _level_report(c, r0, chart) -> QuasiLocalReport:
    """Everything measured on the level sphere {f = c} at r0 in a chart of :func:`_charts`.

    A round coordinate sphere has constant H, so W = H^2 A exactly; a chart
    with an ``audit`` replaces W by quadrature over the sampled surface.
    """
    ansatz, f_rf, rho, _, _, audit = chart
    b, H_out, e = coordinate_sphere(ansatz, r0)
    f1 = float(f_rf.d1(r0))
    area = 4.0 * math.pi * b * b
    kappa = e * abs(f1)
    rho0 = float(rho(r0))
    h_level = -math.copysign(1.0, f1) * H_out
    spread = gradc = None
    willmore = H_out * H_out * area
    if audit is not None:
        spread, gradc, willmore = audit(r0, b)
    m_h = hawking_mass(area, willmore)
    m_by = _brown_york(area, b, H_out)
    chi_res = topology_identity_residual(h_level, kappa, c, rho0, area)
    cls, thresholds = sphere_classification(h_level, kappa, c, rho0)
    slack = hawking_inequality_slack(h_level, kappa, c, rho0, area, m_h)
    return QuasiLocalReport(
        level=float(c),
        r=float(r0),
        area=float(area),
        mean_curvature=float(H_out),
        h_level=float(h_level),
        h0=float(2.0 / b),
        willmore=float(willmore),
        kappa=float(kappa),
        rho0=float(rho0),
        m_hawking=float(m_h),
        m_brown_york=float(m_by),
        chi_identity_residual=float(chi_res),
        inequality_slack=float(slack),
        classification=cls,
        thresholds=thresholds,
        umbilical_spread=spread,
        grad_constancy=gradc,
    )


def _sphere_audit(ansatz: ConformalFlat, f):
    """Audit of a conformal level sphere over its actual 3D surface.

    Returns a function of (u0, b) giving the umbilicity spread of the shape
    operator of the lapse profile ``f``, the relative spread of |grad f|_g
    and the Willmore energy, all from one batch of shape operators at the
    nodes of the degree-``AUDIT_DEGREE`` sphere rule.
    """
    inv = ansatz.invariant
    f_field = ansatz.lift(f)

    def audit(u0, b):
        x = inv.center + float(inv.sphere_radius(u0)) * sphere_rule(AUDIT_DEGREE)[0]
        A, traces = shape_operator(ansatz, f_field, x)
        spread = float(np.max(np.hypot(A[:, 0, 0] - A[:, 1, 1], 2.0 * A[:, 0, 1])))
        gnorms = ansatz.phi.value(x) * np.linalg.norm(f_field.gradient(x), axis=-1)
        mean_g = np.mean(gnorms)
        gradc = float(np.std(gnorms) / mean_g) if mean_g != 0 else math.inf
        # the traces are H at these very nodes
        return spread, gradc, willmore_energy(lambda _: traces, b)

    return audit


def _charts(model, c: float, window):
    """(ansatz, lapse, geometric rho, lo, hi, audit) for each chart of a model.

    [lo, hi] is the scan window in the chart's radial value (empty when a
    catalog piece lies outside ``window``); ``audit`` is None for round
    coordinate spheres and :func:`_sphere_audit` for conformal models.
    """
    if isinstance(model, _catalog.AnalyticModel):
        charts = []
        for piece in model.pieces:
            lo, hi = window if window is not None else piece.scan_window()
            p_lo, p_hi = piece.scan_window()
            charts.append((piece.ansatz, piece.f, piece.fluid.rho,
                           max(lo, p_lo), min(hi, p_hi), None))
        return charts
    if isinstance(model, _tov.StellarModel):
        if window is not None:
            lo, hi = window
        else:
            lo, hi = model.profile.R_START, 3.0 * model.r_b
            if 0.0 < c < 1.0:
                # vacuum level sets sit at 2M/(1-c^2); make sure the scan covers it
                hi = max(hi, 1.2 * 2.0 * model.mass / (1.0 - c * c))
        return [(SchwarzschildForm(model.mass_function()), model.lapse_function(),
                 lambda r: EIGHT_PI * model.rho(r), lo, hi, None)]
    if isinstance(model, _conformal.ConformalModel):
        if model.n != 3:
            raise DomainError(f"quasi-local masses are defined here for n=3, not n={model.n}")
        if model.invariant.tau <= 0.0:
            raise DomainError("level-set spheres need tau > 0 in the invariant")
        if window is not None:
            lo, hi = window
        else:
            lo, hi = model.domain
            pad = max(1e-9, 1e-9 * (hi - lo))
            lo, hi = lo + pad, hi - pad
        ansatz = model.to_ansatz()
        return [(ansatz, model.f, model.rho_geo, lo, hi, _sphere_audit(ansatz, model.f))]
    raise BadParams(f"no level-set support for {type(model).__name__}")


def level_set_data(model, c: float, window=None, grid_n: int = 2048,
                   *, scans: dict | None = None) -> list[QuasiLocalReport]:
    """All level-set spheres {f = c} of a model, innermost first.

    Accepts an analytic catalog model, an integrated stellar model, or a
    conformally flat model; raises NoLevelSet when the lapse never attains c
    in the scanned window and NotARegularValue at critical levels, tangential
    touches at an extremum of f included.  A non-finite level, or a
    ``window`` (lo, hi) that is not finite and increasing, is BadParams.
    ``grid_n`` points (an integer of at least 2, else BadParams) scan each
    chart's window for sign changes of f - c; conformal level spheres are
    audited with the degree-``AUDIT_DEGREE`` sphere rule.  Calls on one
    model that pass the same ``scans`` dict evaluate f once per scan window
    (see :func:`mass_sweep`).

    Every chart is scanned; a root found by two charts (the seam of a
    two-piece catalog model) is reported once, from the chart that found
    the smaller value.
    """
    c = float(c)
    check_grid_n(grid_n, 2)
    if not math.isfinite(c):
        raise BadParams(f"level c={c} is not finite")
    if window is not None:
        window = lo, hi = float(window[0]), float(window[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise BadParams(f"scan window must be finite and increasing, got {window}")
    scans = {} if scans is None else scans
    charts = _charts(model, c, window)
    found = []
    for i, (_, f_rf, _, lo, hi, _) in enumerate(charts):
        if lo < hi:
            roots = _root_scan(f_rf.value, f_rf.d1, c, lo, hi, grid_n, scans, i)
            found += [(r0, i) for r0 in roots]
    kept = []
    for r0, i in sorted(found):
        if not kept or abs(r0 - kept[-1][0]) > 1e-9 * max(1.0, abs(r0)):
            kept.append((r0, i))
    if not kept:
        spans = ", ".join(f"[{lo}, {hi}]" for _, _, _, lo, hi, _ in charts)
        raise NoLevelSet(f"the lapse never reaches c={c} on {spans}")
    return [_level_report(c, r0, charts[i]) for r0, i in kept]


def mass_sweep(model, levels, grid_n: int = 2048, window=None) -> list[QuasiLocalReport]:
    """level_set_data over many levels, in level order; levels with no level
    set are skipped.  Levels with the same scan window share f on its grid."""
    out, scans = [], {}
    for c in levels:
        try:
            out.extend(level_set_data(model, float(c), window=window,
                                      grid_n=grid_n, scans=scans))
        except NoLevelSet:
            continue
    return out


def write_sweep_csv(reports, path) -> None:
    """Write sweep rows (one per level-set sphere) as CSV, repr precision."""
    lines = [",".join(SWEEP_COLUMNS)]
    for rep in reports:
        row = (rep.level, rep.r, rep.area, rep.mean_curvature, rep.kappa,
               rep.rho0, rep.m_hawking, rep.m_brown_york,
               rep.chi_identity_residual, rep.inequality_slack)
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
