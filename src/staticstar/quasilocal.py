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

from .errors import (
    BadParams,
    DomainError,
    NoLevelSet,
    NotARegularValue,
)
from .geometry import (EIGHT_PI, ConformalBatch, ConformalFlat, Piece, _g_hessian, _pieces,
                       _positive, coordinate_sphere)
from .numerics import (ProfileAt, RadialFunction, as_points, check_grid_n, refine_root,
                       sign_brackets, sphere_rule)

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


def willmore_energy(h, areal_radius: float) -> float:
    """int H^2 dA over a round sphere of areal radius b, by the
    degree-``AUDIT_DEGREE`` sphere rule.

    ``h`` is the mean curvature at the surface points of the rule's ``(N, 3)``
    unit nodes (``sphere_rule(AUDIT_DEGREE)[0]``), as ``(N,)`` values or one
    value for all of them; the area element is b^2 times the unit-sphere
    measure (the product rule used sums to 4 pi).
    """
    if areal_radius <= 0.0:
        raise DomainError(f"need positive areal radius, got {areal_radius}")
    _, wts = sphere_rule(AUDIT_DEGREE)
    h = np.broadcast_to(np.asarray(h, dtype=float), wts.shape)
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
                             area: float, m_hawking: float) -> float:
    """Slack in the Hawking-mass bound on a sphere (chi = 2, so 2 - chi = 0):

        [ - kappa/(2 pi c) * int h dA - rho_0 area / 2 pi ] - 2 sqrt(16 pi / area) m_H

    with int h dA = h_level * area (h constant on these spheres).  Zero, up
    to quadrature error, on umbilical level sets of the exact solutions.
    """
    if c == 0.0:
        raise DomainError("the slack divides by the level value c")
    if area <= 0.0:
        raise DomainError(f"need positive area, got {area}")
    lhs = -kappa / (2.0 * math.pi * c) * h_level * area - rho0 * area / (2.0 * math.pi)
    rhs = 2.0 * math.sqrt(16.0 * math.pi / area) * m_hawking
    return lhs - rhs


def shape_operator(ansatz: ConformalFlat, f: RadialFunction, x) -> tuple[np.ndarray, np.ndarray]:
    """Level-set shape operator at points of a conformally flat model.

    ``f`` is the lapse, a radial profile in the ansatz's invariant u.  ``x``
    is one point ``(3,)`` or a batch ``(N, 3)``.  Returns (A, trace), shaped
    ``(..., 2, 2)`` and ``(...)``, in a 2-frame tangent to the level set of f
    through each point, for the unit normal along +grad f.  A_ab = phi (t_a .
    Hess_g f . t_b) / |grad f|_euclid with euclidean-orthonormal tangents
    t_a; the trace is the mean curvature with respect to that normal (so
    -h_level in the signed convention, and sign(f') H_outward).

    Raises NotARegularValue if grad f vanishes at any point of the batch,
    and DomainError if phi <= 0 at any.
    """
    x = as_points(x, 3)
    batch = ConformalBatch(ansatz, x, f)
    a11, a22, a12, _ = _shape(x, batch.phi, batch.f.grad, batch.f.hess)
    A = np.stack([np.stack([a11, a12], axis=-1), np.stack([a12, a22], axis=-1)], axis=-2)
    return A, a11 + a22


def _shape(x, phi: ProfileAt, grad_f, hess_f):
    """The entries A_11, A_22 and A_12 of :func:`shape_operator` at the
    points ``x``, and |grad f|_euclid there, from the reading of phi there
    and the lapse's gradient and Hessian."""
    gnorm = np.linalg.norm(grad_f, axis=-1)
    if np.any(gnorm < 1e-300):
        raise NotARegularValue(f"grad f vanishes at {x.reshape(-1, 3)[int(np.argmin(gnorm))]}")
    nu = grad_f / gnorm[..., None]
    # Gram-Schmidt from the axis least aligned with the normal
    e = np.eye(3)[np.argmin(np.abs(nu), axis=-1)]
    t1 = e - np.einsum("...i,...i->...", e, nu)[..., None] * nu
    t1 /= np.linalg.norm(t1, axis=-1)[..., None]
    t2 = np.cross(nu, t1)
    p = _positive(phi.v)
    hess = _g_hessian(p, phi.grad, grad_f, hess_f)
    scale = p / gnorm

    def form(ta, tb):
        return scale * np.einsum("...i,...ij,...j->...", ta, hess, tb)

    return form(t1, t1), form(t2, t2), form(t1, t2), gnorm


# ----------------------------------------------------------------------------
# level-set extraction
# ----------------------------------------------------------------------------

def _read_at(read, roots: list) -> list:
    """``read``'s arrays at the roots, from one call, as one tuple of floats
    per root."""
    if not roots:
        return []
    r = np.array(roots)
    cols = [np.asarray(v, dtype=float) for v in read(r)]
    return list(zip(*[v.tolist() if v.shape == r.shape else np.full(r.shape, v).tolist()
                      for v in cols]))


def _touch(f: RadialFunction, c: float, tol: float, grid, candidates) -> None:
    """Raises NotARegularValue at the first touch of f = c among grid minima
    of |f - c| at the indices ``candidates``: an extremum of f, polished on
    f', where f reaches c."""
    def slope(r):
        return float(f.d1(r))

    for i in candidates:
        a, b = float(grid[i - 1]), float(grid[i + 1])
        if slope(a) * slope(b) > 0.0:
            continue
        r_star = refine_root(slope, a, b)
        if abs(float(f.value(r_star)) - c) <= tol:
            raise NotARegularValue(
                f"c={c} is a critical value of the lapse (f = c where f'({r_star}) = 0)"
            )


def _scan(f: RadialFunction, lo: float, hi: float, grid_n: int, cs: list) -> list:
    """The simple roots r of f - c on [lo, hi] for every level c in ``cs``:
    per level, a list of (r, f'(r)).  Raises the first fault it meets.

    f is evaluated on the grid once, and the (levels x grid) array of f - c
    is searched for sign changes and touch candidates in one pass.  Sign
    changes are polished by Brent's method, one root at a time, and f' is
    read at all the roots in one call.  A grid minimum of |f - c| with no
    sign change beside it is a tangential touch candidate: the extremum of f
    there is polished on f', and c is critical when f reaches it.  Minima at
    the ends of the grid are not candidates.

    A level's checks run in this order, so one that has two faults raises
    the first: piece by piece (:func:`_level_pass`), the brackets
    (DomainError where f - c is not finite), Brent's polish, f' at the roots
    (NotARegularValue at a critical root), then the touches; after all the
    pieces, the sphere and rho_0 reads at the roots, then the reports.
    """
    grid = np.linspace(lo, hi, grid_n)
    vals = np.asarray(f.value(grid), dtype=float) - np.array(cs)[:, None]
    brackets = sign_brackets(grid, vals)
    mag = np.abs(vals)
    minima = (mag[:, 1:-1] < mag[:, :-2]) & (mag[:, 1:-1] <= mag[:, 2:])
    touches = {}  # level -> grid indices of the touch candidates
    for h in np.flatnonzero(minima).tolist():
        k, i = divmod(h, grid_n - 2)
        before, at, after = vals[k, i:i + 3].tolist()
        if before * at > 0.0 and at * after > 0.0:
            touches.setdefault(k, []).append(i + 1)

    roots = []  # (level, root) in scan order
    for k, (c, level_brackets) in enumerate(zip(cs, brackets)):
        def g(r, c=c):
            return float(f.value(r)) - c

        roots += [(k, float(refine_root(g, a, b))) for a, b in level_brackets]
    found = [[] for _ in cs]
    tol = [1e-12 * max(1.0, abs(c)) for c in cs]  # on |f'| at a root
    for (k, r0), (slope,) in zip(roots, _read_at(lambda r: (f.d1(r),), [r0 for _, r0 in roots])):
        if abs(slope) < tol[k]:
            raise NotARegularValue(f"c={cs[k]} is a critical value of the lapse (f'({r0}) ~ 0)")
        found[k].append((r0, slope))
    for k, candidates in touches.items():
        _touch(f, cs[k], tol[k], grid, candidates)
    return found


def _level_report(c, r0, piece: Piece, f1: float, read) -> QuasiLocalReport:
    """Everything measured on the level sphere {f = c} at r0 in a model's
    piece, from f'(r0) and the reading (b, H, e, 1 - b_s^2, rho_0) there of
    :func:`coordinate_sphere` and the piece's geometric pressure.

    A round coordinate sphere has W = H^2 A = 16 pi b_s^2, so m_H = (b/2) (1 - b_s^2)
    from the chart, not 1 - W/16 pi; a conformal chart's audit gives W by quadrature.
    """
    b, H_out, e, one_minus_bs2, rho0 = read
    ansatz = piece.ansatz
    area = 4.0 * math.pi * b * b
    kappa = e * abs(f1)
    h_level = -math.copysign(1.0, f1) * H_out
    spread = gradc = None
    if isinstance(ansatz, ConformalFlat):
        spread, gradc, willmore = _sphere_audit(ansatz, piece.f, r0, b)
        m_h = hawking_mass(area, willmore)
    else:
        willmore = H_out * H_out * area
        m_h = 0.5 * b * one_minus_bs2
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


def _sphere_audit(ansatz: ConformalFlat, f, u0: float, b: float):
    """Audit of the conformal level sphere at u0, of areal radius b, over its
    actual 3D surface.

    Returns the umbilicity spread of the shape operator of the lapse profile
    ``f``, the relative spread of |grad f|_g and the Willmore energy, all
    from one batch of shape operators at the nodes of the
    degree-``AUDIT_DEGREE`` sphere rule.
    """
    inv = ansatz.invariant
    x = inv.center + float(inv.sphere_radius(u0)) * sphere_rule(AUDIT_DEGREE)[0]
    batch = ConformalBatch(ansatz, x, f)
    a11, a22, a12, gnorm = _shape(x, batch.phi, batch.f.grad, batch.f.hess)
    spread = float(np.max(np.hypot(a11 - a22, 2.0 * a12)))
    gnorms = batch.phi.v * gnorm
    mean_g = np.mean(gnorms)
    gradc = float(np.std(gnorms) / mean_g) if mean_g != 0 else math.inf
    # the traces are H at these very nodes
    return spread, gradc, willmore_energy(a11 + a22, b)


def _level_sets(model, levels, window, grid_n: int) -> list:
    """The level-set spheres of each level, in the order of ``levels``: a
    list of reports, innermost first, or for a level the lapse never reaches
    a NoLevelSet, not raised.

    All the levels go through one :func:`_level_pass`.  If it raises, each
    level is passed alone, in the given order, and what those passes give is
    returned or raised: a sweep raises what its first failing level raises
    on its own.
    """
    levels = list(levels)
    try:
        return _level_pass(model, levels, window, grid_n)
    except Exception:  # of any type: a model's own lapse or chart may raise it
        if len(levels) < 2:
            raise
    return [found for c in levels for found in _level_pass(model, [c], window, grid_n)]


def _level_pass(model, levels: list, window, grid_n: int) -> list:
    """:func:`_level_sets` in one pass over all the levels, raising the first
    fault it meets.

    Each piece's lapse is scanned once for all the levels (:func:`_scan`),
    piece by piece; the chart and the geometric pressure are then read at
    all of a piece's roots in one call each, and the reports are made level
    by level.
    """
    cs = [float(c) for c in levels]
    if not cs:
        return []
    check_grid_n(grid_n, 2)
    for c in cs:
        if not math.isfinite(c):
            raise BadParams(f"level c={c} is not finite")
    if window is not None:
        window = lo, hi = float(window[0]), float(window[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise BadParams(f"scan window must be finite and increasing, got {window}")
    pieces = _pieces(model)
    windows = []
    for piece in pieces:
        chart = piece.ansatz
        if isinstance(chart, ConformalFlat) and (chart.n != 3 or chart.invariant.tau <= 0.0):
            raise DomainError("level-set spheres need n = 3 and tau > 0 in the invariant, "
                              f"not n = {chart.n}, tau = {chart.invariant.tau}")
        lo, hi = piece.scan_window()
        if window is not None:
            lo, hi = max(lo, window[0]), min(hi, window[1])
        windows.append((lo, hi))
    found = [[] for _ in cs]
    for i, (piece, (lo, hi)) in enumerate(zip(pieces, windows)):
        if lo < hi:
            for roots, level in zip(found, _scan(piece.f, lo, hi, grid_n, cs)):
                roots += [(r0, i, f1) for r0, f1 in level]
    kept = []
    for roots in found:
        level = []
        for root in sorted(roots):
            if not level or abs(root[0] - level[-1][0]) > 1e-9 * max(1.0, abs(root[0])):
                level.append(root)
        kept.append(level)
    reads = [{} for _ in pieces]  # per piece: root -> its sphere and rho_0
    for level in kept:
        for r0, i, _ in level:
            reads[i][r0] = None
    for piece, at in zip(pieces, reads):
        if at:
            roots, rho = list(at), piece.fluid.rho
            at.update(zip(roots, _read_at(lambda r: (*coordinate_sphere(piece.ansatz, r), rho(r)),
                                          roots)))
    out = []
    for c, level in zip(cs, kept):
        if level:
            out.append([_level_report(c, r0, pieces[i], f1, reads[i][r0]) for r0, i, f1 in level])
        else:
            spans = ", ".join(f"[{lo}, {hi}]" for lo, hi in windows)
            out.append(NoLevelSet(f"the lapse never reaches c={c} on {spans}"))
    return out


def level_set_data(model, c: float, window=None, grid_n: int = 2048) -> list[QuasiLocalReport]:
    """All level-set spheres {f = c} of a model, innermost first: the
    one-level case of :func:`mass_sweep`.

    A model is read through its ``pieces`` (an object with none is
    BadParams); raises NoLevelSet when the lapse never attains c in the
    scanned window and NotARegularValue at critical levels, tangential
    touches at an extremum of f included.  A conformal piece needs n = 3 and
    tau > 0, else DomainError.  A non-finite level, or a ``window`` (lo, hi)
    that is not finite and increasing, is BadParams.  ``grid_n`` points (an
    integer of at least 2, else BadParams) scan each piece's window for sign
    changes of f - c; conformal level spheres are audited with the
    degree-``AUDIT_DEGREE`` sphere rule.

    Every piece is scanned on its scan window, clipped to ``window``; a root
    found by two pieces (the seam of a two-piece catalog model) is reported
    once, from the piece that found the smaller value.  A level with two
    faults raises the one met first in :func:`_scan`'s order: piece by
    piece the brackets, Brent's polish, f' at the roots and the touches,
    then the sphere and rho_0 reads, then the reports.
    """
    (found,) = _level_sets(model, [c], window, grid_n)
    if isinstance(found, NoLevelSet):
        raise found
    return found


def mass_sweep(model, levels, grid_n: int = 2048, window=None) -> list[QuasiLocalReport]:
    """:func:`level_set_data` over many levels, in level order; levels with no
    level set are skipped.  Each piece's lapse is evaluated on its scan grid
    once, and all the levels are bracketed in one pass over it, so a sweep
    returns the concatenated one-level results.  A pass that raises is run
    again level by level, in the given order, so a sweep raises what its
    first failing level raises on its own."""
    return [rep for found in _level_sets(model, levels, window, grid_n)
            if not isinstance(found, NoLevelSet) for rep in found]


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
