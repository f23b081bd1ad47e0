"""Pointwise energy-condition audits along radial profiles.

All scans work on *physical* density/pressure pairs (mu, rho).  The pointwise
tests are

    NEC:  mu + rho >= 0
    WEC:  mu >= 0  and  mu + rho >= 0
    DEC:  mu >= |rho|

so DEC implies WEC implies NEC, and the scan results preserve that structure
by construction.  Values in the round-off band [-1e-12, 0) count as satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DomainError

__all__ = ["BAND", "ConditionScan", "scan_conditions", "scan_model"]

# violations smaller than this are attributed to round-off, not physics
BAND = 1e-12


@dataclass(frozen=True)
class ConditionScan:
    """Result of an energy-condition sweep over a radial grid.

    ``wec``/``nec``/``dec`` are aggregate verdicts; ``first_violation`` is the
    (condition, r) pair at the smallest grid radius where anything fails, with
    the weakest failed condition named (nec before wec before dec), or None.
    """

    grid: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    wec: bool
    nec: bool
    dec: bool
    first_violation: tuple[str, float] | None

    def to_json_dict(self) -> dict:
        fv = None
        if self.first_violation is not None:
            fv = {"condition": self.first_violation[0], "r": self.first_violation[1]}
        return {
            "wec": self.wec,
            "nec": self.nec,
            "dec": self.dec,
            "first_violation": fv,
            "n_points": int(self.grid.size),
        }


def _on_grid(values, grid: np.ndarray) -> np.ndarray:
    """A callable (called once per point), a constant, or an array shaped like grid."""
    if callable(values):
        return np.asarray([float(values(r)) for r in grid])
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.shape, float(arr))
    if arr.shape != grid.shape:
        raise BadParams(f"fluid values shaped {arr.shape} do not match the grid {grid.shape}")
    return arr


def scan_conditions(mu_fn, rho_fn, grid) -> ConditionScan:
    """Evaluate the three conditions pointwise on ``grid``.

    ``mu_fn``/``rho_fn`` are each a callable r -> physical value, called
    once per grid point (so scalar-only callables work), a constant, or the
    values already evaluated on ``grid`` (an array of the grid's shape).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("energy-condition scan needs a non-empty grid")
    mu = _on_grid(mu_fn, grid)
    rho = _on_grid(rho_fn, grid)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(rho))):
        raise DomainError("non-finite fluid values in energy-condition scan")

    nec_ok = mu + rho >= -BAND
    wec_ok = nec_ok & (mu >= -BAND)
    dec_ok = mu - np.abs(rho) >= -BAND

    first = None
    bad = ~(nec_ok & wec_ok & dec_ok)
    if np.any(bad):
        i = int(np.argmax(bad))  # first True
        # weakest condition first: a NEC failure subsumes the others
        if not nec_ok[i]:
            name = "nec"
        elif not wec_ok[i]:
            name = "wec"
        else:
            name = "dec"
        first = (name, float(grid[i]))

    return ConditionScan(
        grid=grid,
        mu=mu,
        rho=rho,
        wec=bool(np.all(wec_ok)),
        nec=bool(np.all(nec_ok)),
        dec=bool(np.all(dec_ok)),
        first_violation=first,
    )


def scan_model(model, grid=None, n: int = 256) -> ConditionScan:
    """Audit a catalog model or a TOV stellar model.

    Catalog models are scanned over each piece's verification window
    (concatenated); TOV models over the interior (r_start, r_b).  Either
    model's evaluators take the whole grid in one call each.
    """
    if grid is None:
        if hasattr(model, "profile"):  # tov.StellarModel
            grid = np.linspace(model.profile.r_start, model.r_b * (1.0 - 1e-12), n)
        elif hasattr(model, "pieces"):  # catalog.AnalyticModel
            grid = np.concatenate([np.linspace(*p.interval, n) for p in model.pieces])
        else:
            raise DomainError(f"don't know how to scan {type(model).__name__}")
    grid = np.asarray(grid, dtype=float)
    return scan_conditions(model.mu(grid), model.rho(grid), grid)
