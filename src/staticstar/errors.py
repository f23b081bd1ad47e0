"""Exception hierarchy.

Every error raised deliberately by this package derives from :class:`StaticStarError`,
so callers can catch the package's failures without swallowing genuine bugs
(``TypeError``, ``ZeroDivisionError``, ...).
"""

from __future__ import annotations

__all__ = [
    "StaticStarError",
    "DomainError",
    "BadParams",
    "UnknownModel",
    "CenterSingularity",
    "HorizonHit",
    "StepFailure",
    "NoSurface",
    "NotARegularValue",
    "NoLevelSet",
    "SignLoss",
]


class StaticStarError(Exception):
    """Base class for all package errors."""


class DomainError(StaticStarError):
    """Evaluation requested outside a function's or model's validity domain.

    Also used for structurally inadmissible inputs (non-positive areas, wrong
    dimension, table extrapolation, zero level value where a division by the
    level is required).
    """


class BadParams(StaticStarError):
    """Model or solver parameters violate a documented admissibility condition."""


class UnknownModel(StaticStarError):
    """Requested catalog identifier does not exist."""


class CenterSingularity(StaticStarError):
    """The TOV right-hand side is singular at the chosen central state."""


class HorizonHit(StaticStarError):
    """Integration or matching reached r - 2 m(r) <= eps: the metric degenerates."""


class StepFailure(StaticStarError):
    """The adaptive ODE integrator failed to reach the requested endpoint."""


class NoSurface(StaticStarError):
    """No radius with rho = 0 exists on the integrated range."""


class NotARegularValue(StaticStarError):
    """A level set of the lapse was requested where f' = 0 (critical point)."""


class NoLevelSet(StaticStarError):
    """The requested lapse value is not attained on the model's domain."""


class SignLoss(StaticStarError):
    """A quantity required to stay positive (lapse, conformal factor) crossed zero.

    Usually handled internally by truncating the domain and setting a flag;
    raised only when truncation would leave an empty domain.
    """
