"""Finite differences: the tests' independent route to every derivative.

The package differentiates exactly (closed forms, jets, dense ODE output and
right-hand sides); these stencils share none of that code, so agreement with
them checks the derivatives rather than restating them.

4th-order central stencils with step ``h = max(1e-5, 1e-5 |r|)`` (5e-4 for
second derivatives) and one Richardson halving, which eliminates the leading
h^4 error term.
"""

from collections.abc import Callable

import numpy as np

_FD_BASE_STEP = 1e-5
# Second derivatives divide by h^2, so roundoff forces a much larger step:
# with h ~ 5e-4 truncation (~h^4) and cancellation (~eps/h^2) balance near 1e-9.
_FD_BASE_STEP_D2 = 5e-4


class DerivativeError(Exception):
    """A finite-difference stencil could not be evaluated.

    Raised when the stencil footprint (r ± 2h, plus the half-step refinement)
    leaves the declared domain, or the sampled values are non-finite.
    """


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
    effective truncation order is six.  ``order`` is 1 or 2.  ``r`` is a
    float or an ndarray; a float gives a float, and ``func`` is then called
    with numpy float64 values, which scalar-only callables (``math.sin``)
    accept.

    Raises
    ------
    DerivativeError
        If the stencil footprint ``r ± 2h`` leaves ``domain``, or any sampled
        value is non-finite.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    r_arr = np.asarray(r, dtype=float)
    base = _FD_BASE_STEP if order == 1 else _FD_BASE_STEP_D2
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
    return float(out) if out.ndim == 0 else out
