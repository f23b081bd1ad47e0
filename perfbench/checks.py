"""Closed forms and output checks for benchmark requests.

The closed forms are derived here from scratch, not imported from the
package or from ``tests/oracles`` (which needs sympy).  A check returns the
worst relative error of the output against its closed form, or ``None`` when
the output has no closed form and only its structure is checked; it raises
``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import math

import numpy as np

# tolerances at which an output counts as correct; they match the package's
# acceptance gate (tabulated twin to 1e-6, vacuum Hawking mass to 1e-10)
TOV_RTOL = 1e-6
VACUUM_RTOL = 1e-10
LAPSE_RTOL = 1e-6


class CheckFailed(Exception):
    """A request's output is wrong."""


def rel_err(got: float, want: float) -> float:
    return abs(float(got) - want) / max(abs(want), 1e-300)


def within(label: str, got: float, want: float, rtol: float) -> float:
    err = rel_err(got, want)
    if not err <= rtol:
        raise CheckFailed(f"{label}: got {got!r}, closed form {want!r} (rel err {err:.2e})")
    return err


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ----------------------------------------------------------------------------
# interior Schwarzschild (constant density mu = c, central pressure rho_c)
# ----------------------------------------------------------------------------

class ConstantStar:
    """Closed-form constant-density star in the package's units.

    y(r) = sqrt(1 - (8 pi c / 3) r^2), y_b = (c + rho_c)/(c + 3 rho_c),
    f(r) = (3 y_b - y(r))/2, m(r) = (4 pi/3) c r^3, and outside r_b the
    vacuum lapse sqrt(1 - 2M/r).
    """

    def __init__(self, c: float, rho_c: float):
        self.c = c
        self.rho_c = rho_c
        self.a = 8.0 * math.pi * c / 3.0
        self.y_b = (c + rho_c) / (c + 3.0 * rho_c)
        self.r_b = math.sqrt((1.0 - self.y_b**2) / self.a)
        self.mass = 4.0 * math.pi / 3.0 * c * self.r_b**3
        self.f_center = 1.5 * self.y_b - 0.5

    def f(self, r):
        r = np.asarray(r, dtype=float)
        inside = 1.5 * self.y_b - 0.5 * np.sqrt(np.clip(1.0 - self.a * r * r, 0.0, None))
        outside = np.sqrt(1.0 - 2.0 * self.mass / np.maximum(r, self.r_b))
        return np.where(r < self.r_b, inside, outside)

    def hawking_mass(self, r: float) -> float:
        return self.mass if r >= self.r_b else 4.0 * math.pi / 3.0 * self.c * r**3

    def check_tov(self, out: dict) -> float:
        return max(
            within("r_b", out["r_b"], self.r_b, TOV_RTOL),
            within("mass", out["mass"], self.mass, TOV_RTOL),
            within("f_center", out["f_center"], self.f_center, TOV_RTOL),
        )

    def check_mass(self, reports: list, levels: list) -> float:
        """Each sphere lies on the closed-form level set and has m_H = m(r).

        Errors are taken at the reported radius: near the center f' -> 0, so
        the radius itself is ill-conditioned while f and m(r) are not.
        """
        require([rep["level"] for rep in reports] == levels,
                f"expected one sphere per level {levels}, got "
                f"{[rep['level'] for rep in reports]}")
        errs = []
        for rep in reports:
            c, r = rep["level"], rep["r"]
            errs.append(within(f"f(r) at c={c}", float(self.f(r)), c, TOV_RTOL))
            errs.append(within(f"m_hawking at c={c}", rep["m_hawking"],
                               self.hawking_mass(r), TOV_RTOL))
        return max(errs)


def check_star_sanity(out: dict, samples: int) -> None:
    """A star with no closed form: subluminal Buchdahl-bounded and lapse ordered."""
    r_b, mass, f_c = out["r_b"], out["mass"], out["f_center"]
    require(out["samples"] == samples, f"expected {samples} samples, got {out['samples']}")
    require(r_b > 0.0 and mass > 0.0, f"bad star r_b={r_b} M={mass}")
    compact = 2.0 * mass / r_b
    require(compact < 8.0 / 9.0, f"2M/r_b = {compact} breaks the Buchdahl bound")
    require(0.0 < f_c < math.sqrt(1.0 - compact),
            f"central lapse {f_c} not below the surface lapse")


def check_audit(out: dict, expect: dict | None = None) -> None:
    """DEC implies WEC implies NEC, and a named first violation when any fails."""
    wec, nec, dec = out["wec"], out["nec"], out["dec"]
    require(nec or not wec, "WEC holds but NEC fails")
    require(wec or not dec, "DEC holds but WEC fails")
    require((out["first_violation"] is None) == (wec and nec and dec),
            "first_violation disagrees with the verdicts")
    if expect is not None:
        got = {"wec": wec, "nec": nec, "dec": dec}
        require(got == expect, f"energy conditions {got}, expected {expect}")


# ----------------------------------------------------------------------------
# vacuum exterior and the catalog's warped Witten star
# ----------------------------------------------------------------------------

def check_vacuum_mass(reports: list, M: float, levels: list) -> float:
    """Level c of the exterior lapse: r = 2M/(1-c^2), m_H = M, m_BY = 2M/(1+c)."""
    require(sorted({rep["level"] for rep in reports}) == sorted(levels),
            "a vacuum level set is missing")
    errs = []
    for rep in reports:
        c = rep["level"]
        errs.append(within(f"r at c={c}", rep["r"], 2.0 * M / (1.0 - c * c), VACUUM_RTOL))
        errs.append(within(f"m_hawking at c={c}", rep["m_hawking"], M, VACUUM_RTOL))
        errs.append(within(f"m_brown_york at c={c}", rep["m_brown_york"],
                           2.0 * M / (1.0 + c), VACUUM_RTOL))
    return max(errs)


def check_witten_stellar_mass(reports: list, A: float, B: float, levels: list) -> float:
    """f = A sin(log cosh t) + B cos(log cosh t) = c and area 4 pi tanh(t)^2."""
    require(sorted({rep["level"] for rep in reports}) == sorted(levels),
            "a Witten level set is missing")
    errs = []
    for rep in reports:
        t, c = rep["r"], rep["level"]
        L = math.log(math.cosh(t))
        errs.append(within(f"f at t={t}", A * math.sin(L) + B * math.cos(L), c, LAPSE_RTOL))
        errs.append(within(f"area at t={t}", rep["area"],
                           4.0 * math.pi * math.tanh(t) ** 2, LAPSE_RTOL))
    return max(errs)


# ----------------------------------------------------------------------------
# conformally flat Witten model, phi = sqrt(1 + u), invariant u = |x|^2
# ----------------------------------------------------------------------------

def witten_lapse(u, n: int, f0: float, f1: float):
    """Lapse with f(0) = f0, f'(0) = f1: A sin(w log1p u) + B cos(w log1p u)."""
    w = 0.5 * math.sqrt(n - 2.0)
    L = w * np.log1p(np.asarray(u, dtype=float))
    return (f1 / w) * np.sin(L) + f0 * np.cos(L)


def check_custom_phi(model, n: int, f0: float, f1: float) -> float:
    require(model.passed, f"custom-phi build failed its checks: "
            f"{[k for k, rep in model.checks.items() if not rep.passed]}")
    require(not model.truncated, "custom-phi lapse lost positivity")
    lo, hi = model.domain
    u = np.linspace(lo, hi, 65)
    want = witten_lapse(u, n, f0, f1)
    got = np.asarray(model.f.value(u), dtype=float)
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if not err <= LAPSE_RTOL:
        raise CheckFailed(f"custom-phi lapse off the Witten closed form by {err:.2e}")
    return err


def check_conformal_level(reports: list, level: float) -> float:
    """sin(log1p(u)/2) = c gives u = expm1(2 asin c); area 4 pi u/(1+u)."""
    require(len(reports) == 1, f"expected one sphere at c={level}, got {len(reports)}")
    rep = reports[0]
    u = math.expm1(2.0 * math.asin(level))
    return max(
        within(f"u at c={level}", rep.r, u, LAPSE_RTOL),
        within(f"area at c={level}", rep.area, 4.0 * math.pi * u / (1.0 + u), LAPSE_RTOL),
    )


def check_verify(out: dict, model_id: str) -> None:
    require(out["model"] == model_id, f"verified {out['model']!r}, asked for {model_id!r}")
    require(out["passed"] is True, f"{model_id} failed verification")


def check_build(out: dict, label: str, n: int) -> None:
    require(out["label"] == label and out["n"] == n, f"built {out['label']} n={out['n']}")
    require(out["passed"] is True, f"build {label} n={n} failed its checks")
    require(out["truncated"] is False, f"build {label} n={n} truncated its domain")
