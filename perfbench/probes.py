"""Per-layer probes on the inputs of the ROADMAP baseline table.

Each probe times one library call on the same inputs as a row of that table
(best of ``REPEATS``, untraced), so the table can be re-measured by the
benchmark instead of by throwaway scripts.  ``probe.lapse_f_err`` is the
table's accuracy row: the largest difference between the TOV lapse and the
interior-Schwarzschild closed form on the sample grid.
"""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np

import checks

REPEATS = 3

# the ROADMAP table's star, and eight levels on it
C, RHO_C = 0.001, 0.0005
MASS_LEVELS = (0.45, 0.5, 0.55, 0.6, 0.7, 0.8, 0.85, 0.9)


def best_ms(fn) -> float:
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_all() -> dict[str, float]:
    from staticstar import catalog, cli, conformal, numerics, quasilocal, tov

    import workloads

    const = tov.EquationOfState.from_spec(f"constant:c={C}")
    rows = np.linspace(-0.1 * RHO_C, 1.5 * RHO_C, 40)
    table = tov.Tabulated(rows, np.full(rows.shape, C))
    profiles = {}
    for label, eos in (("const", const), ("table", table)):
        profile = tov.integrate_tov(eos, RHO_C)
        profiles[label] = (profile, tov.detect_surface(profile))
    stars = {label: tov.match_exterior(p, r_b) for label, (p, r_b) in profiles.items()}
    witten3 = conformal.build_model("witten", n=3)
    phi = workloads.sqrt_one_plus_u(numerics)
    witten_stellar = catalog.build("witten_stellar")
    mass_argv = ["mass", "--eos", f"constant:c={C}", "--rho-c", str(RHO_C), "--json"]
    for level in MASS_LEVELS:
        mass_argv += ["--level", str(level)]

    def mass_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(mass_argv)

    out = {
        "probe.integrate_tov_ms": best_ms(lambda: tov.integrate_tov(const, RHO_C)),
        "probe.integrate_lapse_ms": best_ms(
            lambda: tov.integrate_lapse(*profiles["const"])),
        "probe.integrate_lapse_table_ms": best_ms(
            lambda: tov.integrate_lapse(*profiles["table"])),
        "probe.level_set_tov_ms": best_ms(
            lambda: quasilocal.level_set_data(stars["const"], 0.6, grid_n=2048)),
        "probe.level_set_tov_table_ms": best_ms(
            lambda: quasilocal.level_set_data(stars["table"], 0.6, grid_n=2048)),
        "probe.level_set_conformal_ms": best_ms(
            lambda: quasilocal.level_set_data(witten3, 0.5)),
        "probe.verify_witten_96_ms": best_ms(lambda: witten_stellar.verify(grid_n=96)),
        "probe.verify_witten_512_ms": best_ms(lambda: witten_stellar.verify(grid_n=512)),
        "probe.build_witten_ms": best_ms(lambda: conformal.build_model("witten", n=3)),
        "probe.build_custom_phi_ms": best_ms(lambda: conformal.build_model(phi, n=3)),
        "probe.mass_8_levels_ms": best_ms(mass_cli),
    }
    star = stars["const"]
    r = star.profile.column("r")
    r = r[r <= star.r_b]
    closed = checks.ConstantStar(C, RHO_C)
    got = np.array([star.f(x) for x in r])
    out["probe.lapse_f_err"] = float(np.max(np.abs(got - closed.f(r))))
    return out
