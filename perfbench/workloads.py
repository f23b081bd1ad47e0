"""Seeded request lists for the three benchmark workloads.

A request is either a ``staticstar`` command line run in-process through
``staticstar.cli.main`` with ``--json``, or, for the two conformal paths the
CLI cannot reach, the library call sequence of the README quick start.  Each
request carries the check its output must pass.  The seed draws every
parameter; the number and kind of requests in a pass do not depend on it, so
runs with different seeds do the same mix of work.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import checks


@dataclass(frozen=True)
class Request:
    """One user request and how to judge its outcome.

    ``check`` gets the parsed JSON (CLI) or the returned objects (library)
    and returns the worst relative error against a closed form, or None.
    ``expect_rc`` is the README exit code that counts as success.
    """

    kind: str
    check: Callable[[object], float | None]
    argv: tuple[str, ...] | None = None
    call: Callable[[], object] | None = None
    expect_rc: int = 0

    def describe(self) -> str:
        if self.argv is not None:
            return "staticstar " + " ".join(self.argv)
        return self.kind


def _num(x: float) -> str:
    return repr(float(x))


def _write_table(path: str, rho, mu) -> str:
    """A ``table:`` EOS file: header row, then rho,mu pairs at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rho,mu\n")
        for r, m in zip(rho, mu):
            fh.write(f"{float(r)!r},{float(m)!r}\n")
    return path


def _no_output(out) -> None:
    return None


# ----------------------------------------------------------------------------
# tov_stars
# ----------------------------------------------------------------------------

CONSTANT_STARS = 16
TWINS = 2  # the first stars also run from a table: CSV twins
BAG_STARS = 2
SOFT_TABLE_ROWS = 60
SOFT_GRID_N = 64
ALL_HOLD = {"wec": True, "nec": True, "dec": True}

# Pass layout (30 requests), in CPU time: 16 analytic tov near 50-75 ms; the
# error path, two single-level masses and an audit near 75-110 ms; the twins,
# the analytic sweeps and a single level on a twin near 150-300 ms; the two
# bag stars and the bag audit near 300-350 ms; the soft-surface star above
# 1 s.  p50 then lies among the analytic tov and p90 among the bag requests,
# not in a gap between groups where noise would move it.  The sweeps run on
# the analytic EOS: the twin sweeps' CPU time, with 8 threads contending for
# the GIL, moved by 15% between runs.


def _constant_stars(rng: np.random.Generator, workdir: str):
    stars = []
    for i in range(CONSTANT_STARS):
        # rho_c < c keeps DEC satisfied; rho_c >= 4e-4 keeps the integrator's
        # absolute tolerance (1e-10) well inside the 1e-6 check
        c = float(rng.uniform(1e-3, 2e-3))
        rho_c = float(c * rng.uniform(0.4, 0.8))
        twin = None
        if i < TWINS:
            # the integrator steps past the surface before its event is
            # located, so the table reaches well below rho = 0
            rho = np.linspace(-rho_c, 1.5 * rho_c, 40)
            twin = "table:" + _write_table(os.path.join(workdir, f"twin{i}.csv"), rho,
                                           np.full(rho.shape, c))
        stars.append((checks.ConstantStar(c, rho_c), f"constant:c={_num(c)}", twin))
    return stars


def _mass(star, spec: str, levels: list[float]) -> Request:
    argv = ["mass", "--eos", spec, "--rho-c", _num(star.rho_c), "--json"]
    for level in levels:
        argv += ["--level", _num(level)]
    return Request("mass:sweep8" if len(levels) > 1 else "mass:single",
                   lambda out: star.check_mass(out, levels), argv=tuple(argv))


def tov_stars(rng: np.random.Generator, workdir: str) -> list[Request]:
    """EOS-driven stars: constant density, its table twin, bag model, soft surface."""
    reqs: list[Request] = []
    stars = _constant_stars(rng, workdir)
    for star, const_spec, twin_spec in stars:
        for kind, spec in (("tov:constant", const_spec), ("tov:twin", twin_spec)):
            if spec is not None:
                reqs.append(Request(
                    kind, star.check_tov,
                    argv=("tov", "--eos", spec, "--rho-c", _num(star.rho_c), "--json")))

    # mass: half single-level (one on a twin), half 8-level sweeps
    (star0, const0, _), (star1, const1, twin1), (star2, const2, _) = stars[:3]
    for star, spec, count in ((star0, const0, 1), (star1, const1, 1), (star1, twin1, 1),
                              (star0, const0, 8), (star1, const1, 8), (star2, const2, 8)):
        lo = star.f_center + 0.1 * (1.0 - star.f_center)
        reqs.append(_mass(star, spec, sorted(float(x) for x in rng.uniform(lo, 0.95, count))))

    reqs.append(Request(
        "audit:constant", lambda out: checks.check_audit(out, ALL_HOLD),
        argv=("audit", "--eos", const0, "--rho-c", _num(star0.rho_c), "--json")))

    # self-bound bag models mu = 3 rho + 4B: finite density at the surface
    for i in range(BAG_STARS):
        bag = float(rng.uniform(8e-5, 1.2e-4))
        rho_c = float(rng.uniform(3e-4, 4e-4))
        rho = np.linspace(-rho_c, 1.5 * rho_c, 60)
        spec = "table:" + _write_table(os.path.join(workdir, f"bag{i}.csv"), rho,
                                       3.0 * rho + 4.0 * bag)
        reqs.append(Request(
            "tov:bag", lambda out: checks.check_star_sanity(out, 512),
            argv=("tov", "--eos", spec, "--rho-c", _num(rho_c), "--json")))
        if i == 0:
            reqs.append(Request(
                "audit:bag", lambda out: checks.check_audit(out, ALL_HOLD),
                argv=("audit", "--eos", spec, "--rho-c", _num(rho_c), "--json")))

    # soft surface: Gamma = 2 polytrope rho = K mu^2, so mu + rho -> 0 at the
    # surface and the lapse quadrature meets an integrable singularity
    K = 100.0
    rho_c = float(rng.uniform(1.5e-4, 2.5e-4))
    rho = np.linspace(-rho_c, 1.5 * rho_c, SOFT_TABLE_ROWS)
    spec = "table:" + _write_table(os.path.join(workdir, "soft.csv"), rho,
                                   np.sqrt(np.maximum(rho, 0.0) / K))
    reqs.append(Request(
        "tov:soft", lambda out: checks.check_star_sanity(out, SOFT_GRID_N),
        argv=("tov", "--eos", spec, "--rho-c", _num(rho_c), "--grid-n",
              str(SOFT_GRID_N), "--json")))

    # documented error path: the lapse stays below 1, so c > 1 has no level set
    reqs.append(Request(
        "error:no-level-set", _no_output, expect_rc=3,
        argv=("mass", "--eos", const0, "--rho-c", _num(star0.rho_c),
              "--level", _num(rng.uniform(1.2, 2.0)), "--json")))
    return reqs


# ----------------------------------------------------------------------------
# catalog_verify
# ----------------------------------------------------------------------------

SWEEP_AND_SINGLES = (8,) + (1,) * 8  # mass requests per model, by level count


def _catalog_specs(rng: np.random.Generator) -> list[tuple[str, dict]]:
    """Seeded parameters inside each model's verified range."""
    R = float(rng.uniform(1.5, 3.0))
    return [
        ("schwarzschild_exterior", {"M": float(rng.uniform(0.5, 2.0))}),
        ("schwarzschild_interior", {"c": float(rng.uniform(0.005, 0.05))}),
        ("gamma_zero", {"c1": float(rng.uniform(0.5, 2.0)), "c2": float(rng.uniform(0.5, 2.0))}),
        # residuals scale with c against an absolute 1e-9 gate; c <= 0.3 passes
        ("einstein_static", {"c": float(rng.uniform(0.05, 0.3))}),
        ("wyman", {"R": R, "M": float(rng.uniform(0.05, 0.3)) * R}),
        ("witten_stellar", {"A": float(rng.uniform(0.5, 2.0)), "B": float(rng.uniform(-0.5, 0.5))}),
    ]


def catalog_verify(rng: np.random.Generator, workdir: str) -> list[Request]:
    """All six catalog models: verify at two grid sizes, audit, and level-set masses.

    Pass layout (50 requests): 24 verify (two parameter draws per model),
    6 audit, 18 mass, 2 error paths.  p50 then lies inside the 5-6 ms group
    of audits and heavier verifies, and p90 inside the 8-13 ms group of 16
    single-level masses.  A single level's cost depends on where the level
    lies; with 8 levels per model, the group's upper end moves less from
    seed to seed than with 4 (p90 spread 0.09 between seeds).
    """
    reqs: list[Request] = []
    draws = [_catalog_specs(rng), _catalog_specs(rng)]
    for d, specs in enumerate(draws):
        for j, (model_id, params) in enumerate(specs):
            spec = model_id + ":" + ",".join(f"{k}={_num(v)}" for k, v in params.items())
            for grid_n in ("96", "512"):
                if j % 2 == 0:
                    argv = ("verify", spec, "--grid-n", grid_n, "--json")
                else:
                    argv = ("catalog", "verify", model_id, "--grid-n", grid_n, "--json")
                    for k, v in params.items():
                        argv += ("--param", f"{k}={_num(v)}")
                reqs.append(Request(f"verify:{grid_n}",
                                    lambda out, m=model_id: checks.check_verify(out, m),
                                    argv=argv))
            if d == 0:
                expect = ALL_HOLD if model_id == "schwarzschild_exterior" else None
                reqs.append(Request("audit:catalog",
                                    lambda out, e=expect: checks.check_audit(out, e),
                                    argv=("audit", "--model", spec, "--json")))

    specs = draws[0]
    M = specs[0][1]["M"]
    ext = f"schwarzschild_exterior:M={_num(M)}"
    # One 8-level sweep per model and eight single levels: the worst root error
    # over 16 levels is a steadier accuracy figure than over a few, and single
    # levels keep the GIL-bound 8-thread sweeps, whose latency swings most with
    # the machine's load, to a minority of the pass.
    for count in SWEEP_AND_SINGLES:
        levels = sorted(float(x) for x in rng.uniform(0.2, 0.98, count))
        argv = ("mass", "--model", ext, "--json") + sum((("--level", _num(c)) for c in levels), ())
        reqs.append(Request(f"mass:vacuum{count}",
                            lambda out, lv=levels: checks.check_vacuum_mass(out, M, lv),
                            argv=argv))
    A, B = specs[5][1]["A"], specs[5][1]["B"]
    amp = math.hypot(A, B)
    wit = f"witten_stellar:A={_num(A)},B={_num(B)}"
    for count in SWEEP_AND_SINGLES:
        levels = sorted(float(x) for x in rng.uniform(0.2 * amp, 0.8 * amp, count))
        argv = ("mass", "--model", wit, "--json") + sum((("--level", _num(c)) for c in levels), ())
        reqs.append(Request(f"mass:witten{count}",
                            lambda out, lv=levels: checks.check_witten_stellar_mass(out, A, B, lv),
                            argv=argv))

    reqs.append(Request("error:unknown-model", _no_output, expect_rc=1,
                        argv=("verify", "no_such_model", "--json")))
    reqs.append(Request("error:no-level-set", _no_output, expect_rc=3,
                        argv=("mass", "--model", ext, "--level",
                              _num(rng.uniform(1.2, 2.0)), "--json")))
    return reqs


# ----------------------------------------------------------------------------
# conformal_build
# ----------------------------------------------------------------------------

def sqrt_one_plus_u(numerics):
    """phi = sqrt(1+u) as a user-supplied RadialFunction (not the preset)."""
    return numerics.RadialFunction(
        value=lambda u: np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d1=lambda u: 0.5 / np.sqrt(1.0 + np.asarray(u, dtype=float)),
        d2=lambda u: -0.25 * (1.0 + np.asarray(u, dtype=float)) ** -1.5,
        provenance="analytic",
        domain=(-1.0 + 1e-12, math.inf),
    )


def conformal_build(rng: np.random.Generator, workdir: str) -> list[Request]:
    """Preset builds for n = 3..5, custom phi through solve_lapse, 3-D level sets."""
    from staticstar import conformal, numerics, quasilocal

    # Pass layout (13 requests): 2 unit builds near 25 ms, 6 witten builds
    # near 28 ms, 2 custom-phi builds near 40 ms and 3 level sets near 200 ms,
    # so p50 lies inside the witten builds and p90 inside the level sets.
    reqs: list[Request] = []
    for n in (3, 4, 5, 3, 4, 5):
        hi = float(rng.uniform(8.0, 12.0))
        reqs.append(Request(
            "build:witten", lambda out, n=n: checks.check_build(out, "witten", n),
            argv=("build", "--phi", "witten", "--n", str(n), "--span", f"0,{_num(hi)}",
                  "--json")))
    for _ in range(2):
        hi = float(rng.uniform(8.0, 12.0))
        reqs.append(Request(
            "build:unit", lambda out: checks.check_build(out, "unit", 3),
            argv=("build", "--phi", "unit", "--n", "3", "--span", f"0,{_num(hi)}", "--json")))

    phi = sqrt_one_plus_u(numerics)
    for _ in range(2):
        f0 = float(rng.uniform(0.8, 1.2))
        f1 = float(rng.uniform(0.0, 0.3))
        hi = float(rng.uniform(8.0, 12.0))
        reqs.append(Request(
            "library:custom-phi",
            lambda model, f0=f0, f1=f1: checks.check_custom_phi(model, 3, f0, f1),
            call=lambda f0=f0, f1=f1, hi=hi: conformal.build_model(
                phi, n=3, ic=(f0, f1), span=(0.0, hi))))

    for level in rng.uniform(0.3, 0.8, 3):
        level = float(level)
        reqs.append(Request(
            "library:conformal-level-set",
            lambda reports, c=level: checks.check_conformal_level(reports, c),
            call=lambda c=level: quasilocal.level_set_data(
                conformal.build_model("witten", n=3), c)))
    return reqs


WORKLOADS = {
    "tov_stars": tov_stars,
    "catalog_verify": catalog_verify,
    "conformal_build": conformal_build,
}


def generate(name: str, seed: int, workdir: str) -> list[Request]:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)
