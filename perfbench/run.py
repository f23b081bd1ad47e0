"""staticstar benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tov_stars --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
Set-up is timed in ``SETUP_PROCESSES`` fresh processes, because a single
interpreter's import time spreads widely.  The last of them also runs the
measurement.  Every end-to-end timing is CPU time scaled to the reference
host speed (see ``calibrate.py``); the wall-clock figures are per-layer
metrics.  For set-up, the speed comes from a fresh interpreter that imports
only staticstar's dependencies, run just before each set-up process;
``setup_s`` is the median of set-up CPU time / that import's CPU time, times
``REFERENCE_IMPORT_S``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``BENCHMARK.json``).  The last
line of standard output is the result; a human-readable summary, with every
metric and its unit, goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

SETUP_PROCESSES = 3
# the typical CPU time, in s, of importing DEPENDENCIES in a fresh interpreter
# on the 2-vCPU 2 GHz x86-64 shared VM the benchmark was written on
REFERENCE_IMPORT_S = 1.15
DEPENDENCIES = "numpy, scipy.integrate, scipy.interpolate, scipy.optimize"
RUN_BUDGET_S = 170  # a run, all its processes included, must end within 180 s
WORKLOADS = ("tov_stars", "catalog_verify", "conformal_build")


def child(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_cpu_s(deadline: float) -> float:
    """CPU time of a fresh interpreter that imports DEPENDENCIES, in s."""
    code = f"import time, {DEPENDENCIES}; print(time.process_time())"
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return float(proc.stdout)


def end_to_end(res: dict, setup_s: float) -> dict[str, float]:
    attempted = res["attempted"]
    err = res["closed_form_err"]  # None when no checked output passed
    return {
        "requests_per_cpu_s": res["requests_per_s"],
        "cpu_latency_p50_ms": res["latency_p50_ms"],
        "cpu_latency_p90_ms": res["latency_p90_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (attempted - res["failed"]) / attempted,
        # the worst relative error spans orders of magnitude between seeds;
        # its digits are steady enough to bound
        "closed_form_digits": 0.0 if err is None else -math.log10(max(err, 1e-17)),
    }


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json lists under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="staticstar benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "staticstar", "cli.py")):
        print(f"error: no staticstar sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, str(os.getpid()))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups, imports = [], []
        for i in range(SETUP_PROCESSES):
            imports.append(import_cpu_s(deadline))
            setups.append(child(args, workdir, i < SETUP_PROCESSES - 1, deadline))
        res = setups[-1]
    except (RuntimeError, subprocess.TimeoutExpired, subprocess.CalledProcessError, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK)
    setup_s = REFERENCE_IMPORT_S * statistics.median(
        p["setup_cpu_s"] / imp for p, imp in zip(setups, imports))

    if args.trace:
        values, kind = res["layers"], "per_layer"
        values["wall.setup_s"] = statistics.median(p["setup_wall_s"] for p in setups)
    else:
        values, kind = end_to_end(res, setup_s), "end_to_end"
    try:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind)}
    except KeyError as exc:
        print(f"error: the run did not produce metric {exc}", file=sys.stderr)
        return 1

    log = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}, {res['versions']}", file=log)
    print(f"  {res['attempted']} requests in {res['passes']} passes of "
          f"{res['requests_per_pass']}, {res['failed']} failed "
          f"(fail_frac {res['failed'] / res['attempted']:.4g}), "
          f"{res['beyond_p90']} samples beyond p90, host speed factor "
          f"{res['speed']:.3f}", file=log)
    def seconds(values):
        return ", ".join(f"{x:.3f}" for x in values)

    print(f"  set-up per process, CPU s: {seconds(p['setup_cpu_s'] for p in setups)}; "
          f"wall s: {seconds(p['setup_wall_s'] for p in setups)}; "
          f"reference import CPU s: {seconds(imports)}", file=log)
    print(f"  closed_form_err {res['closed_form_err']!r} relative", file=log)
    if args.trace and res["missing"]:
        print(f"  names not found (reported as 0): {', '.join(res['missing'])}", file=log)
    if args.trace and not res["counts_repeat"]:
        print("  warning: counts differ between the traced passes", file=log)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}", file=log)

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
