"""One benchmark process: set up, run the closed loop, report as JSON.

Started by ``run.py``; not meant to be run by hand.  Set-up is the import of
staticstar, generating the workload's inputs (EOS tables, request list) and a
warm-up of one request per subcommand.  Then a single client sends the
requests of a pass one after another, each after the previous completed, and
repeats whole passes until ``--seconds`` have passed and at least
``MIN_REQUESTS`` were sent.

With ``--trace 1`` untraced and traced passes alternate instead, and the
per-layer figures come from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# p90 needs at least 10 samples beyond it
MIN_REQUESTS = 100
# the calibration kernel (see calibrate.py) runs at most this often, and each
# request is timed against the NEAREST runs, by position in the pass
CALIBRATE_EVERY_S = 0.05
NEAREST = 3


class Outcome(NamedTuple):
    ok: bool
    latency_s: float  # wall time
    cpu_s: float  # CPU time of the process, every thread included
    err: float | None  # worst relative error against a closed form, if any


def execute(req, cli) -> Outcome:
    """Send one request and check its output; failures are logged to stderr."""
    out = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if req.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(req.argv))
            result = out.getvalue()
        else:
            rc, result = 0, req.call()
    except Exception:  # noqa: BLE001 - an escaping exception is a failed request
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(f"FAIL (uncaught exception) {req.describe()}\n{traceback.format_exc()}",
              file=sys.stderr)
        return Outcome(False, latency, cpu, None)
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0

    import checks  # loaded by set-up, whose timing includes numpy's import

    if rc != req.expect_rc:
        print(f"FAIL (exit {rc}, expected {req.expect_rc}) {req.describe()}", file=sys.stderr)
        return Outcome(False, latency, cpu, None)
    try:
        payload = json.loads(result) if req.argv is not None and rc == 0 else result
        err = req.check(payload)
    except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
        print(f"FAIL (check: {exc}) {req.describe()}", file=sys.stderr)
        return Outcome(False, latency, cpu, None)
    return Outcome(True, latency, cpu, err)


class Pass(NamedTuple):
    outcomes: list[Outcome]
    speeds: list[float]  # host speed factor around each request (1 when not calibrated)


def _nearest_speeds(n: int, marks: list[tuple[int, float]]) -> list[float]:
    """For each of n requests, the median of the NEAREST kernel times."""
    import calibrate

    return [calibrate.speed([ms for _, ms in sorted(marks, key=lambda m: abs(m[0] - i))[:NEAREST]])
            for i in range(n)]


def run_pass(requests, cli, tracer=None) -> Pass:
    """Send every request once.  Untraced passes run the calibration kernel
    after a request whenever ``CALIBRATE_EVERY_S`` have passed since its last
    run; the host's speed can change within a pass."""
    import calibrate

    outcomes, marks = [], []  # marks: (request index, kernel CPU ms)
    last = -math.inf
    for i, req in enumerate(requests):
        if tracer is None:
            outcomes.append(execute(req, cli))
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                marks.append((i, calibrate.cpu_ms()))
                last = time.perf_counter()
        else:
            with tracer.span("request"):
                outcomes.append(execute(req, cli))
    if not marks:
        return Pass(outcomes, [1.0] * len(outcomes))
    return Pass(outcomes, _nearest_speeds(len(outcomes), marks))


def warm_up(requests, cli) -> None:
    """One request of each subcommand (first in pass order) fills lazy caches."""
    seen = set()
    for req in requests:
        key = req.argv[0] if req.argv is not None else req.kind
        if key not in seen and req.expect_rc == 0:
            seen.add(key)
            execute(req, cli)


def setup(workload: str, seed: int, workdir: str):
    """Returns the CLI, the request list and the set-up's (wall, CPU) seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from staticstar import cli

    import workloads

    os.makedirs(workdir, exist_ok=True)
    requests = workloads.generate(workload, seed, workdir)
    warm_up(requests, cli)
    return cli, requests, time.perf_counter() - t0, time.process_time() - c0


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(passes: list[Pass]) -> dict:
    """Latency figures: p50 over every request of the run; p90 per pass, then
    the median over passes.

    A pass holds every request of the mix once.  Its slowest 10% are two to
    four requests, so a slowed phase of the host sets a run-wide p90; the
    median over passes drops the passes it hit.  The end-to-end figures use
    CPU time divided by the speed factor around each request; the ``wall``
    ones the plain wall time, for comparison.
    """
    outcomes = [o for p in passes for o in p.outcomes]
    cpu_ms = [[o.cpu_s * 1e3 / s for o, s in zip(p.outcomes, p.speeds)] for p in passes]
    wall_ms = [[o.latency_s * 1e3 for o in p.outcomes] for p in passes]
    out = {}
    for prefix, per_pass in (("", cpu_ms), ("wall_", wall_ms)):
        out[prefix + "latency_p50_ms"] = statistics.median(x for ms in per_pass for x in ms)
        out[prefix + "latency_p90_ms"] = statistics.median(_p90(ms) for ms in per_pass)
        out[prefix + "requests_per_s"] = len(per_pass[0]) * 1e3 / statistics.median(
            sum(ms) for ms in per_pass)
    errs = [o.err for o in outcomes if o.ok and o.err is not None]
    out.update(
        attempted=len(outcomes),
        failed=sum(not o.ok for o in outcomes),
        beyond_p90=sum(x > out["latency_p90_ms"] for ms in cpu_ms for x in ms),
        passes=len(passes),
        speed=statistics.median(s for p in passes for s in p.speeds),
        closed_form_err=max(errs) if errs else None,
    )
    return out


def measure(requests, cli, seconds: float) -> dict:
    """Closed loop over whole passes."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(requests, cli))
        if (time.perf_counter() - t0 >= seconds
                and len(passes) * len(requests) >= MIN_REQUESTS):
            return summarize(passes)


def measure_traced(requests, cli, seconds: float) -> dict:
    import tracing

    plain, traced, traced_s, layers = [], [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run_pass(requests, cli))
        tracer = tracing.Tracer()
        w0 = time.perf_counter()
        with tracer.installed():
            traced.append(run_pass(requests, cli, tracer))
        traced_s.append(time.perf_counter() - w0)
        layers.append(tracing.layer_values(tracer))
        if time.perf_counter() - t0 >= seconds:
            break
    out = summarize(plain)
    everything = [o for p in plain + traced for o in p.outcomes]
    errs = [o.err for o in everything if o.ok and o.err is not None]
    out.update(attempted=len(everything), failed=sum(not o.ok for o in everything),
               closed_form_err=max(errs) if errs else None)
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        # counts come from the first traced pass so they repeat exactly;
        # times are the median over traced passes
        if unit == "count":
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.median(pass_[name] for pass_ in layers)
    metrics["trace.untraced_pass_ms"] = 1e3 * len(requests) / out["wall_requests_per_s"]
    metrics["trace.traced_pass_ms"] = statistics.median(traced_s) * 1e3
    metrics["trace.overhead_ratio"] = metrics["trace.traced_pass_ms"] / metrics[
        "trace.untraced_pass_ms"]
    for name in ("requests_per_s", "latency_p50_ms", "latency_p90_ms"):
        metrics["wall." + name] = out["wall_" + name]
    metrics["host.speed"] = out["speed"]
    # 1.0 (no digit right) when no checked output passed
    metrics["closed_form_err"] = 1.0 if out["closed_form_err"] is None else out["closed_form_err"]
    out.update(passes=len(plain) + len(traced), layers=metrics, missing=tracer.missing,
               counts_repeat=all(
                   all(p[name] == layers[0][name] for name in tracing.EXACT_COUNTS)
                   for p in layers))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, requests, setup_wall_s, setup_cpu_s = setup(args.workload, args.seed, args.workdir)
    import numpy
    import scipy

    result = {"setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s,
              "requests_per_pass": len(requests),
              "versions": f"python {platform.python_version()}, numpy {numpy.__version__}, "
                          f"scipy {scipy.__version__}, nproc {os.cpu_count()}"}
    if not args.setup_only:
        import calibrate

        calibrate.kernel()  # the first run pays for scipy's lazy imports
        if args.trace:
            result.update(measure_traced(requests, cli, args.seconds))
            result["layers"]["wall.setup_s"] = setup_wall_s  # run.py takes the median
            import probes

            result["layers"].update(probes.run_all())
        else:
            result.update(measure(requests, cli, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
