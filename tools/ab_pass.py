"""Paired in-process CPU comparison of two checkouts on the benchmark workloads.

    python tools/ab_pass.py PARENT CHANGE [--workload NAME ...] [--passes N] [--seed S]

Imports ``staticstar`` twice in one interpreter, from ``PARENT/src`` and from
``CHANGE/src``; each copy keeps its own modules, and a side's modules are
put back in ``sys.modules`` while its requests are built and run, so a
library request's lazy ``from staticstar import ...`` reads that side.  For
each workload of ``perfbench/workloads.py`` (this checkout's), both sides
run every request once untimed, then N pairs of timed passes, the side that
goes first alternating from pair to pair, so a drift of the host's speed
falls on both.  A pass's time is the process CPU time of its requests, the
rendering of their outputs left out.

Every request's output must be the same bytes on both sides in every pass:
a command line's exit code, stdout and stderr (run through
``staticstar.cli.main`` with both captured), a library call's reports as
``to_json_dict()``, as ``tools/workload_digest.py`` hashes them.  Prints,
per workload, the median of the pairs' change/parent CPU ratios with its
quartiles and each side's median pass time; exits 1 at the first output
that differs, 0 otherwise.  Give the same checkout twice (``. .``) to see
the spread of the measurement itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import pkgutil
import statistics
import sys
import tempfile
import time

# puts perfbench/ on the path and imports its workloads; the staticstar it
# imports from this checkout is dropped from sys.modules by the first _load
from workload_digest import _library_bytes, workloads


def _is_package_module(name: str) -> bool:
    return name == "staticstar" or name.startswith("staticstar.")


def _load(checkout: str) -> dict:
    """Every module of the ``staticstar`` package under ``checkout/src``, imported afresh."""
    for name in [name for name in sys.modules if _is_package_module(name)]:
        del sys.modules[name]
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("staticstar")
        if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "staticstar"):
            raise SystemExit(f"no staticstar package under {src}")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"staticstar.{info.name}")
    finally:
        sys.path.remove(src)
    return {name: mod for name, mod in sys.modules.items() if _is_package_module(name)}


def _output_bytes(req, result, stdout: str, stderr: str) -> bytes:
    if req.argv is not None:
        # the length of stdout marks where stderr starts
        return f"{result} {len(stdout)}\n{stdout}{stderr}".encode()
    return _library_bytes(result)


def _run_pass(modules: dict, requests) -> tuple[float, list[bytes]]:
    """One pass over ``requests`` on one side: its CPU seconds and every output."""
    sys.modules.update(modules)
    main = modules["staticstar.cli"].main
    cpu, outputs = 0.0, []
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        if req.argv is None:
            result = req.call()
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = main(list(req.argv))
        cpu += time.process_time() - start
        outputs.append(_output_bytes(req, result, out.getvalue(), err.getvalue()))
    return cpu, outputs


def _first_difference(requests, want: list[bytes], got: list[bytes]) -> str | None:
    for req, a, b in zip(requests, want, got):
        if a != b:
            return f"{req.describe()}\n  parent: {a[:300]!r}\n  change: {b[:300]!r}"
    return None


def compare(name: str, sides: tuple[dict, dict], passes: int, seed: int) -> bool:
    """Print one workload's paired CPU ratios; False if an output differs."""
    with tempfile.TemporaryDirectory() as workdir:
        requests = []
        for modules in sides:
            sys.modules.update(modules)
            requests.append(workloads.generate(name, seed, workdir))
        _, want = _run_pass(sides[0], requests[0])
        times: list[list[float]] = [[], []]
        for pair in range(passes + 1):  # pair 0, untimed: the change side's first pass
            order = (1,) if pair == 0 else ((0, 1) if pair % 2 else (1, 0))
            for side in order:
                cpu, got = _run_pass(sides[side], requests[side])
                diff = _first_difference(requests[0], want, got)
                if diff is not None:
                    print(f"{name}: the outputs differ at\n{diff}", file=sys.stderr)
                    return False
                if pair:
                    times[side].append(cpu)
    ratios = sorted(b / a for a, b in zip(*times))
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{name} seed={seed} requests={len(requests[0])} pairs={passes} "
          f"change/parent CPU median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
          f"parent={1e3 * statistics.median(times[0]):.1f} ms "
          f"change={1e3 * statistics.median(times[1]):.1f} ms", flush=True)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout whose src/ holds the reference staticstar")
    ap.add_argument("change", help="checkout whose src/ holds the staticstar under test")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--passes", type=int, default=10, help="timed pairs per workload")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    sides = (_load(args.parent), _load(args.change))
    for name in args.workload or list(workloads.WORKLOADS):
        if not compare(name, sides, args.passes, args.seed):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
