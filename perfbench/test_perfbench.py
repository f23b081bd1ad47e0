"""Tests of the benchmark itself (not part of the package's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They take about two minutes: every workload is run end to end once, and
traced twice in separate processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tov_stars", "catalog_verify", "conformal_build")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _traced_child(workload: str, workdir) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1", "--workdir", str(workdir)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_child(workload, tmp_path / "a")
    second = _traced_child(workload, tmp_path / "b")
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["counts_repeat"] and second["counts_repeat"]
    counts = {name: first["layers"][name] for name in tracing.EXACT_COUNTS}
    assert counts == {name: second["layers"][name] for name in tracing.EXACT_COUNTS}
    names = {m["name"] for m in _spec()["per_layer"]}
    assert names == set(first["layers"])


def test_a_name_the_program_no_longer_has_reports_zero(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from staticstar import tov

    monkeypatch.delattr(tov, "quad")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert not hasattr(tov, "quad")
    assert "tov.quad" in tracer.missing
    values = tracing.layer_values(tracer)
    assert values["tov.quad.calls"] == 0 and values["tov.quad.ms"] == 0


def test_installed_restores_the_original_names():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from staticstar import catalog, cli, tov

    before = (tov.integrate_tov, cli.main, catalog.AnalyticModel.verify,
              cli.ThreadPoolExecutor)
    with tracing.Tracer().installed():
        assert tov.integrate_tov is not before[0]
    assert (tov.integrate_tov, cli.main, catalog.AnalyticModel.verify,
            cli.ThreadPoolExecutor) == before


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("parent", 0, 100, None),
        tracing.Span("child", 10, 50, 0),
        tracing.Span("child", 30, 70, 0),  # a pool worker overlapping the first
        tracing.Span("grandchild", 40, 45, 1),
    ]
    totals = tracer.span_totals()
    assert totals["parent"]["self_ms"] == pytest.approx(40 / 1e6)
    assert totals["child"]["calls"] == 2
    assert totals["child"]["ms"] == pytest.approx(80 / 1e6)
    assert totals["child"]["self_ms"] == pytest.approx(75 / 1e6)


def test_end_to_end_times_are_cpu_time_over_the_host_speed():
    def outcome(cpu_ms):
        return child.Outcome(True, latency_s=1.0, cpu_s=cpu_ms / 1e3, err=None)

    mix = [1.0] * 9 + [10.0]
    slowed = child.Pass([outcome(2 * ms) for ms in mix], speeds=[2.0] * 10)
    calm = child.Pass([outcome(ms) for ms in mix], speeds=[1.0] * 10)
    out = child.summarize([slowed, calm, slowed])
    assert out["latency_p50_ms"] == pytest.approx(1.0)
    assert out["latency_p90_ms"] == pytest.approx(1.9)
    assert out["requests_per_s"] == pytest.approx(10 / 19e-3)
    assert out["wall_latency_p50_ms"] == pytest.approx(1e3)
    assert out["speed"] == 2.0


def test_each_request_is_timed_against_the_nearest_kernel_runs():
    # the host slows fourfold late in the pass
    marks = [(0, 7.5), (5, 7.5), (10, 30.0), (11, 30.0), (12, 30.0)]
    speeds = child._nearest_speeds(13, marks)
    assert speeds[0] == speeds[4] == 1.0
    assert speeds[12] == 4.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tov_stars", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
