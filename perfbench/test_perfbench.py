"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench -q``).

Every workload runs in tiny mode in a few seconds, prints every metric
``BENCHMARK.json`` names with its unit, and the traced round's wrapping
leaves every ledger digest unchanged.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402

WORKLOADS = tuple(harness.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _params(workload: str) -> dict:
    data = json.loads((ROOT / "perfbench" / "params.json").read_text())
    return {**data["workloads"][workload], **data["tiny"][workload]}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_catalog_matches_benchmark_json():
    declared = {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
    }
    assert declared["end_to_end"] == summary.END_TO_END
    assert declared["per_layer"] == summary.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalog = summary.PER_LAYER if trace else summary.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in catalog]
    for name, unit, better in catalog:
        assert result["metrics"][name]["unit"] == unit
        assert f"{name} = " in proc.stdout and f"{unit} ({better} is better)" in proc.stdout
    if not trace:
        for name, _, _ in summary.END_TO_END:
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrapping_leaves_digests_unchanged(workload):
    w = harness.WORKLOADS[workload](_params(workload), 5)
    w.timed_setup()
    plain = w.run_round()
    rec = spans.Recorder("test")
    traced = w.run_round(rec)
    digests = [(r.loop, r.digest) for r in plain]
    assert digests == [(r.loop, r.digest) for r in traced]
    assert any(d for _, d in digests)
    assert rec.calls["scheduling.select"] > 0
    # The loop span covers the timed loop call, not the checks after it.
    assert rec.calls["serving.loop"] == len(traced)
    assert rec.total_s["serving.loop"] == pytest.approx(
        sum(r.wall_s for r in traced), rel=0.05)
    # The swapped names are restored once the traced round ends.
    from repro.scheduling.queue import RequestQueue
    from repro.serving import simulator

    assert simulator.RequestQueue is RequestQueue


def test_host_clock_scales_wall_time_by_probe(monkeypatch):
    clock = hostspeed.HostClock((lambda: None, 0.002), interval_s=0.01)
    probes = iter([0.004, 0.004, 0.008] + [0.004] * 1000)
    monkeypatch.setattr(clock, "probe", lambda: next(probes))
    handler = signal.getsignal(signal.SIGALRM)

    def busy() -> str:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        return "done"

    out, wall, ref = clock.time(busy)
    assert out == "done" and wall == pytest.approx(0.1, rel=0.2)
    # Half speed throughout: one slow probe among its neighbours is voted down.
    assert len(clock._ticks) >= 5
    assert ref == pytest.approx(wall / 2, rel=1e-9)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_self_time_excludes_children():
    rec = spans.Recorder("t")
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10000))
    (i_id, i_name, i0, i1, i_parent), (o_id, o_name, o0, o1, o_parent) = rec.spans
    assert (i_name, o_name) == ("inner", "outer") and i_parent == o_id and o_parent == -1
    assert rec.self_s["outer"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert rec.edges[("inner", "outer")] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "paper-overload", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
