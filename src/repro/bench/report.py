"""Assemble, render and gate ``BENCH_<n>.json``.

The JSON layout (see ``docs/performance.md``)::

    {
      "version": 8, "quick": false,
      "calibration_s": 0.041,              # fixed-work probe, see below
      "select": {"1000": {...}, "10000": {...}, "50000": {...}},
      "select_paper": {...},               # B=64, L=100, n=5000
      "pack_first_fit": {...},             # B=64, L=100, ~400 requests
      "queue_churn": {...}, "cost_model": {...},
      "serving": {"simulator": {...}, "cluster": {...}, "continuous": {...}}
    }

Each leaf carries ``fast_s`` / ``reference_s`` / ``speedup``; serving
leaves add ``steps`` and ``steps_per_s``.

**Cross-machine gating.**  Raw steps/sec is machine-dependent, so the
CI gate does not compare it directly.  ``calibrate()`` times a fixed
pure-Python workload; work per calibration-unit
(``steps_per_s × calibration_s``) cancels single-core machine speed to
first order, and *that* ratio is what ``check_regression`` holds to the
±threshold band against the committed baseline.
"""

from __future__ import annotations

import json
import time

from repro.bench.micro import (
    bench_cost_model,
    bench_pack_first_fit,
    bench_queue_churn,
    bench_select,
)
from repro.bench.serving import bench_serving

__all__ = [
    "BENCH_VERSION",
    "calibrate",
    "run_bench",
    "check_regression",
    "format_bench_table",
    "write_bench",
]

BENCH_VERSION = 8

_SELECT_SIZES = (1000, 10000, 50000)
_SELECT_SIZES_QUICK = (1000, 10000)


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python probe (machine-speed proxy)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i ^ (i >> 3)
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(*, quick: bool = False, seed: int = 0) -> dict:
    """Run the full microbenchmark suite; returns the BENCH dict."""
    sizes = _SELECT_SIZES_QUICK if quick else _SELECT_SIZES
    repeats = 2 if quick else 3
    out: dict = {
        "version": BENCH_VERSION,
        "quick": quick,
        "calibration_s": calibrate(),
        "select": {
            str(n): bench_select(n, seed, repeats=repeats) for n in sizes
        },
        # The paper's batch geometry, where DAS's EDF walk and
        # first-fit packing are the serving loops' hot spots.
        "select_paper": bench_select(
            5000, seed, repeats=repeats, num_rows=64, row_length=100
        ),
        "pack_first_fit": bench_pack_first_fit(seed=seed, repeats=repeats),
        "queue_churn": bench_queue_churn(
            5000 if quick else 20000, seed, repeats=repeats
        ),
        "cost_model": bench_cost_model(
            10000 if quick else 50000, seed, repeats=repeats
        ),
        "serving": bench_serving(
            horizon=6.0 if quick else 8.0,
            rate=120.0 if quick else 120.0,
            seed=seed,
            # Serving runs are milliseconds; generous best-of repeats
            # keep the CI regression gate out of scheduler-noise range.
            repeats=7 if quick else 3,
        ),
    }
    return out


def check_regression(
    current: dict, baseline: dict, *, threshold: float = 0.10
) -> list[str]:
    """Machine-normalized serving regressions beyond ``threshold``.

    Compares steps per *calibration unit* (steps/sec × probe seconds)
    per loop; returns a list of human-readable failures (empty = pass).
    """
    failures: list[str] = []
    cal_now = current.get("calibration_s")
    cal_base = baseline.get("calibration_s")
    if not cal_now or not cal_base:
        return ["baseline or current report lacks calibration_s"]
    for loop, entry in baseline.get("serving", {}).items():
        cur = current.get("serving", {}).get(loop)
        if cur is None:
            failures.append(f"serving loop {loop!r} missing from current run")
            continue
        base_norm = entry["steps_per_s"] * cal_base
        cur_norm = cur["steps_per_s"] * cal_now
        if base_norm <= 0:
            continue
        drop = 1.0 - cur_norm / base_norm
        if drop > threshold:
            failures.append(
                f"serving[{loop}] steps/cal regressed {drop:.1%} "
                f"({base_norm:.1f} -> {cur_norm:.1f}, threshold {threshold:.0%})"
            )
    return failures


def format_bench_table(report: dict) -> str:
    """Terminal summary of a BENCH dict."""
    lines = [
        f"BENCH v{report['version']}"
        + (" (quick)" if report.get("quick") else "")
        + f"  calibration={report['calibration_s'] * 1e3:.1f} ms"
    ]
    lines.append("scheduler select (fast vs reference):")
    for n, e in report["select"].items():
        lines.append(
            f"  n={int(n):>6d}  fast={e['fast_s'] * 1e3:8.2f} ms  "
            f"ref={e['reference_s'] * 1e3:8.2f} ms  {e['speedup']:5.1f}x"
        )
    sp = report.get("select_paper")
    if sp is not None:
        lines.append(
            f"  n={sp['n']:>6d}  fast={sp['fast_s'] * 1e3:8.2f} ms  "
            f"ref={sp['reference_s'] * 1e3:8.2f} ms  {sp['speedup']:5.1f}x"
            "  (B=64, L=100)"
        )
    pk = report.get("pack_first_fit")
    if pk is not None:
        lines.append(
            f"first-fit packing ({pk['calls']} x {pk['n']} requests, B=64, L=100): "
            f"fast={pk['fast_s'] * 1e3:.1f} ms  "
            f"ref={pk['reference_s'] * 1e3:.1f} ms  {pk['speedup']:.1f}x"
        )
    qc = report["queue_churn"]
    lines.append(
        f"queue churn ({qc['ops']} ops): fast={qc['fast_s'] * 1e3:.1f} ms  "
        f"ref={qc['reference_s'] * 1e3:.1f} ms  {qc['speedup']:.1f}x"
    )
    cm = report["cost_model"]
    lines.append(
        f"cost model ({cm['evals']} evals): fast={cm['fast_s'] * 1e3:.1f} ms  "
        f"ref={cm['reference_s'] * 1e3:.1f} ms  {cm['speedup']:.1f}x"
    )
    lines.append("serving loops (steps/sec, fast core vs reference core):")
    for loop, e in report["serving"].items():
        lines.append(
            f"  {loop:<11s} {e['steps']:>5d} steps  "
            f"{e['steps_per_s']:9.1f}/s  {e['speedup']:4.2f}x vs reference"
        )
    return "\n".join(lines)


def write_bench(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
