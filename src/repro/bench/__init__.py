"""Microbenchmark plane for the fast-path serving core (ISSUE 8).

``python -m repro bench`` runs the suite and emits ``BENCH_8.json`` —
the repo's performance trajectory, one file per PR number, so every
future change has something to compare against.  The suite measures

- scheduler select latency (fast vs ``_reference_*`` oracle) at 1k /
  10k / 50k queued requests, and at 5k on the paper's B=64, L=100 batch,
- first-fit packing (integer free capacity vs the ``can_fit``-probing
  oracle in :mod:`repro.bench.oracles`) on the paper's batch,
- ``RequestQueue`` churn (indexed heaps vs the dict+scan reference),
- cost-model evaluation (memoized vs direct recomputation),
- end-to-end steps/sec per serving loop, fast vs reference internals.

All timings are wall clock (``time.perf_counter``) — this package is
deliberately *outside* the TCB003 sim-time-purity scope; nothing here
feeds a simulation.  All workloads are seeded through :mod:`repro.rng`
(TCB002).  See ``docs/performance.md`` for methodology and how the CI
``bench-smoke`` gate normalizes across machines.
"""

from repro.bench.micro import (
    bench_cost_model,
    bench_pack_first_fit,
    bench_queue_churn,
    bench_select,
)
from repro.bench.report import (
    BENCH_VERSION,
    calibrate,
    check_regression,
    format_bench_table,
    run_bench,
    write_bench,
)
from repro.bench.serving import bench_serving, reference_serving_core
from repro.bench.workloads import bench_requests

__all__ = [
    "BENCH_VERSION",
    "bench_cost_model",
    "bench_pack_first_fit",
    "bench_queue_churn",
    "bench_requests",
    "bench_select",
    "bench_serving",
    "calibrate",
    "check_regression",
    "format_bench_table",
    "reference_serving_core",
    "run_bench",
    "write_bench",
]
