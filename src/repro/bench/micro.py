"""Microbenchmarks: scheduler select, packing, queue churn, cost model.

Every benchmark here times the fast path *and* its reference oracle on
identical inputs, asserting equal observable outputs as it goes — a
benchmark that silently diverged from the oracle would be measuring the
wrong thing.  Timings are best-of-``repeats`` wall clock, the standard
way to suppress scheduler noise on a shared machine.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.bench.oracles import reference_pack_first_fit
from repro.config import BatchConfig, SchedulerConfig
from repro.core.layout import BatchLayout
from repro.core.packing import pack_first_fit
from repro.engine.cost_model import GPUCostModel
from repro.scheduling.das import DASScheduler
from repro.scheduling.queue import RequestQueue, _ReferenceRequestQueue
from repro.bench.workloads import bench_requests
from repro.types import Request

__all__ = [
    "bench_select",
    "bench_pack_first_fit",
    "bench_queue_churn",
    "bench_cost_model",
]


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_select(
    n: int,
    seed: int = 0,
    *,
    repeats: int = 3,
    num_rows: int = 8,
    row_length: int = 64,
) -> dict:
    """DAS select over ``n`` queued requests: fast vs reference oracle."""
    reqs = bench_requests(n, seed, max_length=row_length)
    batch = BatchConfig(num_rows=num_rows, row_length=row_length)
    cfg = SchedulerConfig()
    fast = DASScheduler(batch, cfg)
    ref = DASScheduler(batch, cfg, reference=True)

    fast_rows = [[r.request_id for r in row] for row in fast.select(reqs).rows]
    ref_rows = [[r.request_id for r in row] for row in ref.select(reqs).rows]
    if fast_rows != ref_rows:  # pragma: no cover - equivalence is tested
        raise AssertionError("fast select diverged from reference oracle")

    fast_s = _best_of(lambda: fast.select(reqs), repeats)
    ref_s = _best_of(lambda: ref.select(reqs), repeats)
    return {
        "n": n,
        "fast_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
    }


def _placements(layout: BatchLayout) -> list[list[tuple[int, int]]]:
    return [
        [(seg.request.request_id, seg.start) for seg in row.segments]
        for row in layout.rows
    ]


def bench_pack_first_fit(
    n: int = 400,
    seed: int = 0,
    *,
    repeats: int = 3,
    calls: int = 20,
) -> dict:
    """First-fit packing of ``n`` requests into the paper's 64×100 batch,
    ``calls`` times: integer free-capacity packer vs the
    ``can_fit``-probing oracle.  Lengths up to 40 (mean ~20) make the
    default ``n`` oversubscribe the batch by about a quarter, so late
    requests probe every row."""
    num_rows, row_length = 64, 100
    reqs = bench_requests(n, seed, max_length=40)
    fast = pack_first_fit(reqs, num_rows, row_length)
    ref = reference_pack_first_fit(reqs, num_rows, row_length)
    if _placements(fast.layout) != _placements(ref.layout) or [
        r.request_id for r in fast.rejected
    ] != [r.request_id for r in ref.rejected]:  # pragma: no cover - tested
        raise AssertionError("fast first-fit diverged from reference oracle")

    def run(packer: Callable) -> None:
        for _ in range(calls):
            packer(reqs, num_rows, row_length)

    fast_s = _best_of(lambda: run(pack_first_fit), repeats)
    ref_s = _best_of(lambda: run(reference_pack_first_fit), repeats)
    return {
        "n": n,
        "calls": calls,
        "fast_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
    }


def _churn(queue: RequestQueue, reqs: list[Request]) -> tuple[int, int]:
    """A deterministic mixed-op script: add / delay-poll / expire / take /
    requeue / abandon, shaped like a serving loop under load."""
    now = 0.0
    polls = 0
    for i, r in enumerate(reqs):
        queue.add(r)
        now = r.arrival
        if i % 5 == 0:
            queue.queue_delay(now)
            polls += 1
        if i % 64 == 63:
            queue.expire(now)
        if i % 97 == 96:
            available = queue.waiting(now)
            batch = list(available[:8])
            taken = queue.take(batch)
            # Half go back (a failed dispatch), half are abandoned.
            queue.requeue(taken[::2])
            queue.abandon(taken[1::2])
    queue.expire(now + 60.0)
    return polls, queue.queued_tokens


def bench_queue_churn(n: int = 20000, seed: int = 0, *, repeats: int = 3) -> dict:
    """Indexed ``RequestQueue`` vs the dict+scan reference on one script."""
    reqs = bench_requests(n, seed)

    fast_q = RequestQueue()
    ref_q = _ReferenceRequestQueue()
    _churn(fast_q, reqs)
    _churn(ref_q, reqs)
    if (
        fast_q.queued_tokens != ref_q.queued_tokens
        or fast_q.waiting_ids() != ref_q.waiting_ids()
        or [r.request_id for r in fast_q.expired]
        != [r.request_id for r in ref_q.expired]
    ):  # pragma: no cover - equivalence is tested
        raise AssertionError("fast queue diverged from reference oracle")

    fast_s = _best_of(lambda: _churn(RequestQueue(), reqs), repeats)
    ref_s = _best_of(lambda: _churn(_ReferenceRequestQueue(), reqs), repeats)
    return {
        "ops": n,
        "fast_s": fast_s,
        "reference_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
    }


def _layout_pool(seed: int, shapes: int, num_rows: int, row_length: int) -> list:
    """Distinct layouts reusing a small set of shapes, like a batch sweep."""
    pool: list[BatchLayout] = []
    reqs = bench_requests(shapes * num_rows * 4, seed, max_length=row_length)
    it = iter(reqs)
    for _ in range(shapes):
        layout = BatchLayout(num_rows=num_rows, row_length=row_length)
        for row in layout.rows:
            for r in it:
                if not row.can_fit(r.length):
                    break
                row.add(r)
        pool.append(layout)
    return pool


def bench_cost_model(
    evals: int = 50000,
    seed: int = 0,
    *,
    repeats: int = 3,
    shapes: int = 64,
) -> dict:
    """Memoized ``layout_time`` vs direct recomputation over a shape pool."""
    model = GPUCostModel.calibrated()
    pool = _layout_pool(seed, shapes, num_rows=8, row_length=64)

    for layout in pool:  # equal bits, memo warm or cold
        direct = model._batch_time(*model.layout_work(layout), True)
        if model.layout_time(layout) != direct:  # pragma: no cover
            raise AssertionError("memoized cost diverged from direct compute")

    def memoized() -> None:
        for i in range(evals):
            model.layout_time(pool[i % shapes])

    def direct() -> None:
        for i in range(evals):
            layout = pool[i % shapes]
            tokens, entries, num_slots = model.layout_work(layout)
            model._batch_time(tokens, entries, num_slots, True)

    memo_s = _best_of(memoized, repeats)
    direct_s = _best_of(direct, repeats)
    return {
        "evals": evals,
        "fast_s": memo_s,
        "reference_s": direct_s,
        "speedup": direct_s / memo_s if memo_s > 0 else float("inf"),
    }
