"""Metrics from measured rounds: the end-to-end set, the per-layer set.

``END_TO_END`` and ``PER_LAYER`` are the catalog ``BENCHMARK.json``
declares (a test keeps the two equal).  End-to-end metrics apply to
every workload; each is defined over the workload's loops.  Times in
``setup_s`` and ``tokens_per_s`` are at the reference host speed
(``hostspeed.py``); the run also prints them in plain wall time.

* ``setup_s`` — median over repeats of one round's set-up;
* ``tokens_per_s`` — input tokens pushed through per second,
  geometric mean over the throughput loops (the three simulators on
  ``paper-overload``, the cluster on ``planes-chaos`` with its
  sub-traces pooled, the server's offline drain on ``server-numpy``),
  each loop's median over rounds;
* ``served_share`` — served / sent, every loop; expired, rejected, shed
  and abandoned requests (refused and unfinished on the server) miss;
* ``slo_share`` / ``utility_share`` — share of sent requests (of their
  Σ1/l utility) answered within their limit: the request's deadline on
  the simulated clock, the fixed ``latency_limit_ms`` from the due time
  in the server's online phase;
* ``latency_p50_s`` / ``latency_tail_s`` — pooled latency of answered
  requests (simulated clock; on the server, the online phase's virtual
  clock, in reference seconds, from the due time);
  the tail is the workload's ``tail_percentile``: p99 on
  ``paper-overload``; p90 on ``planes-chaos``, where the batch tenant's
  4x deadline slack puts p95 and above in a sparse tail that swings
  between seeds, and on the server, whose online phase answers ~120
  requests;
* ``output_match`` — share of checked outputs equal to their reference:
  loop ledger digests across repeats of the seed, and sampled server
  responses against a solo ``greedy_decode``.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Any, Iterable

import numpy as np

from harness import LoopRun

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("tokens_per_s", "tokens/s", "higher"),
    ("served_share", "share", "higher"),
    ("slo_share", "share", "higher"),
    ("utility_share", "share", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("output_match", "share", "higher"),
]

PER_LAYER = [
    ("scheduling.select.s", "s", "lower"),
    ("scheduling.select.calls", "count", "lower"),
    ("scheduling.select.p99_ms", "ms", "lower"),
    ("scheduling.waiting.mean", "count", "lower"),
    ("das.nu.mean", "count", "higher"),
    ("das.nd.mean", "count", "higher"),
    ("queue.add.s", "s", "lower"),
    ("queue.expire.s", "s", "lower"),
    ("queue.waiting.s", "s", "lower"),
    ("queue.remove.s", "s", "lower"),
    ("queue.expired.count", "count", "lower"),
    ("queue.depth.max", "count", "lower"),
    ("engine.plan.s", "s", "lower"),
    ("engine.plan.p99_ms", "ms", "lower"),
    ("engine.serve.s", "s", "lower"),
    ("engine.serve.calls", "count", "lower"),
    ("engine.cost_model.s", "s", "lower"),
    ("engine.cost_model.calls", "count", "lower"),
    ("engine.cost_model.fit_err", "share", "lower"),
    ("packing.rejected_share", "share", "lower"),
    ("packing.padding_share", "share", "lower"),
    ("serving.loop_self.s", "s", "lower"),
    ("serving.loop_self.share", "share", "lower"),
    ("server.step.p50_ms", "ms", "lower"),
    ("server.step.p99_ms", "ms", "lower"),
    ("server.batch.requests_mean", "count", "higher"),
    ("server.sender_late.p90_ms", "ms", "lower"),
    ("tenancy.select.s", "s", "lower"),
    ("tenancy.subselects_per_decision", "count", "lower"),
    ("tenancy.hooks.s", "s", "lower"),
    ("durability.snapshot.s", "s", "lower"),
    ("durability.snapshots", "count", "lower"),
    ("durability.hooks.s", "s", "lower"),
    ("durability.journal.records", "count", "lower"),
    ("overload.hooks.s", "s", "lower"),
    ("health.hooks.s", "s", "lower"),
    ("health.hedge_wasted_share", "share", "lower"),
    ("faults.retry_share", "share", "lower"),
    ("model.encode.s", "s", "lower"),
    ("model.decode.s", "s", "lower"),
    ("model.encoder_layer.s", "s", "lower"),
    ("model.decoder_layer.s", "s", "lower"),
    ("model.attention.s", "s", "lower"),
    ("model.linear.s", "s", "lower"),
    ("model.decode.recompute_ratio", "ratio", "lower"),
    ("model.attn.useful_share", "share", "higher"),
    ("model.bytes_moved", "bytes-computed", "lower"),
    ("loop.simulator.rps", "1/s", "higher"),
    ("loop.cluster.rps", "1/s", "higher"),
    ("loop.continuous.rps", "1/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
]

# Span names that time the benchmark itself, not a layer.
BENCH_SPANS = ("bench.",)


def percentile(values: Iterable[float], q: float) -> float:
    vals = list(values)
    return float(np.percentile(vals, q)) if vals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _runs(rounds: list[list[LoopRun]]) -> list[LoopRun]:
    return [run for rnd in rounds for run in rnd]


def loop_rates(
    rounds: list[list[LoopRun]],
    key: str,
    *,
    by_kind: bool = False,
    seconds: str = "wall_s",
) -> dict[str, float]:
    """Median over rounds of ``key`` (``sent`` or ``tokens``) per second.

    Seconds are the runs' ``seconds`` attribute: ``wall_s`` or ``ref_s``.
    Loops are keyed by name; ``by_kind`` pools the sub-traces of one
    kind of loop (``cluster/0``, ``cluster/1``, ...) within each round.
    """
    per_loop: dict[str, list[float]] = defaultdict(list)
    for rnd in rounds:
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for run in rnd:
            name = run.loop.split("/")[0] if by_kind else run.loop
            totals[name][0] += getattr(run, key)
            totals[name][1] += getattr(run, seconds)
        for name, (amount, wall) in totals.items():
            per_loop[name].append(amount / wall)
    return {loop: statistics.median(v) for loop, v in per_loop.items()}


def digest_matches(rounds: list[list[LoopRun]], reference: list[LoopRun]) -> tuple[int, int]:
    """Loop runs whose digest equals the reference round's, of those with one."""
    ref = {run.loop: run.digest for run in reference if run.digest}
    checked = [run for run in _runs(rounds) if run.loop in ref]
    return sum(run.digest == ref[run.loop] for run in checked), len(checked)


def end_to_end(
    params: dict[str, Any],
    setups: list[float],
    rounds: list[list[LoopRun]],
    repeats: list[list[LoopRun]],
    *,
    seconds: str = "ref_s",
) -> dict[str, float]:
    """``repeats`` re-ran loops of ``rounds[0]`` on the same inputs.

    ``setups`` and ``seconds`` pick the clock: reference (``ref_s``) or
    plain wall time (``wall_s``).
    """
    runs = _runs(rounds)
    rates = loop_rates([[r for r in rnd if r.in_throughput] for rnd in rounds], "tokens",
                       by_kind=True, seconds=seconds)
    slo_runs = [r for r in runs if r.in_latency]
    latencies = [x for r in slo_runs for x in r.latencies_s]
    digest_ok, digest_n = digest_matches(repeats, rounds[0])
    token_ok = sum(r.extra.get("token_match", 0) for r in runs)
    token_n = sum(r.extra.get("token_sampled", 0) for r in runs)
    return {
        "setup_s": statistics.median(setups),
        "tokens_per_s": math.exp(statistics.fmean(math.log(v) for v in rates.values())),
        "served_share": _ratio(sum(r.served for r in runs), sum(r.sent for r in runs)),
        "slo_share": _ratio(sum(r.on_time for r in slo_runs), sum(r.sent for r in slo_runs)),
        "utility_share": _ratio(
            sum(r.utility_on_time for r in slo_runs),
            sum(r.utility_sent for r in slo_runs),
        ),
        "latency_p50_s": percentile(latencies, 50),
        "latency_tail_s": percentile(latencies, params["tail_percentile"]),
        "output_match": _ratio(digest_ok + token_ok, digest_n + token_n),
    }


def paper_metrics(
    workload: str,
    params: dict[str, Any],
    rounds: list[list[LoopRun]],
    metrics: dict[str, float],
) -> list[tuple[str, float, str, str, str]]:
    """The workload-specific names the table prints, where they apply.

    Returns ``(name, value, unit, better, source)`` rows.  Most names
    are aliases of an end-to-end metric (``source`` names it) in another
    unit; only the per-loop request rates, the Σ1/l utility and, where
    the workload's tail is not p99, the simulated p99 are computed here
    (``source`` is empty).
    """
    better = {name: b for name, _, b in END_TO_END}
    tail = params["tail_percentile"]
    if workload == "server-numpy":
        aliases = [
            ("server_tokens_per_s", "tokens_per_s", 1.0, "tokens/s"),
            ("server_latency_p50_ms", "latency_p50_s", 1000.0, "ms"),
            (f"server_latency_p{tail}_ms", "latency_tail_s", 1000.0, "ms"),
            ("server_slo_share", "slo_share", 1.0, "share"),
            ("server_token_match", "output_match", 1.0, "share"),
        ]
        computed = []
    else:
        aliases = [
            ("sim_served_share", "served_share", 1.0, "share"),
            ("sim_latency_p50_s", "latency_p50_s", 1.0, "s"),
        ]
        rps = loop_rates(rounds, "sent", by_kind=True)
        computed = [
            (f"{loop}_rps", rps[loop], "1/s", "higher")
            for loop in ("simulator", "cluster", "continuous") if loop in rps
        ]
        # Sim metrics are deterministic per seed: one round's loops suffice.
        first = rounds[0]
        computed.append(
            ("sim_utility", sum(r.utility_on_time for r in first), "utility", "higher"))
        if tail == 99:
            aliases.append(("sim_latency_p99_s", "latency_tail_s", 1.0, "s"))
        else:
            lat = [x for r in first for x in r.latencies_s]
            computed.append(("sim_latency_p99_s", percentile(lat, 99), "s", "lower"))
    return [
        (name, scale * metrics[source], unit, better[source], source)
        for name, source, scale, unit in aliases
    ] + [(name, value, unit, b, "") for name, value, unit, b in computed]


def per_layer(
    reference: list[LoopRun],
    traced: list[tuple[Any, list[LoopRun]]],
) -> dict[str, float]:
    """Per-layer metrics: medians over traced rounds of per-round values."""
    recs = [rec for rec, _ in traced]
    out: dict[str, float] = {}

    def med(fn) -> float:
        return statistics.median(fn(rec) for rec in recs)

    def self_s(name: str) -> float:
        return med(lambda r: r.self_s.get(name, 0.0))

    def calls(name: str) -> float:
        return med(lambda r: r.calls.get(name, 0))

    def pct_ms(name: str, q: float) -> float:
        return med(lambda r: 1000 * percentile(r.durations.get(name, []), q))

    def mean_sample(name: str) -> float:
        return med(lambda r: statistics.fmean(r.samples[name]) if r.samples.get(name) else 0.0)

    def counter_ratio(num: str, den: str) -> float:
        return med(lambda r: _ratio(r.counters.get(num, 0.0), r.counters.get(den, 0.0)))

    out["scheduling.select.s"] = self_s("scheduling.select")
    out["scheduling.select.calls"] = calls("scheduling.select")
    out["scheduling.select.p99_ms"] = pct_ms("scheduling.select", 99)
    out["scheduling.waiting.mean"] = mean_sample("scheduling.waiting")
    out["das.nu.mean"] = mean_sample("das.nu")
    out["das.nd.mean"] = mean_sample("das.nd")
    for op in ("add", "expire", "waiting", "remove"):
        out[f"queue.{op}.s"] = self_s(f"queue.{op}")
    out["queue.expired.count"] = med(lambda r: r.counters.get("queue.expired", 0.0))
    out["queue.depth.max"] = med(lambda r: r.maxima.get("queue.depth", 0.0))
    out["engine.plan.s"] = self_s("engine.plan")
    out["engine.plan.p99_ms"] = pct_ms("engine.plan", 99)
    out["engine.serve.s"] = self_s("engine.serve")
    out["engine.serve.calls"] = calls("engine.serve")
    out["engine.cost_model.s"] = self_s("engine.cost_model")
    out["engine.cost_model.calls"] = calls("engine.cost_model")
    out["engine.cost_model.fit_err"] = med(lambda r: cost_model_fit(r.engine_table)[1])
    out["packing.rejected_share"] = counter_ratio("packing.rejected", "packing.handed")
    out["packing.padding_share"] = med(lambda r: _ratio(
        r.counters.get("packing.padded_tokens", 0.0),
        r.counters.get("packing.padded_tokens", 0.0)
        + r.counters.get("packing.useful_tokens", 0.0),
    ))
    out["serving.loop_self.s"] = self_s("serving.loop")
    out["serving.loop_self.share"] = med(lambda r: _ratio(
        r.self_s.get("serving.loop", 0.0), r.total_s.get("serving.loop", 0.0)))
    out["server.step.p50_ms"] = pct_ms("server.step", 50)
    out["server.step.p99_ms"] = pct_ms("server.step", 99)
    out["server.batch.requests_mean"] = mean_sample("server.batch")
    out["server.sender_late.p90_ms"] = statistics.median(
        1000 * percentile([x for run in runs for x in run.extra.get("sender_late_s", [])], 90)
        for _, runs in traced
    )
    out["tenancy.select.s"] = self_s("tenancy.select")
    out["tenancy.subselects_per_decision"] = med(lambda r: _ratio(
        r.edges.get(("scheduling.select", "tenancy.select"), 0),
        r.calls.get("tenancy.select", 0)))
    out["tenancy.hooks.s"] = self_s("tenancy.hooks")
    out["durability.snapshot.s"] = self_s("durability.snapshot")
    out["durability.snapshots"] = calls("durability.snapshot")
    out["durability.hooks.s"] = self_s("durability.hooks")
    out["durability.journal.records"] = sum(
        run.extra.get("journal_records", 0) for run in reference)
    out["overload.hooks.s"] = self_s("overload.hooks")
    out["health.hooks.s"] = self_s("health.hooks")
    out["health.hedge_wasted_share"] = _ratio(
        sum(run.extra.get("hedge_wasted", 0.0) for run in reference),
        sum(run.extra.get("engine_time", 0.0) for run in reference))
    out["faults.retry_share"] = _ratio(
        sum(run.extra.get("retries", 0) for run in reference),
        sum(run.sent for run in reference if "retries" in run.extra))
    for layer in ("encode", "decode", "encoder_layer", "decoder_layer", "attention", "linear"):
        out[f"model.{layer}.s"] = self_s(f"model.{layer}")
    out["model.decode.recompute_ratio"] = counter_ratio(
        "model.decoder_positions", "model.tokens_emitted")
    out["model.attn.useful_share"] = counter_ratio("model.attn.useful", "model.attn.computed")
    out["model.bytes_moved"] = med(lambda r: r.counters.get("model.bytes_moved", 0.0))
    rps = loop_rates([reference], "sent", by_kind=True)
    for loop in ("simulator", "cluster", "continuous"):
        out[f"loop.{loop}.rps"] = rps.get(loop, 0.0)
    untraced = {run.loop: run.wall_s for run in reference}
    out["trace.overhead_share"] = statistics.median(
        _ratio(sum(run.wall_s for run in runs if run.loop in untraced),
               sum(untraced.values())) - 1.0
        for _, runs in traced
    )
    return out


def cost_model_fit(table: list[dict[str, Any]]) -> tuple[float, float]:
    """Least-squares scale of predicted onto measured, and the error left.

    Returns ``(scale, err)`` where ``err`` is the mean of
    ``|measured - scale * predicted| / measured`` over the table's rows.
    """
    if not table:
        return 0.0, 0.0
    m = np.array([row["measured_s"] for row in table])
    p = np.array([row["predicted_s"] for row in table])
    scale = float(m @ p / (p @ p))
    return scale, float(np.mean(np.abs(m - scale * p) / m))


def top_layers(traced: list[tuple[Any, list[LoopRun]]], k: int = 3) -> list[tuple[str, float]]:
    """Layers by median self time over traced rounds, largest first."""
    names = {n for rec, _ in traced for n in rec.self_s if not n.startswith(BENCH_SPANS)}
    ranked = [
        (n, statistics.median(rec.self_s.get(n, 0.0) for rec, _ in traced)) for n in names
    ]
    ranked.sort(key=lambda x: -x[1])
    return ranked[:k]


def failed_count(runs: list[LoopRun]) -> int:
    """Requests the benchmark could not complete correctly.

    A loop run that fails an output check fails every request it sent;
    otherwise only requests the server refused or left unanswered fail.
    Simulated expiries, rejections, sheds and abandons are outcomes of
    the system under test and are reported separately.
    """
    total = 0
    for run in runs:
        if run.check_failures:
            total += run.sent
        else:
            total += run.failures.get("refused", 0) + run.failures.get("unfinished", 0)
    return total


def describe_run(run: LoopRun) -> str:
    fails = ", ".join(f"{k} {v}" for k, v in run.failures.items())
    return (
        f"{run.loop}: wall {run.wall_s:.3f} s (reference {run.ref_s:.3f} s), sent {run.sent}, "
        f"succeeded {run.served}, failed {run.sent - run.served} ({fails}), "
        f"digest {run.digest or '-'}"
    )

