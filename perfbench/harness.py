"""The three benchmark workloads and the rounds that run them.

A workload builds its inputs from the seed once, untimed, when it is
made.  ``setup`` builds the loop objects of one round (timed as
``setup_s``) and each loop run times only the call into the serving
loop (``LoopRun``); the output checks and digests that follow are
outside every timer.  With ``host_clock`` a workload times set-up and
its loops at the reference host speed (``ref_s``, see ``hostspeed.py``),
with the probe that matches its work, and the server's open loop steps
a virtual clock by those times; otherwise ``ref_s`` is the wall time.

With a :class:`~spans.Recorder` the same round runs traced (on wall
time, so that no probe lands in a span): the loop objects are wrapped,
the names the program's modules bind are swapped for the round's
duration (see ``spans.py``), and the ``serving.loop`` span covers the
same call the wall time does.

Workloads (parameters in ``params.json``):

* ``paper-overload`` — §6.2.1 trace at 1000 req/s through
  ``ServingSimulator``, a 4-engine ``ClusterSimulator`` and
  ``ContinuousBatchingSimulator``, DAS + first-fit ``ConcatEngine``.
* ``planes-chaos`` — 4-engine cluster on ``SlottedDASScheduler`` +
  ``SlottedConcatEngine`` with every plane on, over a few independent
  sub-traces so one seed's outcome rests on more than one chaos history.
* ``server-numpy`` — ``TCBServer`` over the NumPy Seq2Seq: an offline
  backlog drain, then a single-thread open loop at a fixed Poisson rate,
  on a virtual clock that only the server's steps advance.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.cluster_health.hedge import HedgeConfig
from repro.cluster_health.plane import TailToleranceConfig, TailTolerancePlane
from repro.cluster_health.score import HealthConfig
from repro.config import BatchConfig, ModelConfig
from repro.durability.digest import ledger_digest
from repro.durability.plane import DurabilityConfig, DurabilityPlane
from repro.engine.concat import ConcatEngine
from repro.engine.cost_model import GPUCostModel
from repro.engine.slotted import SlottedConcatEngine
from repro.experiments.serving_sweeps import make_workload
from repro.faults.engine import FaultyEngine
from repro.faults.plan import FaultConfig, FaultPlan
from repro.overload import (
    BackpressureError,
    OverloadConfig,
    OverloadController,
    QueueLimits,
    make_shedder,
)
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.serving.cluster import ClusterSimulator
from repro.serving.continuous import ContinuousBatchingSimulator
from repro.serving.server import TCBServer
from repro.serving.simulator import ServingSimulator
from repro.tenancy import TenancyPlane, TenantClass, TenantRegistry
from repro.workload.generator import WorkloadGenerator

import spans
from hostspeed import NUMPY_PROBE, PYTHON_PROBE, HostClock, WallClock

perf_counter = time.perf_counter

# The online phase stops this long (virtual seconds) after its last
# arrival; requests still queued then count as unfinished.
DRAIN_CAP_S = 30.0


@dataclass
class LoopRun:
    """What one loop run offered, served and checked."""

    loop: str
    wall_s: float
    # ``wall_s`` at the reference host speed (see ``hostspeed.py``).
    ref_s: float
    sent: int
    tokens: int
    served: int
    # Why the rest were not served, by terminal class.
    failures: dict[str, int]
    on_time: int
    utility_sent: float
    utility_on_time: float
    latencies_s: list[float]
    # Hash of the loop's deterministic output ("" when it has none).
    digest: str
    # Names of output checks that failed.
    check_failures: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    # Whether the run counts toward throughput / latency metrics.
    in_throughput: bool = True
    in_latency: bool = True


def _hash(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _loop_span(rec: Optional[spans.Recorder]) -> Any:
    """The ``serving.loop`` span of a traced run; nothing when untraced."""
    return contextlib.nullcontext() if rec is None else rec.span("serving.loop")


def _sim_run(
    loop: str,
    run: Callable[[], Any],
    requests: list,
    rec: Optional[spans.Recorder],
    clock: HostClock | WallClock,
    *,
    tenancy: Optional[TenancyPlane] = None,
    durability: Optional[DurabilityPlane] = None,
) -> LoopRun:
    with _loop_span(rec):
        m, wall, ref = clock.time(run)
    checks = []
    try:
        m.assert_conservation()
    except AssertionError:
        checks.append(f"{loop}: conservation")
    if tenancy is not None:
        try:
            tenancy.book.assert_matches(m, deep=True)
        except AssertionError:
            checks.append(f"{loop}: per-tenant sums")
    extra = {
        "retries": m.retries,
        "engine_time": m.total_engine_time,
        "hedge_wasted": m.hedge_wasted,
        "hedges": m.hedges,
        "num_batches": m.num_batches,
    }
    if durability is not None:
        extra["journal_records"] = len(durability.journal.records)
    return LoopRun(
        loop=loop,
        wall_s=wall,
        ref_s=ref,
        sent=m.arrived,
        tokens=sum(r.length for r in requests),
        served=m.num_served,
        failures={
            "expired": m.num_expired,
            "rejected": m.num_rejected - m.shed,
            "shed": m.shed,
            "abandoned": m.num_abandoned,
        },
        on_time=m.num_on_time,
        utility_sent=sum(r.utility for r in requests),
        utility_on_time=m.goodput_utility,
        latencies_s=[f - a for a, f in m.finish_times.values()],
        digest=_hash(ledger_digest(m)),
        check_failures=checks,
        extra=extra,
    )


class Workload:
    """Inputs for one seed plus the loops of a round."""

    name = ""
    probe = PYTHON_PROBE

    def __init__(self, params: dict[str, Any], seed: int, host_clock: bool = False) -> None:
        self.p = params
        self.seed = seed
        # Traced runs keep wall time, so that no probe lands in a span.
        self.clock = HostClock(self.probe) if host_clock else WallClock()
        self.inputs = self.build_inputs()

    def build_inputs(self) -> Any:
        raise NotImplementedError

    def setup(self, rec: Optional[spans.Recorder] = None) -> list[tuple[str, Callable[[], LoopRun]]]:
        """Build one round's loop objects; returns ``(loop, run)`` pairs."""
        raise NotImplementedError

    def timed_setup(self) -> tuple[float, float]:
        """One ``setup``: its wall time and its time at the reference speed."""
        gc.collect()
        _, wall, ref = self.clock.time(self.setup)
        return wall, ref

    def warm_up(self) -> None:
        """Untimed work that lets lazy process-level set-up finish."""

    def run_round(
        self,
        rec: Optional[spans.Recorder] = None,
        loops: Optional[list[str]] = None,
    ) -> list[LoopRun]:
        """Run each loop (or each named one) once.

        Garbage left by earlier runs is collected first, so no run pays
        for another's.
        """
        out = []
        if rec is None:
            for name, run in self.setup():
                if loops is None or name in loops:
                    gc.collect()
                    out.append(run())
            return out
        with spans.swapped(spans.serving_bindings(rec) + spans.model_bindings(rec)):
            for name, run in self.setup(rec):
                if loops is None or name in loops:
                    gc.collect()
                    out.append(run())
        return out


class PaperOverload(Workload):
    name = "paper-overload"

    def build_inputs(self) -> list:
        p = self.p
        return make_workload(
            p["rate"], spread=p["spread"], horizon=p["horizon"], seed=self.seed
        ).generate()

    def setup(self, rec=None):
        p = self.p
        batch = BatchConfig(num_rows=p["num_rows"], row_length=p["row_length"])
        horizon = p["horizon"]
        reqs = self.inputs
        # One cost model per loop, so no loop warms another's memo.
        sim_cm, cl_cm, cont_cm = (GPUCostModel.calibrated() for _ in range(3))
        sim_sched = DASScheduler(batch)
        sim_engine = ConcatEngine(batch, cost_model=sim_cm)
        cl_sched = DASScheduler(batch)
        cl_engines = [
            ConcatEngine(batch, cost_model=cl_cm) for _ in range(p["engines"])
        ]
        if rec is not None:
            for cm in (sim_cm, cl_cm, cont_cm):
                spans.wrap_cost_model(rec, cm)
            for s in (sim_sched, cl_sched):
                spans.wrap_scheduler(rec, s)
            for e in [sim_engine, *cl_engines]:
                spans.wrap_engine(rec, e)
        sim = ServingSimulator(sim_sched, sim_engine)
        cluster = ClusterSimulator(cl_sched, cl_engines)
        cont = ContinuousBatchingSimulator(
            batch, cost_model=cont_cm, admission=p["continuous_admission"],
            seed=self.seed,
        )
        clock = self.clock
        return [
            ("simulator", lambda: _sim_run(
                "simulator", lambda: sim.run(reqs, horizon=horizon).metrics, reqs,
                rec, clock)),
            ("cluster", lambda: _sim_run(
                "cluster", lambda: cluster.run(reqs, horizon=horizon).metrics, reqs,
                rec, clock)),
            ("continuous", lambda: _sim_run(
                "continuous", lambda: cont.run(reqs, horizon=horizon), reqs, rec, clock)),
        ]


class PlanesChaos(Workload):
    name = "planes-chaos"

    def _registry(self) -> TenantRegistry:
        p = self.p
        return TenantRegistry({
            "premium": "premium",
            "standard": "standard",
            "batch": TenantClass(
                name="batch",
                weight=0.25,
                deadline_slack=4.0,
                rate=p["batch_quota_tokens_per_s"],
                burst=p["batch_burst_tokens"],
            ),
        })

    def build_inputs(self) -> list[list]:
        """One request trace per sub-trace, each drawn from the seed."""
        p = self.p
        traces = []
        for j in range(p["sub_traces"]):
            base = make_workload(
                p["rate"], spread=p["spread"], horizon=p["horizon"],
                seed=self.seed * 1000 + j,
            )
            traces.append(WorkloadGenerator(**{
                **base.__dict__,
                "tenant_mix": tuple((t, w) for t, w in p["tenant_mix"]),
                "registry": self._registry(),
            }).generate())
        return traces

    def setup(self, rec=None):
        return [
            (f"cluster/{j}", self._cluster(j, reqs, rec))
            for j, reqs in enumerate(self.inputs)
        ]

    def _cluster(self, slot: int, reqs: list, rec) -> Callable[[], LoopRun]:
        """The cluster with every plane on for sub-trace ``slot``.

        Fault schedules and plane seeds are fixed per slot, so the seed
        picks the request traces and the chaos they meet stays the same.
        """
        p = self.p
        batch = BatchConfig(num_rows=p["num_rows"], row_length=p["row_length"])
        horizon = p["horizon"]
        cm = GPUCostModel.calibrated()
        gray = p["gray_replica"]
        engines = []
        for i in range(p["engines"]):
            if i == 0:
                cfg = FaultConfig(
                    straggler_rate=gray["straggler_rate"],
                    straggler_multiplier=tuple(gray["straggler_multiplier"]),
                )
            else:
                cfg = FaultConfig(**p["faults"])
            engines.append(FaultyEngine(
                SlottedConcatEngine(batch, cost_model=cm),
                FaultPlan(cfg, seed=slot * 10 + i),
            ))
        scheduler = SlottedDASScheduler(batch)
        overload = OverloadController(OverloadConfig(
            limits=QueueLimits(max_requests=p["max_queued_requests"]),
            shedding=make_shedder("tenant-weighted"),
        ))
        health = TailTolerancePlane(TailToleranceConfig(
            health=HealthConfig(),
            hedge=HedgeConfig(only_suspect=False, multiplier=p["hedge_multiplier"]),
            seed=slot,
        ))
        tenancy = TenancyPlane(self._registry(), seed=slot)
        durability = DurabilityPlane(
            DurabilityConfig(checkpoint_every=p["checkpoint_every"])
        )
        if rec is not None:
            spans.wrap_cost_model(rec, cm)
            spans.wrap_scheduler(rec, scheduler)
            for e in engines:
                spans.wrap_engine(rec, e)
            spans.wrap_planes(
                rec, tenancy=tenancy, durability=durability,
                overload=overload, health=health,
            )
        cluster = ClusterSimulator(
            scheduler, engines, overload=overload, durability=durability,
            health=health, tenancy=tenancy,
        )
        return lambda: _sim_run(
            f"cluster/{slot}", lambda: cluster.run(reqs, horizon=horizon).metrics,
            reqs, rec, self.clock, tenancy=tenancy, durability=durability,
        )


@dataclass
class ServerInputs:
    backlog: list[list[int]]
    # (due seconds after the phase starts, tokens), sorted by due time.
    online: list[tuple[float, list[int]]]


class ServerNumpy(Workload):
    name = "server-numpy"
    probe = NUMPY_PROBE

    def _model_config(self) -> ModelConfig:
        p = self.p
        return ModelConfig(
            vocab_size=p["vocab_size"],
            d_model=p["d_model"],
            num_heads=p["num_heads"],
            num_encoder_layers=p["num_layers"],
            num_decoder_layers=p["num_layers"],
            max_len=p["row_length"],
        )

    def build_inputs(self) -> ServerInputs:
        """Token ids come from the seed; the traffic's shape does not.

        A run sends a few hundred requests, too few for percentiles to
        settle when each seed also drew its own lengths and arrival
        times: between seeds the online p90 moved by a quarter.  So the
        shape is fixed: lengths and inter-arrival gaps are their
        distributions' quantiles at evenly spaced levels, in an order
        drawn from ``shape_seed``.
        """
        p = self.p
        tokens_rng = np.random.default_rng(self.seed)
        shape_rng = np.random.default_rng(p["shape_seed"])
        normal = statistics.NormalDist(p["length_mean"], p["length_spread"])

        def levels(n: int) -> list[float]:
            return [(i + 0.5) / n for i in range(n)]

        def sentences(n: int) -> list[list[int]]:
            lengths = [
                min(max(round(normal.inv_cdf(u)), p["length_low"]), p["row_length"])
                for u in levels(n)
            ]
            return [
                tokens_rng.integers(4, p["vocab_size"], size=lengths[i]).tolist()
                for i in shape_rng.permutation(n)
            ]

        backlog = sentences(p["offline_backlog"])
        n = round(p["online_rate"] * p["online_seconds"])
        gaps = [-math.log(1.0 - u) / p["online_rate"] for u in levels(n)]
        dues = np.cumsum(np.array(gaps)[shape_rng.permutation(n)]).tolist()
        online = list(zip(dues, sentences(n)))
        return ServerInputs(backlog=backlog, online=online)

    def _server(self, rec: Optional[spans.Recorder]) -> TCBServer:
        p = self.p
        batch = BatchConfig(num_rows=p["num_rows"], row_length=p["row_length"])
        scheduler = DASScheduler(batch)
        server = TCBServer(
            self._model_config(), batch, scheduler,
            seed=0, max_new_tokens=p["max_new_tokens"],
        )
        if rec is not None:
            spans.wrap_scheduler(rec, scheduler)
            spans.wrap(rec, server, "step", "server.step",
                       lambda a, k, out: out and rec.sample("server.batch", len(out)))
            spans.wrap(rec, server, "submit", "server.submit")
            self._wrap_model(rec, server.model)
        return server

    def _wrap_model(self, rec: spans.Recorder, model: Any) -> None:
        """Time ``greedy_decode`` and build the engine table from it."""
        cost_model = GPUCostModel.calibrated()
        decode = model.greedy_decode

        def traced_decode(layout: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            out = rec.call("model.decode", decode, (layout, *args), kwargs)
            measured = perf_counter() - t0
            with rec.span("bench.engine_table"):
                rec.count("model.tokens_emitted",
                          sum(len(v) for v in out.outputs.values()))
                rec.engine_table.append({
                    "requests": layout.num_requests,
                    "useful_tokens": layout.useful_tokens,
                    "rows": layout.num_rows,
                    "width": layout.effective_width,
                    "measured_s": measured,
                    "predicted_s": cost_model.layout_time(layout),
                })
            return out

        model.greedy_decode = traced_decode

    def warm_up(self) -> None:
        """One full-width step on a throwaway server: the first model
        calls of a process set up BLAS and grow its buffers."""
        server = self._server(None)
        for tokens in self.inputs.backlog[: self.p["num_rows"]]:
            server.submit(tokens)
        server.step()

    def setup(self, rec=None):
        offline = self._server(rec)
        online = self._server(rec)
        return [
            ("server-offline", lambda: self._offline(offline, rec)),
            ("server-online", lambda: self._online(online, rec)),
        ]

    # ------------------------------------------------------------------ #

    def _token_check(self, server: TCBServer, submitted: dict, responses: dict) -> tuple[int, int]:
        """Sampled responses vs a solo ``greedy_decode`` of the same tokens."""
        rng = np.random.default_rng(self.seed)
        rids = sorted(responses)
        k = min(self.p["token_samples"], len(rids))
        picks = rng.choice(len(rids), size=k, replace=False) if k else []
        match = 0
        for i in picks:
            rid = rids[int(i)]
            solo = server.model.greedy_decode_single(
                submitted[rid], self.p["max_new_tokens"]
            )
            match += solo == responses[rid]
        return match, k

    def _run_result(
        self,
        loop: str,
        server: TCBServer,
        wall: float,
        ref: float,
        submitted: dict[int, list[int]],
        responses: dict[int, list[int]],
        rec: Optional[spans.Recorder],
        *,
        online: bool,
        refused: int = 0,
        latencies: Optional[list[float]] = None,
        on_time: int = 0,
        utility_on_time: float = 0.0,
        digest: str = "",
        extra: dict[str, Any],
    ) -> LoopRun:
        checks = []
        if rec is None:
            match, sampled = self._token_check(server, submitted, responses)
            extra.update(token_match=match, token_sampled=sampled)
            if match != sampled:
                checks.append(f"{loop}: token match {match}/{sampled}")
        return LoopRun(
            loop=loop,
            wall_s=wall,
            ref_s=ref,
            sent=len(submitted) + refused,
            tokens=sum(len(t) for t in submitted.values()),
            served=len(responses),
            failures={
                "refused": refused,
                "unfinished": len(submitted) - len(responses),
            },
            on_time=on_time,
            utility_sent=sum(1.0 / len(t) for t in submitted.values()),
            utility_on_time=utility_on_time,
            latencies_s=latencies or [],
            digest=digest,
            check_failures=checks,
            extra=extra,
            in_throughput=not online,
            in_latency=online,
        )

    def _offline(self, server: TCBServer, rec: Optional[spans.Recorder]) -> LoopRun:
        backlog = self.inputs.backlog

        def drain() -> tuple[list[int], list]:
            ids = [server.submit(tokens) for tokens in backlog]
            return ids, server.run_until_drained(max_steps=10 * len(backlog) + 10)

        with _loop_span(rec):
            (ids, out), wall, ref = self.clock.time(drain)
        responses = {r.request_id: r.output_tokens for r in out}
        return self._run_result(
            "server-offline", server, wall, ref, dict(zip(ids, backlog)),
            responses, rec, online=False,
            digest=_hash([responses.get(i) for i in ids]),
            extra={"steps": server.metrics.num_batches},
        )

    def _online(self, server: TCBServer, rec: Optional[spans.Recorder]) -> LoopRun:
        """Single-thread open loop on a virtual clock; latency counts
        from each due time.

        Requests are due at their arrival times whatever the server
        does.  As a real single-thread loop would, it submits every
        request already due, runs one ``step`` and repeats; when nothing
        is pending it skips to the next due time instead of sleeping.
        The virtual clock advances by each step's time on the workload's
        clock, so with a host clock a slow spell of the host neither
        lengthens latencies nor thins the load below ``online_rate``.
        Sender lateness is how long a due request waited for the loop.
        """
        arrivals = self.inputs.online
        limit = self.p["latency_limit_ms"] / 1000.0
        cap = (arrivals[-1][0] if arrivals else 0.0) + DRAIN_CAP_S
        submitted: dict[int, list[int]] = {}
        due_of: dict[int, float] = {}
        responses: dict[int, list[int]] = {}
        latencies: list[float] = []
        late: list[float] = []
        refused = on_time = 0
        utility_on_time = 0.0
        # Virtual seconds since the phase began; seconds spent in steps.
        now = wall = ref = 0.0
        i, n = 0, len(arrivals)
        with _loop_span(rec):
            while True:
                while i < n and arrivals[i][0] <= now:
                    due, tokens = arrivals[i]
                    i += 1
                    try:
                        rid = server.submit(tokens)
                    except BackpressureError:
                        refused += 1
                        continue
                    late.append(now - due)
                    submitted[rid] = tokens
                    due_of[rid] = due
                if now > cap:
                    break
                if server.pending:
                    out, step_wall, step_s = self.clock.time(server.step)
                    wall += step_wall
                    ref += step_s
                    now += step_s
                    for resp in out:
                        lat = now - due_of[resp.request_id]
                        latencies.append(lat)
                        responses[resp.request_id] = resp.output_tokens
                        if lat <= limit:
                            on_time += 1
                            utility_on_time += 1.0 / len(submitted[resp.request_id])
                elif i < n:
                    now = arrivals[i][0]
                else:
                    break
        return self._run_result(
            "server-online", server, wall, ref, submitted, responses, rec,
            online=True, refused=refused, latencies=latencies, on_time=on_time,
            utility_on_time=utility_on_time,
            extra={"sender_late_s": late, "steps": server.metrics.num_batches},
        )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperOverload, PlanesChaos, ServerNumpy)
}
