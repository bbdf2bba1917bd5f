"""Span recorder and the instrumentation a traced round installs.

Every layer is measured from outside the program.  The traced round
wraps the objects a serving loop is handed (scheduler, engines, cost
model, planes, the server's model) by shadowing their public methods on
the instance, and for objects a loop builds itself (``RequestQueue``,
``Snapshot``, the model's layer functions) it swaps the name the calling
module binds, restoring it afterwards.  No file of the program changes.

A span is ``(id, name, start, end, parent_id)``; spans of one traced
round share the recorder's run id.  A layer's self time is its span's
duration minus the part its child spans cover.  Calls of a layer into
the same layer (for example ``GPUCostModel.layout_time`` calling
``batch_time``) fold into the outer span.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

perf_counter = time.perf_counter


class Recorder:
    """Spans, per-layer self times, counters and samples of one round."""

    def __init__(self, run_id: str, *, keep_spans: bool = True) -> None:
        self.run_id = run_id
        self.keep_spans = keep_spans
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        # (child name, parent name) -> calls; parent None for roots.
        self.edges: Counter = Counter()
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.maxima: dict[str, float] = defaultdict(float)
        # Measured model time next to the cost model's prediction.
        self.engine_table: list[dict[str, Any]] = []
        self._stack: list[list[Any]] = []
        self._next = 0

    def _open(self, name: str) -> tuple[list[Any], Any]:
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next, name, 0.0, 0.0]
        self._next += 1
        stack.append(frame)
        frame[3] = perf_counter()
        return frame, parent

    def _close(self, frame: list[Any], parent: Any) -> None:
        t1 = perf_counter()
        self._stack.pop()
        sid, name, child_s, t0 = frame
        dur = t1 - t0
        self.self_s[name] += dur - child_s
        self.total_s[name] += dur
        self.calls[name] += 1
        self.durations[name].append(dur)
        if parent is None:
            pid, pname = -1, None
        else:
            parent[2] += dur
            pid, pname = parent[0], parent[1]
        self.edges[(name, pname)] += 1
        if self.keep_spans:
            self.spans.append((sid, name, t0, t1, pid))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        frame, parent = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, parent)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`call` for a block of code."""
        frame, parent = self._open(name)
        try:
            yield
        finally:
            self._close(frame, parent)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON lines: one header, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": [
                "id", "name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------- #
# Wrapping objects the loops are handed
# ---------------------------------------------------------------------- #


def wrap(
    rec: Recorder,
    obj: Any,
    attr: str,
    name: str,
    after: Callable[[tuple, dict, Any], None] | None = None,
) -> None:
    """Shadow ``obj.attr`` on the instance with a span-recording wrapper.

    ``object.__setattr__`` also reaches frozen dataclasses (the cost
    model); calls the object makes on itself go through the wrapper too.
    """
    fn = getattr(obj, attr)

    if after is None:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return rec.call(name, fn, args, kwargs)
    else:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            out = rec.call(name, fn, args, kwargs)
            after(args, kwargs, out)
            return out

    object.__setattr__(obj, attr, wrapper)


def wrap_all(rec: Recorder, obj: Any, attrs: tuple[str, ...], name: str) -> None:
    for attr in attrs:
        wrap(rec, obj, attr, name)


@contextlib.contextmanager
def swapped(bindings: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Rebind ``module.name`` to a replacement for the block's duration."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in bindings]
    try:
        for mod, name, value in bindings:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


def timed_function(rec: Recorder, fn: Callable, name: str) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return rec.call(name, fn, args, kwargs)

    return wrapper


# ---------------------------------------------------------------------- #
# Layer-specific instrumentation
# ---------------------------------------------------------------------- #

TENANCY_HOOKS = (
    "begin_run", "arrive", "admit", "served", "expired", "rejected",
    "shed", "abandoned", "finalize", "iteration_share",
)
DURABILITY_HOOKS = (
    "begin_run", "tick", "enqueue", "dispatch", "terminal", "served",
    "shed", "hedge", "requeued", "end_run",
)
OVERLOAD_HOOKS = (
    "begin_run", "observe_outcomes", "update", "admit", "cap_batch",
    "scale_budget", "maybe_shed", "breaker_allow", "breaker_retry_at",
    "record_result",
)
HEALTH_HOOKS = (
    "begin_run", "predict", "observe", "drain", "readmit", "drained_until",
    "place", "hedge_deadline", "hedge_target", "note_hedged_latency",
)
COST_MODEL_CALLS = (
    "layout_time", "batch_time", "decode_step_time", "layout_breakdown",
)


def wrap_scheduler(rec: Recorder, scheduler: Any) -> None:
    def after(args: tuple, kwargs: dict, decision: Any) -> None:
        waiting = args[0] if args else kwargs["waiting"]
        rec.sample("scheduling.waiting", len(waiting))
        info = decision.info
        if "num_utility_dominant" in info:
            rec.sample("das.nu", info["num_utility_dominant"])
            rec.sample("das.nd", info["num_deadline_aware"])

    wrap(rec, scheduler, "select", "scheduling.select", after)


def wrap_engine(rec: Recorder, engine: Any) -> None:
    """``serve`` on the engine the loop holds, ``plan`` on the packer.

    A fault-injecting wrapper forwards to ``inner``, whose own ``plan``
    is where packing happens.
    """
    def after_plan(args: tuple, kwargs: dict, out: Any) -> None:
        requests = args[0] if args else kwargs["requests"]
        rec.count("packing.handed", len(requests))
        rec.count("packing.rejected", len(out[1]))

    def after_serve(args: tuple, kwargs: dict, result: Any) -> None:
        stats = result.stats
        rec.count("packing.useful_tokens", stats.useful_tokens)
        rec.count("packing.padded_tokens", stats.padded_tokens)

    wrap(rec, engine, "serve", "engine.serve", after_serve)
    packer = getattr(engine, "inner", engine)
    wrap(rec, packer, "plan", "engine.plan", after_plan)


def wrap_cost_model(rec: Recorder, cost_model: Any) -> None:
    wrap_all(rec, cost_model, COST_MODEL_CALLS, "engine.cost_model")


def wrap_planes(
    rec: Recorder,
    *,
    tenancy: Any = None,
    durability: Any = None,
    overload: Any = None,
    health: Any = None,
) -> None:
    if tenancy is not None:
        wrap(rec, tenancy, "select", "tenancy.select")
        wrap_all(rec, tenancy, TENANCY_HOOKS, "tenancy.hooks")
    if durability is not None:
        wrap_all(rec, durability, DURABILITY_HOOKS, "durability.hooks")
    if overload is not None:
        wrap_all(rec, overload, OVERLOAD_HOOKS, "overload.hooks")
    if health is not None:
        wrap_all(rec, health, HEALTH_HOOKS, "health.hooks")


def traced_queue_class(rec: Recorder, base: type) -> type:
    """A ``RequestQueue`` subclass timing the loop-facing calls.

    The recorder lives in closures, not on the instance, so snapshots
    that deep-copy the queue copy only the queue's own state.
    """
    def add(self: Any, request: Any) -> None:
        return rec.call("queue.add", base.add, (self, request), {})

    def expire(self: Any, now: float) -> list:
        dead = rec.call("queue.expire", base.expire, (self, now), {})
        rec.count("queue.expired", len(dead))
        return dead

    def waiting(self: Any, now: float) -> Any:
        view = rec.call("queue.waiting", base.waiting, (self, now), {})
        rec.peak("queue.depth", len(view))
        return view

    def remove_served(self: Any, requests: Any) -> None:
        return rec.call("queue.remove", base.remove_served, (self, requests), {})

    return type(
        "TracedRequestQueue",
        (base,),
        {"add": add, "expire": expire, "waiting": waiting,
         "remove_served": remove_served},
    )


def traced_snapshot_class(rec: Recorder, base: type) -> type:
    capture = base.capture.__func__

    def traced_capture(cls: type, live: Any, *, seq: int, step: int) -> Any:
        return rec.call(
            "durability.snapshot", capture, (cls, live), {"seq": seq, "step": step}
        )

    return type("TracedSnapshot", (base,), {"capture": classmethod(traced_capture)})


def model_bindings(rec: Recorder) -> list[tuple[Any, str, Any]]:
    """Name swaps timing the NumPy model's layers and counting its work.

    Bytes moved are computed from tensor shapes (operands read plus
    results written), not measured.
    """
    from repro.model import attention as att_mod
    from repro.model import decoder as dec_mod
    from repro.model import encoder as enc_mod
    from repro.model import feedforward as ffn_mod
    from repro.model import seq2seq as s2s_mod

    linear = att_mod.linear

    def traced_linear(x: Any, weight: Any, bias: Any = None) -> Any:
        out = rec.call("model.linear", linear, (x, weight, bias), {})
        n = x.size + weight.size + out.size + (0 if bias is None else bias.size)
        rec.count("model.bytes_moved", n * out.itemsize)
        return out

    mha = att_mod.multi_head_attention
    mha_sig = inspect.signature(mha)

    def traced_mha(*args: Any, **kwargs: Any) -> Any:
        out = rec.call("model.attention", mha, args, kwargs)
        bound = mha_sig.bind(*args, **kwargs).arguments
        heads = bound["num_heads"]
        q = bound["query_input"]
        kv = bound.get("key_value_input")
        kv = q if kv is None else kv
        b, wq, d = q.shape
        wk = kv.shape[1]
        entries = b * wq * wk
        mask = bound.get("mask")
        useful = entries if mask is None else int((mask == 0).sum())
        rec.count("model.attn.computed", heads * entries)
        rec.count("model.attn.useful", heads * useful)
        # q, k, v and the output, plus scores written then read.
        n = b * d * (2 * wq + 2 * wk) + 2 * heads * entries
        rec.count("model.bytes_moved", n * out.itemsize)
        return out

    decode_stack = s2s_mod.decode_stack

    def counted_decode_stack(layers: Any, num_heads: int, x: Any, *args: Any) -> Any:
        rec.count("model.decoder_positions", x.shape[0] * x.shape[1])
        return decode_stack(layers, num_heads, x, *args)

    return [
        (s2s_mod, "encode", timed_function(rec, s2s_mod.encode, "model.encode")),
        (s2s_mod, "decode_stack", counted_decode_stack),
        (s2s_mod, "linear", traced_linear),
        (enc_mod, "encoder_layer",
         timed_function(rec, enc_mod.encoder_layer, "model.encoder_layer")),
        (enc_mod, "encoder_layer_slotted",
         timed_function(rec, enc_mod.encoder_layer_slotted, "model.encoder_layer")),
        (enc_mod, "multi_head_attention", traced_mha),
        (enc_mod, "multi_head_attention_slotted",
         timed_function(rec, enc_mod.multi_head_attention_slotted, "model.attention")),
        (dec_mod, "decoder_layer",
         timed_function(rec, dec_mod.decoder_layer, "model.decoder_layer")),
        (dec_mod, "multi_head_attention", traced_mha),
        (att_mod, "linear", traced_linear),
        (ffn_mod, "linear", traced_linear),
    ]


def serving_bindings(rec: Recorder) -> list[tuple[Any, str, Any]]:
    """Swap the queue class every loop builds and the snapshot class."""
    from repro.core import packing as packing_mod
    from repro.durability import plane as dur_mod
    from repro.scheduling.queue import RequestQueue
    from repro.serving import cluster, continuous, server, simulator

    queue_cls = traced_queue_class(rec, RequestQueue)
    pack_in_order = packing_mod.pack_in_order

    def traced_pack(requests: Any, num_rows: int, row_length: int) -> Any:
        res = rec.call("engine.plan", pack_in_order, (requests, num_rows, row_length), {})
        layout = res.layout
        computed = layout.num_rows * layout.effective_width
        rec.count("packing.handed", len(requests))
        rec.count("packing.rejected", len(res.rejected))
        rec.count("packing.useful_tokens", layout.useful_tokens)
        rec.count("packing.padded_tokens", computed - layout.useful_tokens)
        return res

    return [
        (simulator, "RequestQueue", queue_cls),
        (cluster, "RequestQueue", queue_cls),
        (continuous, "RequestQueue", queue_cls),
        (server, "RequestQueue", queue_cls),
        (server, "pack_in_order", traced_pack),
        (dur_mod, "Snapshot", traced_snapshot_class(rec, dur_mod.Snapshot)),
    ]
