"""Wall times scaled to a reference host speed.

On a shared host the same code runs at different speeds from one
second to the next: a pure-Python loop here alternates between two
speeds about 1.6x apart, switching every few seconds, as neighbours'
load comes and goes.  A run's wall time then depends on how much of it
fell in the slow spells, and that swamps the program's own changes.

A :class:`HostClock` times a fixed probe (no program code; garbage
collection off while it runs) before a block and every ``interval_s``
of wall time during it, from a ``SIGALRM`` handler.  The handler runs
between bytecodes of the main thread, so it interrupts pure-Python
loops anywhere and NumPy calls as they return.  Wall time, probe time
excluded, is split at the probes and each piece is scaled by the
probe's reference time over its time around that piece: the result is
the time the work would take where the probe takes its reference time.

Two probes match the two kinds of work measured: ``python_work`` for
the interpreter-bound simulators, ``numpy_work`` (a transformer layer
on small arrays, written here) for the NumPy model.
:class:`WallClock` has the same interface and keeps plain wall time.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import random
import signal
import statistics
import time
from typing import Any, Callable, Iterator

import numpy as np

perf_counter = time.perf_counter

# Probe spacing: short next to the host's spells, long next to a probe.
INTERVAL_S = 0.2


class _Item:
    __slots__ = ("key", "size", "ident")

    def __init__(self, key: float, size: int, ident: int) -> None:
        self.key = key
        self.size = size
        self.ident = ident


def python_work(n: int = 3000) -> int:
    """Fixed interpreter work: objects, a heap, a dict, a sort, a scan."""
    rng = random.Random(7)
    items = [_Item(rng.random(), rng.randrange(100), i) for i in range(n)]
    heap: list[tuple[float, int]] = []
    by_id = {}
    for it in items:
        heapq.heappush(heap, (it.key, it.ident))
        by_id[it.ident] = it
    total = 0.0
    while heap:
        key, ident = heapq.heappop(heap)
        total += by_id.pop(ident).size * key
    items.sort(key=lambda it: (it.size, it.key))
    pairs = sum(1 for a, b in zip(items, items[1:]) if a.size + b.size <= 100)
    return pairs + int(total)


_D, _HEADS = 128, 8
_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 16, _D))
_W = [_rng.standard_normal((_D, _D)) / np.sqrt(_D) for _ in range(4)]
_W1 = _rng.standard_normal((_D, 4 * _D)) / np.sqrt(_D)
_W2 = _rng.standard_normal((4 * _D, _D)) / np.sqrt(4 * _D)


def _norm(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(-1, keepdims=True)) / (x.std(-1, keepdims=True) + 1e-5)


def numpy_work() -> float:
    """One encoder layer on a 16 x 16 x 128 batch, written here."""
    b, n, _ = _X.shape

    def heads(t: np.ndarray) -> np.ndarray:
        return t.reshape(b, n, _HEADS, _D // _HEADS).transpose(0, 2, 1, 3)

    q, k, v = (heads(_X @ w) for w in _W[:3])
    s = q @ k.transpose(0, 1, 3, 2) / np.sqrt(_D // _HEADS)
    s = np.exp(s - s.max(axis=-1, keepdims=True))
    s /= s.sum(axis=-1, keepdims=True)
    x = _norm(_X + (s @ v).transpose(0, 2, 1, 3).reshape(b, n, _D) @ _W[3])
    return float(_norm(x + np.maximum(x @ _W1, 0.0) @ _W2).sum())


# (work, reference seconds): about the probe's time in the fast spells
# of a 2-vCPU Xeon host; it only sets the scale of the reference seconds.
PYTHON_PROBE = (python_work, 0.005)
NUMPY_PROBE = (numpy_work, 0.0047)


class WallClock:
    """Plain wall time, with :class:`HostClock`'s interface."""

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        return out, wall, wall


class HostClock:
    """Times work in seconds at the reference host speed."""

    def __init__(
        self, probe: tuple[Callable[[], Any], float], interval_s: float = INTERVAL_S
    ) -> None:
        self.work, self.reference_s = probe
        self.interval_s = interval_s
        # Probes of the block under way, the first before it.
        self._probes: list[float] = []
        # (end of the piece before, start of the piece after) per tick.
        self._ticks: list[tuple[float, float]] = []
        self._active = False
        # The first call may set up BLAS or fill caches.
        self.work()
        # Every probe time so far, for the run's report.
        self.history: list[float] = []

    def probe(self) -> float:
        """Seconds one probe takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.work()
            took = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.history.append(took)
        return took

    def _tick(self, signum: int, frame: Any) -> None:
        if not self._active:
            return
        end = perf_counter()
        self._probes.append(self.probe())
        self._ticks.append((end, perf_counter()))

    @contextlib.contextmanager
    def _ticking(self) -> Iterator[None]:
        """Probe before the block and every ``interval_s`` during it."""
        self._probes = [self.probe()]
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        try:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._active = False
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``fn``; returns ``(result, wall_s, reference_s)``.

        ``wall_s`` is the block's wall time without the probes in it.
        Looking back, each piece is scaled by the median of the probes
        on its two sides and one beyond each (before the block, the last
        probe of an earlier block), so one probe hit by an interrupt does
        not skew it, even in a block too short for a tick.
        """
        prior = self.history[-1:]
        with self._ticking():
            start = perf_counter()
            out = fn()
            end = perf_counter()
        # A tick may land between the block's end and the timer's stop.
        ticks = [tick for tick in self._ticks if tick[0] < end]
        probes = prior + self._probes[:len(ticks) + 1] + [self.probe()]
        first = len(prior)
        starts = [start] + [resume for _, resume in ticks]
        ends = [stop for stop, _ in ticks] + [end]
        wall = scaled = 0.0
        for i, (s, e) in enumerate(zip(starts, ends)):
            wall += e - s
            near = probes[max(first + i - 1, 0):first + i + 3]
            scaled += (e - s) * self.reference_s / statistics.median(near)
        return out, wall, scaled
