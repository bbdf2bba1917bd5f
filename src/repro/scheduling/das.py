"""DAS — the Online Deadline-Aware Scheduling algorithm (Algorithm 1).

For each batch row the algorithm:

1. If everything still waiting fits in the row, takes it all (line 4–5).
2. Otherwise sorts the candidates by utility ``v_n = 1/l_n``
   non-increasingly into ``Ñ_t`` (line 7), finds the saturating prefix
   size ``s_tk`` (line 8), and takes the first ``p_tk = η·s_tk`` as the
   *utility-dominant set* ``N^U_t`` (lines 9–10).
3. Builds the *deadline-aware set* ``N^D_t`` — remaining candidates with
   utility ≥ ``q · v̄(N^U_t)`` — and adds them earliest-deadline-first
   while they fit (lines 11–12).
4. Back-fills any remaining capacity greedily from the rest (lines
   13–15).

Theorem 5.1: the algorithm is ``ηq/(ηq+1)``-competitive; with the paper's
``η = q = ½`` that is ⅕.  ``tests/test_theory.py`` checks the bound
against exact offline optima on random instances.

Fast path (``docs/performance.md``): the line-7 sort is a *total* order
(utility with a request-id tie-break), and removing a row's chosen
requests preserves that order — so re-sorting ``remaining`` on every
row, as the original implementation did, is provably the identity after
the first row.  :meth:`DASScheduler.select` therefore sorts **once** per
decision (or reuses the queue's maintained ``by_utility`` view, skipping
even that), keeps a running token total instead of re-summing the queue
per row, and finds the ``N^D_t`` threshold cut by binary search (the
candidates are utility-sorted, so the cut is a prefix).

Line 12's EDF order is built once per decision too.  Within one
decision ``q·v̄`` never increases from row to row: row k's ``N^U`` is the
live prefix of the utility order and is always chosen whole, so every
later candidate has utility ≤ min(N^U_k) ≤ v̄_k, hence v̄_{k+1} ≤ v̄_k
(``docs/THEORY.md``).  The threshold cut therefore only moves right,
and a candidate past it stays past it: the select keeps one
``(deadline, id)``-sorted list of the candidates ever past the cut,
merges in the few a falling threshold admits, and each row walks it,
taking the live entries past this row's threshold that fit.  (In
floating point the mean of equal utilities can exceed its predecessor
by an ulp, so the walk still tests the threshold on every entry.)  The
back-fill scan stops at the first position after which no candidate is
short enough to fit the spare capacity.  At the paper's B=64, L=100
with 5000 waiting (``python -m repro bench``), this cut a select from
41 ms to 9 ms on a 2-vCPU Xeon; the re-sorting oracle takes ~290 ms.

The original implementations are kept verbatim as
``_reference_das_row_parts`` / ``DASScheduler._reference_select`` — the
oracles that ``tests/test_das_fastpath.py`` and the differential
equivalence harness compare against, bit for bit.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right, insort
from itertools import accumulate
from operator import itemgetter
from typing import Optional, Sequence

from repro.config import BatchConfig, SchedulerConfig
from repro.scheduling.base import Scheduler, SchedulingDecision
from repro.types import Request

__all__ = ["DASScheduler", "das_row_parts"]


def _reference_das_row_parts(
    candidates: Sequence[Request],
    row_length: int,
    eta: float,
    q: float,
) -> tuple[list[Request], list[Request], list[Request]]:
    """The original O(n)-loop row split, kept as a differential oracle.

    :func:`das_row_parts` must return bit-identical output on every
    contract-satisfying input (candidates sorted by utility
    non-increasingly); ``tests/test_das_fastpath.py`` enforces it on
    adversarial and randomized inputs.
    """
    # Line 8: s_tk = saturating prefix size.
    s = 0
    acc = 0
    for r in candidates:
        if acc + r.length > row_length:
            break
        acc += r.length
        s += 1
    if s == 0:
        # Even the highest-utility request alone does not fit (it is
        # longer than L) — skip utility-dominant selection entirely.
        return [], [], list(candidates)

    # Line 9: p_tk = η · s_tk (at least one task so v̄ is defined).
    p = max(1, math.floor(eta * s))
    utility_dominant = list(candidates[:p])

    v_bar = sum(r.utility for r in utility_dominant) / len(utility_dominant)
    threshold = q * v_bar

    deadline_aware: list[Request] = []
    rest: list[Request] = []
    for r in candidates[p:]:
        (deadline_aware if r.utility >= threshold else rest).append(r)
    # Line 12: deadline-aware set is consumed earliest-deadline-first.
    deadline_aware.sort(key=lambda r: (r.deadline, r.request_id))
    return utility_dominant, deadline_aware, rest


def das_row_parts(
    candidates: Sequence[Request],
    row_length: int,
    eta: float,
    q: float,
) -> tuple[list[Request], list[Request], list[Request]]:
    """Split sorted-by-utility candidates into (N^U, N^D, rest) for one row.

    ``candidates`` must already be sorted by utility non-increasingly.
    Exposed separately because Algorithm 2 needs the utility-dominant set
    to derive its slot size, and because the theory tests exercise it
    directly.

    Fast path: the saturating prefix ``s_tk`` (line 8) comes from a
    binary search over the length prefix sums (they are strictly
    increasing, lengths being ≥ 1), and the ``N^D`` threshold split is
    a second binary search — the candidates are utility-sorted, so
    ``utility ≥ q·v̄`` holds for exactly a prefix of ``candidates[p:]``.
    Bit-identical to :func:`_reference_das_row_parts` (tested).
    """
    # Line 8: s_tk = saturating prefix size, by binary search on the
    # strictly-increasing prefix sums.
    prefix = list(accumulate(r.length for r in candidates))
    s = bisect_right(prefix, row_length)
    if s == 0:
        # Even the highest-utility request alone does not fit (it is
        # longer than L) — skip utility-dominant selection entirely.
        return [], [], list(candidates)

    # Line 9: p_tk = η · s_tk (at least one task so v̄ is defined).
    p = max(1, math.floor(eta * s))
    utility_dominant = list(candidates[:p])

    v_bar = sum(r.utility for r in utility_dominant) / len(utility_dominant)
    threshold = q * v_bar

    # u ≥ threshold  ⇔  -u ≤ -threshold, and the negated utilities are
    # non-decreasing under the sort contract — so N^D is the slice up
    # to the bisect cut (ties included, exactly like the >= loop).
    neg_utilities = [-r.utility for r in candidates]
    cut = bisect_right(neg_utilities, -threshold, p)
    # Line 12: deadline-aware set is consumed earliest-deadline-first.
    deadline_aware = sorted(
        candidates[p:cut], key=lambda r: (r.deadline, r.request_id)
    )
    rest = list(candidates[cut:])
    return utility_dominant, deadline_aware, rest


# Tuple layout of the fast path's candidate entries: sorting compares
# (-utility, request_id) — a total order, the id tie-break means later
# elements are never reached — while the row loops index lengths,
# deadlines and the request itself without attribute lookups.
_NEG_UTILITY, _RID, _LENGTH, _DEADLINE, _REQ = range(5)
_key_neg_utility = itemgetter(_NEG_UTILITY)
_key_edf = itemgetter(_DEADLINE, _RID)


def _suffix_min_lengths(cand: list[tuple]) -> list[int]:
    """``out[j]`` = the shortest length in ``cand[j:]``."""
    out = list(accumulate(map(itemgetter(_LENGTH), reversed(cand)), min))
    out.reverse()
    return out


class DASScheduler(Scheduler):
    """Algorithm 1.  ``record_parts=True`` keeps per-row (N^U, N^D) for
    Algorithm 2 and for the theory tests.  ``reference=True`` runs the
    original per-row-re-sort implementation (the equivalence oracle —
    slower, bit-identical output)."""

    name = "das"

    def __init__(
        self,
        batch: BatchConfig,
        config: Optional[SchedulerConfig] = None,
        *,
        record_parts: bool = False,
        reference: bool = False,
    ):
        super().__init__(batch)
        self.config = config or SchedulerConfig()
        self.record_parts = record_parts
        self.reference = reference
        self.last_parts: list[tuple[list[Request], list[Request]]] = []

    def select(
        self, waiting: Sequence[Request], now: float = 0.0
    ) -> SchedulingDecision:
        if self.reference:
            return self._reference_select(waiting, now)
        start = time.perf_counter()
        eta, q = self.config.eta, self.config.q
        L = self.batch.row_length
        rows: list[list[Request]] = []
        parts: list[tuple[list[Request], list[Request]]] = []

        # Row 0 sees the waiting set in arrival order (like the
        # reference, which only sorts on the first oversubscribed row).
        arrival_order = [r for r in waiting if r.length <= L]
        total = sum(r.length for r in arrival_order)
        # Utility-sorted candidates as packed tuples; built lazily at
        # the first oversubscribed row, then *reused* — removal keeps
        # the order, so the reference's later re-sorts are identities.
        # ``edf`` holds the entries of ``cand[:merged]`` that were ever
        # past a row's threshold, in (deadline, id) order: every row's
        # N^D is a filter of it, so it is sorted once and then only
        # grows by the entries a falling threshold admits.  Chosen
        # requests become tombstones in a ``dead`` set (rebuilding the
        # lists per row was the dominant cost at 10k+ queued); both
        # lists are compacted once tombstones outnumber the living
        # (``edf_dead`` counts those in ``edf``).  ``head`` indexes the
        # first live entry of ``cand``; ``tail_min[j]`` is the shortest
        # length in ``cand[j:]``.
        cand: Optional[list[tuple]] = None
        edf: list[tuple] = []
        merged = 0
        edf_dead = 0
        dead: set[int] = set()
        head = 0
        live = 0
        tail_min: list[int] = []
        min_len = 1

        for _k in range(self.batch.num_rows):
            if cand is None:
                if not arrival_order:
                    break
                if total <= L:
                    # Lines 4–5: everything fits in this row.
                    rows.append(list(arrival_order))
                    parts.append((list(arrival_order), []))
                    arrival_order = []
                    break
                # Line 7: sort by utility non-increasingly (stable
                # tie-break on id for determinism) — once per decision.
                # A WaitingView's maintained index skips even that.
                by_util = getattr(waiting, "by_utility", None)
                if by_util is not None:
                    cand = [
                        (-r.utility, r.request_id, r.length, r.deadline, r)
                        for r in by_util
                        if r.length <= L
                    ]
                else:
                    cand = sorted(
                        (-r.utility, r.request_id, r.length, r.deadline, r)
                        for r in arrival_order
                    )
                arrival_order = []
                live = len(cand)
                tail_min = _suffix_min_lengths(cand)
                min_len = tail_min[0]
            else:
                if live == 0:
                    break
                while cand[head][_RID] in dead:
                    head += 1
                if total <= L:
                    # Lines 4–5 on a later row: the survivors are in
                    # utility order, exactly as the reference leaves
                    # them after its row-(k-1) sort.
                    survivors = [
                        t[_REQ] for t in cand[head:] if t[_RID] not in dead
                    ]
                    rows.append(survivors)
                    parts.append((list(survivors), []))
                    live = 0
                    break

            # Line 8: saturating prefix s_tk (early-exit scan over the
            # live entries; the prefix is at most one row's worth).  It
            # is ≥ 1: ``head`` is live and no candidate is longer than L.
            s = 0
            acc = 0
            for j in range(head, len(cand)):
                t = cand[j]
                if t[_RID] in dead:
                    continue
                if acc + t[_LENGTH] > L:
                    break
                acc += t[_LENGTH]
                s += 1

            # Line 9: p_tk = η·s_tk, at least one so v̄ is defined.  N^U
            # is the first p live entries, and it always fits (p ≤ s).
            p = max(1, math.floor(eta * s))
            row: list[Request] = []
            n_u: list[Request] = []
            n_d: list[Request] = []
            used = 0
            v_sum = 0.0
            i_p = head
            while len(n_u) < p:
                t = cand[i_p]
                i_p += 1
                if t[_RID] in dead:
                    continue
                n_u.append(t[_REQ])
                dead.add(t[_RID])
                used += t[_LENGTH]
                # Negation commutes with IEEE rounding, so summing the
                # stored -u values and negating is bit-identical to the
                # reference's sum of utilities.
                v_sum += t[_NEG_UTILITY]
                if i_p <= merged:
                    edf_dead += 1
            row.extend(n_u)
            # Line 11: u ≥ q·v̄ ⇔ -u ≤ -q·v̄, and -u is non-decreasing
            # along ``cand``, so N^D is the live part of cand[i_p:cut]
            # (the bisect keys on values, so tombstones don't perturb
            # it).  q·v̄ never rises from row to row (module docstring),
            # so ``cut`` moves right: merge the newly admitted live
            # entries into ``edf`` instead of re-sorting N^D per row.
            neg_threshold = -(q * (-v_sum / p))
            cut = bisect_right(
                cand, neg_threshold, i_p, len(cand), key=_key_neg_utility
            )
            if merged < cut:
                fresh = [t for t in cand[merged:cut] if t[_RID] not in dead]
                if edf:
                    for t in fresh:
                        insort(edf, t, key=_key_edf)
                else:
                    edf = sorted(fresh, key=_key_edf)
                merged = cut
            # Line 12 consumes N^D earliest-deadline-first: the live
            # entries of ``edf`` past this row's threshold (N^U is
            # already a tombstone; the threshold test also covers
            # rounding, under which v̄ may exceed its predecessor by an
            # ulp).  Once the spare capacity is below the shortest
            # candidate nothing further can fit, so stop (the reference
            # walks on, selecting nothing — same outcome).
            spare = L - used
            if spare >= min_len:
                for t in edf:
                    if (
                        t[_LENGTH] > spare
                        or t[_RID] in dead
                        or t[_NEG_UTILITY] > neg_threshold
                    ):
                        continue
                    n_d.append(t[_REQ])
                    dead.add(t[_RID])
                    spare -= t[_LENGTH]
                    if spare < min_len:
                        break
                row.extend(n_d)
                edf_dead += len(n_d)
            # Lines 13–15 back-fill from the rest, in utility order: the
            # entries below the threshold, the suffix cand[cut:].  The
            # scan stops where no later entry is short enough to fit.
            for j in range(cut, len(cand)):
                if tail_min[j] > spare:
                    break
                t = cand[j]
                if t[_LENGTH] > spare or t[_RID] in dead:
                    continue
                if j < merged:
                    edf_dead += 1
                row.append(t[_REQ])
                dead.add(t[_RID])
                spare -= t[_LENGTH]

            rows.append(row)
            parts.append((n_u, n_d))
            live -= len(row)
            total -= L - spare
            if len(dead) * 2 > len(cand):
                cand = [t for t in cand if t[_RID] not in dead]
                edf = [t for t in edf if t[_RID] not in dead]
                tail_min = _suffix_min_lengths(cand)
                dead.clear()
                # Every live entry of cand[:merged] is in ``edf`` (a
                # merge skips only tombstones), so the survivors of
                # ``edf`` lead the compacted ``cand``.
                merged = len(edf)
                edf_dead = 0
                head = 0
            elif edf_dead * 2 > len(edf):
                edf = [t for t in edf if t[_RID] not in dead]
                edf_dead = 0

        if self.record_parts:
            self.last_parts = parts
        decision = SchedulingDecision(
            rows=rows,
            # Per-decision DAS observability (repro.obs): how the
            # selection split between Algorithm 1's two mechanisms.
            info={
                "scheduler": self.name,
                "eta": eta,
                "q": q,
                "num_utility_dominant": sum(len(u) for u, _ in parts),
                "num_deadline_aware": sum(len(d) for _, d in parts),
            },
        )
        decision.runtime = time.perf_counter() - start
        return decision

    def _reference_select(
        self, waiting: Sequence[Request], now: float = 0.0
    ) -> SchedulingDecision:
        """The original select — full re-sort and re-sum per row.

        Kept verbatim as the differential oracle; the fast path must
        reproduce its output (rows, parts, info) bit for bit.
        """
        start = time.perf_counter()
        eta, q = self.config.eta, self.config.q
        L = self.batch.row_length
        remaining = [r for r in waiting if r.length <= L]
        rows: list[list[Request]] = []
        parts: list[tuple[list[Request], list[Request]]] = []

        for _k in range(self.batch.num_rows):
            if not remaining:
                break
            total = sum(r.length for r in remaining)
            if total <= L:
                # Lines 4–5: everything fits in this row.
                rows.append(list(remaining))
                parts.append((list(remaining), []))
                remaining = []
                break

            # Line 7: sort by utility non-increasingly (stable tie-break
            # on id for determinism).
            remaining.sort(key=lambda r: (-r.utility, r.request_id))
            n_u, n_d, rest = _reference_das_row_parts(remaining, L, eta, q)

            row: list[Request] = []
            used = 0
            chosen: set[int] = set()
            for r in n_u:
                # The utility-dominant prefix fits by construction of s_tk
                # (p ≤ s), but guard anyway.
                if used + r.length <= L:
                    row.append(r)
                    used += r.length
                    chosen.add(r.request_id)
            # Lines 11–12: earliest-deadline-first from N^D.
            for r in n_d:
                if used + r.length <= L:
                    row.append(r)
                    used += r.length
                    chosen.add(r.request_id)
            # Lines 13–15: back-fill from the rest (utility order).
            for r in rest:
                if used + r.length <= L:
                    row.append(r)
                    used += r.length
                    chosen.add(r.request_id)

            rows.append(row)
            parts.append(
                (
                    [r for r in n_u if r.request_id in chosen],
                    [r for r in n_d if r.request_id in chosen],
                )
            )
            remaining = [r for r in remaining if r.request_id not in chosen]

        if self.record_parts:
            self.last_parts = parts
        decision = SchedulingDecision(
            rows=rows,
            info={
                "scheduler": self.name,
                "eta": eta,
                "q": q,
                "num_utility_dominant": sum(len(u) for u, _ in parts),
                "num_deadline_aware": sum(len(d) for _, d in parts),
            },
        )
        decision.runtime = time.perf_counter() - start
        return decision
