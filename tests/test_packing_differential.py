"""Differential tests: integer free-capacity packers vs ``can_fit`` oracles.

The packers keep each row's (or slot's) spare capacity in a local
integer list instead of probing ``RowLayout.can_fit``, which re-sums the
row's segments.  The original probing packers live on, verbatim, in
:mod:`repro.bench.oracles`; every packer must reproduce its oracle's
``(request_id, start)`` per row (and per slot) and its packed and
rejected lists exactly, including over-length and exact-fit requests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.oracles import (
    reference_pack_best_fit_decreasing,
    reference_pack_first_fit,
    reference_pack_in_order,
    reference_pack_into_slots,
    reference_slotted_repack,
)
from repro.config import BatchConfig, SchedulerConfig
from repro.core.packing import (
    pack_best_fit_decreasing,
    pack_first_fit,
    pack_in_order,
)
from repro.core.slotting import pack_into_slots
from repro.rng import ensure_rng
from repro.scheduling.das import DASScheduler
from repro.scheduling.slotted_das import SlottedDASScheduler
from repro.types import Request, make_requests

PAIRS = [
    (pack_in_order, reference_pack_in_order),
    (pack_first_fit, reference_pack_first_fit),
    (pack_best_fit_decreasing, reference_pack_best_fit_decreasing),
]


def _ids(requests):
    return [r.request_id for r in requests]


def _placements(layout):
    rows = [[(s.request.request_id, s.start) for s in row.segments] for row in layout.rows]
    slots = [
        [[(s.request.request_id, s.start) for s in slot.segments] for slot in row.slots]
        for row in layout.rows
        if row.slots is not None
    ]
    return rows, slots


def _assert_same(fast, ref):
    assert _placements(fast.layout) == _placements(ref.layout)
    assert _ids(fast.packed) == _ids(ref.packed)
    assert _ids(fast.rejected) == _ids(ref.rejected)
    fast.layout.validate()


def _random_requests(rng, n, row_length):
    # Lengths run past L (over-length rejects) and hit L exactly.
    lengths = rng.integers(1, row_length + 4, size=n)
    return make_requests([int(x) for x in lengths], start_id=0)


class TestRowPackers:
    @pytest.mark.parametrize("fast,ref", PAIRS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded(self, fast, ref, seed):
        rng = ensure_rng(seed)
        for _ in range(25):
            num_rows = int(rng.integers(1, 9))
            L = int(rng.choice([1, 5, 8, 16, 100]))
            reqs = _random_requests(rng, int(rng.integers(0, 60)), L)
            _assert_same(fast(reqs, num_rows, L), ref(reqs, num_rows, L))

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 14), max_size=30),
        num_rows=st.integers(1, 5),
        L=st.integers(1, 12),
    )
    def test_property(self, lengths, num_rows, L):
        reqs = make_requests(lengths, start_id=0)
        for fast, ref in PAIRS:
            _assert_same(fast(reqs, num_rows, L), ref(reqs, num_rows, L))

    @pytest.mark.parametrize("fast,ref", PAIRS, ids=lambda f: f.__name__)
    def test_exact_fit_and_over_length(self, fast, ref):
        # 10 closes row 0 exactly, 11 is over-length, 4+6 close row 1.
        reqs = make_requests([10, 11, 4, 6, 3, 10], start_id=0)
        res = fast(reqs, 2, 10)
        _assert_same(res, ref(reqs, 2, 10))
        assert 1 in _ids(res.rejected)
        assert all(row.free == 0 for row in res.layout.rows)

    @pytest.mark.parametrize("fast,ref", PAIRS, ids=lambda f: f.__name__)
    def test_paper_scale(self, fast, ref):
        # B=64, L=100 with an oversubscribed queue: many rows, many
        # rejections, first-fit back-filling across the whole batch.
        rng = ensure_rng(11)
        reqs = _random_requests(rng, 600, 40)
        _assert_same(fast(reqs, 64, 100), ref(reqs, 64, 100))


class TestSlotPacking:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded(self, seed):
        rng = ensure_rng(50 + seed)
        for _ in range(25):
            num_rows = int(rng.integers(1, 6))
            L = int(rng.choice([7, 16, 20, 100]))
            z = int(rng.integers(1, L + 1))  # z ∤ L leaves a short last slot
            reqs = _random_requests(rng, int(rng.integers(0, 50)), L)
            _assert_same(
                pack_into_slots(reqs, num_rows, L, z),
                reference_pack_into_slots(reqs, num_rows, L, z),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 14), max_size=30),
        num_rows=st.integers(1, 4),
        L=st.integers(1, 12),
        z=st.integers(1, 12),
    )
    def test_property(self, lengths, num_rows, L, z):
        z = min(z, L)
        reqs = make_requests(lengths, start_id=0)
        _assert_same(
            pack_into_slots(reqs, num_rows, L, z),
            reference_pack_into_slots(reqs, num_rows, L, z),
        )

    def test_exact_fit_slots(self):
        # Slots of 5 in a 12-token row: 5, 5, then a short slot of 2.
        reqs = make_requests([5, 2, 5, 3, 2, 6], start_id=0)
        res = pack_into_slots(reqs, 1, 12, 5)
        _assert_same(res, reference_pack_into_slots(reqs, 1, 12, 5))
        assert _ids(res.rejected) == [2, 5]


def _weighted_state(rng, n, max_length):
    out = []
    for i in range(n):
        arrival = float(rng.uniform(0.0, 5.0))
        out.append(
            Request(
                request_id=i,
                length=int(rng.integers(1, max_length + 1)),
                arrival=arrival,
                deadline=arrival + float(rng.uniform(0.1, 20.0)),
                weight=float(rng.choice([0.25, 1.0, 4.0])),
            )
        )
    return out


class TestSlottedDASRepack:
    """The scheduler's per-row repack ≡ the ``can_fit`` oracle applied to
    plain DAS's rows at the same slot size."""

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded(self, seed):
        rng = ensure_rng(200 + seed)
        for _ in range(20):
            batch = BatchConfig(
                num_rows=int(rng.integers(1, 9)),
                row_length=int(rng.choice([8, 20, 32, 100])),
            )
            cfg = SchedulerConfig(
                eta=float(rng.choice([0.1, 0.5, 0.9])),
                q=float(rng.choice([0.1, 0.5, 0.9])),
            )
            waiting = _weighted_state(
                rng, int(rng.integers(0, 120)), batch.row_length + 3
            )
            slotted = SlottedDASScheduler(batch, cfg).select(waiting)
            base = DASScheduler(batch, cfg).select(waiting)
            rows, discarded = reference_slotted_repack(
                base.rows, batch.row_length, slotted.slot_size
            )
            assert [_ids(r) for r in slotted.rows] == [_ids(r) for r in rows]
            assert _ids(slotted.discarded) == _ids(discarded)
            assert slotted.info["num_discarded"] == len(discarded)
