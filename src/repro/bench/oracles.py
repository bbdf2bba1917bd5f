"""Packing oracles: the original ``can_fit``-probing packers, verbatim.

The packers in :mod:`repro.core.packing`, :func:`repro.core.slotting.
pack_into_slots` and :class:`~repro.scheduling.slotted_das.
SlottedDASScheduler`'s per-row repack keep each row's (or slot's) spare
capacity as a plain integer.  The implementations below instead ask the
layout — ``RowLayout.can_fit`` / ``SlotLayout.can_fit`` re-sum the
segments on every probe — which is slow but obviously right.  They are
the oracles that ``tests/test_packing_differential.py`` and the
``pack_first_fit`` cell of ``python -m repro bench`` compare against:
same ``(request_id, start)`` per row, same packed and rejected lists.

Nothing on a serving path imports this module.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.layout import BatchLayout, RowLayout
from repro.core.packing import PackingResult
from repro.core.slotting import SlottedPackingResult, divide_row_into_slots
from repro.types import Request

__all__ = [
    "reference_pack_in_order",
    "reference_pack_first_fit",
    "reference_pack_best_fit_decreasing",
    "reference_pack_into_slots",
    "reference_slotted_repack",
]


def _new_layout(num_rows: int, row_length: int) -> BatchLayout:
    return BatchLayout(num_rows=num_rows, row_length=row_length, scheme="concat")


def reference_pack_in_order(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    layout = _new_layout(num_rows, row_length)
    packed: list[Request] = []
    rejected: list[Request] = []
    row_idx = 0
    for req in requests:
        if req.length > row_length:
            rejected.append(req)
            continue
        while row_idx < num_rows and not layout.rows[row_idx].can_fit(req.length):
            row_idx += 1
        if row_idx >= num_rows:
            rejected.append(req)
            continue
        layout.rows[row_idx].add(req)
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def reference_pack_first_fit(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    layout = _new_layout(num_rows, row_length)
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in requests:
        if req.length > row_length:
            rejected.append(req)
            continue
        target = next(
            (row for row in layout.rows if row.can_fit(req.length)), None
        )
        if target is None:
            rejected.append(req)
        else:
            target.add(req)
            packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def reference_pack_best_fit_decreasing(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    layout = _new_layout(num_rows, row_length)
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in sorted(requests, key=lambda r: r.length, reverse=True):
        if req.length > row_length:
            rejected.append(req)
            continue
        candidates = [row for row in layout.rows if row.can_fit(req.length)]
        if not candidates:
            rejected.append(req)
            continue
        target = min(candidates, key=lambda row: row.free)
        target.add(req)
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def reference_pack_into_slots(
    requests: Sequence[Request],
    num_rows: int,
    row_length: int,
    slot_size: int,
) -> SlottedPackingResult:
    layout = BatchLayout(num_rows=num_rows, row_length=row_length, scheme="slotted")
    for row in layout.rows:
        row.slots = divide_row_into_slots(row, slot_size)
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in requests:
        placed = False
        for row in layout.rows:
            assert row.slots is not None
            for slot in row.slots:
                if slot.can_fit(req.length):
                    seg = slot.add(req)
                    row.segments.append(seg)
                    packed.append(req)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            rejected.append(req)
    return SlottedPackingResult(
        layout=layout, slot_size=slot_size, packed=packed, rejected=rejected
    )


def reference_slotted_repack(
    rows: Sequence[Sequence[Request]], row_length: int, slot_size: int
) -> tuple[list[list[Request]], list[Request]]:
    """Algorithm 2, lines 5–8, as ``SlottedDASScheduler`` did it: each
    row's requests, longest first, into the first slot with room.
    Returns the kept requests per row and the discarded ones."""
    kept_rows: list[list[Request]] = []
    discarded: list[Request] = []
    for row_requests in rows:
        row = RowLayout(capacity=row_length)
        row.slots = divide_row_into_slots(row, slot_size)
        kept: list[Request] = []
        for req in sorted(row_requests, key=lambda r: (-r.length, r.request_id)):
            target = next((s for s in row.slots if s.can_fit(req.length)), None)
            if target is None:
                discarded.append(req)
            else:
                target.add(req)
                kept.append(req)
        kept_rows.append(kept)
    return kept_rows, discarded
