"""Row-packing algorithms for ConcatBatching.

Given a candidate set of requests and a batch geometry (``B`` rows ×
``L`` tokens), these functions decide *where* each request is placed.
The scheduler (paper §5) decides *which* requests are candidates; packing
is the mechanical bin-packing step that follows.

Three policies are provided:

- :func:`pack_in_order` — append requests row by row in the given order
  (this is what Algorithm 1 implies: the scheduler emits an ordered
  per-row selection and requests are concatenated as chosen),
- :func:`pack_first_fit` — classic first-fit: each request goes into the
  first row with space,
- :func:`pack_best_fit_decreasing` — best-fit on length-sorted requests;
  the strongest padding minimiser, used in ablations.

All of them respect Eq. 11 (per-row token budget) and never split a
request across rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.layout import BatchLayout, Segment
from repro.types import Request

__all__ = [
    "PackingResult",
    "pack_in_order",
    "pack_first_fit",
    "pack_best_fit_decreasing",
]


@dataclass
class PackingResult:
    """Outcome of packing: the layout plus requests that did not fit."""

    layout: BatchLayout
    packed: list[Request] = field(default_factory=list)
    rejected: list[Request] = field(default_factory=list)

    @property
    def num_packed(self) -> int:
        return len(self.packed)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)


def _new_layout(num_rows: int, row_length: int) -> BatchLayout:
    return BatchLayout(num_rows=num_rows, row_length=row_length, scheme="concat")


# Every packer keeps each row's spare capacity in a local ``free`` list
# and appends segments directly: probing ``RowLayout.can_fit`` re-sums the
# row's segments, which made packing quadratic in the row's population.
# A segment starts where the row's used tokens end (``L - free[k]``),
# exactly where ``RowLayout.add`` would put it.


def pack_in_order(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    """Fill row 0 until full, then row 1, ... preserving request order.

    A request that does not fit in the current row *closes* that row and
    opens the next (no back-filling) — this mirrors how Algorithm 1 builds
    each row from its sorted candidate sequence.  Requests longer than
    ``row_length`` are rejected outright.
    """
    layout = _new_layout(num_rows, row_length)
    rows = layout.rows
    free = [row_length] * num_rows
    packed: list[Request] = []
    rejected: list[Request] = []
    row_idx = 0
    for req in requests:
        length = req.length
        if length > row_length:
            rejected.append(req)
            continue
        while row_idx < num_rows and free[row_idx] < length:
            row_idx += 1
        if row_idx >= num_rows:
            rejected.append(req)
            continue
        rows[row_idx].segments.append(
            Segment(request=req, start=row_length - free[row_idx])
        )
        free[row_idx] -= length
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def pack_first_fit(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    """First-fit: each request goes to the lowest-index row with space."""
    layout = _new_layout(num_rows, row_length)
    rows = layout.rows
    free = [row_length] * num_rows
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in requests:
        length = req.length
        for k, spare in enumerate(free):
            if spare >= length:
                rows[k].segments.append(
                    Segment(request=req, start=row_length - spare)
                )
                free[k] = spare - length
                packed.append(req)
                break
        else:
            # Longer than L, or no row has room.
            rejected.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)


def pack_best_fit_decreasing(
    requests: Sequence[Request], num_rows: int, row_length: int
) -> PackingResult:
    """Best-fit decreasing: sort by length desc, place in tightest row.

    BFD is the strongest of the classic bin-packing heuristics (≤ 11/9 OPT
    + 4 bins); we use it in ablation benchmarks to quantify how much the
    simpler in-order policy of Algorithm 1 leaves on the table.
    """
    layout = _new_layout(num_rows, row_length)
    rows = layout.rows
    free = [row_length] * num_rows
    packed: list[Request] = []
    rejected: list[Request] = []
    for req in sorted(requests, key=lambda r: r.length, reverse=True):
        length = req.length
        # Tightest row with room; the lowest index wins ties.
        best = -1
        for k, spare in enumerate(free):
            if length <= spare and (best < 0 or spare < free[best]):
                best = k
        if best < 0:
            rejected.append(req)
            continue
        rows[best].segments.append(
            Segment(request=req, start=row_length - free[best])
        )
        free[best] -= length
        packed.append(req)
    return PackingResult(layout=layout, packed=packed, rejected=rejected)
