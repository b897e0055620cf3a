"""Integer intervals and the interval rows of the multi-placement structure.

Figure 3 of the paper: each block contributes one row per dimension; a row
is "a linked list of interval objects ... with the constraint of being
ascending and non-overlapping", and each interval object carries "an array
of numbers [which] represents the indices of all placements p_j in which
w_i (h_i) of vector V lie within [that placement's interval]".

:class:`IntervalList` implements exactly that row: an ordered list of
disjoint integer segments, each holding the set of placement indices valid
there.  Queries are ``O(log s)`` via binary search over segment starts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[start, end]``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} exceeds end {self.end}")

    @property
    def length(self) -> int:
        """Number of integers in the interval."""
        return self.end - self.start + 1

    def contains(self, value: int) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.start <= value <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one integer."""
        return self.start <= other.end and other.start <= self.end

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The common sub-interval, or ``None`` when disjoint."""
        if not self.overlaps(other):
            return None
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` lies fully inside this interval."""
        return self.start <= other.start and other.end <= self.end

    def strictly_contains(self, other: "Interval") -> bool:
        """True when ``other`` lies inside with room left on *both* sides."""
        return self.start < other.start and other.end < self.end

    def clamp(self, value: int) -> int:
        """Clamp ``value`` into the interval."""
        return min(max(value, self.start), self.end)

    def midpoint(self) -> int:
        """The (integer) midpoint of the interval."""
        return (self.start + self.end) // 2

    def as_tuple(self) -> Tuple[int, int]:
        """``(start, end)``."""
        return (self.start, self.end)


@dataclass
class _Segment:
    """One interval object of the row: a span plus the placement indices valid there."""

    start: int
    end: int
    indices: Set[int]

    def to_interval(self) -> Interval:
        return Interval(self.start, self.end)


class IntervalList:
    """An ascending, non-overlapping list of integer segments with index sets.

    This is the computational form of the row functions ``W_i`` / ``H_i``
    (Equation 3): ``query(a)`` returns the subset of placement indices whose
    stored interval for this row contains ``a``.
    """

    def __init__(self) -> None:
        self._segments: List[_Segment] = []
        #: ``segment.start`` of every segment, for :meth:`query`'s bisect.
        #: Rebuilt wherever ``_segments`` is reassigned.
        self._starts: List[int] = []

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Tuple[Interval, FrozenSet[int]]]:
        for segment in self._segments:
            yield (segment.to_interval(), frozenset(segment.indices))

    def is_empty(self) -> bool:
        """True when the row holds no segments."""
        return not self._segments

    def query(self, value: int) -> FrozenSet[int]:
        """Placement indices whose interval for this row contains ``value``.

        Returns an empty set when ``value`` falls in a gap (the structure
        then falls back to the template placement).
        """
        position = bisect_right(self._starts, value) - 1
        if position < 0:
            return frozenset()
        segment = self._segments[position]
        if segment.start <= value <= segment.end:
            return frozenset(segment.indices)
        return frozenset()

    def indices(self) -> FrozenSet[int]:
        """All placement indices referenced anywhere in the row."""
        result: Set[int] = set()
        for segment in self._segments:
            result |= segment.indices
        return frozenset(result)

    def covered_length(self) -> int:
        """Total number of integer values covered by at least one placement."""
        return sum(segment.end - segment.start + 1 for segment in self._segments if segment.indices)

    def covered_interval_for(self, index: int) -> Optional[Interval]:
        """The contiguous span over which ``index`` appears, or ``None``.

        Placements always occupy one contiguous range per row, so the union
        of the segments mentioning ``index`` is a single interval.
        """
        spans = [seg for seg in self._segments if index in seg.indices]
        if not spans:
            return None
        return Interval(spans[0].start, spans[-1].end)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` when the ascending/non-overlapping invariant breaks."""
        for left, right in zip(self._segments, self._segments[1:]):
            assert left.end < right.start, (
                f"segments overlap or are out of order: "
                f"[{left.start},{left.end}] then [{right.start},{right.end}]"
            )
        for segment in self._segments:
            assert segment.start <= segment.end

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval, index: int) -> None:
        """Register placement ``index`` over ``interval`` (the Store Placement routine).

        Existing segments are split at the interval boundaries so the row
        stays ascending and non-overlapping; gaps inside ``interval`` become
        new segments containing only ``index``.
        """
        start, end = interval.start, interval.end
        rebuilt: List[_Segment] = []
        cursor = start
        for segment in self._segments:
            if segment.end < start or segment.start > end:
                rebuilt.append(segment)
                continue
            if segment.start < start:
                rebuilt.append(_Segment(segment.start, start - 1, set(segment.indices)))
            mid_start = max(segment.start, start)
            mid_end = min(segment.end, end)
            if cursor < mid_start:
                rebuilt.append(_Segment(cursor, mid_start - 1, {index}))
            rebuilt.append(_Segment(mid_start, mid_end, set(segment.indices) | {index}))
            cursor = mid_end + 1
            if segment.end > end:
                rebuilt.append(_Segment(end + 1, segment.end, set(segment.indices)))
        if cursor <= end:
            rebuilt.append(_Segment(cursor, end, {index}))
        rebuilt.sort(key=lambda seg: seg.start)
        self._segments = rebuilt
        self._coalesce()

    def remove_index(self, index: int) -> None:
        """Remove every reference to placement ``index`` from the row."""
        remaining: List[_Segment] = []
        for segment in self._segments:
            segment.indices.discard(index)
            if segment.indices:
                remaining.append(segment)
        self._segments = remaining
        self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent segments with identical index sets."""
        merged: List[_Segment] = []
        for segment in self._segments:
            if (
                merged
                and merged[-1].end + 1 == segment.start
                and merged[-1].indices == segment.indices
            ):
                merged[-1].end = segment.end
            else:
                merged.append(segment)
        self._segments = merged
        self._starts = [segment.start for segment in merged]

    # ------------------------------------------------------------------ #
    # Serialization support
    # ------------------------------------------------------------------ #
    def to_list(self) -> List[Tuple[int, int, List[int]]]:
        """Plain-data form of the row (used by :mod:`repro.core.serialization`)."""
        return [(seg.start, seg.end, sorted(seg.indices)) for seg in self._segments]

    @classmethod
    def from_list(cls, data: List[Tuple[int, int, List[int]]]) -> "IntervalList":
        """Rebuild a row from :meth:`to_list` output."""
        row = cls()
        row._segments = [_Segment(start, end, set(indices)) for start, end, indices in data]
        row._segments.sort(key=lambda seg: seg.start)
        row._starts = [segment.start for segment in row._segments]
        row.check_invariants()
        return row
