"""Tests for integer intervals and the interval rows (Figure 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.intervals import Interval, IntervalList


def intervals(lo=0, hi=60):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
        lambda pair: Interval(min(pair), max(pair))
    )


class TestInterval:
    def test_length_and_contains(self):
        interval = Interval(3, 7)
        assert interval.length == 5
        assert interval.contains(3) and interval.contains(7)
        assert not interval.contains(8)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_overlap_and_intersection(self):
        assert Interval(0, 5).overlaps(Interval(5, 9))
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 2).intersection(Interval(5, 9)) is None

    def test_containment(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert Interval(0, 10).strictly_contains(Interval(2, 8))
        assert not Interval(0, 10).strictly_contains(Interval(0, 8))

    def test_clamp_and_midpoint(self):
        interval = Interval(4, 10)
        assert interval.clamp(1) == 4
        assert interval.clamp(20) == 10
        assert interval.midpoint() == 7
        assert interval.as_tuple() == (4, 10)

    @given(intervals(), intervals())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        if a.overlaps(b):
            inter = a.intersection(b)
            assert inter.length <= min(a.length, b.length)


class TestIntervalListBasics:
    def test_empty_row(self):
        row = IntervalList()
        assert row.is_empty()
        assert row.query(5) == frozenset()
        assert row.covered_length() == 0

    def test_single_insert(self):
        row = IntervalList()
        row.insert(Interval(4, 10), index=0)
        assert row.query(4) == {0}
        assert row.query(10) == {0}
        assert row.query(11) == frozenset()
        assert row.covered_length() == 7
        assert row.indices() == {0}

    def test_disjoint_inserts(self):
        row = IntervalList()
        row.insert(Interval(0, 3), 0)
        row.insert(Interval(10, 12), 1)
        assert row.query(2) == {0}
        assert row.query(11) == {1}
        assert row.query(5) == frozenset()
        row.check_invariants()

    def test_overlapping_inserts_split_segments(self):
        row = IntervalList()
        row.insert(Interval(0, 10), 0)
        row.insert(Interval(5, 15), 1)
        assert row.query(3) == {0}
        assert row.query(7) == {0, 1}
        assert row.query(12) == {1}
        row.check_invariants()

    def test_contained_insert(self):
        row = IntervalList()
        row.insert(Interval(0, 20), 0)
        row.insert(Interval(8, 12), 1)
        assert row.query(8) == {0, 1}
        assert row.query(0) == {0}
        assert row.query(20) == {0}
        row.check_invariants()

    def test_remove_index(self):
        row = IntervalList()
        row.insert(Interval(0, 10), 0)
        row.insert(Interval(5, 15), 1)
        row.remove_index(0)
        assert row.query(3) == frozenset()
        assert row.query(7) == {1}
        assert row.indices() == {1}
        row.check_invariants()

    def test_covered_interval_for(self):
        row = IntervalList()
        row.insert(Interval(4, 12), 0)
        row.insert(Interval(8, 20), 1)
        assert row.covered_interval_for(0) == Interval(4, 12)
        assert row.covered_interval_for(1) == Interval(8, 20)
        assert row.covered_interval_for(99) is None

    def test_coalesce_merges_identical_neighbours(self):
        row = IntervalList()
        row.insert(Interval(0, 5), 0)
        row.insert(Interval(6, 10), 0)
        # Adjacent segments with the same index set are merged into one.
        assert len(row) == 1
        assert row.covered_length() == 11

    def test_serialization_roundtrip(self):
        row = IntervalList()
        row.insert(Interval(0, 10), 0)
        row.insert(Interval(5, 15), 1)
        rebuilt = IntervalList.from_list(row.to_list())
        for value in range(0, 16):
            assert rebuilt.query(value) == row.query(value)


class TestIntervalListProperties:
    @given(
        st.lists(
            st.tuples(intervals(), st.integers(0, 9)), min_size=1, max_size=15
        )
    )
    def test_query_matches_bruteforce(self, inserts):
        # Query after every insert, so a lookup table that goes stale
        # between mutations fails too.
        row = IntervalList()
        for count, (interval, index) in enumerate(inserts, start=1):
            row.insert(interval, index)
            row.check_invariants()
            for value in range(0, 61):
                expected = {
                    stored
                    for span, stored in inserts[:count]
                    if span.contains(value)
                }
                assert row.query(value) == expected

    @given(
        st.lists(
            st.tuples(intervals(), st.integers(0, 9)), min_size=1, max_size=12
        ),
        st.integers(0, 9),
    )
    def test_remove_index_matches_bruteforce(self, inserts, removed):
        row = IntervalList()
        for interval, index in inserts:
            row.insert(interval, index)
        row.remove_index(removed)
        row.check_invariants()
        for value in range(0, 61):
            expected = {
                index
                for interval, index in inserts
                if interval.contains(value) and index != removed
            }
            assert row.query(value) == expected
