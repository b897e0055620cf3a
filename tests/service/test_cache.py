"""Tests for the LRU cache and the memoizing instantiator."""

import typing

import pytest

from repro.api.placement import Placement
from repro.core.instantiator import PlacementInstantiator
from repro.core.intervals import Interval
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.geometry.floorplan import FloorplanBounds
from repro.service.cache import LRUCache, MemoizingInstantiator
from tests.conftest import build_chain_circuit


def build_structure():
    circuit = build_chain_circuit(2)
    structure = MultiPlacementStructure(circuit, FloorplanBounds(60, 60))
    structure.add_placement(
        anchors=[(0, 0), (10, 0)],
        ranges=[
            DimensionRange(Interval(4, 8), Interval(4, 8)),
            DimensionRange(Interval(4, 8), Interval(4, 8)),
        ],
        average_cost=10.0,
        best_cost=9.0,
    )
    structure.set_fallback([(0, 30), (25, 30)])
    return structure


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_get_put_and_contains(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        assert cache.get("a", default=5) == 5
        cache.put("a", 1)
        assert "a" in cache
        assert cache.get("a") == 1
        assert len(cache) == 1

    def test_least_recently_used_is_evicted(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_put_existing_key_updates_without_evicting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert "b" in cache
        assert cache.stats.evictions == 0

    def test_stats_track_hits_and_misses(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.requests == 2
        assert set(cache.stats.as_dict()) == {"hits", "misses", "evictions", "hit_rate"}

    def test_keys_in_lru_order_and_clear(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.keys() == ("b", "a")
        cache.clear()
        assert len(cache) == 0


class TestMemoizingInstantiator:
    def test_repeated_query_returns_the_memoized_object(self):
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        first = memo.instantiate([(5, 5), (6, 6)])
        second, from_memo = memo.instantiate_with_info([(5, 5), (6, 6)])
        assert from_memo
        assert second is first
        assert memo.memo_stats.hits == 1
        assert memo.memo_stats.misses == 1

    def test_results_match_the_plain_instantiator(self):
        plain = PlacementInstantiator(build_structure())
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        for dims in ([(5, 5), (6, 6)], [(10, 10), (10, 10)], [(12, 12), (12, 12)]):
            expected = plain.instantiate(dims)
            got = memo.instantiate(dims)
            assert got.source == expected.source
            assert dict(got.rects) == dict(expected.rects)

    def test_many_with_repeats_matches_per_query_answers(self):
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        reference = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        memoized = [(5, 5), (6, 6)]
        memo.instantiate(memoized)
        hits, misses = memo.memo_stats.hits, memo.memo_stats.misses
        # (1, 1) clamps to (4, 4), so queries 0 and 3 are one new vector.
        batch = [
            [(4, 4), (5, 5)],
            memoized,
            [(7, 7), (7, 7)],
            [(1, 1), (5, 5)],
            memoized,
            [(7, 7), (7, 7)],
        ]
        got = memo.instantiate_many(batch)
        # One lookup per distinct vector: a miss for each new one.
        assert memo.memo_stats.misses - misses == 2
        assert memo.memo_stats.hits - hits == 1
        expected = [reference.instantiate(dims) for dims in batch]
        assert [(p.source, dict(p.rects)) for p in got] == [
            (p.source, dict(p.rects)) for p in expected
        ]
        assert got[0] is got[3] and got[2] is got[5]
        assert got[1] is got[4] is memo.instantiate(memoized)

    def test_clamping_shares_entries(self):
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        # (1, 1) and (100, 100) clamp to (4, 4) and (12, 12) respectively.
        a = memo.instantiate([(1, 1), (5, 5)])
        b, from_memo = memo.instantiate_with_info([(4, 4), (5, 5)])
        assert from_memo
        assert b is a

    def test_bounded_memo_evicts(self):
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()), capacity=2)
        memo.instantiate([(4, 4), (4, 4)])
        memo.instantiate([(5, 5), (5, 5)])
        memo.instantiate([(6, 6), (6, 6)])
        assert memo.memo_stats.evictions == 1
        _, from_memo = memo.instantiate_with_info([(4, 4), (4, 4)])
        assert not from_memo

    def test_clear_drops_entries(self):
        memo = MemoizingInstantiator(PlacementInstantiator(build_structure()))
        memo.instantiate([(5, 5), (5, 5)])
        memo.clear()
        _, from_memo = memo.instantiate_with_info([(5, 5), (5, 5)])
        assert not from_memo

    def test_structure_property_is_passed_through(self):
        structure = build_structure()
        memo = MemoizingInstantiator(PlacementInstantiator(structure))
        assert memo.structure is structure
        assert memo.instantiator.structure is structure

    def test_annotations_resolve(self):
        # Annotations are postponed, so a missing typing import only shows
        # when something resolves them.
        hints = typing.get_type_hints(MemoizingInstantiator.instantiate_many)
        assert hints["return"] == typing.List[Placement]
