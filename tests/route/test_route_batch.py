"""Tests for batched routing: deduplication, ordering, fan-out."""

from repro.circuit.builder import CircuitBuilder
from repro.core.serialization import circuit_to_dict
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect
from repro.parallel.pool import WorkerPool
from repro.route import RouterConfig, route_batch


def _circuit():
    builder = CircuitBuilder("batch")
    builder.block("a", 2, 4, 2, 4)
    builder.block("b", 2, 4, 2, 4)
    builder.simple_net("n", ["a", "b"])
    return builder.build()


def _rects(offset: int):
    return {"a": Rect(0, 0, 2, 2), "b": Rect(4 + offset, 0, 2, 2)}


class TestRouteBatch:
    def test_deduplicates_identical_placements(self):
        circuit = _circuit()
        placements = [_rects(0), _rects(2), _rects(0), _rects(2), _rects(0)]
        batch = route_batch(
            circuit,
            placements,
            bounds=FloorplanBounds(12, 6),
            config=RouterConfig(resolution=1),
        )
        assert batch.total_layouts == 5
        assert batch.unique_layouts == 2
        assert batch.duplicate_layouts == 3
        # Duplicates share the routed object, in input order.
        assert batch[0] is batch[2] is batch[4]
        assert batch[1] is batch[3]
        assert batch[0] is not batch[1]

    def test_results_align_with_inputs(self):
        circuit = _circuit()
        batch = route_batch(
            circuit,
            [_rects(0), _rects(4)],
            bounds=FloorplanBounds(12, 6),
            config=RouterConfig(resolution=1),
        )
        # The wider placement routes a longer wire.
        assert batch[1].total_wirelength > batch[0].total_wirelength
        assert batch.total_overflow == 0

    def test_parallel_fanout_matches_serial(self):
        circuit = _circuit()
        placements = [_rects(i % 4) for i in range(16)]
        config = RouterConfig(resolution=1)
        serial = route_batch(circuit, placements, config=config)
        unique = [
            {name: (r.x, r.y, r.w, r.h) for name, r in _rects(offset).items()}
            for offset in range(4)
        ]
        with WorkerPool(workers=2) as pool:
            parallel, stats = pool.route_batch(circuit_to_dict(circuit), unique, config)
        assert stats["pool_jobs"] == 2
        assert serial.unique_layouts == len(parallel) == 4
        for position, layout in enumerate(serial):
            routed = parallel[position % 4]
            assert routed.total_wirelength == layout.total_wirelength
            assert routed.overflow == layout.overflow

    def test_iterating_batch_yields_layouts(self):
        circuit = _circuit()
        batch = route_batch(
            circuit,
            [_rects(0)],
            bounds=FloorplanBounds(12, 6),
            config=RouterConfig(resolution=1),
        )
        layouts = list(batch)
        assert len(layouts) == len(batch) == 1
        assert layouts[0].is_fully_routed
