"""The output check: every served answer against the scalar oracle.

The oracle is ``PlacementInstantiator(structure).instantiate(dims)`` on
the structure read back from the run's registry.  A served answer passes
when its rects, ``source``, ``placement_index`` and total cost are
bitwise equal to the oracle's (costs compare by ``float.hex``, so even a
last-bit difference fails).

Oracle answers for the distinct queries are computed after the daemon
has stopped, in two forked processes (the benchmark is sized for two
cores, and nothing else runs by then).
"""

from __future__ import annotations

import json
import multiprocessing
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Processes computing oracle answers.
ORACLE_PROCESSES = 2

#: name -> PlacementInstantiator, inherited by the forked pool processes.
_ORACLE: Dict[str, object] = {}


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _answers(queries: Sequence[Tuple[str, tuple]]) -> List[tuple]:
    answers = []
    for name, dims in queries:
        placement = _ORACLE[name].instantiate(dims)
        rects = chain.from_iterable(
            (rect.x, rect.y, rect.w, rect.h) for rect in placement.rects.values()
        )
        answers.append(
            (
                tuple(rects),
                placement.source,
                placement.metadata.get("placement_index"),
                _bits(placement.total_cost),
            )
        )
    return answers


class Oracle:
    """Expected answers for the queries of one run.

    ``reuse`` is an earlier oracle whose answers carry over when its
    structures serialize identically to these (the daemon's generator is
    seeded, so two passes of one run read back the same structures).
    """

    def __init__(self, structures: Dict[str, object], reuse: Optional["Oracle"] = None) -> None:
        from repro.core.instantiator import PlacementInstantiator
        from repro.core.serialization import structure_to_dict

        _ORACLE.clear()
        _ORACLE.update(
            (name, PlacementInstantiator(structure)) for name, structure in structures.items()
        )
        self._blocks = {
            name: structure.circuit.block_names() for name, structure in structures.items()
        }
        self._identity = json.dumps(
            {name: structure_to_dict(structure) for name, structure in structures.items()},
            sort_keys=True,
        )
        self._answers: Dict[Tuple[str, tuple], tuple] = {}
        if reuse is not None and reuse._identity == self._identity:
            self._answers = reuse._answers

    def prepare(self, queries: Iterable[Tuple[str, tuple]]) -> None:
        """Compute the answer of every query not yet known, in parallel.

        Forked, not spawned: no other thread runs by now, the children
        start with the structures loaded, and a spawn pool would leave a
        resource-tracker process running after the pool is gone.
        """
        todo = [query for query in dict.fromkeys(queries) if query not in self._answers]
        if not todo:
            return
        chunks = [todo[i::16] for i in range(16)]
        pool = multiprocessing.get_context("fork").Pool(ORACLE_PROCESSES)
        try:
            for chunk, answers in zip(chunks, pool.map(_answers, chunks)):
                self._answers.update(zip(chunk, answers))
        finally:
            pool.close()
            pool.join()

    def tier(self, query: Tuple[str, tuple]) -> str:
        return self._answers[query][1]

    def matches(self, answer: dict, query: Tuple[str, tuple]) -> bool:
        """True when one served placement equals the oracle's, bit for bit."""
        name, _ = query
        rects = answer["rects"]
        blocks = self._blocks[name]
        if len(rects) != len(blocks):
            return False
        expected = self._answers[query]
        return (
            tuple(chain.from_iterable(rects[block] for block in blocks)) == expected[0]
            and answer["source"] == expected[1]
            and answer["metadata"].get("placement_index") == expected[2]
            and _bits(answer["total_cost"]) == expected[3]
        )


def check(exchange, query, oracle: Oracle, sources: Optional[dict]) -> bool:
    """True when ``exchange`` answered ``query`` as the oracle does.

    ``sources`` (a Counter) tallies the served tier of a passing answer.
    """
    if exchange.status != 200:
        return False
    try:
        answer = json.loads(exchange.body)
        if not oracle.matches(answer, query):
            return False
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    if sources is not None:
        sources[answer["source"]] += 1
    return True
