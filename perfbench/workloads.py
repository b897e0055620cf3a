"""The benchmark's workloads and their seeded query streams.

Each workload is one traffic mix against the live daemon.  The rationale
for every workload -- which layers it loads, which it bypasses, and what
the open ROADMAP items are predicted to do to it -- sits next to its
definition below, so a later change can be checked against a prediction
written before the change existed.

Query streams are pure functions of the workload seed and the structures
the daemon generated (read back from the run's registry): the same seed
on the same code gives the same stream, byte for byte.  Dimension values
stay inside each block's bounds, so the daemon's clamping never changes a
query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

Dims = Tuple[Tuple[int, int], ...]
#: One query: (circuit name, dimension vector in the circuit's block order).
Query = Tuple[str, Dims]


#: Requests per client per second of timed phase that each stream is
#: materialized for: several times today's closed-loop rate, so a faster
#: daemon still finds its stream long enough.
MAX_RATE = 500


@dataclass(frozen=True)
class Workload:
    """One traffic mix: who sends what, and how the daemon is configured.

    Every client is one closed-loop sizing loop that POSTs ``/place`` for
    its own circuit, sent inline as a netlist dict.
    """

    name: str
    #: The circuit each client drives, one per client.
    client_circuits: Tuple[str, ...]
    #: ``ServerConfig.service_workers`` (``None``: answer in-process).
    service_workers: Optional[int]
    #: The timed phase runs on past ``--seconds`` until this many requests
    #: were answered, so its p99 has at least ten samples beyond it.
    min_requests: int = 3000

    @property
    def clients(self) -> int:
        return len(self.client_circuits)

    @property
    def circuits(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.client_circuits))


# synth-walk: one sizing loop, the paper's own use case (Figure 1.b inside
# a layout-aware synthesis loop).  One closed-loop client POSTs /place for
# the 21-block tso_cascode, sent inline as a netlist dict -- the only way a
# custom circuit reaches the daemon -- with dims from an annealing-style
# walk.  Loads the per-request fixed costs: JSON decode of an ~8 KB body,
# netlist resolve, structure fingerprint, the 4 ms coalesce window that a
# lone request waits out, the executor hop, scalar tier lookup and scalar
# cost scoring.  Bypasses dedup, vectorized scoring and the worker pool
# (no service_workers).
# Predictions: circuit-identity caching lowers latency_p50_ms here;
# adaptive coalescing lowers latency_p50_ms by about the 4 ms window.
SYNTH_WALK = Workload(
    name="synth-walk",
    client_circuits=("tso_cascode",),
    service_workers=None,
)

# twin-walk: two sizing loops sharing one daemon, each over its own inline
# topology (tso_cascode and benchmark24, whose shards land on different
# worker slots under the seeded config).  The only workload on which the
# micro-batcher coalesces concurrent requests and the affinity plan splits
# them by shard, and on which every /place pays a pinned worker round trip
# (service_workers=2, affinity on).  Bypasses dedup and vectorized scoring
# (one query per shard sub-batch).
# Predictions: circuit-identity caching lowers latency_p50_ms here too;
# adaptive coalescing must leave queries_per_s level -- a batching change
# that helps synth-walk shows its cost here.
# Its slow tail is the collectors': the daemon runs a full collection about
# every 290 requests (each decoded netlist is promoted while its request is
# in flight), which holds up both clients' requests (~0.7 % of requests),
# and each pinned worker runs one every 550-800 of its requests while its
# memo fills (~0.15 %, pauses growing with the memo to 50-90 ms).  That
# is just under 1 %, so latency_p99_ms reads the top of the unpaused
# requests (~21 ms); a change that adds a few collections per thousand
# requests moves it into the paused ones (30-45 ms).  Over 6000 requests
# the count of requests slower than twice the median holds at 48-59 from
# run to run, so p99 (60 beyond it) stays on the unpaused side of that
# knee unless host stalls add a dozen more (2 runs in 25 did).
TWIN_WALK = Workload(
    name="twin-walk",
    client_circuits=("tso_cascode", "benchmark24"),
    service_workers=2,
    min_requests=6000,
)

# Not a workload here: population optimizers sending 64-query mixed
# /place_batch requests (dedup, the memo, vectorized scoring).  That
# traffic is CPU-bound end to end, so its timings follow the host's CPU
# speed; on a shared 2-core VM that speed drifted by up to 1.6x within ten
# minutes (p50 spreads of 0.17-0.37 over ten runs, against 0.03-0.16 for
# the walks, whose latency includes the 4 ms window).

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (SYNTH_WALK, TWIN_WALK)
}


# ---------------------------------------------------------------------- #
# Stream generation
# ---------------------------------------------------------------------- #
#: Proposals between restarts of a sizing walk.  Restarts land inside a
#: stored placement's box, so every tier gets a real share: the walk
#: starts on the structure tier and drifts to nearest and fallback.
WALK_RESTART_EVERY = 20
#: Probability that a walk accepts its proposal and moves there.
WALK_ACCEPT = 0.6


class _Restarts:
    """Restart points inside the stored boxes, visiting boxes in turn.

    Fixed restart periods and round-robin boxes (from a seeded first box)
    keep the tier mix of a stream nearly the same for every seed, so
    runs on different seeds measure the same kind of work.
    """

    def __init__(self, structure, rng: random.Random) -> None:
        self._boxes = [stored.ranges for stored in structure.placements()]
        self._rng = rng
        self._next = rng.randrange(len(self._boxes))

    def point(self) -> List[Tuple[int, int]]:
        ranges = self._boxes[self._next % len(self._boxes)]
        self._next += 1
        return [
            (
                self._rng.randint(r.width.start, r.width.end),
                self._rng.randint(r.height.start, r.height.end),
            )
            for r in ranges
        ]


def sizing_walk(structure, rng: random.Random, length: int) -> List[Dims]:
    """An annealing-style sizing walk: one proposal per query.

    Each proposal nudges one to three block dimensions by a few units;
    the walk moves to it with probability :data:`WALK_ACCEPT`, as an
    annealer at moderate temperature would, and restarts inside the next
    stored box every :data:`WALK_RESTART_EVERY` proposals.
    """
    bounds = [(b.min_w, b.max_w, b.min_h, b.max_h) for b in structure.circuit.blocks]
    restarts = _Restarts(structure, rng)
    queries: List[Dims] = []
    for step in range(length):
        if step % WALK_RESTART_EVERY == 0:
            state = restarts.point()
        proposal = list(state)
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(proposal))
            min_w, max_w, min_h, max_h = bounds[index]
            w, h = proposal[index]
            delta = rng.choice((-3, -2, -1, 1, 2, 3))
            if rng.random() < 0.5:
                w = min(max(w + delta, min_w), max_w)
            else:
                h = min(max(h + delta, min_h), max_h)
            proposal[index] = (w, h)
        queries.append(tuple(proposal))
        if rng.random() < WALK_ACCEPT:
            state = proposal
    return queries


def client_streams(
    workload: Workload,
    structures: Dict[str, object],
    seed: int,
    requests: int,
    purpose: str = "timed",
) -> List[List[Query]]:
    """One query list per client, one query per request.

    Clients draw from independent generators derived from ``seed``, the
    stream's ``purpose`` (the warm-up stream is a separate one) and the
    client index, so adding or reordering clients never shifts another
    client's stream.
    """
    streams: List[List[Query]] = []
    for client, name in enumerate(workload.client_circuits):
        rng = random.Random(f"{workload.name}/{purpose}/{seed}/{client}")
        streams.append([(name, dims) for dims in sizing_walk(structures[name], rng, requests)])
    return streams
