"""The repository benchmark: the live placement daemon, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload synth-walk --seed 1 --seconds 15 --trace 0

Each run starts the daemon (``server.py``) from an empty structure
registry, drives it over sockets from this one load-generator process
(closed loop, at most two client threads and two connections), checks
every answer bitwise against the in-process scalar oracle, and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes an untraced pass and then a traced pass (the daemon's
served path wrapped with span recorders, see ``tracing.py``) and reports
the per-layer metrics, the share of client latency the spans cover and
the tracing overhead.

What one pass does:

1. Cold-starts the daemon ``COLD_STARTS`` times, each on an empty
   registry, timing launch -> every circuit of the workload answered once,
   one circuit after another (``setup_s`` is the median; the last daemon
   keeps serving).
2. Reads the generated structures back from the registry and builds the
   seeded query stream from them (untimed), encoding every request.
3. Warms up on a separately seeded stream (untimed).
4. Replays the query stream for ``--seconds`` (timed; longer if fewer
   than the workload's ``min_requests`` were answered by then), then
   samples RSS.  ``latency_p99_ms`` is the nearest-rank p99 over every
   timed request; a run with fewer than ``min_requests`` answers or fewer
   than ten samples beyond its p99 is not ``correct``.
5. Drains the daemon with SIGTERM and checks every answer (untimed).

Workloads and the reasons for them are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Full cold starts per pass; ``setup_s`` is their median, because one
#: 1-3 s start on a noisy machine is not a steady figure.
COLD_STARTS = 3
#: Untimed warm-up before the timed phase.
WARMUP_SECONDS = 1.0
#: Leading queries per client whose tiers, repeat share and unique count
#: per circuit describe the input (a fixed amount, so every run of a seed
#: prints the same profile whatever its speed).
PROFILE_QUERIES = 4096
GENERATOR_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "queries_per_s": "1/s",
    "server_rss_mb": "MiB",
}


def log(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------- #
# The daemon process
# ---------------------------------------------------------------------- #
class Daemon:
    """One ``server.py`` process (its own session, so its workers too)."""

    def __init__(self, directory: Path, workers: Optional[int], traced: bool) -> None:
        self.directory = directory
        self.registry = directory / "registry"
        self.trace_dir = directory / "spans" if traced else None
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait until listening; returns the seconds it took."""
        self.directory.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--registry",
            str(self.registry),
            "--workers",
            str(self.workers or 0),
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        started = time.perf_counter()
        with open(self.directory / "server.log", "wb") as stderr:
            self.proc = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=stderr,
                cwd=self.directory,
                start_new_session=True,
                bufsize=0,
            )
        deadline = started + 120.0
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
            chunk = self.proc.stdout.read(1) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(f"daemon did not start:\n{self.log_tail()}")
            line += chunk
        listening = time.perf_counter() - started
        self.port = int(line.decode().rsplit(":", 1)[1])
        return listening

    def log_tail(self) -> str:
        try:
            return (self.directory / "server.log").read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def processes(self) -> List[int]:
        """The daemon's pid and every descendant's."""
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        frontier.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the daemon and its workers, MiB."""
        total_kb = 0
        for pid in self.processes():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM drain; the whole process group is killed if it hangs."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    log(f"daemon {self.proc.pid} did not drain; killing it")
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        finally:
            self.proc.stdout.close()


# ---------------------------------------------------------------------- #
# Noise diagnostics
# ---------------------------------------------------------------------- #
def cpu_probe_ms() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1000.0


def noise_note(label: str) -> str:
    return f"{label}: cpu probe {cpu_probe_ms():.1f} ms, load avg {os.getloadavg()[0]:.2f}"


# ---------------------------------------------------------------------- #
# One pass
# ---------------------------------------------------------------------- #
def percentile(sorted_values: Sequence[float], fraction: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_pass(
    workload,
    seed: int,
    seconds: float,
    directory: Path,
    traced: bool,
    reuse: Optional["Oracle"] = None,
) -> Dict:
    """One full pass; ``reuse`` lends an earlier pass's oracle answers."""
    from repro.benchcircuits.library import get_benchmark
    from repro.core.generator import GeneratorConfig
    from repro.core.serialization import circuit_from_dict, circuit_to_dict
    from repro.parallel.sharding import open_registry
    from repro.service.engine import PlacementService

    import loadgen
    import workloads
    from check import Oracle, check

    label = "traced" if traced else "untraced"
    names = workload.circuits
    memo_capacity = inspect.signature(PlacementService).parameters["memo_capacity"].default
    netlists = {name: circuit_to_dict(get_benchmark(name)) for name in names}
    circuits = {name: circuit_from_dict(data) for name, data in netlists.items()}
    circuit_json = {name: json.dumps(netlists[name]).encode() for name in names}

    def encode(query):
        name, dims = query
        return loadgen.encode_place(circuit_json[name], dims)

    # First sight: each client's circuit once, at its minimum dims.
    first_sight = [
        (name, tuple(block.min_dims for block in circuits[name].blocks))
        for name in workload.client_circuits
    ]
    first_sight_encoded = [encode(query) for query in first_sight]

    setup, listen, first_answers = [], [], []
    wall = {"begin": time.perf_counter()}
    daemon = None
    try:
        for attempt in range(COLD_STARTS):
            if daemon is not None:
                for connection in connections:
                    connection.close()
                daemon.stop()
            daemon = Daemon(directory / f"cold{attempt}", workload.service_workers, traced)
            started = time.perf_counter()
            listen.append(daemon.start())
            connections = [loadgen.Connection(daemon.port) for _ in range(workload.clients)]
            # One circuit at a time: on two cores, concurrent first sights
            # would time how the host shares its cores among generations.
            for connection, query, buffers in zip(connections, first_sight, first_sight_encoded):
                (client_log,), _, _ = loadgen.replay([connection], [[buffers]], None)
                first_answers.extend((exchange, query) for exchange in client_log.exchanges)
            setup.append(time.perf_counter() - started)
        wall["setup"] = time.perf_counter()

        registry = open_registry(daemon.registry)
        config = GeneratorConfig(seed=GENERATOR_SEED)
        structures = {name: registry.get(circuits[name], config) for name in names}
        missing = [name for name, structure in structures.items() if structure is None]
        if missing:
            raise RuntimeError(f"registry lacks structures for {missing}")

        # Enough that no client runs dry, however fast the daemon or short the run.
        requests = max(math.ceil(workloads.MAX_RATE * seconds), workload.min_requests + 1)
        timed = workloads.client_streams(workload, structures, seed, requests)
        warm = workloads.client_streams(
            workload, structures, seed, math.ceil(workloads.MAX_RATE * WARMUP_SECONDS), "warmup"
        )
        timed_encoded = [[encode(query) for query in client] for client in timed]
        warm_encoded = [[encode(query) for query in client] for client in warm]
        digest = loadgen.stream_digest(timed_encoded)
        wall["stream"] = time.perf_counter()

        warm_logs, _, _ = loadgen.replay(connections, warm_encoded, WARMUP_SECONDS)
        before = noise_note("before timed phase")
        logs, phase_start, phase_end = loadgen.replay(
            connections, timed_encoded, seconds, workload.min_requests
        )
        after = noise_note("after timed phase")
        rss_mb = daemon.peak_rss_mb()
        for connection in connections:
            connection.close()
        wall["replay"] = time.perf_counter()
    finally:
        if daemon is not None:
            daemon.stop()
    wall["drain"] = time.perf_counter()

    # ---- everything below is untimed: profile and check ----
    profile = [query for client in timed for query in client[:PROFILE_QUERIES]]
    served = [
        timed[client][exchange.request]
        for client, client_log in enumerate(logs)
        for exchange in client_log.exchanges
    ]
    oracle = Oracle(structures, reuse)
    oracle.prepare(chain(profile, served, (query for _, query in first_answers)))
    profile_tiers = Counter(oracle.tier(query) for query in profile)
    profile_unique = set(profile)
    profile_per_circuit = Counter(name for name, _ in profile_unique)

    first_ok = sum(check(exchange, query, oracle, None) for exchange, query in first_answers)
    warm_failed = sum(
        exchange.status != 200 for client_log in warm_logs for exchange in client_log.exchanges
    )
    served_sources: Counter = Counter()
    timeline: List[Tuple[float, float]] = []
    answered = failed = 0
    served_unique: Dict[str, set] = {name: set() for name in names}
    for client, client_log in enumerate(logs):
        for exchange in client_log.exchanges:
            name, dims = timed[client][exchange.request]
            if check(exchange, (name, dims), oracle, served_sources):
                answered += 1
                latency = exchange.latency_ms
                served_unique[name].add(dims)
            else:
                failed += 1
                latency = float("inf")
            timeline.append((exchange.sent, latency))
    attempted = len(timeline)
    latencies = sorted(latency for _, latency in timeline)
    elapsed = phase_end - phase_start
    p50, beyond50 = percentile(latencies, 0.50)
    p99, beyond99 = percentile(latencies, 0.99)
    # Diagnostics only: the p99 of each third of the phase (in request
    # order) and how many requests took more than twice the median.
    timeline.sort()
    thirds = [
        percentile(sorted(latency for _, latency in part), 0.99)[0]
        for part in (timeline[i * attempted // 3 : (i + 1) * attempted // 3] for i in range(3))
    ]
    slow = sum(latency > 2 * p50 for latency in latencies)
    exhausted = any(client_log.exhausted for client_log in logs)
    correct = (
        failed == 0
        and first_ok == len(first_answers)
        and warm_failed == 0
        and not exhausted
        and answered >= workload.min_requests
        and beyond99 >= 10
    )

    served_total = sum(served_sources.values())
    wall["check"] = time.perf_counter()
    log(f"--- {workload.name} seed {seed}, {label} pass ---")
    log(
        f"input: stream digest {digest} ({sum(map(len, timed))} requests materialized); "
        f"first {PROFILE_QUERIES} queries per client: tiers "
        + ", ".join(f"{tier} {profile_tiers[tier]}" for tier in ("structure", "nearest", "fallback"))
        + f"; repeat share {1 - len(profile_unique) / len(profile):.3f}; unique per circuit "
        + ", ".join(f"{name} {profile_per_circuit[name]}" for name in names)
        + f" (memo holds {memo_capacity} per structure)"
    )
    log(
        "served: tiers "
        + ", ".join(f"{tier} {served_sources[tier]}" for tier in ("structure", "nearest", "fallback"))
        + "; unique per circuit "
        + ", ".join(f"{name} {len(served_unique[name])}" for name in names)
        + f" vs memo {memo_capacity}"
    )
    log(
        f"setup: cold starts {', '.join(f'{value:.3f}' for value in setup)} s; "
        f"listening after {', '.join(f'{value:.3f}' for value in listen)} s; "
        f"first-sight answers ok {first_ok}/{len(first_answers)}"
    )
    log(f"noise: {before}; {after}")
    log(
        f"tail: p99 of the phase's thirds {', '.join(f'{value:.2f}' for value in thirds)} ms; "
        f"{slow} requests ({slow / max(attempted, 1):.2%}) took more than twice the median"
    )
    stages = list(wall.items())
    log(
        "wall: "
        + ", ".join(
            f"{stage} {stamp - previous:.1f} s"
            for (_, previous), (stage, stamp) in zip(stages, stages[1:])
        )
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": p50 if math.isfinite(p50) else loadgen.REQUEST_TIMEOUT * 1000,
        "latency_p99_ms": p99 if math.isfinite(p99) else loadgen.REQUEST_TIMEOUT * 1000,
        "queries_per_s": answered / elapsed if elapsed > 0 else 0.0,
        "server_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": f"median of {len(setup)} cold starts",
        "latency_p50_ms": f"{attempted} requests, {beyond50} beyond",
        "latency_p99_ms": f"{attempted} requests, {beyond99} beyond",
        "queries_per_s": f"{answered} queries in {elapsed:.3f} s",
        "server_rss_mb": "daemon + workers, at end of timed phase",
    }
    for name, value in metrics.items():
        log(f"  {name:16s} {value:12.4f} {END_TO_END_UNITS[name]:4s} ({samples[name]})")
    log(
        f"operations: attempted {attempted}, failed {failed}; warm-up non-200 {warm_failed}"
        + ("; STREAM EXHAUSTED" if exhausted else "")
        + (f"; FEWER THAN {workload.min_requests} ANSWERED" if answered < workload.min_requests else "")
        + ("; FEWER THAN 10 SAMPLES BEYOND p99" if beyond99 < 10 else "")
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "oracle": oracle,
    }
    if traced:
        import tracing

        spans = tracing.load_spans(daemon.trace_dir)
        client_ms = sum(value for value in latencies if math.isfinite(value))
        layers = tracing.layer_metrics(
            spans,
            (int(phase_start * 1e9), int(phase_end * 1e9)),
            answered,
            client_ms / answered if answered else 0.0,
        )
        for tier in ("structure", "nearest", "fallback"):
            layers[f"core.tier.{tier}_share"] = (
                served_sources[tier] / served_total if served_total else 0.0
            )
        layers["setup.listen_s"] = statistics.median(listen)
        layers["setup.generate_s"] = statistics.median(
            tracing.generate_seconds(tracing.load_spans(directory / f"cold{attempt}" / "spans"))
            for attempt in range(COLD_STARTS)
        )
        result["layers"] = layers
    return result


def layer_report(plain: Dict, traced: Dict) -> Dict[str, Dict]:
    """Print the traced pass's layers and overhead; the per-layer metrics."""
    from tracing import PER_LAYER_UNITS

    layers = traced["layers"]
    layers["trace.overhead_p50_ms"] = (
        traced["metrics"]["latency_p50_ms"] - plain["metrics"]["latency_p50_ms"]
    )
    log("tracing overhead (traced minus untraced pass):")
    for name, unit in END_TO_END_UNITS.items():
        log(f"  {name:16s} {traced['metrics'][name] - plain['metrics'][name]:+12.4f} {unit}")
    log(
        f"span coverage: the endpoint handlers take {layers['trace.coverage']:.3f} of "
        f"client latency ({layers['handler_ms']:.4f} ms per answered query); inside "
        f"them the named layers add up to {layers['layer_sum_ms']:.4f} ms of busy "
        "and wait time, summed over threads and processes (parallel sub-batches "
        "can take the sum past the handler time)"
    )
    log("per-layer (busy ms and counts per answered query unless named otherwise):")
    for name, unit in PER_LAYER_UNITS.items():
        log(f"  {name:32s} {layers[name]:12.5f} {unit}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the live placement daemon.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"no placement daemon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    directory = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    try:
        plain = run_pass(workload, args.seed, args.seconds, directory / "untraced", False)
        correct, attempted, failed = plain["correct"], plain["attempted"], plain["failed"]
        if args.trace:
            traced = run_pass(
                workload,
                args.seed,
                args.seconds,
                directory / "traced",
                True,
                reuse=plain["oracle"],
            )
            correct = correct and traced["correct"]
            attempted += traced["attempted"]
            failed += traced["failed"]
            metrics = layer_report(plain, traced)
        else:
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in plain["metrics"].items()
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
