"""``python -m repro.serve`` — run the placement server as a daemon.

Examples::

    # Serve a structure registry with 4-way process fan-out:
    python -m repro.serve --registry /var/lib/repro/structures --workers 4

    # Tight coalescing, bounded inflight queue, per-tenant quotas:
    python -m repro.serve --registry ./structures \\
        --window-ms 2 --max-batch 128 --max-inflight 512 \\
        --quota-rps 200 --quota-burst 400

SIGTERM (and Ctrl-C) drain gracefully: the listener closes, in-flight
batches finish, metrics flush, owned pools shut down, and the process
exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional

from repro.utils.logging_utils import get_logger

LOGGER = get_logger("serve.cli")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Always-on placement server: micro-batching JSON/HTTP front "
        "end over a PlacementService.",
    )
    parser.add_argument(
        "--registry",
        default=None,
        help="structure registry directory (flat or sharded, read from the root; "
        "created flat when missing). Each topology is generated once across "
        "processes. Without one, structures are generated in memory.",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="create a fresh registry root fingerprint-sharded, one index per "
        "shard (ignored for existing roots, which keep their layout)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8117, help="TCP port (0 binds ephemerally)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process fan-out for batch dispatch (instantiate_batch workers=N; "
        "needs --registry)",
    )
    parser.add_argument(
        "--no-affinity",
        action="store_true",
        help="disable shard-affinity routing: batches fan out shard-blind "
        "instead of pinning each shard's sub-batch to its owner worker",
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=4.0,
        help="micro-batch coalesce window in milliseconds (default 4)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="largest coalesced batch"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="inflight query budget; excess sheds with 429 + Retry-After",
    )
    parser.add_argument(
        "--quota-rps",
        type=float,
        default=None,
        help="per-tenant sustained queries/second (X-Tenant header; default: no quotas)",
    )
    parser.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="per-tenant burst ceiling (default: 2x --quota-rps)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request queueing budget when X-Deadline-Ms is absent",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="dispatch threads running blocking service calls off the event loop",
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=8,
        help="(structure, instantiator) pairs kept in the service LRU",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable repro.obs span tracing for the serving path",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append a structured JSONL access-log line per request",
    )
    parser.add_argument(
        "--flight-dump",
        default=None,
        metavar="PATH",
        help="dump the flight-recorder ring (last N requests) here as JSONL "
        "on drain and on unhandled errors",
    )
    parser.add_argument(
        "--flight-records",
        type=int,
        default=512,
        help="flight-recorder ring size (default 512)",
    )
    parser.add_argument(
        "--slo-latency-ms",
        type=float,
        default=500.0,
        help="latency SLO threshold in milliseconds (default 500)",
    )
    parser.add_argument(
        "--slo-availability",
        type=float,
        default=0.999,
        help="availability SLO target fraction (default 0.999)",
    )
    parser.add_argument(
        "--slo-window-s",
        type=float,
        default=3600.0,
        help="rolling SLO compliance window in seconds (default 3600)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.serve``."""
    args = build_parser().parse_args(argv)
    if args.trace:
        from repro.obs.spans import configure

        configure(enabled=True)

    import signal

    from repro.parallel.sharding import open_registry
    from repro.serve.server import PlacementServer, ServerConfig
    from repro.service.engine import PlacementService

    registry = (
        open_registry(args.registry, sharded=args.sharded or None)
        if args.registry is not None
        else None
    )
    if registry is None and args.workers:
        LOGGER.warning(
            "--workers has no effect without --registry (process fan-out "
            "needs a shared structure library); serving in-process"
        )
    service = PlacementService(registry, cache_capacity=args.cache)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        window_seconds=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        quota_rate=args.quota_rps,
        quota_burst=args.quota_burst,
        default_deadline_seconds=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
        service_workers=args.workers,
        affinity=not args.no_affinity,
        executor_threads=args.threads,
        slo_availability_target=args.slo_availability,
        slo_latency_threshold_seconds=args.slo_latency_ms / 1000.0,
        slo_window_seconds=args.slo_window_s,
        flight_records=args.flight_records,
        flight_dump_path=args.flight_dump,
        access_log_path=args.access_log,
    )

    async def _serve() -> None:
        server = PlacementServer(service, config, owns_service=True)
        await server.start()
        # The one line a supervisor (or the CLI smoke test) scrapes for
        # the bound address — meaningful with --port 0.
        print(f"listening on {server.address}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.drain())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break
        await server.serve_until_drained()
        await server.aclose()

    asyncio.run(_serve())
    print("placement server drained cleanly", flush=True)
    return 0
