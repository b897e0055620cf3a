"""Launch the placement daemon for one benchmark run.

Builds the server through the public serving API exactly as
``python -m repro.serve`` (``repro.serve.cli.main``) does -- registry via
``open_registry``, ``PlacementService`` with the CLI's cache size,
``PlacementServer`` under a ``ServerConfig`` left at its defaults -- with
three settings changed: ``port=0``, ``service_workers`` per workload, and
``GeneratorConfig(seed=0)`` as the service's default config (the CLI's
unseeded default would serve a different structure on every run).

With ``--trace-dir`` the served path's callables are wrapped with span
recorders (see ``tracing.py``) before the server is built and its worker
processes fork; every process writes its spans there when it exits.

Usage::

    python3 perfbench/server.py --registry DIR [--workers N] [--trace-dir DIR]

Prints ``listening on http://host:port`` once bound; SIGTERM drains.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    recorder = None
    if args.trace_dir:
        import tracing

        recorder = tracing.install(args.trace_dir)

    from repro.core.generator import GeneratorConfig
    from repro.parallel.sharding import open_registry
    from repro.serve.server import PlacementServer, ServerConfig
    from repro.service.engine import PlacementService

    registry = open_registry(args.registry, sharded=None)
    service = PlacementService(
        registry, default_config=GeneratorConfig(seed=0), cache_capacity=8
    )
    config = ServerConfig(port=0, service_workers=args.workers or None)

    async def _serve() -> None:
        server = PlacementServer(service, config, owns_service=True)
        await server.start()
        print(f"listening on {server.address}", flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.drain())
            )
        await server.serve_until_drained()
        await server.aclose()

    asyncio.run(_serve())
    if recorder is not None:
        recorder.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
