"""The closed-loop load generator: pre-encoded requests over raw sockets.

Every request is encoded before the clock starts; inline netlists are
encoded once and shared by reference across all of a client's requests
(``sendmsg`` gathers header, netlist and dims without copying), so the
generator's own per-request work is one syscall out and a header parse
in.  Each client owns one keep-alive connection and waits for every
reply before sending its next request, as a sizing loop does.  Responses
are kept as raw bytes and decoded only after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import List, Optional, Sequence, Tuple

#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: A timed phase never runs past this multiple of its nominal length,
#: whatever its request minimum (a stalled daemon must not hang the run).
MAX_STRETCH = 4.0


def _dims_json(dims) -> bytes:
    return json.dumps(dims, separators=(",", ":")).encode()


def _head(path: str, length: int) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode("ascii")


def encode_place(circuit: bytes, dims) -> Tuple[bytes, ...]:
    """A ``/place`` request as buffers; ``circuit`` is JSON (name or netlist)."""
    parts = (b'{"circuit":', circuit, b',"dims":' + _dims_json(dims) + b"}")
    return (_head("/place", sum(map(len, parts))),) + parts


def stream_digest(requests: Sequence[Sequence[Tuple[bytes, ...]]]) -> str:
    """sha256 over every client's encoded requests, in client order."""
    digest = hashlib.sha256()
    for client in requests:
        for buffers in client:
            for buffer in buffers:
                digest.update(buffer)
    return digest.hexdigest()[:16]


class Connection:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._open()

    def _open(self) -> None:
        self._sock = socket.create_connection(("127.0.0.1", self._port), timeout=REQUEST_TIMEOUT)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def exchange(self, buffers: Sequence[bytes]) -> Tuple[int, bytes]:
        """Send one request, return ``(status, body)``; reconnects after errors."""
        try:
            self._sock.sendmsg(buffers)
            status_line = self._reader.readline()
            if not status_line:
                raise ConnectionError("connection closed by server")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = self._reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return status, self._reader.read(length)
        except (OSError, ValueError, IndexError):
            self.close()
            self._open()
            raise


@dataclass
class Exchange:
    """One request as the client saw it."""

    request: int
    sent: float
    received: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


@dataclass
class ClientLog:
    exchanges: List[Exchange] = field(default_factory=list)
    exhausted: bool = False


def _client_loop(
    connection: Connection,
    requests: Sequence[Tuple[bytes, ...]],
    start: float,
    deadline: float,
    min_requests: int,
    logs: Sequence[ClientLog],
    log: ClientLog,
) -> None:
    while perf_counter() < start:
        sleep(0.0005)
    stop_by = start + (deadline - start) * MAX_STRETCH
    for index, buffers in enumerate(requests):
        sent = perf_counter()
        if sent >= stop_by or (
            sent >= deadline and sum(len(other.exchanges) for other in logs) >= min_requests
        ):
            return
        try:
            status, body = connection.exchange(buffers)
        except (OSError, ValueError, IndexError):
            status, body = 0, b""
        log.exchanges.append(Exchange(index, sent, perf_counter(), status, body))
    log.exhausted = True


def replay(
    connections: Sequence[Connection],
    streams: Sequence[Sequence[Tuple[bytes, ...]]],
    seconds: Optional[float],
    min_requests: int = 0,
) -> Tuple[List[ClientLog], float, float]:
    """Run every client's closed loop; returns logs and the phase bounds.

    Clients stop sending once ``seconds`` have passed and, together, at
    least ``min_requests`` requests were answered (or ``MAX_STRETCH``
    times ``seconds`` have passed).  With ``seconds=None``
    each client sends its whole stream once.  The calling thread drives
    the first client and one extra thread the second, so the generator
    never runs more threads than clients.
    """
    start = perf_counter() + 0.01
    deadline = start + seconds if seconds is not None else float("inf")
    logs = [ClientLog() for _ in connections]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(connections[i], streams[i], start, deadline, min_requests, logs, logs[i]),
        )
        for i in range(1, len(connections))
    ]
    for thread in threads:
        thread.start()
    _client_loop(connections[0], streams[0], start, deadline, min_requests, logs, logs[0])
    for thread in threads:
        thread.join()
    end = max(
        (log.exchanges[-1].received for log in logs if log.exchanges), default=start
    )
    return logs, start, end
