"""Bounded open-loop load over a fixed number of keep-alive connections.

The schedule is open loop: request ``i`` is due at ``start + at_i``
whatever happened before it.  At most ``connections`` requests are in
flight.  A due request waits on the client side until a connection frees
up, and that wait counts in its latency, which runs from the due time to
the end of the response.  (``repro.server.loadgen.run_load`` opens another
connection whenever all are busy, so under overload it grows the socket
count instead of queueing; this generator keeps the server's view at exactly
``connections`` sockets.)

One process, one event loop.  Generator lateness is the part of a send
delay that is the generator's own: time past both the due time and the
moment a connection was free (:func:`perfbench.stats.lateness`).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.server.http import read_response

from perfbench.stats import lateness

#: per-request socket budget; a request that exceeds it has failed.
TIMEOUT_S = 30.0


@dataclass
class Outcome:
    """What happened to one sent request (times are ``time.monotonic``)."""

    index: int
    scheduled: float
    free_at: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: transport failure, no response
    body: bytes | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        """Seconds from the due time to the end of the response."""
        return self.done - self.scheduled

    @property
    def lateness(self) -> float:
        return lateness(self.scheduled, self.free_at, self.sent)


@dataclass
class PhaseResult:
    """Every outcome of one phase, plus how many requests were due."""

    name: str
    start: float
    end: float
    due: int
    outcomes: list[Outcome]

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    @property
    def not_sent(self) -> int:
        """Requests still queued on the client when the phase closed."""
        return self.due - self.sent

    def counts(self) -> dict[str, int]:
        return {"due": self.due, "sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "not_sent": self.not_sent}


def render_request(host: str, path: str, body: bytes,
                   request_id: str | None = None) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if request_id is not None:
        head += f"X-Request-Id: {request_id}\r\n"
    return (head + "\r\n").encode("ascii") + body


async def replay(host: str, port: int, requests, seconds: float, name: str,
                 connections: int = 2, tag: str | None = None) -> PhaseResult:
    """Offer ``requests`` open loop for ``seconds`` over ``connections`` sockets.

    Requests due after the window are not offered.  Requests still waiting
    for a connection when the window closes are counted as not sent (the
    backlog an overload phase builds); requests in flight at the close are
    awaited.  With ``tag`` each request carries ``X-Request-Id: <tag><i>``
    so a traced server's spans can be joined to the client's.
    """
    due = [request for request in requests if request.at < seconds]
    start = time.monotonic() + 0.02
    end = start + seconds
    cursor = iter(range(len(due)))
    outcomes: list[Outcome] = []

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for index in cursor:
                free_at = time.monotonic()
                if free_at >= end:
                    break
                request = due[index]
                scheduled = start + request.at
                if scheduled > free_at:
                    await asyncio.sleep(scheduled - free_at)
                outcome = Outcome(index, scheduled, free_at)
                outcomes.append(outcome)
                payload = render_request(
                    host, request.path, request.body,
                    None if tag is None else f"{tag}{index}",
                )
                outcome.sent = time.monotonic()
                try:
                    writer.write(payload)
                    await writer.drain()
                    response = await asyncio.wait_for(read_response(reader), TIMEOUT_S)
                    if response is None:
                        raise ProtocolError("server closed the connection")
                except (OSError, ProtocolError, asyncio.TimeoutError) as exc:
                    outcome.done = time.monotonic()
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
                    continue
                outcome.done = time.monotonic()
                outcome.status = response.status
                outcome.body = response.body
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    await asyncio.gather(*(connection() for _ in range(connections)))
    outcomes.sort(key=lambda outcome: outcome.index)
    return PhaseResult(name, start, end, len(due), outcomes)


def run_phase(host: str, port: int, requests, seconds: float, name: str,
              connections: int = 2, tag: str | None = None) -> PhaseResult:
    """Synchronous wrapper: one event loop per phase."""
    return asyncio.run(replay(host, port, requests, seconds, name, connections, tag))
