"""Shared harness for the HTTP serving tests.

Everything the app/loadgen tests need to exercise the front door over real
sockets without real engines: a duck-typed stub service that records every
call it receives (the "did the shed request touch the pool?" assertions
read that log), deterministic fake result objects that satisfy the
serializers, a minimal keep-alive client, and ``serve`` — the one-loop
runner that starts an app on a free port, runs a scenario coroutine, and
tears the app down in the same event loop.
"""

from __future__ import annotations

import asyncio
import json
import time
import types

import pytest

from repro.api.service import ServiceStats
from repro.server import ServerConfig, SimRankHTTPApp
from repro.server.http import read_response


class FakeTopK:
    """Stands in for :class:`repro.core.results.TopKResult` in serializers."""

    def __init__(self, query: int, k: int) -> None:
        self.query = query
        self.method = "stub"
        self.k = k

    def as_pairs(self):
        return [[int(self.query), 0.5]]


class FakeResult:
    """Stands in for a single-source result in :func:`serialize_result`."""

    def __init__(self, query: int) -> None:
        self.query = query
        self.method = "stub"
        self.num_walks = 100

    def topk(self, limit: int) -> FakeTopK:
        return FakeTopK(self.query, limit)


class StubService:
    """Duck-typed ``ParallelSimRankService`` stand-in that records every call.

    ``gate`` (a ``threading.Event``) blocks each service call on the
    dispatch thread until the test releases it — that is how the admission
    tests hold a lane full.  ``delay`` sleeps instead, for deadline tests.
    """

    def __init__(self, delay: float = 0.0, gate=None, epoch: int | None = None):
        self.stats = ServiceStats()
        self.calls: list[tuple] = []
        self.delay = delay
        self.gate = gate
        self.closed = 0
        if epoch is not None:
            self.epoch = epoch

    @property
    def methods(self) -> list[str]:
        return ["stub"]

    def _work(self) -> None:
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never released"
        if self.delay:
            time.sleep(self.delay)

    def cached(self, query, method=None):
        return None  # nothing stored: every request reaches the dispatch

    def single_source(self, query, method=None):
        self.calls.append(("single_source", query))
        self._work()
        return FakeResult(query)

    def single_source_many(self, queries, method=None):
        self.calls.append(("single_source_many", tuple(queries)))
        self._work()
        return [FakeResult(q) for q in queries]

    def topk(self, query, k, method=None):
        self.calls.append(("topk", query, k))
        self._work()
        return FakeTopK(query, k)

    def topk_many(self, queries, k, method=None):
        self.calls.append(("topk_many", tuple(queries), k))
        self._work()
        return [FakeTopK(q, k) for q in queries]

    def apply_edges(self, added=(), removed=()):
        self.calls.append(("apply_edges", tuple(added), tuple(removed)))
        self._work()
        return len(added) + len(removed)

    def close(self) -> None:
        self.closed += 1


class Client:
    """One keep-alive connection speaking just enough HTTP for the tests."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "Client":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc) -> None:
        self.writer.close()

    async def request(self, method: str, path: str, payload=None,
                      body: bytes | None = None, headers=()):
        """Send one request and parse the response (None body on EOF)."""
        if body is None:
            body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in headers:
            head += f"{name}: {value}\r\n"
        self.writer.write(head.encode("ascii") + b"\r\n" + body)
        await self.writer.drain()
        return await read_response(self.reader)


def serve(service, scenario, **config_kwargs):
    """Run ``scenario(app)`` against a live app on a free port, one loop.

    The app binds port 0, the scenario coroutine gets the started app, and
    teardown (``aclose``) runs in the same event loop whether the scenario
    passed or raised.  The injected service is left open for the test to
    inspect.  Returns the scenario's return value.
    """
    config = ServerConfig(host="127.0.0.1", port=0, **config_kwargs)

    async def main():
        app = SimRankHTTPApp(service, config)
        await app.start()
        try:
            return await scenario(app)
        finally:
            await app.aclose(close_service=False)

    return asyncio.run(main())


@pytest.fixture
def harness():
    """Namespace of serving-test helpers (classes + the ``serve`` runner)."""
    return types.SimpleNamespace(
        StubService=StubService,
        FakeResult=FakeResult,
        FakeTopK=FakeTopK,
        Client=Client,
        serve=serve,
    )
