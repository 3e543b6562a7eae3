"""Run ``repro serve`` with spans recorded around each layer's public calls.

    python3 perfbench/traced_serve.py SPANS.json serve --snapshot g.csr ...

Everything after the spans path goes to ``repro.cli.main`` unchanged.
Before handing over, this wraps, where the serving code looks them up:

- ``repro.server.app``'s ``read_request`` (from the arrival of the
  request head to the parsed request), ``serialize_topk`` and
  ``render_response`` (HTTP parse and render);
- ``AdmissionController.admit`` (admission and sheds);
- ``Coalescer.submit`` and the dispatch callable a ``Coalescer`` is built
  with (coalescing wait, batch membership);
- the app's dispatch thread, ``repro.server.app.ThreadPoolExecutor``
  (queue wait and run time of every service call);
- ``ParallelSimRankService.single_source_many`` / ``apply_edges`` and
  ``ResultCache.get`` / ``put`` (pool call, cache probes, and each
  computed answer's ``SimRankResult.elapsed`` in the order the pool split
  the misses across workers);
- ``SharedCSRGraph.publish`` / ``from_snapshot`` and
  ``PersistentGraphStore.open`` / ``materialize`` / ``log`` /
  ``checkpoint`` (maintenance, storage and set-up).

Records stay in memory and are written as one JSON list when the process
receives SIGUSR1 and again when it exits.  Each record carries the
client's ``X-Request-Id`` (or the coalesced batch the request joined), so
the benchmark can assemble one span tree per request.  Only this process
is instrumented; worker processes run unmodified.
"""

from __future__ import annotations

import time

#: taken before the heavy imports: interpreter start-up ends here.
STARTED = time.monotonic()

import contextlib  # noqa: E402
import contextvars  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import cli  # noqa: E402
from repro.errors import AdmissionError  # noqa: E402
from repro.parallel.cache import ResultCache  # noqa: E402
from repro.parallel.pool import ParallelSimRankService  # noqa: E402
from repro.parallel.shm import SharedCSRGraph  # noqa: E402
from repro.server import app as app_module  # noqa: E402
from repro.server.admission import AdmissionController  # noqa: E402
from repro.server.coalesce import Coalescer  # noqa: E402
from repro.storage.store import (  # noqa: E402
    PersistentGraphStore,
    snapshot_path,
    wal_path,
)

now = time.monotonic


class Recorder:
    """In-memory span records of one serving process."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        #: request id of the connection task being served (event loop)
        self.request = contextvars.ContextVar("request", default=None)
        #: coalesced batch whose dispatch is running (event loop)
        self.batch = contextvars.ContextVar("batch", default=None)
        #: (request, batch) owning the dispatch-thread call in progress
        self.local = threading.local()
        self.batch_ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, **fields) -> None:
        # list.append is atomic under the interpreter lock; no lock, so a
        # SIGUSR1 dump in the main thread can never wait on one
        self.records.append({"name": name, "start": start, "end": end, **fields})

    def owner(self) -> dict:
        rid, batch = getattr(self.local, "owner", None) or (None, None)
        return {"rid": rid, "batch": batch}

    def dump(self, path: Path) -> None:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(list(self.records)))
        os.replace(tmp, path)


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def install(rec: Recorder) -> None:
    """Wrap every traced call site (see the module docstring)."""
    # -- HTTP parse and render --------------------------------------------
    read_request = app_module.read_request

    class HeadStamp:
        """The connection's reader, noting when a request head arrived.

        On a keep-alive connection ``read_request`` is already waiting for
        the next request while the client is still idle, so parsing starts
        when the head has arrived, not when the call was made.
        """

        def __init__(self, reader) -> None:
            self.reader = reader
            self.arrived = None

        async def readuntil(self, separator):
            head = await self.reader.readuntil(separator)
            self.arrived = now()
            return head

        def readexactly(self, count):
            return self.reader.readexactly(count)

    async def traced_read_request(reader, max_body=1_048_576):
        stamped = HeadStamp(reader)
        request = await read_request(stamped, max_body)
        if request is not None:
            rid = request.headers.get("x-request-id")
            # set in the connection task's own context: every later call
            # made while serving this request sees it
            rec.request.set(rid)
            rec.add("http.parse", stamped.arrived, now(), rid=rid)
        return request

    serialize_topk = app_module.serialize_topk

    def traced_serialize_topk(result):
        start = now()
        body = serialize_topk(result)
        rec.add("http.serialize", start, now(), rid=rec.request.get())
        return body

    render_response = app_module.render_response

    def traced_render_response(status, body, *args, **kwargs):
        start = now()
        payload = render_response(status, body, *args, **kwargs)
        rec.add("http.render", start, now(), rid=rec.request.get(), status=status)
        return payload

    app_module.read_request = traced_read_request
    app_module.serialize_topk = traced_serialize_topk
    app_module.render_response = traced_render_response

    # -- admission --------------------------------------------------------
    admit = AdmissionController.admit

    @contextlib.contextmanager
    def traced_admit(self, lane_name):
        start, rid, entered = now(), rec.request.get(), False
        try:
            with admit(self, lane_name) as permit:
                entered = True
                rec.add("admission", start, now(), rid=rid, lane=lane_name)
                yield permit
        except AdmissionError:
            if not entered:
                rec.add("admission.shed", start, now(), rid=rid, lane=lane_name)
            raise

    AdmissionController.admit = traced_admit

    # -- coalescing -------------------------------------------------------
    coalescer_init = Coalescer.__init__
    submit = Coalescer.submit

    def traced_init(self, dispatch, *args, **kwargs):
        pending: dict = {}
        self.perfbench_pending = pending

        async def traced_dispatch(key, queries):
            started, batch = now(), next(rec.batch_ids)
            wanted = set(queries)
            waiting = pending.get(key, [])
            members = [entry for entry in waiting if entry[1] in wanted]
            pending[key] = [entry for entry in waiting if entry[1] not in wanted]
            for rid, _, submitted in members:
                rec.add("coalesce.wait", submitted, started, rid=rid, batch=batch)
            rec.add("coalesce.batch", started, started, batch=batch,
                    queries=list(queries), waiters=len(members))
            token = rec.batch.set(batch)
            try:
                return await dispatch(key, queries)
            finally:
                rec.batch.reset(token)

        coalescer_init(self, traced_dispatch, *args, **kwargs)

    async def traced_submit(self, key, query):
        self.perfbench_pending.setdefault(key, []).append(
            (rec.request.get(), query, now())
        )
        return await submit(self, key, query)

    Coalescer.__init__ = traced_init
    Coalescer.submit = traced_submit

    # -- the dispatch thread ----------------------------------------------
    class TracingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted = now()
            rid, batch = rec.request.get(), rec.batch.get()

            def run():
                started = now()
                rec.local.owner = (rid, batch)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.local.owner = None
                    rec.add("dispatch.queue", submitted, started, rid=rid, batch=batch)
                    rec.add("dispatch.run", started, now(), rid=rid, batch=batch)

            return super().submit(run)

    app_module.ThreadPoolExecutor = TracingExecutor

    # -- pool and cache -----------------------------------------------------
    single_source_many = ParallelSimRankService.single_source_many

    def traced_single_source_many(self, queries, method=None):
        call = {"computed": [], "probe": None}
        rec.local.call = call
        start = now()
        try:
            return single_source_many(self, queries, method)
        finally:
            rec.local.call = None
            rec.add("pool.call", start, now(), workers=self.workers,
                    queries=len(queries), computed=call["computed"],
                    probe=call["probe"], **rec.owner())

    cache_get = ResultCache.get

    def traced_get(self, method, query, epoch):
        call = getattr(rec.local, "call", None)
        start = now()
        result = cache_get(self, method, query, epoch)
        if call is not None:
            first = start if call["probe"] is None else call["probe"][0]
            call["probe"] = [first, now()]
        return result

    cache_put = ResultCache.put

    def traced_put(self, method, query, epoch, result):
        call = getattr(rec.local, "call", None)
        if call is not None:
            # puts come in op order, i.e. miss i went to worker i % workers
            call["computed"].append([int(query), float(result.elapsed)])
        return cache_put(self, method, query, epoch, result)

    ParallelSimRankService.single_source_many = traced_single_source_many
    ResultCache.get = traced_get
    ResultCache.put = traced_put

    # -- maintenance and storage ------------------------------------------
    apply_edges = ParallelSimRankService.apply_edges

    def traced_apply_edges(self, added=(), removed=()):
        added, removed = list(added), list(removed)
        start = now()
        try:
            return apply_edges(self, added, removed)
        finally:
            rec.add("maint.apply", start, now(), updates=len(added) + len(removed),
                    **rec.owner())

    publish = SharedCSRGraph.publish

    def traced_publish(self, graph):
        start = now()
        epoch = publish(self, graph)
        rec.add("maint.publish", start, now(), epoch=epoch, **rec.owner())
        return epoch

    log = PersistentGraphStore.log

    def traced_log(self, updates):
        path = wal_path(self.directory, self.generation)
        before, start = _file_size(path), now()
        written = log(self, updates)
        rec.add("store.log", start, now(), updates=len(updates),
                bytes=_file_size(path) - before, **rec.owner())
        return written

    checkpoint = PersistentGraphStore.checkpoint

    def traced_checkpoint(self, graph):
        start = now()
        generation = checkpoint(self, graph)
        rec.add("store.checkpoint", start, now(),
                bytes=_file_size(snapshot_path(self.directory, generation)),
                **rec.owner())
        return generation

    ParallelSimRankService.apply_edges = traced_apply_edges
    SharedCSRGraph.publish = traced_publish
    PersistentGraphStore.log = traced_log
    PersistentGraphStore.checkpoint = traced_checkpoint

    # -- set-up -------------------------------------------------------------
    def timed_classmethod(cls, name, span):
        original = getattr(cls, name)

        def wrapper(klass, *args, **kwargs):
            start = now()
            try:
                return original(*args, **kwargs)
            finally:
                rec.add(span, start, now(), call=f"{cls.__name__}.{name}")

        setattr(cls, name, classmethod(wrapper))

    timed_classmethod(SharedCSRGraph, "from_snapshot", "setup.attach")
    timed_classmethod(PersistentGraphStore, "open", "setup.attach")

    materialize = PersistentGraphStore.materialize

    def traced_materialize(self):
        start = now()
        try:
            return materialize(self)
        finally:
            rec.add("setup.attach", start, now(), call="PersistentGraphStore.materialize")

    PersistentGraphStore.materialize = traced_materialize

    service_init = ParallelSimRankService.__init__

    def traced_service_init(self, *args, **kwargs):
        start = now()
        try:
            service_init(self, *args, **kwargs)
        finally:
            rec.add("setup.service", start, now())

    ParallelSimRankService.__init__ = traced_service_init


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    rec = Recorder()
    install(rec)
    rec.add("setup.imports", STARTED, now())
    signal.signal(signal.SIGUSR1, lambda *_: rec.dump(spans_path))
    try:
        return cli.main(argv[1:])
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
