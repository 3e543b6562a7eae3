"""Runtime lock-order sanitizer: a pytest plugin.

Enable with ``pytest -p repro.analysis.sanitizer``.  While active it
replaces ``threading.Lock``/``threading.RLock`` with instrumented
wrappers for locks *allocated from project code* (stdlib and
site-packages allocations keep the real primitives) and:

- records the lock-acquisition graph keyed by allocation site, adding an
  edge ``A -> B`` whenever a thread acquires ``B`` while holding ``A``;
- fails the session on **lock-order inversions** — an edge that closes a
  cycle in that graph, i.e. two sites acquired in both orders, the static
  precondition for an ABBA deadlock even when no run has deadlocked yet;
- flags **same-site nesting** — two *distinct* lock instances from one
  allocation site held simultaneously (e.g. one service holding its
  ``_stats_lock`` while calling into another service's), which no global
  order can protect;
- asserts the HTTP app's **single-thread dispatch contract**: every
  ``SimRankHTTPApp._run_blocking`` callable for a given app instance must
  execute on exactly one executor thread (the services' thread model
  allows concurrent queries only with one driving thread per replica).

Violations are reported in the terminal summary and flip the session
exit status to 1.  The sanitizer uses real (uninstrumented) locks for its
own state, so it never participates in the graphs it checks.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_DISPATCH_ATTR = "_sanitizer_dispatch_idents"


@dataclass(frozen=True)
class Violation:
    kind: str  # "lock-order-inversion" | "same-site-nesting" | "dispatch-threads"
    message: str
    details: str = ""

    def render(self) -> str:
        """Report form: ``[kind] message`` plus captured stacks, if any."""
        text = f"[{self.kind}] {self.message}"
        if self.details:
            text += "\n" + self.details
        return text


class _HeldEntry:
    __slots__ = ("lock", "count")

    def __init__(self, lock: "_InstrumentedLock") -> None:
        self.lock = lock
        self.count = 1


class _InstrumentedLock:
    """Wrapper delegating to a real lock while reporting to the sanitizer."""

    __slots__ = ("_inner", "site", "_sanitizer")

    def __init__(self, inner: Any, site: str, sanitizer: "LockSanitizer") -> None:
        self._inner = inner
        self.site = site
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            self._sanitizer.on_acquire(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._sanitizer.on_release(self)

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<sanitized lock from {self.site}>"


@dataclass
class LockSanitizer:
    """Acquisition-graph recorder with cycle detection on edge insert."""

    violations: list[Violation] = field(default_factory=list)
    edges_recorded: int = 0
    locks_instrumented: int = 0
    dispatch_calls: int = 0

    def __post_init__(self) -> None:
        self._mutex = _REAL_LOCK()
        self._tls = threading.local()
        self._graph: dict[str, set[str]] = {}
        self._edge_stacks: dict[tuple[str, str], str] = {}
        self._same_site_reported: set[str] = set()
        self._installed = False
        self._original_run_blocking: Any = None

    # -- instrumentation lifecycle ------------------------------------

    def install(self) -> None:
        """Patch ``threading.Lock``/``RLock`` and the app dispatch path."""
        if self._installed:
            return
        self._installed = True
        sanitizer = self

        def make_lock() -> Any:
            return sanitizer._allocate(_REAL_LOCK, sys._getframe(1))

        def make_rlock() -> Any:
            return sanitizer._allocate(_REAL_RLOCK, sys._getframe(1))

        threading.Lock = make_lock  # type: ignore
        threading.RLock = make_rlock  # type: ignore
        self._patch_dispatch()

    def uninstall(self) -> None:
        """Restore every patched primitive (idempotent)."""
        if not self._installed:
            return
        self._installed = False
        threading.Lock = _REAL_LOCK  # type: ignore
        threading.RLock = _REAL_RLOCK  # type: ignore
        if self._original_run_blocking is not None:
            from repro.server.app import SimRankHTTPApp

            SimRankHTTPApp._run_blocking = self._original_run_blocking
            self._original_run_blocking = None

    def _allocate(self, factory: Callable[[], Any], caller: Any) -> Any:
        inner = factory()
        filename = caller.f_code.co_filename
        if not _is_project_code(filename):
            return inner
        site = f"{os.path.relpath(filename)}:{caller.f_lineno}"
        self.locks_instrumented += 1
        return _InstrumentedLock(inner, site, self)

    # -- acquisition graph --------------------------------------------

    def _held(self) -> list[_HeldEntry]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held  # type: ignore

    def on_acquire(self, lock: _InstrumentedLock) -> None:
        """Record an acquisition: add graph edges from every held lock."""
        held = self._held()
        for entry in held:
            if entry.lock is lock:  # reentrant RLock acquire
                entry.count += 1
                return
        if held:
            stack = "".join(traceback.format_stack(limit=8)[:-2])
            with self._mutex:
                for entry in held:
                    self._record_edge(entry.lock, lock, stack)
        held.append(_HeldEntry(lock))

    def on_release(self, lock: _InstrumentedLock) -> None:
        """Pop the lock from this thread's held stack (reentrancy-aware)."""
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            entry = held[index]
            if entry.lock is lock:
                entry.count -= 1
                if entry.count == 0:
                    del held[index]
                return

    def _record_edge(
        self, held: _InstrumentedLock, acquired: _InstrumentedLock, stack: str
    ) -> None:
        source, target = held.site, acquired.site
        if source == target:
            if held is not acquired and source not in self._same_site_reported:
                self._same_site_reported.add(source)
                self.violations.append(
                    Violation(
                        kind="same-site-nesting",
                        message=(
                            f"two distinct locks allocated at {source} are held "
                            "simultaneously; no global acquisition order can "
                            "protect same-site siblings"
                        ),
                        details=stack,
                    )
                )
            return
        successors = self._graph.setdefault(source, set())
        if target in successors:
            return
        if self._reaches(target, source):
            first = self._edge_stacks.get((target, source)) or self._first_stack_on_path(
                target, source
            )
            self.violations.append(
                Violation(
                    kind="lock-order-inversion",
                    message=(
                        f"acquiring {target} while holding {source} inverts the "
                        f"established order {target} -> ... -> {source} (ABBA "
                        "deadlock precondition)"
                    ),
                    details=(
                        "second order (this acquisition):\n"
                        + stack
                        + ("first order:\n" + first if first else "")
                    ),
                )
            )
        successors.add(target)
        self._edge_stacks[(source, target)] = stack
        self.edges_recorded += 1

    def _reaches(self, start: str, goal: str) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for successor in self._graph.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return False

    def _first_stack_on_path(self, start: str, goal: str) -> str:
        for (source, target), stack in self._edge_stacks.items():
            if source == start and (target == goal or self._reaches(target, goal)):
                return stack
        return ""

    # -- dispatch-thread contract -------------------------------------

    def _patch_dispatch(self) -> None:
        try:
            from repro.server.app import SimRankHTTPApp
        except Exception:  # pragma: no cover - server tier not importable
            return
        sanitizer = self
        original = SimRankHTTPApp._run_blocking
        self._original_run_blocking = original

        async def run_blocking(
            self: Any, fn: Callable[..., Any], *args: Any, **kwargs: Any
        ) -> Any:
            def recording(*call_args: Any, **call_kwargs: Any) -> Any:
                sanitizer.record_dispatch(self)
                return fn(*call_args, **call_kwargs)

            return await original(self, recording, *args, **kwargs)

        SimRankHTTPApp._run_blocking = run_blocking  # type: ignore

    def record_dispatch(self, app: Any) -> None:
        """Track which executor threads run an app's blocking dispatches."""
        ident = threading.get_ident()
        with self._mutex:
            self.dispatch_calls += 1
            idents = getattr(app, _DISPATCH_ATTR, None)
            if idents is None:
                idents = set()
                setattr(app, _DISPATCH_ATTR, idents)
            before = len(idents)
            idents.add(ident)
            if before == 1 and len(idents) == 2:  # report once, on the transition
                self.violations.append(
                    Violation(
                        kind="dispatch-threads",
                        message=(
                            f"{type(app).__name__} dispatched blocking service "
                            f"work on {len(idents)} distinct threads; the "
                            "single-thread executor contract requires exactly one"
                        ),
                    )
                )

    def summary(self) -> str:
        """One-line counters for the terminal summary section."""
        return (
            f"{self.locks_instrumented} lock(s) instrumented, "
            f"{self.edges_recorded} acquisition-order edge(s), "
            f"{self.dispatch_calls} dispatch call(s), "
            f"{len(self.violations)} violation(s)"
        )


def _is_project_code(filename: str) -> bool:
    """Instrument only locks allocated by repo code (src/, tests/,
    benchmarks/) — never the interpreter's own machinery."""
    normalized = filename.replace("\\", "/")
    if "site-packages" in normalized or "dist-packages" in normalized:
        return False
    if normalized.startswith("<"):  # <string>, <frozen ...>
        return False
    if f"{os.sep}repro{os.sep}analysis{os.sep}" in filename:
        return False  # never instrument the sanitizer itself
    if "/repro/" in normalized or "/src/repro/" in normalized:
        return True
    try:
        cwd = os.getcwd().replace("\\", "/")
        absolute = os.path.abspath(filename).replace("\\", "/")
    except OSError:  # pragma: no cover - cwd unlinked
        return False
    return absolute.startswith(cwd + "/")


# -- pytest plugin hooks ----------------------------------------------

_ACTIVE: LockSanitizer | None = None


def get_active() -> LockSanitizer | None:
    """The sanitizer installed by the plugin, if any (for tests)."""
    return _ACTIVE


def pytest_configure(config: Any) -> None:
    """Install the sanitizer once per session (pytest plugin hook)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = LockSanitizer()
        _ACTIVE.install()


def pytest_unconfigure(config: Any) -> None:
    """Uninstall and drop the active sanitizer (pytest plugin hook)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.uninstall()
        _ACTIVE = None


def pytest_sessionfinish(session: Any, exitstatus: int) -> None:
    """Flip a passing session to exit 1 when violations were recorded."""
    if _ACTIVE is not None and _ACTIVE.violations and exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter: Any) -> None:
    """Print the sanitizer counters and every violation with stacks."""
    if _ACTIVE is None:
        return
    terminalreporter.section("lock-order sanitizer")
    terminalreporter.write_line(_ACTIVE.summary())
    for violation in _ACTIVE.violations:
        terminalreporter.write_line("")
        terminalreporter.write_line(violation.render())
