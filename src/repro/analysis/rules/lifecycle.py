"""Resource-lifecycle rule: OS-backed handles must reach a finalizer on
every path.

Tracked acquisitions: ``SharedMemory(...)``, ``mmap.mmap(...)``,
``os.open(...)``, ``MappedSnapshot.open(...)`` everywhere, plus plain
``open(...)``/``gzip.open(...)`` inside ``storage/`` (WAL, snapshot and
ingest files).  An acquisition is accepted when it is:

- a context-manager item (``with open(...) as f:``), or
- immediately followed by a ``try`` whose ``finally`` (or
  ``BaseException``/bare handler) closes the handle — the
  wrap-then-guard idiom used by ``WriteAheadLog.open``, or
- transferred straight out: constructed as a call argument, returned,
  stored into an object/container, or handed off by the very next
  simple statement (ownership moves before anything can raise), or
- registered with ``weakref.finalize``/``atexit.register`` or an
  ``ExitStack`` anywhere in the enclosing function.

Anything else means an exception between acquisition and close leaks the
handle (on Linux, leaked ``SharedMemory`` segments outlive the process).
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.visitor import ProjectIndex, SourceFile, dotted_name

_ALWAYS_TRACKED = frozenset({"SharedMemory", "mmap.mmap", "os.open", "MappedSnapshot.open"})
_STORAGE_TRACKED = frozenset({"open", "gzip.open", "io.open", "_open_text"})
_REGISTER_CALLS = frozenset(
    {"weakref.finalize", "finalize", "atexit.register", "enter_context", "push", "callback"}
)


class ResourceLifecycleRule(Rule):
    """OS-resource handles must be released on every path, including errors."""

    rule_id = "resource-lifecycle"
    description = (
        "SharedMemory/mmap/os.open (and open() under storage/) must be closed "
        "via context manager, try/finally, or a registered finalizer on all paths"
    )

    def check(self, src: SourceFile, index: ProjectIndex) -> list[Finding]:
        """Flag tracked resource handles that can leak on an error path."""
        findings: list[Finding] = []
        in_storage = "storage" in PurePosixPath(src.rel).parts
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            ctor = self._tracked_constructor(node, in_storage)
            if ctor is None:
                continue
            if self._is_safe(src, node, ctor):
                continue
            findings.append(
                self.finding(
                    src,
                    node.lineno,
                    node.col_offset,
                    f"{src.qualname(node)}:{ctor}",
                    f"{ctor}(...) handle can leak: no context manager, no "
                    "try/finally (or close-and-reraise handler) guarding the "
                    "statements before ownership transfers, and no registered finalizer",
                )
            )
        return findings

    @staticmethod
    def _tracked_constructor(node: ast.Call, in_storage: bool) -> str | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        tail = name.split(".")[-1]
        if name in _ALWAYS_TRACKED or tail == "SharedMemory":
            return name
        if name.endswith("MappedSnapshot.open"):
            return "MappedSnapshot.open"
        if in_storage and name in _STORAGE_TRACKED:
            return name
        return None

    def _is_safe(self, src: SourceFile, node: ast.Call, ctor: str) -> bool:
        # (a) context-manager item: with open(...) as f:
        for ancestor in src.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if node in set(ast.walk(item.context_expr)):
                        return True
        stmt = src.statement_of(node)
        if stmt is None:
            return True
        # (b) transferred without touching a local: argument position,
        # return value, or stored into an attribute/subscript/container.
        parent = src.parents.get(node)
        if isinstance(parent, (ast.Call, ast.Return, ast.Tuple, ast.List, ast.Dict)):
            return True
        if isinstance(parent, ast.keyword) or isinstance(parent, ast.Starred):
            return True
        name = self._bound_name(src, node, stmt)
        if name is None:
            # Assigned to self.x / container slot (owner takes over), or an
            # expression shape we cannot track -- out of scope.
            return True
        # (c) wrap-then-guard: the very next statement is a try whose
        # finally/except-reraise closes the handle.
        following = src.next_statement(stmt)
        if isinstance(following, ast.Try) and _try_closes(following, name):
            return True
        # (d) immediate handoff: the next simple statement transfers
        # ownership (return cls(..., handle), self.x = handle, use(handle))
        # -- a method call *on* the handle is a use, not a transfer.
        if following is not None and _transfers(following, name):
            return True
        if isinstance(following, (ast.With, ast.AsyncWith)):
            for item in following.items:
                if _references(item.context_expr, name):
                    return True
        # (e) registered finalizer anywhere in the enclosing function.
        function = src.enclosing_function(node)
        scope: ast.AST = function if function is not None else src.tree
        for candidate in ast.walk(scope):
            if isinstance(candidate, ast.Call):
                called = dotted_name(candidate.func)
                tail = called.split(".")[-1] if called else None
                if tail in _REGISTER_CALLS and _references(candidate, name):
                    return True
            if isinstance(candidate, ast.Try):
                if _try_closes(candidate, name):
                    return True
        return False

    @staticmethod
    def _bound_name(src: SourceFile, node: ast.Call, stmt: ast.stmt) -> str | None:
        """The simple local the handle lands in, or None when it transfers."""
        if isinstance(stmt, ast.Assign) and stmt.value is node:
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                return stmt.targets[0].id
            return None
        if isinstance(stmt, ast.AnnAssign) and stmt.value is node:
            if isinstance(stmt.target, ast.Name):
                return stmt.target.id
            return None
        if isinstance(stmt, ast.Expr) and stmt.value is node:
            # Constructed and dropped: the handle is unreachable, cannot close.
            return "<dropped>"
        return None


def _references(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == name for child in ast.walk(node)
    )


def _transfers(stmt: ast.stmt, name: str) -> bool:
    """Whether ``stmt`` moves ownership of ``name`` to another holder:
    returned, passed as a call argument, or stored into an object or
    container slot.  ``name.method()`` does NOT transfer — an exception
    from it would still leak the handle."""
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _references(stmt.value, name)
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Expr, ast.AugAssign)):
        return False
    if isinstance(stmt, ast.Assign):
        stored = any(
            isinstance(target, (ast.Attribute, ast.Subscript))
            for target in stmt.targets
        )
        if stored and stmt.value is not None and _references(stmt.value, name):
            return True
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        arguments: list[ast.expr] = list(node.args)
        arguments.extend(
            keyword.value for keyword in node.keywords if keyword.value is not None
        )
        for argument in arguments:
            if _references(argument, name):
                return True
    return False


def _closes(node: ast.AST, name: str) -> bool:
    """Whether ``node`` contains ``name.close()`` / ``os.close(name)`` /
    ``name.unlink()``."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("close", "unlink", "release")
            and isinstance(func.value, ast.Name)
            and func.value.id == name
        ):
            return True
        called = dotted_name(func)
        if called in ("os.close", "close") and _references(child, name):
            return True
    return False


def _try_closes(node: ast.Try, name: str) -> bool:
    """Whether a try statement guarantees close on exceptional exit."""
    if any(_closes(stmt, name) for stmt in node.finalbody):
        return True
    for handler in node.handlers:
        if any(_closes(stmt, name) for stmt in handler.body):
            return True
    return False
