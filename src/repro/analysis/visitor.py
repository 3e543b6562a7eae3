"""Shared parsed-source context for analysis rules.

A :class:`SourceFile` wraps one parsed module with the cross-cutting
facts every rule needs: parent links, enclosing qualnames, comment
annotations (``# guarded-by: <lock>`` on field declarations,
``# holds-lock: <lock>`` on functions whose callers take the lock), and
statement-block navigation.  A :class:`ProjectIndex` merges per-file
class facts so guard annotations are inherited across files by base-class
name (e.g. ``ParallelSimRankService`` annotations apply to
``SimRankService``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_-]*)")
HOLDS_LOCK_RE = re.compile(r"#\s*holds-lock:\s*([A-Za-z_][A-Za-z0-9_-]*)")

#: Sentinel lock name for fields confined to the asyncio event loop rather
#: than guarded by a mutex.  Mutations must stay inside the declaring class.
EVENT_LOOP = "event-loop"

#: Fallback Capabilities field list, used when the scanned file set does not
#: include the dataclass definition itself (e.g. fixture corpora).
DEFAULT_CAPABILITIES_FIELDS: tuple[str, ...] = (
    "method",
    "exact",
    "index_based",
    "supports_dynamic",
    "incremental_updates",
    "vectorized",
    "parallel_safe",
)


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` call targets as a dotted string, else ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def last_part(node: ast.expr) -> str | None:
    """The final identifier of a call target (``ctx.Process`` -> ``Process``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def self_attribute(node: ast.expr) -> str | None:
    """Return ``attr`` when ``node`` is exactly ``self.attr``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def self_attribute_root(node: ast.expr) -> str | None:
    """Resolve the ``self.attr`` root of a target chain.

    ``self.stats.queries`` / ``self._entries[key]`` / ``self._buckets[k].jobs``
    all resolve to the first attribute reached from ``self``.
    """
    current: ast.expr = node
    while True:
        direct = self_attribute(current)
        if direct is not None:
            return direct
        if isinstance(current, ast.Attribute):
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            return None


def extract_comments(text: str) -> dict[int, str]:
    """Map line number -> comment text, tolerant of tokenize errors."""
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


@dataclass
class ClassFacts:
    """Annotation facts for one class definition."""

    name: str
    qualname: str
    bases: tuple[str, ...]
    guarded: dict[str, str] = field(default_factory=dict)


@dataclass
class SourceFile:
    """One parsed module plus derived navigation structures."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    comments: dict[int, str]
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    holds_lock: dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        """Parse ``path``; raises ``SyntaxError`` / ``OSError`` to the caller."""
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        src = cls(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            comments=extract_comments(text),
        )
        src._link_parents()
        src._collect_annotations()
        return src

    # -- structure -----------------------------------------------------

    def _link_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        """Parent chain from ``node`` (exclusive) up to the module root."""
        chain: list[ast.AST] = []
        current = self.parents.get(node)
        while current is not None:
            chain.append(current)
            current = self.parents.get(current)
        return chain

    def qualname(self, node: ast.AST) -> str:
        """Dotted name of the enclosing scope, ``<module>`` at top level."""
        names: list[str] = []
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(current.name)
            current = self.parents.get(current)
        if not names:
            return "<module>"
        return ".".join(reversed(names))

    def enclosing_function(self, node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The nearest function definition containing ``node``, if any."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """The nearest class definition containing ``node``, if any."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = self.parents.get(current)
        return None

    def containing_block(self, stmt: ast.stmt) -> tuple[list[ast.stmt], int] | None:
        """The statement list holding ``stmt`` and its index within it."""
        parent = self.parents.get(stmt)
        if parent is None:
            return None
        for name in parent._fields:
            value = getattr(parent, name, None)
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if item is stmt:
                        return value, index
        return None

    def statement_of(self, node: ast.AST) -> ast.stmt | None:
        """The nearest enclosing statement of an expression node."""
        current: ast.AST | None = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self.parents.get(current)
        return current if isinstance(current, ast.stmt) else None

    def next_statement(self, stmt: ast.stmt) -> ast.stmt | None:
        """The statement executed after ``stmt`` completes, climbing out of
        enclosing blocks when ``stmt`` is the last of its suite (but never
        out of the enclosing function)."""
        current: ast.stmt = stmt
        while True:
            located = self.containing_block(current)
            if located is None:
                return None
            block, index = located
            if index + 1 < len(block):
                return block[index + 1]
            parent = self.parents.get(current)
            if parent is None or isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module, ast.ClassDef)
            ):
                return None
            if not isinstance(parent, ast.stmt):
                return None
            current = parent

    # -- annotations ---------------------------------------------------

    def _comment_for(self, stmt: ast.stmt) -> str | None:
        """A comment attached to ``stmt``: trailing on any of its lines, or
        a standalone comment on the line directly above."""
        end = stmt.end_lineno if stmt.end_lineno is not None else stmt.lineno
        for line in range(stmt.lineno, end + 1):
            if line in self.comments:
                return self.comments[line]
        return self.comments.get(stmt.lineno - 1)

    @staticmethod
    def _assigned_attrs(stmt: ast.stmt) -> list[str]:
        """Names declared by a field statement: ``self.x = ...`` in
        ``__init__`` bodies or ``x: T`` / ``x = ...`` in class bodies."""
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        names: list[str] = []
        for target in targets:
            attr = self_attribute(target)
            if attr is not None:
                names.append(attr)
            elif isinstance(target, ast.Name):
                names.append(target.id)
        return names

    def _collect_annotations(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                facts = ClassFacts(
                    name=node.name,
                    qualname=self.qualname(node),
                    bases=tuple(
                        part for part in (last_part(base) for base in node.bases) if part
                    ),
                )
                for stmt in ast.walk(node):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    if self.enclosing_class(stmt) is not node:
                        continue
                    function = self.enclosing_function(stmt)
                    if function is not None and function.name != "__init__":
                        continue
                    comment = self._comment_for(stmt)
                    if comment is None:
                        continue
                    match = GUARDED_BY_RE.search(comment)
                    if match is None:
                        continue
                    for attr in self._assigned_attrs(stmt):
                        facts.guarded[attr] = match.group(1)
                self.classes[facts.name] = facts
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first_line = node.body[0].lineno if node.body else node.lineno
                candidate_lines = [node.lineno - 1, *range(node.lineno, first_line)]
                for line in candidate_lines:
                    comment = self.comments.get(line)
                    if comment is None:
                        continue
                    match = HOLDS_LOCK_RE.search(comment)
                    if match is not None:
                        self.holds_lock[self.qualname(node)] = match.group(1)
                        break


@dataclass
class ProjectIndex:
    """Cross-file facts: class guard annotations (inherited by base-class
    simple name) and the authoritative ``Capabilities`` field list."""

    classes: dict[str, ClassFacts] = field(default_factory=dict)
    capabilities_fields: tuple[str, ...] = DEFAULT_CAPABILITIES_FIELDS

    @classmethod
    def build(cls, sources: list[SourceFile]) -> "ProjectIndex":
        index = cls()
        for src in sources:
            for facts in src.classes.values():
                index.classes.setdefault(facts.name, facts)
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef) and node.name == "Capabilities":
                    fields = [
                        stmt.target.id
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    ]
                    if fields:
                        index.capabilities_fields = tuple(fields)
        return index

    def effective_guards(self, class_name: str) -> dict[str, str]:
        """Guard map for a class, merged over its transitive bases."""
        merged: dict[str, str] = {}
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            facts = self.classes.get(name)
            if facts is None:
                continue
            for attr, lock in facts.guarded.items():
                merged.setdefault(attr, lock)
            queue.extend(facts.bases)
        return merged
