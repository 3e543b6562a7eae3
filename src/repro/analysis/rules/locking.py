"""Lock-discipline rule: annotated fields only mutate under their lock.

Field declarations carry ``# guarded-by: <lock>`` comments (on the
``self.x = ...`` line in ``__init__`` or a class-body field).  Every
mutation of such a field — rebinding, augmented assignment, item/attr
writes through it, deletion, or calls to known mutator methods — must sit
inside a ``with self.<lock>:`` block, inside ``__init__`` (no concurrent
access before construction returns), or inside a function annotated
``# holds-lock: <lock>`` (callers acquire it).  Annotations are inherited
by subclasses via the project index, so the pool's guards apply to
``SimRankService`` on it.

The special lock name ``event-loop`` documents asyncio confinement:
mutations are only legal inside the declaring class, which this rule
verifies by construction (receiver must be ``self``); the runtime
sanitizer covers the actual single-thread contract.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.visitor import (
    EVENT_LOOP,
    ProjectIndex,
    SourceFile,
    self_attribute,
    self_attribute_root,
)

_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "charge_maintenance",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)


class LockDisciplineRule(Rule):
    """``# guarded-by:`` annotated attributes mutate only under their lock."""

    rule_id = "lock-discipline"
    description = (
        "fields annotated '# guarded-by: <lock>' mutate only under "
        "'with self.<lock>:', in __init__, or in '# holds-lock' functions"
    )

    def check(self, src: SourceFile, index: ProjectIndex) -> list[Finding]:
        """Flag guarded-attribute mutations outside the declared lock."""
        findings: list[Finding] = []
        for class_node in ast.walk(src.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            guards = index.effective_guards(class_node.name)
            if not guards:
                continue
            for node in ast.walk(class_node):
                if src.enclosing_class(node) is not class_node:
                    continue
                for attr in _mutated_attrs(node):
                    lock = guards.get(attr)
                    if lock is None or lock == EVENT_LOOP:
                        continue
                    if self._is_guarded(src, node, lock):
                        continue
                    assert isinstance(node, (ast.stmt, ast.expr))
                    findings.append(
                        self.finding(
                            src,
                            node.lineno,
                            node.col_offset,
                            f"{src.qualname(node)}:{attr}",
                            f"'{class_node.name}.{attr}' is guarded-by {lock} but "
                            f"mutates outside 'with self.{lock}:'",
                        )
                    )
        return findings

    @staticmethod
    def _is_guarded(src: SourceFile, node: ast.AST, lock: str) -> bool:
        function = src.enclosing_function(node)
        if function is not None:
            if function.name == "__init__":
                return True
            if src.holds_lock.get(src.qualname(function)) == lock:
                return True
        for ancestor in src.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if self_attribute(item.context_expr) == lock:
                        return True
        return False


def _mutated_attrs(node: ast.AST) -> list[str]:
    """Guarded-field roots mutated by ``node`` (empty for reads)."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if not (isinstance(node, ast.AnnAssign) and node.value is None):
            targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            root = self_attribute_root(func.value)
            if root is not None:
                return [root]
        return []
    else:
        return []
    attrs: list[str] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            inner = [self_attribute_root(element) for element in target.elts]
            attrs.extend(attr for attr in inner if attr is not None)
            continue
        if isinstance(target, ast.Name):
            continue
        root = self_attribute_root(target)
        if root is not None:
            attrs.append(root)
    return attrs
