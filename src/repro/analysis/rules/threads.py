"""No-bare-thread rule: concurrency is spawned only by the sanctioned
infrastructure.

Every ``threading.Thread``, ``multiprocessing``/``ctx.Process``,
``ThreadPoolExecutor``/``ProcessPoolExecutor``, ``threading.Timer``,
``_thread.start_new_thread``, and ``os.fork`` site is flagged.  The few
legitimate spawn points — the parallel pool's worker processes and the
HTTP app's single-thread dispatch executor — are enumerated in the
committed baseline with one-line justifications, so any *new* spawn site
fails CI until it is either routed through those abstractions or
consciously added to the baseline.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule
from repro.analysis.visitor import ProjectIndex, SourceFile, dotted_name, last_part

_SPAWN_CONSTRUCTORS = frozenset(
    {"Thread", "Process", "ThreadPoolExecutor", "ProcessPoolExecutor"}
)
# 'Timer' only as threading.Timer: the repo has its own (non-spawning)
# perf Timer context manager, so the bare name is ambiguous.
_SPAWN_CALLS = frozenset(
    {"threading.Timer", "_thread.start_new_thread", "os.fork", "os.forkpty"}
)


class NoBareThreadRule(Rule):
    """Concurrency is spawned only by the sanctioned pool/server tiers."""

    rule_id = "no-bare-thread"
    description = (
        "thread/process spawns go through the pool/server abstractions; every "
        "raw spawn site must carry a baseline justification"
    )

    def check(self, src: SourceFile, index: ProjectIndex) -> list[Finding]:
        """Flag raw thread/process/executor spawn sites."""
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = last_part(node.func)
            name = dotted_name(node.func)
            if tail in _SPAWN_CONSTRUCTORS or name in _SPAWN_CALLS:
                spawned = name if name is not None else (tail or "<spawn>")
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        node.col_offset,
                        f"{src.qualname(node)}:spawn:{tail or spawned}",
                        f"raw concurrency spawn {spawned}(...); route it through the "
                        "pool/server abstractions or add a justified baseline entry",
                    )
                )
        return findings
