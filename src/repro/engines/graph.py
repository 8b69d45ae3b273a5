"""The paper's own strategy packaged behind the common engine interface.

This is a thin adapter around :func:`repro.core.planner.evaluate_combined` so
the comparison benchmarks can run "our algorithm" next to the baselines with
identical instrumentation and result types.
"""

from __future__ import annotations

from ..core.planner import evaluate_combined
from ..datalog.database import Database
from ..datalog.literals import Literal
from ..datalog.rules import Program
from ..instrumentation import Counters
from .base import Engine, EngineResult, register


@register
class GraphTraversalEngine(Engine):
    """Lemma 1 + EM(p, i) + demand-driven graph traversal (Sections 3-4)."""

    name = "graph"

    def _run(
        self,
        program: Program,
        query: Literal,
        database: Database,
        counters: Counters,
    ) -> EngineResult:
        answer = evaluate_combined(program, query, database, counters)
        return EngineResult(
            answers=answer.answers,
            engine=self.name,
            counters=counters,
            iterations=answer.iterations,
            details={"strategy": answer.strategy, **answer.details},
        )
