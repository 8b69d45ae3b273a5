"""Machine-independent work counters shared by every evaluation strategy.

The paper's evaluation section compares strategies by *asymptotic work*, not
wall-clock time: the number of potentially relevant facts consulted, the
amount of duplicated rule firing, and the number of nodes an algorithm
materialises (Section 1 lists exactly these three factors).  To reproduce the
comparison table in a machine-independent way, every engine in this package
threads a :class:`Counters` object through its evaluation and bumps the
relevant counters.  Benchmarks then report and fit these counts over a
parameter sweep, alongside the pytest-benchmark wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .datalog.diagnostics import Diagnostic


@dataclass
class BatchStats:
    """Columnar batch-execution telemetry (observability, not work counters).

    The columnar executor (:func:`repro.datalog.plans.set_execution_mode`
    with ``"columnar"``) processes whole binding batches per scan step.
    These statistics record how much of the hot path actually ran batched --
    batches executed, rows entering and leaving the pipeline, and how often
    a plan fell back to the row-at-a-time loop -- without participating in
    the paper's work-counter model: they are *excluded* from
    :meth:`Counters.as_dict` (and from dataclass equality), so counter pins
    and differential comparisons see bit-identical counters whichever
    executor produced them.

    Attributes
    ----------
    batches:
        Number of batch plan executions committed.
    rows_in:
        Rows entering the pipelines (the depth-0 scan sizes).
    rows_out:
        Head rows leaving committed batch executions.
    fallbacks:
        Plan executions that ran the row-at-a-time loop instead -- either
        statically (a shape the batch executor does not handle) or because
        the optimistic batch of a self-feeding plan was discarded by the
        probe-overlap verification.
    shards:
        Delta shards executed by worker processes (``repro.parallel``); zero
        under sequential evaluation.
    merge_seconds:
        Wall-clock seconds the parent spent decoding and merging shard
        results (the sequential portion of the sharded rounds).
    nodes:
        Per-plan-node counters: node key -> ``[batches, rows_in, rows_out]``
        where the key names the head predicate, step index and scanned
        predicate of one :class:`~repro.datalog.plans.ScanStep`.
    """

    batches: int = 0
    rows_in: int = 0
    rows_out: int = 0
    fallbacks: int = 0
    shards: int = 0
    merge_seconds: float = 0.0
    nodes: Dict[str, List[int]] = field(default_factory=dict)

    def node(self, key: str) -> List[int]:
        """The mutable ``[batches, rows_in, rows_out]`` cell for one node."""
        cell = self.nodes.get(key)
        if cell is None:
            cell = self.nodes[key] = [0, 0, 0]
        return cell

    def merge(self, other: "BatchStats") -> None:
        """Fold another stats bundle into this one in place."""
        self.batches += other.batches
        self.rows_in += other.rows_in
        self.rows_out += other.rows_out
        self.fallbacks += other.fallbacks
        self.shards += other.shards
        self.merge_seconds += other.merge_seconds
        for key, cell in other.nodes.items():
            mine = self.node(key)
            mine[0] += cell[0]
            mine[1] += cell[1]
            mine[2] += cell[2]

    def reset(self) -> None:
        """Zero every statistic in place."""
        self.batches = 0
        self.rows_in = 0
        self.rows_out = 0
        self.fallbacks = 0
        self.shards = 0
        self.merge_seconds = 0.0
        self.nodes.clear()

    def as_dict(self) -> Dict[str, object]:
        """A plain-dict view for reports and benchmark JSON."""
        return {
            "batches": self.batches,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "fallbacks": self.fallbacks,
            "shards": self.shards,
            "merge_seconds": self.merge_seconds,
            "nodes": {
                key: {"batches": cell[0], "rows_in": cell[1], "rows_out": cell[2]}
                for key, cell in sorted(self.nodes.items())
            },
        }


@dataclass
class Counters:
    """Mutable bundle of work counters.

    Attributes
    ----------
    fact_retrievals:
        Number of tuples fetched from the extensional database (the paper's
        "set of potentially relevant facts" is the set of *distinct* facts,
        but the retrieval count also exposes duplicated work).
    distinct_facts:
        Number of distinct EDB tuples touched at least once.
    rule_firings:
        Number of successful rule instantiations performed by bottom-up
        engines (a firing that only rederives an existing fact still counts,
        which is precisely the "duplication of work" factor).
    derived_tuples:
        Number of distinct derived tuples produced.
    nodes_generated:
        Number of graph nodes materialised by graph-based methods (the
        (state, constant) pairs of the paper's algorithm, or the magic/count
        set entries of the rewriting methods).
    iterations:
        Number of outer-loop iterations (seminaive rounds, or iterations of
        the main loop of the paper's algorithm).
    """

    fact_retrievals: int = 0
    distinct_facts: int = 0
    rule_firings: int = 0
    derived_tuples: int = 0
    nodes_generated: int = 0
    iterations: int = 0
    extras: Dict[str, int] = field(default_factory=dict)
    # Columnar batch telemetry: deliberately outside the work-counter model
    # (no as_dict entry, no equality participation) -- see BatchStats.
    batch: BatchStats = field(default_factory=BatchStats, compare=False, repr=False)
    # Planner hints of this run (the adaptive re-planner's ``DL601``
    # Diagnostics, in order), outside the work-counter model like ``batch``.
    hints: List["Diagnostic"] = field(default_factory=list, compare=False, repr=False)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment an ad-hoc named counter stored in :attr:`extras`."""
        self.extras[name] = self.extras.get(name, 0) + amount

    def total_work(self) -> int:
        """A single scalar used by the comparison benchmarks.

        Defined as facts retrieved + rule firings + nodes generated.  The
        absolute value is meaningless; its growth rate as the database grows
        is what the benchmarks fit (n vs n^2).
        """
        return self.fact_retrievals + self.rule_firings + self.nodes_generated

    def as_dict(self) -> Dict[str, int]:
        """A flat dictionary view (extras folded in), for reporting."""
        data = {
            "fact_retrievals": self.fact_retrievals,
            "distinct_facts": self.distinct_facts,
            "rule_firings": self.rule_firings,
            "derived_tuples": self.derived_tuples,
            "nodes_generated": self.nodes_generated,
            "iterations": self.iterations,
            "total_work": self.total_work(),
        }
        data.update(self.extras)
        return data

    def reset(self) -> None:
        """Zero every counter in place."""
        self.fact_retrievals = 0
        self.distinct_facts = 0
        self.rule_firings = 0
        self.derived_tuples = 0
        self.nodes_generated = 0
        self.iterations = 0
        self.extras.clear()
        self.batch.reset()
        self.hints.clear()

    def __add__(self, other: "Counters") -> "Counters":
        merged = Counters(
            fact_retrievals=self.fact_retrievals + other.fact_retrievals,
            distinct_facts=self.distinct_facts + other.distinct_facts,
            rule_firings=self.rule_firings + other.rule_firings,
            derived_tuples=self.derived_tuples + other.derived_tuples,
            nodes_generated=self.nodes_generated + other.nodes_generated,
            iterations=self.iterations + other.iterations,
        )
        for extras in (self.extras, other.extras):
            for key, value in extras.items():
                merged.extras[key] = merged.extras.get(key, 0) + value
        merged.batch.merge(self.batch)
        merged.batch.merge(other.batch)
        merged.hints = self.hints + other.hints
        return merged
