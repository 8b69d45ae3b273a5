"""Per-layer tracing from outside the program.

:func:`install` wraps the program's layer boundaries -- public functions and
methods named after the modules they live in -- and records a span for each
call: name, start, end, parent span and op id.  Spans are kept in memory and
written out by :meth:`Tracer.write` when the run ends.

Each function is wrapped at the name its caller resolves: a module-level
function is replaced in every ``repro`` module that holds it (the
``from .plans import rule_plan`` style of import binds the name in the
importing module, so patching only the defining module would miss those
callers), and a method is replaced on its class.

Row-at-a-time boundaries -- ``JoinPlan.heads`` / ``substitutions``
generators and ``IntTable.add`` -- run up to 10^5 times per op.  Those are
recorded as *aggregated* spans: one record per (parent span, name) holding
the call count and the summed busy time, so memory stays bounded.

A span's self time is its duration minus the time its child spans cover
(for an aggregated span, its busy time).  Self times are summed per span
name while the run goes, so :meth:`Tracer.layer_ms` is cheap.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: The layers, named after modules; a span name is ``layer:function``.
LAYERS = (
    "parser",
    "diagnostics",
    "facts",
    "planner",
    "traversal",
    "plans",
    "runtime",
    "storage",
    "decode",
    "engines",
    "session",
)


class Tracer:
    """In-memory spans plus per-layer counts for one traced loop."""

    def __init__(self) -> None:
        #: regular spans: [name, start, end, parent, op, covered]
        self.spans: List[list] = []
        #: aggregated spans: (parent, name, op) -> [calls, busy, first, last]
        self.leaves: Dict[Tuple[int, str, int], list] = {}
        self.stack: List[int] = []
        self.op = -1
        self.self_ms: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            span[2] = end
            stack.pop()
            duration = end - span[1]
            self.self_ms[name] += (duration - span[5]) * 1e3
            if stack:
                self.spans[stack[-1]][5] += duration

    def leaf(self, name: str, start: float, end: float) -> None:
        """Fold one row-level call into its aggregated span."""
        stack = self.stack
        parent = stack[-1] if stack else -1
        busy = end - start
        key = (parent, name, self.op)
        cell = self.leaves.get(key)
        if cell is None:
            self.leaves[key] = [1, busy, start, end]
        else:
            cell[0] += 1
            cell[1] += busy
            cell[3] = end
        self.self_ms[name] += busy * 1e3
        if stack:
            self.spans[parent][5] += busy

    def iterate(self, name: str, generator):
        """Re-yield ``generator``, timing each resume as part of ``name``."""
        count = self.counts
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    self.leaf(name, start, perf_counter())
                    return
                self.leaf(name, start, perf_counter())
                count["plans.rows"] += 1
                yield item
        finally:
            generator.close()

    # -- results -------------------------------------------------------------

    def layer_ms(self) -> Dict[str, float]:
        """Self time per layer, in ms."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, ms in self.self_ms.items():
            totals[name.split(":", 1)[0]] += ms
        return totals

    def span_ms(self, *names: str) -> float:
        """Summed self time of the named spans, in ms."""
        return sum(self.self_ms.get(name, 0.0) for name in names)

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op
        and, for aggregated spans, calls and busy seconds."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op, _) in enumerate(self.spans):
                out.write(json.dumps([index, name, start, end, parent, op]) + "\n")
            for (parent, name, op), (calls, busy, first, last) in self.leaves.items():
                out.write(json.dumps([None, name, first, last, parent, op, calls, busy]) + "\n")


# -- wrappers ------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _counted(tracer: Tracer, name: str, counter: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        tracer.counts[counter] += 1
        return tracer.call(name, fn, args, kwargs)

    return traced


def _lookup(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts

    def traced(*args, **kwargs):
        compiles = counts["plans.compiles"]
        plan = tracer.call(name, fn, args, kwargs)
        counts["plans.lookups"] += 1
        if counts["plans.compiles"] == compiles:
            counts["plans.hits"] += 1
        return plan

    return traced


def _generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.iterate(name, fn(*args, **kwargs))

    return traced


def _head_batch(tracer: Tracer, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        start = perf_counter()
        rows = fn(*args, **kwargs)
        tracer.leaf("plans:head_batch", start, perf_counter())
        if rows is not None:
            tracer.counts["plans.rows"] += len(rows)
        return rows

    return traced


def _add(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    def traced(table, row):
        start = perf_counter()
        added = fn(table, row)
        tracer.leaf("storage:add", start, perf_counter())
        counts["storage.rows_offered"] += 1
        if added:
            counts["storage.rows_novel"] += 1
        return added

    return traced


def _add_many(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    def traced(table, rows, *args, **kwargs):
        # add_many itself lists a non-sequence argument; doing it here lets
        # the wrapper count the rows offered without consuming an iterator.
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        novel = tracer.call("storage:add_many", fn, (table, rows) + args, kwargs)
        counts["storage.add_many_calls"] += 1
        counts["storage.rows_offered"] += len(rows)
        counts["storage.rows_novel"] += len(novel)
        return novel

    return traced


def _abstract_of(tracer: Tracer, fn: Callable) -> Callable:
    seen: Dict[int, weakref.ref] = {}

    def traced(*args, **kwargs):
        analysis = tracer.call("diagnostics:AbstractAnalysis.of", fn, args, kwargs)
        tracer.counts["abstract.calls"] += 1
        known = seen.get(id(analysis))
        if known is not None and known() is analysis:
            tracer.counts["abstract.reused"] += 1
        else:
            seen[id(analysis)] = weakref.ref(analysis)
        return analysis

    return traced


def _query_from(tracer: Tracer, fn: Callable) -> Callable:
    def traced(evaluator, *args, **kwargs):
        before = evaluator.counters.nodes_generated
        result = tracer.call("traversal:query_from", fn, (evaluator,) + args, kwargs)
        tracer.counts["traversal.nodes_generated"] += (
            evaluator.counters.nodes_generated - before
        )
        return result

    return traced


def _decode(tracer: Tracer, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        answers = tracer.call("decode:answer_against_relation", fn, args, kwargs)
        tracer.counts["decode.rows"] += len(answers)
        return answers

    return traced


class _Patches:
    """Replacements made by :func:`install`, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self.undo: List[Tuple[object, str, object]] = []

    def function(self, module_name: str, attr: str, make: Callable[[Callable], Callable]):
        """Replace a module-level function wherever a repro module binds it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]):
        """Replace a method (or classmethod) on the class that defines it."""
        raw = cls.__dict__[attr]
        self.undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def _subclasses_defining(base: type, attr: str) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> _Patches:
    """Wrap every layer boundary the benchmark reports on."""
    t = tracer
    patches = _Patches()

    def span(name):
        return lambda fn: _span(t, name, fn)

    def counted(name, counter):
        return lambda fn: _counted(t, name, counter, fn)

    for module, attr, make in (
        ("repro.datalog.parser", "parse_program", counted("parser:parse_program", "parser.calls")),
        ("repro.datalog.parser", "parse_query", counted("parser:parse_query", "parser.calls")),
        ("repro.datalog.diagnostics", "ensure_valid",
         counted("diagnostics:ensure_valid", "diagnostics.calls")),
        ("repro.session.facts", "combined_database",
         counted("facts:combined_database", "facts.calls")),
        ("repro.core.planner", "classify_query", span("planner:classify_query")),
        ("repro.core.planner", "evaluate_query", span("planner:evaluate_query")),
        ("repro.session.session", "select_engine", span("planner:select_engine")),
        ("repro.core.traversal", "evaluate_from_database",
         span("traversal:evaluate_from_database")),
        ("repro.datalog.plans", "compile_image", span("traversal:compile_image")),
        ("repro.datalog.plans", "rule_plan", lambda f: _lookup(t, "plans:rule_plan", f)),
        ("repro.datalog.plans", "delta_plan", lambda f: _lookup(t, "plans:delta_plan", f)),
        ("repro.datalog.plans", "body_plan", lambda f: _lookup(t, "plans:body_plan", f)),
        ("repro.datalog.plans", "delta_plans", span("plans:delta_plans")),
        ("repro.datalog.plans", "compile_plan",
         counted("plans:compile_plan", "plans.compiles")),
        ("repro.engines.runtime", "evaluate_stratified", span("runtime:evaluate_stratified")),
        ("repro.engines.runtime", "resume_stratified",
         counted("runtime:resume_stratified", "runtime.resume_calls")),
        ("repro.datalog.semantics", "answer_against_relation", lambda f: _decode(t, f)),
    ):
        patches.function(module, attr, make)

    abstract = importlib.import_module("repro.datalog.abstract")
    analysis = importlib.import_module("repro.datalog.analysis")
    traversal = importlib.import_module("repro.core.traversal")
    plans = importlib.import_module("repro.datalog.plans")
    table = importlib.import_module("repro.storage.table")
    base = importlib.import_module("repro.engines.base")
    session = importlib.import_module("repro.session.session")
    method = patches.method
    method(abstract.AbstractAnalysis, "of", lambda f: _abstract_of(t, f))
    method(analysis.Stratification, "of", span("diagnostics:Stratification.of"))
    method(traversal.GraphTraversalEvaluator, "query_from", lambda f: _query_from(t, f))
    method(plans.JoinPlan, "heads", lambda f: _generator(t, "plans:heads", f))
    method(plans.JoinPlan, "substitutions", lambda f: _generator(t, "plans:substitutions", f))
    method(plans.JoinPlan, "head_batch", lambda f: _head_batch(t, f))
    method(table.IntTable, "add", lambda f: _add(t, f))
    method(table.IntTable, "add_many", lambda f: _add_many(t, f))
    for cls in _subclasses_defining(base.Engine, "answer"):
        method(cls, "answer", span(f"engines:{cls.__name__}.answer"))
    for cls in _subclasses_defining(base.Materialization, "answer"):
        method(cls, "answer", span(f"engines:{cls.__name__}.answer"))
    method(base.Engine, "resume", span("engines:Engine.resume"))
    for attr in ("query", "insert_facts", "retract_facts"):
        method(session.QuerySession, attr, span(f"session:{attr}"))
    return patches
