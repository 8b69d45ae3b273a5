"""The shared stratified fixpoint runtime: one stratum scheduler, two drivers.

Historically every bottom-up engine carried its own fixpoint loop (naive a
global Jacobi iteration, seminaive a per-SCC differential loop, magic the
seminaive loop over a rewritten program).  This module is the single home of
those loops, generalised to *stratified* programs -- negation and
aggregation included:

* :func:`evaluate_stratified` asks :class:`~repro.datalog.analysis
  .Stratification` for the ordered strata (raising
  :class:`~repro.datalog.errors.StratificationError` for programs with
  negation or aggregation through recursion) and evaluates them bottom-up.
  Within a stratum every dependency is positive -- negative arcs always
  cross stratum boundaries -- so each stratum is an ordinary monotone
  fixpoint over relations whose negated/aggregated inputs are already
  complete.
* Two **stratum drivers** reproduce the historical engines exactly:
  ``naive=True`` runs the Jacobi iteration over the stratum's rules in
  program order, ``naive=False`` runs the per-component seminaive
  differential loop on the compiled delta plans of
  :mod:`repro.datalog.plans`.  A *positive* program stratifies into exactly
  one stratum whose component order is ``analysis.evaluation_order()``, so
  both drivers are bit-identical -- answers *and* work counters -- to the
  pre-stratification engines; the 88 pinned paper-sample counters enforce
  this.
* Aggregate rules compile to :class:`~repro.datalog.plans.AggregateFold`
  operators and fire exactly once when their component is reached: their
  body predicates live in strictly lower strata, so the fold's inputs cannot
  change during the stratum's own fixpoint.
* :func:`resume_stratified` is the incremental path of the
  materialize/answer/resume contract, and it now accepts *signed* deltas
  (:class:`~repro.datalog.database.Delta`: inserts and deletes).  For
  positive programs insertions are the PR-3 seminaive continuation (a delta
  computation seeded with the EDB delta) and deletions run the
  **delete-rederive (DRed)** maintenance of Gupta-Mumick-Subrahmanian:

  1. *overdelete* -- every derived tuple with at least one derivation
     through a deleted tuple is collected to a fixpoint, driven from the
     delete-delta side by the same ``delta_first`` join plans the insertion
     resume uses;
  2. *remove* -- the deleted EDB rows and the overdeleted derived rows are
     physically removed (the storage kernel maintains its hash and
     adjacency indexes incrementally under removal);
  3. *rederive* -- each overdeleted tuple that still has a derivation from
     the surviving facts is reinserted (a head-bound join probe per rule),
     and the reinsertions are propagated with the ordinary delta-seeded
     seminaive rounds, resurrecting any overdeleted tuple they re-support.

  Stratified programs are non-monotone under *either* sign -- a new ``move``
  fact can retract a ``not win`` consequence, a deleted one can create it --
  so the resume restarts evaluation at the lowest stratum whose inputs the
  delta touches, reusing the cached models of every lower stratum via a
  copy-on-write overlay that simply drops the affected derived relations.

**Parallel evaluation.**  When :func:`repro.parallel.set_parallelism` (or the
``REPRO_PARALLELISM`` environment variable) selects more than one worker, the
seminaive driver may offload a whole component fixpoint to a fork worker
pool (:func:`_offload_fixpoint`).  The default of ``1`` never reaches it, and
the sequential path stays the differential oracle.  The offload takes one
shape: a component whose delta-round loop is a single plan carrying an
invariant head column (see :class:`~repro.datalog.plans.ShardRecipe`; the
left-linear transitive closure is the canonical case), with a seed delta of
at least :data:`_SHARD_MIN_ROWS` rows, under the columnar executor and
kernel storage.  The seed delta is partitioned by the invariant column's
interned code, each worker iterates its partition to a local fixpoint, and
the parent inserts the union once and replays the exact counters.  Answers
and counters are identical to sequential evaluation; every other component
evaluates sequentially.

The Jacobi driver and the DRed/resume paths stay sequential: the naive
driver exists to reproduce the paper's duplicated-work measurements, and
the maintenance passes are delta-sized, not fixpoint-sized.
"""

from __future__ import annotations

import time
from array import array
from itertools import repeat as _repeat
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .. import parallel as _parallel
from ..datalog.analysis import ProgramAnalysis, Stratification, analyze
from ..datalog.database import Database, Delta, Relation, Row
from ..datalog import plans as _plans
from ..datalog.plans import aggregate_plan, delta_plan, delta_plans, rule_plan
from ..datalog.rules import Program, Rule
from ..instrumentation import Counters
from ..storage import runtime as _storage_runtime
from ..storage.interner import global_interner
from ..storage.runtime import MODE_KERNEL


#: Seed deltas smaller than this evaluate sequentially even when parallelism
#: is armed: below it, forking the pool and shipping the code columns cost
#: more than the fixpoint itself.
_SHARD_MIN_ROWS = 4096


def _batch_heads(
    plan,
    database: Database,
    derived: Optional[Database] = None,
    frozen: bool = False,
) -> Optional[List[Row]]:
    """All head rows of one whole-batch plan execution, or ``None``.

    ``None`` -- because the columnar mode is off, the plan's shape is not
    batchable, or an optimistic batch was discarded -- sends the caller to
    the row-at-a-time ``plan.heads`` loop.  Every firing loop below satisfies
    :meth:`~repro.datalog.plans.JoinPlan.head_batch`'s consumption contract:
    between the call and the insertion of the returned rows, only the plan's
    head relation of ``database`` (and databases the plan does not read) is
    written.
    """
    if _plans._mode != _plans._MODE_COLUMNAR:
        return None
    return plan.head_batch(database, derived=derived, frozen=frozen)


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------

def evaluate_stratified(
    program: Program,
    database: Database,
    counters: Optional[Counters] = None,
    analysis: Optional[ProgramAnalysis] = None,
    naive: bool = False,
) -> int:
    """Evaluate every stratum of ``program`` bottom-up, in place.

    Returns the total number of outer-loop rounds (the sum of per-stratum
    Jacobi rounds under the naive driver; the seminaive driver reports its
    rounds through ``counters.iterations`` as it always has).

    Raises :class:`~repro.datalog.errors.StratificationError` when the
    program has no stratification.
    """
    counters = counters if counters is not None else database.counters
    analysis = analysis or analyze(program)
    stratification = Stratification.of(program, analysis)
    total_rounds = 0
    for stratum in stratification.strata:
        rules = stratification.stratum_rules(stratum)
        if not rules:
            continue
        if naive:
            total_rounds += _jacobi_stratum(rules, database, counters)
        else:
            _seminaive_stratum(stratum, program, database, counters)
    return total_rounds


def _jacobi_stratum(rules: List[Rule], database: Database, counters: Counters) -> int:
    """The naive driver: refire every rule of the stratum until no new tuple.

    This is the historical naive loop verbatim (rules in program order, one
    plan per rule, full refiring every round -- the duplication the paper
    measures), preceded by the stratum's aggregate folds, which fire once.
    """
    scan_rules = [rule for rule in rules if not rule.is_aggregate]
    _fire_folds(rules, database, counters)
    plans = [
        (rule.head.predicate, rule_plan(rule, database=database))
        for rule in scan_rules
    ]
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        counters.iterations += 1
        changed = False
        for head_predicate, plan in plans:
            batch = _batch_heads(plan, database)
            if batch is not None:
                counters.rule_firings += len(batch)
                new_rows = database.add_rows(head_predicate, batch)
                if new_rows:
                    counters.derived_tuples += len(new_rows)
                    changed = True
                continue
            for head_row in plan.heads(database):
                counters.rule_firings += 1
                if database.add_fact(head_predicate, head_row):
                    counters.derived_tuples += 1
                    changed = True
    return iterations


def _seminaive_stratum(
    stratum, program: Program, database: Database, counters: Counters
) -> None:
    """The seminaive driver: per-component differential fixpoints.

    Components are processed in the stratum's evaluation order (the reverse
    topological order of the SCCs, filtered to the stratum), exactly as the
    historical seminaive engine processed ``analysis.evaluation_order()``.
    """
    derived_predicates = program.derived_predicates
    for component in stratum.components:
        component_predicates = set(component) & derived_predicates
        if not component_predicates:
            continue
        rules = [
            rule
            for predicate in component_predicates
            for rule in program.rules_for(predicate)
            if rule.body
        ]
        evaluate_component(rules, component_predicates, database, counters)


def _fire_folds(
    rules: Iterable[Rule],
    database: Database,
    counters: Counters,
    delta: Optional[Database] = None,
) -> None:
    """Fire the aggregate folds among ``rules`` once over the current state."""
    for rule in rules:
        if not rule.is_aggregate:
            continue
        head_predicate = rule.head.predicate
        for head_row in aggregate_plan(rule).heads(database):
            counters.rule_firings += 1
            if database.add_fact(head_predicate, head_row):
                counters.derived_tuples += 1
                if delta is not None:
                    delta.add_fact(head_predicate, head_row)


def evaluate_component(
    rules: List[Rule],
    recursive_predicates: Set[str],
    database: Database,
    counters: Counters,
) -> None:
    """Seminaive iteration for one group of mutually recursive predicates.

    Both the round-0 full evaluation and the delta-restricted rounds run on
    compiled join plans (:mod:`repro.datalog.plans`); the delta rounds use
    one cached plan variant per recursive body occurrence, whose chosen
    occurrence reads the delta relation while every other literal reads the
    full database (including earlier deltas already merged into it).  Plan
    compilation rejects built-ins that can never become ground and negated
    literals the positive body never binds, so the deferral semantics cannot
    diverge from :func:`~repro.datalog.unify.satisfy_body` -- they are the
    same code path.  Aggregate rules fold once in round 0 (their inputs live
    in strictly lower strata and cannot change here); negated literals never
    read the delta (stratification puts them below this component).

    With parallelism armed, an eligible component runs its whole delta-round
    loop on the fork worker pool instead; see :func:`_offload_fixpoint`.
    """
    scan_rules = [rule for rule in rules if not rule.is_aggregate]
    recursive_key = frozenset(recursive_predicates)
    # Round 0: fire every rule once over the current database.
    delta = Database()
    _fire_folds(rules, database, counters, delta)
    round0 = [(rule, rule_plan(rule, database=database)) for rule in scan_rules]
    for rule, plan in round0:
        head_predicate = rule.head.predicate
        batch = _batch_heads(plan, database)
        if batch is not None:
            counters.rule_firings += len(batch)
            new_rows = database.add_rows(head_predicate, batch)
            if new_rows:
                counters.derived_tuples += len(new_rows)
                delta.add_rows(head_predicate, new_rows, journal=False, distinct=True)
            continue
        for head_row in plan.heads(database):
            counters.rule_firings += 1
            if database.add_fact(head_predicate, head_row):
                counters.derived_tuples += 1
                delta.add_fact(head_predicate, head_row)
    counters.iterations += 1

    # One plan variant per occurrence of a recursive predicate, with that
    # occurrence restricted to the delta.  Non-recursive rules have no
    # variants and cannot produce anything new after round 0.
    variants = [
        (rule, delta_plans(rule, recursive_key, database=database))
        for rule in scan_rules
    ]
    if _offload_fixpoint(variants, database, delta, counters):
        return
    # Mid-fixpoint adaptive re-planning (cost mode).  ``assumed`` records the
    # cardinality each recursive predicate was costed with when the current
    # variants were compiled.
    adaptive = _plans._plan_mode == _plans._PLAN_COST
    assumed: Dict[str, float] = {}
    if adaptive:
        for predicate in recursive_key:
            relation = database.relations.get(predicate)
            assumed[predicate] = (
                float(len(relation.table)) if relation is not None else 1.0
            )
    while delta.total_facts():
        if adaptive:
            replanned = _adapt_delta_variants(
                scan_rules, recursive_key, database, delta, assumed, counters
            )
            if replanned is not None:
                variants = replanned
        new_delta = Database()
        for rule, plans in variants:
            head_predicate = rule.head.predicate
            for plan in plans:
                batch = _batch_heads(plan, database, derived=delta)
                if batch is not None:
                    counters.rule_firings += len(batch)
                    new_rows = database.add_rows(head_predicate, batch)
                    if new_rows:
                        counters.derived_tuples += len(new_rows)
                        new_delta.add_rows(head_predicate, new_rows, journal=False, distinct=True)
                    continue
                for head_row in plan.heads(database, derived=delta):
                    counters.rule_firings += 1
                    if database.add_fact(head_predicate, head_row):
                        counters.derived_tuples += 1
                        new_delta.add_fact(head_predicate, head_row)
        counters.iterations += 1
        delta = new_delta


#: Adaptive re-planning threshold: a delta round's observed cardinality
#: must diverge from the costed assumption by this factor (in either
#: direction) before the cached cost-based delta variants are re-costed.
_REPLAN_RATIO = 8.0


def _adapt_delta_variants(
    scan_rules: List[Rule],
    recursive_key: FrozenSet[str],
    database: Database,
    delta: Database,
    assumed: Dict[str, float],
    counters: Counters,
) -> Optional[List[Tuple[Rule, List[object]]]]:
    """Swap in re-costed delta variants when the delta defies its estimate.

    Compares each recursive predicate's observed per-round delta size with
    the cardinality the current plans were costed under (``assumed``); when
    any diverges by :data:`_REPLAN_RATIO` or more, rebuilds every variant
    through :func:`~repro.datalog.plans.delta_plans` with the observed
    sizes as overrides (the builders' fingerprinted cache makes repeated
    same-magnitude re-plans cache hits), records a ``DL601`` hint on the
    run's ``counters.hints``, and returns the replacement variants.
    Returns ``None`` -- change nothing -- while estimates hold.
    """
    observed: Dict[str, float] = {}
    diverged: List[Tuple[str, float, float]] = []
    for predicate in sorted(recursive_key):
        relation = delta.relations.get(predicate)
        rows = float(len(relation.table)) if relation is not None else 0.0
        rows = max(rows, 1.0)
        observed[predicate] = rows
        previous = max(assumed.get(predicate, 1.0), 1.0)
        ratio = max(previous, rows) / min(previous, rows)
        if ratio >= _REPLAN_RATIO:
            diverged.append((predicate, previous, rows))
    if not diverged:
        return None
    assumed.update(observed)
    overrides = {predicate: int(rows) for predicate, rows in observed.items()}
    variants = [
        (
            rule,
            delta_plans(
                rule, recursive_key, database=database, overrides=overrides
            ),
        )
        for rule in scan_rules
    ]
    from ..datalog.diagnostics import CODES, Diagnostic

    predicate, previous, rows = diverged[0]
    counters.hints.append(
        Diagnostic(
            code="DL601",
            severity=CODES["DL601"][0],
            message=(
                f"delta cardinality for '{predicate}' was costed at "
                f"~{previous:.0f} rows but a round observed {rows:.0f}; "
                "delta plan variants re-costed"
            ),
        )
    )
    return variants


# ---------------------------------------------------------------------------
# Whole-fixpoint offload on a fork worker pool
# ---------------------------------------------------------------------------

def _offload_fixpoint(
    variants,
    database: Database,
    delta: Database,
    counters: Counters,
) -> bool:
    """Run a component's entire delta-round loop on a fork worker pool.

    Eligible when parallelism is armed under the columnar executor and
    kernel storage, the loop consists of exactly one plan, and that plan's
    :class:`~repro.datalog.plans.ShardRecipe` carries an invariant column:
    the seed ``delta`` (round 0's insertions) is partitioned by that
    column's code, each worker iterates its partition to a local fixpoint
    (partitions are closed under the rule, so local completion is global
    completion), and the parent inserts the union of novel rows once.  With
    a single plan, its delta occurrence is the component's only recursive
    body literal, so the relation it probes lies outside the component and
    nothing the workers read changes while they run.  ``True`` means the fixpoint is
    complete and the caller must skip the round loop; ``False`` --
    ineligible, a seed below :data:`_SHARD_MIN_ROWS`, no fork, or a worker
    that failed or died -- means nothing was charged and the sequential
    loop runs as usual.

    Counter parity: ``fact_retrievals`` and ``rule_firings`` are the
    summed produced-row counts (exact for the eligible shape, round by
    round); ``derived_tuples`` is the insert count of the disjoint novel
    unions; ``distinct_facts`` is parent touched-set growth; and
    ``iterations`` is the *maximum* worker round count -- the sequential
    loop runs until every partition's frontier is empty, so its round count
    is exactly the deepest partition's.
    """
    workers = _parallel.parallelism()
    if (
        workers <= 1
        or _plans._mode != _plans._MODE_COLUMNAR
        or _storage_runtime._mode != MODE_KERNEL
    ):
        return False
    plans = [plan for _rule, rule_plans in variants for plan in rule_plans]
    if len(plans) != 1:
        return False
    plan = plans[0]
    recipe = plan.shard_recipe()
    if recipe is None:
        return False
    if any(
        predicate != recipe.delta_predicate and len(relation.table)
        for predicate, relation in delta.relations.items()
    ):
        # Foreign rows in the seed delta would keep the sequential loop
        # spinning on rounds the workers never see; stay sequential.
        return False
    seed = delta.relations.get(recipe.delta_predicate)
    if seed is None or len(seed.table) < _SHARD_MIN_ROWS:
        return False
    col_bytes = [column.tobytes() for column in seed.table.column_arrays()]
    tasks = [
        ("shard_fixpoint", (workers, windex, col_bytes))
        for windex in range(workers)
    ]
    try:
        with _parallel.WorkerPool(workers, state=(database, plan, recipe)) as pool:
            results = pool.run(tasks)
    except _parallel.WorkerError:  # no fork, or a worker failed or died
        return False
    _merge_fixpoint(database, plan, recipe, results, counters)
    return True


def _merge_fixpoint(
    database: Database, plan, recipe, results, counters: Counters
) -> None:
    """Insert the workers' novel rows and replay their charges."""
    started = time.perf_counter()
    value_of = global_interner()._value_of
    head_predicate = plan.head.predicate
    head_arity = len(plan.head_template)
    probe_relation = database.relations.get(recipe.probe_predicate)
    rows_map = probe_relation.table.rows_map if probe_relation is not None else {}
    probe_arity = probe_relation.arity if probe_relation is not None else 0
    touched = database._touched
    before = len(touched)
    batch_stats = database.counters.batch
    # The workers' dedup is exact and their shards disjoint, so every
    # shipped row is novel: on an unshared head table the insert is a
    # straight dict update over C-level zips -- the single largest
    # serial cost of the offload (``IntTable.merge_novel_coded``).
    # Column caches extend with strided slices, subset indexes defer
    # through the lag replay exactly as ``add_many`` does; only sharing
    # or an adjacency cache sends the rows through the checked path.
    head_relation = database.relations.get(head_predicate)
    table = head_relation.table if head_relation is not None else None
    bulk = (
        table is not None
        and head_predicate not in database._shared
        and table.can_bulk_merge
    )
    slow_rows: List[Row] = []
    derived = 0
    produced_total = 0
    rounds_max = 0
    for produced, rounds, flat, value_rows, touched_blob, stats in results:
        produced_total += produced
        rounds_max = max(rounds_max, rounds)
        codes = array("q")
        codes.frombytes(flat)
        if codes and head_arity:
            introws = list(zip(*(iter(codes),) * head_arity))
            values = map(value_of.__getitem__, codes)
            rows = list(zip(*(values,) * head_arity))
            if bulk:
                table.merge_novel_coded(introws, rows, codes, head_arity)
                database._journal.extend(
                    zip(_repeat(head_predicate), rows, _repeat(True))
                )
                derived += len(rows)
            else:
                slow_rows.extend(rows)
        slow_rows.extend(value_rows)
        if touched_blob and probe_arity:
            tcodes = array("q")
            tcodes.frombytes(touched_blob)
            chunks = iter(tcodes)
            for introw in zip(*(chunks,) * probe_arity):
                row = rows_map.get(introw)
                if row is None:
                    row = tuple(value_of[code] for code in introw)
                touched.add((recipe.probe_predicate, row))
        batches, rows_in, rows_out, fallbacks, nodes = stats
        batch_stats.batches += batches
        batch_stats.rows_in += rows_in
        batch_stats.rows_out += rows_out
        batch_stats.fallbacks += fallbacks
        for key, node_batches, node_in, node_out in nodes:
            cell = batch_stats.node(key)
            cell[0] += node_batches
            cell[1] += node_in
            cell[2] += node_out
    if derived and database._charged:
        database._charged.pop(head_predicate, None)
    derived += len(database.add_rows(head_predicate, slow_rows))
    counters.rule_firings += produced_total
    counters.derived_tuples += derived
    counters.iterations += rounds_max
    database.counters.fact_retrievals += produced_total
    database.counters.distinct_facts += len(touched) - before
    batch_stats.shards += len(results)
    batch_stats.merge_seconds += time.perf_counter() - started


def _shard_fixpoint_worker(payload):
    """Iterate one invariant-column partition to its local fixpoint.

    The forked child receives the component's *seed* delta (the round-0
    insertions, already present in the fork-inherited head table), keeps
    the rows whose invariant-column code hashes to its shard, and runs the
    ordinary delta-round loop over them entirely locally: because the
    invariant column passes unchanged from the recursive body literal to
    the head, every row derivable from this shard stays in this shard, so
    no inter-worker exchange or per-round synchronisation is needed.

    Duplicate pruning is exact, which the termination argument requires:
    the fork-inherited head table covers everything the parent knew, and
    the local ``seen`` set covers everything this partition derived since.
    Head rows containing a value the inherited interner never coded are
    interned *locally* so ``seen`` membership stays coded; such rows (any
    code at or above the fork-time interner length) are shipped by value,
    since child-local codes mean nothing to the parent.

    Returns pre-pruning ``produced`` (the charging contract counts probed
    bucket rows, and for eligible shapes each yields one head row) and the
    local round count; the parent takes the max of the latter -- the
    sequential loop iterates until the *deepest* partition's frontier
    empties.
    """
    workers, windex, col_bytes = payload
    database, plan, recipe = _parallel.pool_state()
    interner = global_interner()
    base_len = len(interner)
    columns: List[array] = []
    for blob in col_bytes:
        column = array("q")
        column.frombytes(blob)
        columns.append(column)
    arity = len(columns)
    head_predicate = plan.head.predicate
    head_relation = database.relations.get(head_predicate)
    known = head_relation.table.rows_map if head_relation is not None else {}
    invariant = columns[recipe.invariant_position]
    keep = [i for i in range(len(invariant)) if invariant[i] % workers == windex]
    current = [tuple(column[i] for column in columns) for i in keep]
    rflat = array("q")
    for introw in current:
        rflat.extend(introw)
    counters = Counters()
    database.counters = counters
    database._touched = set()
    database._charged = {}
    database._probe_cache.clear()
    code_item = interner._code_of.__getitem__
    code_get = interner._code_of.get
    introw_of = interner._introw_of
    memo_get = introw_of.get
    intern_row = interner.intern_row
    # When every head constant is already coded below the fork length, no
    # derivable row can contain a child-local code (column values all come
    # from pre-fork rows), so the per-row code-range check is dead weight.
    flat_safe = True
    for slot, value in plan.head_template:
        if slot is None:
            code = code_get(value)
            if code is None or code >= base_len:
                flat_safe = False
    seen: Set[Tuple[int, ...]] = set()
    flat = array("q")
    value_rows: List[Row] = []
    produced = 0
    rounds = 0
    while current:
        rounds += 1
        shard = Database()
        relation = Relation(recipe.delta_predicate, arity)
        # Seed the scratch table columnarly: the step-0 scan only reads the
        # code columns, the interner and the row-map *keys*, so the value
        # tuples are never decoded.
        relation.table.seed_coded_rows(
            current, [rflat[position::arity] for position in range(arity)]
        )
        shard.relations[recipe.delta_predicate] = relation
        heads = plan.head_batch(database, derived=shard, frozen=True)
        if heads is None:  # pragma: no cover - SAFE shapes cannot fall back
            raise RuntimeError("shard-eligible plan fell back to the row loop")
        produced += len(heads)
        current = []
        rflat = array("q")
        if flat_safe:
            for row, introw in zip(heads, map(memo_get, heads)):
                if introw is None:
                    introw = tuple(map(code_item, row))
                    introw_of[row] = introw
                if introw in seen or introw in known:
                    continue
                seen.add(introw)
                current.append(introw)
                rflat.extend(introw)
            flat.extend(rflat)
        else:
            for row, introw in zip(heads, map(memo_get, heads)):
                if introw is None:
                    try:
                        introw = tuple(map(code_item, row))
                    except KeyError:
                        introw = intern_row(row)
                    introw_of[row] = introw
                if introw in seen or introw in known:
                    continue
                seen.add(introw)
                current.append(introw)
                rflat.extend(introw)
                if max(introw, default=0) < base_len:
                    flat.extend(introw)
                else:
                    value_rows.append(row)
    touched = array("q")
    for _predicate, row in database._touched:
        touched.extend(map(code_item, row))
    batch = counters.batch
    nodes = [
        (key, cell[0], cell[1], cell[2]) for key, cell in batch.nodes.items()
    ]
    return (
        produced,
        rounds,
        flat.tobytes(),
        value_rows,
        touched.tobytes(),
        (batch.batches, batch.rows_in, batch.rows_out, batch.fallbacks, nodes),
    )


_parallel.register_task("shard_fixpoint", _shard_fixpoint_worker)


# ---------------------------------------------------------------------------
# Incremental continuation (the resume path of the engine contract)
# ---------------------------------------------------------------------------

def resume_stratified(
    program: Program,
    database: Database,
    edb_delta,
    counters: Optional[Counters] = None,
    analysis: Optional[ProgramAnalysis] = None,
) -> Tuple[Database, int]:
    """Bring a materialized model up to date after an EDB delta.

    ``database`` must hold a complete model of ``program`` over its previous
    extensional state; ``edb_delta`` is either a plain ``{predicate: rows}``
    mapping of newly inserted rows (the pre-deletion contract) or a signed
    :class:`~repro.datalog.database.Delta` carrying inserts *and* deletes.
    Returns ``(database, newly_derived_count)`` where the database is the
    *same instance* for positive programs (deletions maintained in place by
    delete-rederive, insertions by the seminaive continuation -- deletions
    first, so the insertion rounds run over the already-repaired model) and
    a fresh copy-on-write replacement for stratified programs (evaluation
    restarted at the lowest stratum whose inputs the delta touches; see the
    module docstring).  Rows on derived predicates are rejected with
    :class:`ValueError`.
    """
    counters = counters if counters is not None else database.counters
    analysis = analysis or analyze(program)
    derived_predicates = program.derived_predicates

    delta = Delta.coerce(edb_delta)
    for predicate in delta.predicates():
        if predicate in derived_predicates:
            raise ValueError(
                f"cannot resume with facts for derived predicate {predicate!r}"
            )

    if not program.is_positive:
        return _resume_non_monotone(program, analysis, database, delta, counters)

    new_tuples = 0
    if delta.has_deletes:
        # The delete rows are treated as deleted even when already invisible
        # in ``database`` -- mirroring the insertion convention below, a
        # copy-on-write materialization can see a deletion made to the
        # database it was built over before its consequences have been
        # retracted, and overdeleting from a long-gone row only schedules
        # still-valid tuples for rederivation.
        removed = Database()
        for predicate, rows in delta.deletes.items():
            for row in rows:
                removed.add_fact(predicate, row)
        if removed.total_facts():
            _dred_delete(program, analysis, database, removed, counters)

    # The cross-component changed set: the EDB insert delta plus, as
    # evaluation proceeds, every derived tuple added by an earlier
    # component.  The delta rows are treated as changed even when they are
    # already visible in ``database`` -- a copy-on-write materialization can
    # see an insertion made to the database it was built over before its
    # consequences have been derived, and firing a genuinely old row again
    # only rediscovers existing facts.
    changed = Database()
    for predicate, rows in delta.inserts.items():
        for row in rows:
            database.add_fact(predicate, row)
            changed.add_fact(predicate, row)
    if changed.total_facts():
        new_tuples = _resume_positive(program, analysis, database, changed, counters)
    return database, new_tuples


def _resume_positive(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    changed: Database,
    counters: Counters,
) -> int:
    """The monotone continuation: seminaive rounds seeded with the delta."""
    derived_predicates = program.derived_predicates
    new_tuples = 0
    for component in analysis.evaluation_order():
        component_predicates = set(component) & derived_predicates
        if not component_predicates:
            continue
        rules = [
            rule
            for predicate in component_predicates
            for rule in program.rules_for(predicate)
            if rule.body
        ]
        new_tuples += _resume_component(
            rules, component_predicates, database, changed, counters
        )
    return new_tuples


def _resume_component(
    rules: List[Rule],
    recursive_predicates: Set[str],
    database: Database,
    changed: Database,
    counters: Counters,
) -> int:
    """Delta-seeded seminaive iteration for one mutually recursive group.

    ``changed`` holds every row that is new since the materialized fixpoint
    (EDB delta plus earlier components' derivations); new rows produced here
    are merged back into it so later components see them as deltas too.
    """
    changed_predicates = frozenset(
        predicate for predicate in changed.predicates() if changed.count(predicate)
    )
    new_tuples = 0

    # Incremental round 0: one plan variant per occurrence of an
    # already-changed predicate, that occurrence restricted to the changed
    # rows, every other literal reading the full updated database.  A rule
    # mentioning no changed predicate has no variants and never fires, and
    # the delta occurrence drives the join (``delta_first``), so the round's
    # work is proportional to the delta, not to the full relations.
    delta = Database()
    fired = False
    for rule in rules:
        head_predicate = rule.head.predicate
        for plan in delta_plans(
            rule, changed_predicates, delta_first=True, database=database
        ):
            fired = True
            batch = _batch_heads(plan, database, derived=changed)
            if batch is not None:
                counters.rule_firings += len(batch)
                new_rows = database.add_rows(head_predicate, batch)
                if new_rows:
                    counters.derived_tuples += len(new_rows)
                    new_tuples += len(new_rows)
                    delta.add_rows(head_predicate, new_rows, journal=False, distinct=True)
                continue
            for head_row in plan.heads(database, derived=changed):
                counters.rule_firings += 1
                if database.add_fact(head_predicate, head_row):
                    counters.derived_tuples += 1
                    new_tuples += 1
                    delta.add_fact(head_predicate, head_row)
    if not fired:
        return 0
    counters.iterations += 1

    # Ordinary recursive delta rounds, delta-driven like round 0.
    recursive_key = frozenset(recursive_predicates)
    variants = [
        (rule, delta_plans(rule, recursive_key, delta_first=True, database=database))
        for rule in rules
    ]
    while delta.total_facts():
        for predicate in delta.predicates():
            changed.add_facts(predicate, delta.rows(predicate))
        new_delta = Database()
        for rule, plans in variants:
            head_predicate = rule.head.predicate
            for plan in plans:
                batch = _batch_heads(plan, database, derived=delta)
                if batch is not None:
                    counters.rule_firings += len(batch)
                    new_rows = database.add_rows(head_predicate, batch)
                    if new_rows:
                        counters.derived_tuples += len(new_rows)
                        new_tuples += len(new_rows)
                        new_delta.add_rows(head_predicate, new_rows, journal=False, distinct=True)
                    continue
                for head_row in plan.heads(database, derived=delta):
                    counters.rule_firings += 1
                    if database.add_fact(head_predicate, head_row):
                        counters.derived_tuples += 1
                        new_tuples += 1
                        new_delta.add_fact(head_predicate, head_row)
        counters.iterations += 1
        delta = new_delta
    return new_tuples


def _dred_delete(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    removed: Database,
    counters: Counters,
) -> None:
    """Delete-rederive (DRed) maintenance for a positive program, in place.

    ``removed`` holds the deleted EDB rows; ``database`` holds the complete
    model over the pre-deletion extensional state.

    *Overdelete.*  Seeded with the EDB deletions, each round fires every
    rule through its ``delta_first`` plan variants with the chosen
    occurrence reading the current delete-frontier and every other literal
    reading the pre-deletion database, so a derived tuple joins the
    overdeletion set as soon as any of its derivations is discovered to
    pass through a deleted tuple.  The deleted EDB rows are kept visible --
    re-added first, in case a copy-on-write leak already dropped them --
    until the fixpoint completes: an instantiation using *two* deleted
    tuples must remain discoverable from either occurrence.

    *Remove.*  The deleted EDB rows and every overdeleted derived row are
    physically removed (the storage kernel maintains its indexes
    incrementally under removal).

    *Rederive.*  Every overdeleted tuple that still has a derivation from
    the surviving facts is reinserted.  The rederivation is set-at-a-time:
    per defining rule, a *guarded* plan variant scans the overdeleted set
    as its outermost occurrence (a synthetic extra occurrence of the head
    literal, compiled through the ordinary ``delta_plan`` machinery) and
    joins the rest of the body against the surviving database, so one plan
    execution settles every candidate of the rule instead of one probe per
    tuple.  Predicates are visited in component evaluation order so lower
    support is restored before it is needed, and the reinsertions are
    propagated through the ordinary delta-seeded seminaive rounds
    (:func:`_resume_positive`), which resurrect any overdeleted tuple they
    transitively re-support.  Cyclically self-supporting tuples stay
    deleted: the guarded joins run against the post-removal database,
    which is exactly the well-foundedness DRed needs.
    """
    for predicate in removed.predicates():
        database.add_facts(predicate, removed.relations[predicate].table.all_rows())

    delta_predicates = frozenset(program.predicates)
    scan_rules = [rule for rule in program.idb_rules() if not rule.is_aggregate]
    variants = [
        (rule, delta_plans(rule, delta_predicates, delta_first=True, database=database))
        for rule in scan_rules
    ]
    overdeleted = Database()
    frontier = removed
    while frontier.total_facts():
        next_frontier = Database()
        for rule, plans in variants:
            head_predicate = rule.head.predicate
            for plan in plans:
                # The overdelete loop never mutates ``database`` (it only
                # accumulates into ``overdeleted``/``next_frontier``), so
                # even self-feeding-shaped plans batch without verification.
                batch = _batch_heads(plan, database, derived=frontier, frozen=True)
                if batch is not None:
                    counters.rule_firings += len(batch)
                    new_rows = overdeleted.add_rows(head_predicate, batch, journal=False)
                    if new_rows:
                        next_frontier.add_rows(head_predicate, new_rows, journal=False, distinct=True)
                    continue
                for head_row in plan.heads(database, derived=frontier):
                    counters.rule_firings += 1
                    if overdeleted.add_fact(head_predicate, head_row):
                        next_frontier.add_fact(head_predicate, head_row)
        counters.iterations += 1
        frontier = next_frontier

    for source in (removed, overdeleted):
        for predicate in source.predicates():
            for row in list(source.relations[predicate].table.all_rows()):
                database.remove_fact(predicate, row)

    if not overdeleted.total_facts():
        return
    component_order: Dict[str, int] = {}
    for index, component in enumerate(analysis.evaluation_order()):
        for predicate in component:
            component_order[predicate] = index
    rederived = Database()
    for predicate in sorted(
        overdeleted.predicates(), key=lambda p: component_order.get(p, 0)
    ):
        for rule in program.rules_for(predicate):
            if not rule.body:
                continue
            # The guarded variant: a synthetic extra occurrence of the head
            # literal, placed outermost and reading the overdeleted set, so
            # the join enumerates exactly the rule's still-derivable
            # candidates.  ``delta_occurrence=0`` is the guard itself; every
            # other occurrence of ``predicate`` reads the surviving database.
            guarded = Rule(rule.head, (rule.head,) + rule.body)
            plan = delta_plan(
                guarded, frozenset((predicate,)), 0, delta_first=True, database=database
            )
            batch = _batch_heads(plan, database, derived=overdeleted)
            if batch is not None:
                counters.rule_firings += len(batch)
                new_rows = database.add_rows(predicate, batch)
                if new_rows:
                    rederived.add_rows(predicate, new_rows, journal=False)
                continue
            for head_row in plan.heads(database, derived=overdeleted):
                counters.rule_firings += 1
                if database.add_fact(predicate, head_row):
                    rederived.add_fact(predicate, head_row)
    if rederived.total_facts():
        _resume_positive(program, analysis, database, rederived, counters)


def _resume_non_monotone(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    delta: Delta,
    counters: Counters,
) -> Tuple[Database, int]:
    """The stratified resume: apply the signed EDB delta, restart above it.

    Both signs are non-monotone through negation and aggregation -- a new
    fact below a ``not`` can retract consequences above it, a deleted one
    can create them -- so the delta is applied to the extensional relations
    and every stratum from the lowest one reading a touched predicate is
    recomputed; see :func:`_restart_from_lowest_affected`.  Delta rows are
    treated as touching their predicate even when the mutation itself is a
    no-op here (a copy-on-write materialization can see the base database's
    writes before their consequences are maintained).
    """
    touched = {p for p, rows in delta.inserts.items() if rows} | {
        p for p, rows in delta.deletes.items() if rows
    }
    for predicate, rows in delta.deletes.items():
        for row in rows:
            database.remove_fact(predicate, row)
    for predicate, rows in delta.inserts.items():
        for row in rows:
            database.add_fact(predicate, row)
    if not touched:
        return database, 0
    return _restart_from_lowest_affected(program, analysis, database, touched, counters)


def _restart_from_lowest_affected(
    program: Program,
    analysis: ProgramAnalysis,
    database: Database,
    changed_predicates: Set[str],
    counters: Counters,
) -> Tuple[Database, int]:
    """The non-monotone resume: recompute every stratum the delta can reach.

    The replacement database shares the extensional relations and every
    derived relation of the strata *below* the restart point copy-on-write
    (reusing those cached models untouched) and simply omits the rest before
    re-running the stratum scheduler from the restart point.
    """
    stratification = Stratification.of(program, analysis)
    restart = stratification.lowest_affected_stratum(changed_predicates)
    if restart is None:
        return database, 0
    derived_predicates = program.derived_predicates
    dropped: Set[str] = set()
    for stratum in stratification.strata[restart:]:
        dropped |= stratum.predicates & derived_predicates
    rebuilt = Database.overlay(database, counters=counters, exclude=dropped)
    before = counters.derived_tuples
    for stratum in stratification.strata[restart:]:
        if stratification.stratum_rules(stratum):
            _seminaive_stratum(stratum, program, rebuilt, counters)
    return rebuilt, counters.derived_tuples - before
