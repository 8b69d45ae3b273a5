"""Parallel-vs-sequential differential suite.

The sequential path (``parallelism = 1``) is the differential oracle: for
every engine, workload family, storage mode, plan-execution mode and worker
count, evaluation under parallelism must produce the *same answers and the
same aggregated counters* as the sequential run -- the whole-fixpoint
offload to the fork pool is a pure scheduler, not semantics.

Also here: the regression for the per-database kernel-probe cache -- after
:meth:`Database.reset_instrumentation` and an EDB mutation, an offloaded
re-evaluation must never observe a stale probe memo -- the fallback when
workers die, cost-mode re-planning under parallelism, and the resume/DRed
paths (which stay sequential by contract but must behave identically while
parallelism is armed).
"""

import os

import pytest

from repro.datalog.database import Database, Delta
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.plans import execution_mode, plan_mode
from repro.engines import available_engines, get_engine
from repro.engines import runtime as _runtime
from repro.parallel import (
    fork_available,
    parallelism,
    register_task,
    set_parallelism,
)
from repro.storage import storage_mode
from repro.workloads import chain, random_dag, sample_a, sample_cyclic


def _multi_component_workload():
    """One stratum with three SCCs, each a left-linear closure the offload
    can take; ``joint`` reads the other two."""
    program = parse_program(
        """
        reach_a(X, Y) :- edge_a(X, Y).
        reach_a(X, Z) :- reach_a(X, Y), edge_a(Y, Z).
        reach_b(X, Y) :- edge_b(X, Y).
        reach_b(X, Z) :- reach_b(X, Y), edge_b(Y, Z).
        joint(X, Y) :- reach_a(X, Y), reach_b(X, Y).
        joint(X, Z) :- joint(X, Y), reach_a(Y, Z).
        """
    )
    database = Database()
    for i in range(18):
        database.add_fact("edge_a", (i, i + 1))
        database.add_fact("edge_b", (i, (i + 1) % 19))
    return program, database, parse_literal("joint(X, Y)")


def _left_linear_closure(length):
    program = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    database = Database()
    for i in range(length):
        database.add_fact("edge", (i, i + 1))
    return program, database, parse_literal("path(X, Y)")


WORKLOADS = {
    "tc-chain": lambda: chain(24),
    "tc-dag": lambda: random_dag(14, 2, seed=7),
    "fig7a": lambda: sample_a(8),
    "fig8-cyclic": lambda: sample_cyclic(3, 4),
    "multi-component": _multi_component_workload,
}

#: Engines whose evaluation flows through the stratum runtime (and hence
#: through the parallel scheduler).  The rest are covered by one smoke cell
#: each -- parallelism must simply not disturb them.
RUNTIME_ENGINES = ["naive", "seminaive", "graph"]


@pytest.fixture(autouse=True)
def _sequential_after_each_test():
    previous = parallelism()
    yield
    set_parallelism(previous)


@pytest.fixture
def force_sharding(monkeypatch):
    monkeypatch.setattr(_runtime, "_SHARD_MIN_ROWS", 1)


def _run(engine_name, workload_name, storage, plan_mode, workers):
    program, database, query = WORKLOADS[workload_name]()
    engine = get_engine(engine_name)
    if not engine.applicable(program, query):
        pytest.skip(f"{engine_name} rejects this workload by contract")
    set_parallelism(workers)
    try:
        with storage_mode(storage), execution_mode(plan_mode):
            result = engine.answer(program, query, database.copy())
    finally:
        set_parallelism(1)
    return result.answers, result.counters


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("plan_mode", ["compiled", "columnar"])
@pytest.mark.parametrize("storage", ["kernel", "reference"])
@pytest.mark.parametrize("engine_name", RUNTIME_ENGINES)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_parallel_matches_sequential(
    engine_name, workload_name, storage, plan_mode, workers
):
    expected_answers, expected_counters = _run(
        engine_name, workload_name, storage, plan_mode, 1
    )
    answers, counters = _run(
        engine_name, workload_name, storage, plan_mode, workers
    )
    assert answers == expected_answers, (
        f"{engine_name}/{workload_name} answers diverge at {workers} workers "
        f"({storage}/{plan_mode})"
    )
    assert counters == expected_counters, (
        f"{engine_name}/{workload_name} counters diverge at {workers} workers "
        f"({storage}/{plan_mode}): {counters} != {expected_counters}"
    )


@pytest.mark.parametrize("engine_name", sorted(set(available_engines()) - set(RUNTIME_ENGINES)))
def test_other_engines_are_undisturbed(engine_name):
    expected_answers, expected_counters = _run(
        engine_name, "tc-chain", "kernel", "compiled", 1
    )
    answers, counters = _run(engine_name, "tc-chain", "kernel", "compiled", 4)
    assert answers == expected_answers
    assert counters == expected_counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_forced_sharding_matches_sequential(workload_name, force_sharding):
    """Drive every delta round through the fork pool (threshold 1)."""
    expected_answers, expected_counters = _run(
        "seminaive", workload_name, "kernel", "columnar", 1
    )
    answers, counters = _run("seminaive", workload_name, "kernel", "columnar", 4)
    assert answers == expected_answers
    assert counters == expected_counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_forced_sharding_actually_shards(force_sharding):
    """The guard above is only meaningful if the pool really engages.

    Needs a left-linear recursion: the shard recipe requires the delta
    occurrence at step 0 probing a non-recursive relation at step 1 (the
    right-linear ``chain`` plans keep ``edge`` first and are ineligible).
    """
    program, database, query = WORKLOADS["multi-component"]()
    set_parallelism(4)
    with storage_mode("kernel"), execution_mode("columnar"):
        result = get_engine("seminaive").answer(program, query, database.copy())
    assert result.batch_stats.shards > 0
    assert result.batch_stats.merge_seconds > 0.0


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_fixpoint_offload_runs_whole_loop_on_pool(force_sharding):
    """A single left-linear plan with an invariant head column offloads the
    *entire* round loop: exactly one task per worker, one merge -- so the
    shard count equals the worker count, not workers x rounds -- while
    answers and counters (``iterations`` especially: the deepest
    partition's local round count) replay the sequential run exactly."""
    program, database, query = _left_linear_closure(30)
    engine = get_engine("seminaive")

    with execution_mode("columnar"):
        sequential = engine.answer(program, query, database.copy())
        set_parallelism(4)
        parallel = engine.answer(program, query, database.copy())
    assert sequential.counters.iterations > 2  # a genuinely multi-round loop
    assert parallel.batch_stats.shards == 4
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_fixpoint_offload_ships_unseen_head_constant_by_value(force_sharding):
    """A recursive head constant that no pre-fork row contains is interned
    only inside the forked workers; their child-local codes are meaningless
    to the parent, so those rows must travel by value -- and the result
    must still be bit-identical to the sequential run."""
    program = parse_program(
        """
        mark(X, Y, "seed") :- edge(X, Y).
        mark(X, Z, "hop") :- mark(X, Y, _), edge(Y, Z).
        """
    )
    database = Database()
    for i in range(20):
        database.add_fact("edge", (i, i + 1))
    query = parse_literal("mark(X, Y, T)")
    engine = get_engine("seminaive")

    with execution_mode("columnar"):
        sequential = engine.answer(program, query, database.copy())
        set_parallelism(4)
        parallel = engine.answer(program, query, database.copy())
    assert any(row[2] == "hop" for row in sequential.answers)
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters


@pytest.mark.parametrize("workers", [1, 4])
def test_resume_and_dred_under_parallelism(workers):
    """Insert + retract maintenance with parallelism armed: same answers
    and counters as the sequential maintenance run, and the same answers
    as from-scratch evaluation over the final database."""
    program, full_db, query = WORKLOADS["tc-dag"]()
    rows = sorted(full_db.relations["edge"].table.all_rows())
    base_db = Database()
    base_db.add_facts("edge", rows[:-3])

    set_parallelism(workers)
    engine = get_engine("seminaive")
    with execution_mode("columnar"):
        materialization = engine.materialize(program, base_db.copy())
        engine.resume(materialization, {"edge": rows[-3:]})
        engine.resume(
            materialization, Delta(deletes={"edge": rows[:2]})
        )
        resumed = materialization.answer(query)
    set_parallelism(1)

    final_db = Database()
    final_db.add_facts("edge", rows[2:])
    with execution_mode("columnar"):
        scratch = engine.answer(program, query, final_db)
    assert resumed.answers == scratch.answers


def _die(payload):
    os._exit(1)


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_dead_workers_fall_back_to_sequential(force_sharding):
    """Every offloaded task kills its worker: the broken pipes must surface
    as a sequential fallback with nothing charged, never as wrong answers
    or a half-merged fixpoint."""
    program, database, query = _left_linear_closure(30)
    engine = get_engine("seminaive")
    with execution_mode("columnar"):
        sequential = engine.answer(program, query, database.copy())
        register_task("shard_fixpoint", _die)
        try:
            set_parallelism(2)
            parallel = engine.answer(program, query, database.copy())
        finally:
            register_task("shard_fixpoint", _runtime._shard_fixpoint_worker)
    assert parallel.batch_stats.shards == 0
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters


def test_cost_mode_replans_under_parallelism():
    """A component the offload does not take (its seed delta is below the
    threshold) must keep cost-mode adaptive re-planning: the same answers,
    counters and ``DL601`` hints at 1 and 2 workers."""
    program, database, query = _left_linear_closure(300)
    engine = get_engine("seminaive")
    runs = []
    for workers in (1, 2):
        set_parallelism(workers)
        with plan_mode("cost"), execution_mode("columnar"):
            runs.append(engine.answer(program, query, database.copy()))
    sequential, parallel = runs
    assert parallel.batch_stats.shards == 0
    assert parallel.answers == sequential.answers
    assert parallel.counters == sequential.counters
    codes = [hint.code for hint in sequential.counters.hints]
    assert codes and set(codes) == {"DL601"}
    assert [hint.code for hint in parallel.counters.hints] == codes


def _evaluation_sequence(workers):
    """Evaluate, reset instrumentation, mutate the EDB, evaluate again --
    on one database object, so cached probe state must invalidate."""
    program, database, query = _multi_component_workload()
    engine = get_engine("seminaive")
    set_parallelism(workers)
    try:
        with storage_mode("kernel"), execution_mode("columnar"):
            first = engine.answer(program, query, database)
            database.reset_instrumentation()
            database.add_fact("edge_a", (18, 0))
            second = engine.answer(program, query, database)
    finally:
        set_parallelism(1)
    return first.answers, second.answers, second.counters


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_probe_memo_never_stale_after_reset(force_sharding):
    """The per-database kernel-probe cache and charging memos are cleared by
    ``reset_instrumentation`` and invalidated by table mutation; offloaded
    evaluation after both must charge exactly like the sequential run (a
    stale memo would skew ``fact_retrievals``/``distinct_facts`` or corrupt
    answers)."""
    seq_first, seq_second, seq_counters = _evaluation_sequence(1)
    par_first, par_second, par_counters = _evaluation_sequence(4)
    assert par_first == seq_first
    assert par_second == seq_second
    assert par_counters == seq_counters


def test_set_parallelism_validates_and_returns_previous():
    # The starting value depends on REPRO_PARALLELISM (the CI matrix runs
    # this suite under 2), so capture it instead of assuming the default.
    initial = parallelism()
    assert set_parallelism(3) == initial
    assert parallelism() == 3
    assert set_parallelism(initial) == 3
    with pytest.raises(ValueError):
        set_parallelism(0)
    with pytest.raises(ValueError):
        set_parallelism("two")
