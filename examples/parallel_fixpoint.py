"""Offloading a whole fixpoint to a fork worker pool.

Evaluates the left-linear transitive closure

    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).

over ``n`` disjoint chains.  Its delta rounds are a single plan that carries
``X`` unchanged from the body to the head, so rows with different ``X``
never meet: with parallelism armed, the runtime partitions the round-0 delta
by ``X``, each worker iterates its partition to a local fixpoint, and the
parent merges the novel rows once.  The offload needs the default columnar
executor and a seed delta of at least 4096 rows; the default input clears
that, a small ``n`` stays sequential.

The point of the demo is the invariant, not the speed-up: whatever the
worker count, answers and work counters are identical to the sequential
run, which stays the differential oracle.

Run with:  python examples/parallel_fixpoint.py [n]
"""

import sys

from repro import set_parallelism
from repro.datalog.database import Database
from repro.datalog.parser import parse_literal, parse_program
from repro.engines import run_engine
from repro.parallel import fork_available

PROGRAM = """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
"""

#: Edges per chain; ``n`` chains give a seed delta of ``n * LENGTH`` rows.
LENGTH = 16


def build(n):
    database = Database()
    for chain in range(n):
        base = chain * (LENGTH + 1)
        for i in range(LENGTH):
            database.add_fact("edge", (base + i, base + i + 1))
    return parse_program(PROGRAM), database, parse_literal("path(X, Y)")


def evaluate(workers, n):
    program, database, query = build(n)
    previous = set_parallelism(workers)
    try:
        result = run_engine("seminaive", program, query, database)
    finally:
        set_parallelism(previous)
    return result


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    sequential = evaluate(1, n)
    parallel = evaluate(4, n)

    print(f"Parallel fixpoint demo (n = {n}, fork available: {fork_available()})")
    print(f"  seed delta:   {n * LENGTH} edge rows")
    print(f"  answers:      {len(sequential.answers)} rows")
    print(f"  seq counters: {sequential.counters}")
    print(f"  par counters: {parallel.counters}")
    stats = parallel.batch_stats
    offloaded = stats.shards > 0
    print(
        f"  offloaded:    {'yes' if offloaded else 'no'} "
        f"(shards: {stats.shards}, merge: {stats.merge_seconds * 1000:.1f} ms)"
    )
    same_answers = parallel.answers == sequential.answers
    same_counters = parallel.counters == sequential.counters
    print(f"  answers identical:  {'yes' if same_answers else 'NO'}")
    print(f"  counters identical: {'yes' if same_counters else 'NO'}")
    if offloaded:
        print(
            "\nEach of the 4 workers ran its chains' delta rounds to completion;\n"
            "the parent inserted their novel rows once and replayed the\n"
            "sequential charging contract -- the counters above must match."
        )
    else:
        print(
            "\nThe seed delta is below the 4096-row offload threshold (or fork\n"
            "is unavailable), so both runs took the sequential path."
        )


if __name__ == "__main__":
    main()
