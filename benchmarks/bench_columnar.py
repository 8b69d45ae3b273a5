"""Before/after wall-clock benchmark for the columnar batch executor.

Runs the same workload matrix twice -- once in a baseline checkout with its
compiled row-at-a-time executor (the ``compiled`` flavour) and once in the
current tree with the columnar batch kernel, the default executor -- and
reports per-cell speedups.  The current tree no longer has a compiled mode,
so ``--baseline-path <src>`` (the ``src`` directory of an older checkout)
is required, and the floor follows from what that checkout contains:

* A baseline that already ships the columnar kernel (it accepts
  ``execution_mode("columnar")``) shares the storage-layer improvements that
  came with it, so its compiled mode is faster and threshold cells must
  reach ``SHARED_STORAGE_THRESHOLD`` (3x).  This is the configuration CI
  runs, against the last commit that had the compiled mode.
* A pre-columnar baseline gives the honest two-checkout comparison used to
  generate the committed ``BENCH_columnar.json``; threshold cells must reach
  ``PRE_COLUMNAR_THRESHOLD`` (5x).

Guard cells -- shapes the kernel is *not* expected to accelerate, such as
round-0-dominated recursive self-joins -- must never regress below
``GUARD_FLOOR`` (0.9x) in either configuration.

Garbage collection stays *enabled* during measurement.  Full collections
scanning the row dictionaries are 20-35% of the wall clock on the biggest
cells, and the columnar kernel's reduced allocation rate shrinks that cost
for real users -- disabling gc (the pyperf stabilisation trick) would hide
a genuine part of the speedup.  A ``gc.collect()`` between cells keeps one
cell's garbage from being charged to the next.

The two passes alternate in subprocesses (see ``helpers.alternating_passes``)
so machine-load drift hits both sides about equally; the per-cell minimum
over all rounds is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

from helpers import (
    alternating_passes,
    calibrated_best,
    check_answer_parity,
    repo_src,
    write_report,
)

#: speedup floor for cells the kernel targets, against a pre-columnar tree
PRE_COLUMNAR_THRESHOLD = 5.0
#: the same cells against a tree whose compiled mode shares the kernel's
#: storage-layer improvements
SHARED_STORAGE_THRESHOLD = 3.0
#: no benchmarked family may regress below this in either configuration
GUARD_FLOOR = 0.9


def cell_matrix():
    """``name -> (workload thunk, engine, kind)`` for every benchmarked cell.

    ``threshold`` cells are delta-round dominated -- chain transitive
    closure and the paper's sample (b) -- which is where the batch kernel
    engages fully.  ``guard`` cells cover the shapes that stay on the row
    loop (round-0 self-feeding recursion on trees and dense random graphs)
    plus the naive and magic-sets strategies, pinning the no-regression
    promise.
    """
    from repro.workloads import (
        binary_tree,
        chain,
        random_graph,
        sample_a,
        sample_b,
        sample_c,
    )

    return {
        # -- threshold cells: the kernel's target families ------------------
        "tc-chain-600/seminaive": (lambda: chain(600), "seminaive", "threshold"),
        "tc-chain-800/seminaive": (lambda: chain(800), "seminaive", "threshold"),
        "fig7b-240/seminaive": (lambda: sample_b(240), "seminaive", "threshold"),
        "fig7b-320/seminaive": (lambda: sample_b(320), "seminaive", "threshold"),
        # -- guard cells: must simply not regress ---------------------------
        "tc-tree-12/seminaive": (lambda: binary_tree(12), "seminaive", "guard"),
        "tc-graph-300/seminaive": (
            lambda: random_graph(300, 1050, seed=7),
            "seminaive",
            "guard",
        ),
        "fig7a-1000/seminaive": (lambda: sample_a(1000), "seminaive", "guard"),
        "fig7c-800/seminaive": (lambda: sample_c(800), "seminaive", "guard"),
        "fig7a-200/naive": (lambda: sample_a(200), "naive", "guard"),
        "fig7a-400/magic": (lambda: sample_a(400), "magic", "guard"),
    }


def has_columnar_mode(src: str) -> bool:
    """Whether the checkout at ``src`` accepts ``execution_mode("columnar")``."""
    probe = (
        "from repro.datalog.plans import set_execution_mode; "
        "set_execution_mode('columnar')"
    )
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
    ).returncode == 0


def run_pass(flavour: str, repeats: int) -> dict:
    """Measure every cell under ``flavour`` ("compiled" or "columnar")."""
    from repro.engines import run_engine
    from repro.instrumentation import Counters

    try:
        from repro.datalog.plans import execution_mode
    except ImportError:  # pre-execution-mode checkout: row executor only
        from contextlib import nullcontext

        def execution_mode(_mode):
            return nullcontext()

    results = {}
    for name, (generate, engine, _kind) in cell_matrix().items():
        program, database, query = generate()

        def one_run():
            fresh = database.copy()
            counters = Counters()
            fresh.reset_instrumentation(counters)
            started = time.perf_counter()
            result = run_engine(engine, program, query, fresh, counters)
            return time.perf_counter() - started, len(result.answers)

        with execution_mode(flavour):
            # A generous floor: the sub-100ms cells (fig7b under the
            # kernel, the fig7a/fig7c guards) need many loops before the
            # minimum converges out of scheduler noise.
            seconds, answers = calibrated_best(
                one_run, repeats, floor_seconds=0.5, max_loops=12
            )
        # Cross-cell isolation only; gc stays *enabled* during measurement
        # (see the module docstring).
        gc.collect()
        results[name] = {"seconds": seconds, "answers": answers}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_columnar.json")
    parser.add_argument("--rounds", type=int, default=3,
                        help="alternating baseline/columnar measurement rounds")
    parser.add_argument("--repeats", type=int, default=2,
                        help="best-of repeats inside each measurement pass")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a cell misses its target")
    parser.add_argument(
        "--baseline-path",
        default=None,
        help="src directory of an older checkout whose compiled mode is the baseline",
    )
    parser.add_argument(
        "--measure-only",
        choices=["compiled", "columnar"],
        default=None,
        help="internal: print one measurement pass as JSON and exit",
    )
    args = parser.parse_args()

    if args.measure_only:
        json.dump(run_pass(args.measure_only, args.repeats), sys.stdout)
        return 0

    if not args.baseline_path:
        parser.error("--baseline-path is required: this tree has no compiled mode")
    here = repo_src()
    if has_columnar_mode(args.baseline_path):
        era = "columnar-era"
        threshold = SHARED_STORAGE_THRESHOLD
    else:
        era = "pre-columnar"
        threshold = PRE_COLUMNAR_THRESHOLD
    baseline_label = f"{era} checkout at {args.baseline_path} (compiled mode)"

    before, after = alternating_passes(
        __file__,
        args.rounds,
        (args.baseline_path, "compiled"),
        (here, "columnar"),
        ("--repeats", str(args.repeats)),
    )
    check_answer_parity(before, after)

    kinds = {name: kind for name, (_g, _e, kind) in cell_matrix().items()}
    results = {}
    misses = []
    for cell in sorted(after):
        baseline_s = before[cell]["seconds"]
        columnar_s = after[cell]["seconds"]
        speedup = baseline_s / columnar_s if columnar_s else float("inf")
        target = threshold if kinds[cell] == "threshold" else GUARD_FLOOR
        results[cell] = {
            "baseline_s": round(baseline_s, 6),
            "columnar_s": round(columnar_s, 6),
            "speedup": round(speedup, 3),
            "kind": kinds[cell],
            "target": target,
        }
        if speedup < target:
            misses.append((cell, speedup, target))

    report = {
        "meta": {
            "baseline": baseline_label,
            "rounds": args.rounds,
            "repeats": args.repeats,
            "python": sys.version.split()[0],
            "targets": {
                "threshold": threshold,
                "guard": GUARD_FLOOR,
            },
        },
        "results": results,
    }
    write_report(args.output, report)

    width = max(len(cell) for cell in results)
    print(f"{'cell'.ljust(width)}  baseline_s  columnar_s  speedup  target")
    for cell, row in sorted(results.items()):
        print(
            f"{cell.ljust(width)}  {row['baseline_s']:10.4f}  {row['columnar_s']:10.4f}"
            f"  {row['speedup']:6.2f}x  >={row['target']:.1f}x"
        )
    if misses:
        print("\ncells below target:")
        for cell, speedup, target in misses:
            print(f"  {cell}: {speedup:.2f}x < {target:.1f}x")
        return 1 if args.strict else 0
    print("\nall cells meet their targets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
