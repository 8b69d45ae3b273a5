"""Run one workload of the benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oneshot-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full report: host
facts, the configuration, every end-to-end metric the workload produces
(write latencies and ``fail_ratio`` included) and, for a traced run, each
layer's share of the traced op time.

The program is imported from ``src/`` of the checkout this file sits in; a
directory without it makes the run fail before anything is measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Cold set-ups per run: the run's own plus this many minus one in fresh
#: interpreters, so module-level caches warmed by one set-up cannot hide
#: the cost of the next.
SETUP_RUNS = 5


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program at {SRC}/repro; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- host facts ----------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _setting(module: str, getter: str):
    """A configuration value, or ``None`` when this version lacks the getter."""
    try:
        return getattr(__import__(module, fromlist=[getter]), getter)()
    except (ImportError, AttributeError):
        return None


def host_facts(args) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "config": {
            "storage": _setting("repro.storage.runtime", "get_storage_mode"),
            "executor": _setting("repro.datalog.plans", "get_execution_mode"),
            "plans": _setting("repro.datalog.plans", "get_plan_mode"),
            "program_opt": _setting("repro.datalog.transform", "get_program_opt"),
            "parallelism": _setting("repro.parallel", "parallelism"),
            "eager_validation": _setting(
                "repro.datalog.diagnostics", "eager_validation_enabled"
            ),
        },
    }


# -- set-up --------------------------------------------------------------------


def timed_setup(workload) -> float:
    gc.collect()
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def probe_setups(args, count: int) -> List[float]:
    """Set-up times measured in ``count`` fresh interpreters, one at a time."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- the closed loop -----------------------------------------------------------


class Rounds:
    """Replay the workload's round of ops until ``seconds`` of op time.

    Every round starts from the same state after a collector barrier, so op
    ``k`` does the same work in every round; ``best[k]`` keeps its fastest
    time.  The host this benchmark was tuned on changes speed by up to half
    for stretches of seconds to minutes, and an op's best time over a run is
    far steadier than its mean.
    """

    def __init__(self, workload, tracer=None, inject_failure=False):
        self.workload = workload
        self.tracer = tracer
        self.inject_failure = inject_failure
        size = workload.round_ops
        self.best = [math.inf] * size
        self.kinds: List[str] = [""] * size
        self.rounds = 0
        self.ops = 0
        self.op_time = 0.0
        self.failed = 0
        self.reads = 0
        self.cached_reads = 0
        self.round_work: List[int] = []
        self.counts = {"iterations": 0, "fact_retrievals": 0}
        self.sessions = {"materializations": 0, "resumes": 0}
        self.first_error: Optional[str] = None

    def run(self, seconds: float) -> "Rounds":
        while self.rounds == 0 or self.op_time < seconds:
            self.round()
        return self

    def round(self) -> None:
        workload, tracer = self.workload, self.tracer
        workload.begin_round()
        stats_before = self._session_stats()
        # The barrier: collect what the last round left, then take every
        # surviving object out of the collector's reach for the round.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        patches = None
        if tracer is not None:
            import perf_trace

            patches = perf_trace.install(tracer)
        try:
            self._ops()
        finally:
            if patches is not None:
                patches.restore()
        self.rounds += 1
        stats_after = self._session_stats()
        for key in self.sessions:
            self.sessions[key] += stats_after[key] - stats_before[key]

    def _session_stats(self) -> Dict[str, int]:
        totals = dict.fromkeys(self.sessions, 0)
        for query_session in self.workload.sessions:
            for key in totals:
                totals[key] += query_session.stats[key]
        return totals

    def _ops(self) -> None:
        workload, tracer = self.workload, self.tracer
        work = 0
        for k in range(workload.round_ops):
            op = workload.op(k)
            self.kinds[k] = op.kind
            if op.before is not None:
                op.before()
            if tracer is not None:
                tracer.op = self.ops
            error = None
            start = perf_counter()
            try:
                result = op.run()
            except Exception:  # an op that raises is a failed op, not a crash
                error = traceback.format_exc()
            elapsed = perf_counter() - start
            self.op_time += elapsed
            self.ops += 1
            if elapsed < self.best[k]:
                self.best[k] = elapsed
            correct, counts, cached = False, None, False
            if error is None:
                if self.inject_failure and op.kind == "read":
                    self.inject_failure = False
                    result = types.SimpleNamespace(
                        answers=set(result.answers) | {("perfbench-injected",)},
                        counters=result.counters,
                        details=getattr(result, "details", {}),
                    )
                try:
                    correct, counts, cached = op.check(result)
                except Exception:
                    error = traceback.format_exc()
            if error is not None and self.first_error is None:
                self.first_error = error
            if not correct:
                self.failed += 1
            if counts is not None:
                work += counts["work"]
                self.counts["iterations"] += counts["iterations"]
                self.counts["fact_retrievals"] += counts["fact_retrievals"]
            if op.kind == "read":
                self.reads += 1
                self.cached_reads += cached
        self.round_work.append(work)

    def best_of(self, kind: str) -> List[float]:
        return [best for best, k in zip(self.best, self.kinds) if k == kind]

    def ops_per_s(self) -> float:
        """Ops of one round per second of their summed best times."""
        return len(self.best) / sum(self.best)


def end_to_end(run: Rounds, setups: List[float]) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric the run produces, with its unit."""
    metrics: Dict[str, Dict[str, object]] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": run.ops_per_s(), "unit": "1/s"},
    }
    for kind in ("read", "write"):
        samples = run.best_of(kind)
        if not samples:
            continue
        for q in (50, 90, 99):
            if q == 99 and len(samples) < 1000:
                continue
            metrics[f"{kind}_p{q}_ms"] = {"value": percentile(samples, q) * 1e3, "unit": "ms"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB",
    }
    metrics["fail_ratio"] = {"value": run.failed / run.ops, "unit": "ratio"}
    metrics["work_per_op"] = {"value": run.round_work[0] / len(run.best), "unit": "count"}
    return metrics


def per_layer(tracer, traced: Rounds, untraced: Rounds) -> Dict[str, Dict[str, object]]:
    """Per-layer numbers of the traced rounds: counts and self times per op."""
    ops = traced.ops
    counts = tracer.counts
    layers = tracer.layer_ms()

    def ratio(part, whole):
        return part / whole if whole else 0.0

    values = {
        "parser.calls": counts["parser.calls"] / ops,
        "parser.busy_ms": layers["parser"] / ops,
        "diagnostics.calls": counts["diagnostics.calls"] / ops,
        "diagnostics.busy_ms": layers["diagnostics"] / ops,
        "abstract.calls": counts["abstract.calls"] / ops,
        "abstract.reuse_ratio": ratio(counts["abstract.reused"], counts["abstract.calls"]),
        "facts.calls": counts["facts.calls"] / ops,
        "facts.busy_ms": layers["facts"] / ops,
        "planner.busy_ms": layers["planner"] / ops,
        "traversal.busy_ms": layers["traversal"] / ops,
        "traversal.nodes_generated": counts["traversal.nodes_generated"] / ops,
        "plans.lookups": counts["plans.lookups"] / ops,
        "plans.compiles": counts["plans.compiles"] / ops,
        "plans.hit_ratio": ratio(counts["plans.hits"], counts["plans.lookups"]),
        "plans.compile_ms": tracer.span_ms("plans:compile_plan") / ops,
        "plans.join_ms": tracer.span_ms(
            "plans:heads", "plans:head_batch", "plans:substitutions"
        ) / ops,
        "plans.rule_firings": counts["plans.rows"] / ops,
        "runtime.evaluate_ms": tracer.span_ms("runtime:evaluate_stratified") / ops,
        "runtime.resume_ms": tracer.span_ms("runtime:resume_stratified") / ops,
        "runtime.resume_calls": counts["runtime.resume_calls"] / ops,
        "storage.add_many_calls": counts["storage.add_many_calls"] / ops,
        "storage.rows_offered": counts["storage.rows_offered"] / ops,
        "storage.rows_novel": counts["storage.rows_novel"] / ops,
        "storage.novel_ratio": ratio(
            counts["storage.rows_novel"], counts["storage.rows_offered"]
        ),
        "storage.insert_ms": layers["storage"] / ops,
        "decode.rows": counts["decode.rows"] / ops,
        "decode.busy_ms": layers["decode"] / ops,
        "engines.self_ms": layers["engines"] / ops,
        "engines.iterations": traced.counts["iterations"] / ops,
        "engines.fact_retrievals": traced.counts["fact_retrievals"] / ops,
        "session.cache_hit_ratio": ratio(traced.cached_reads, traced.reads),
        "session.materializations": traced.sessions["materializations"] / ops,
        "session.resumes": traced.sessions["resumes"] / ops,
        "session.write_ms": tracer.span_ms("session:insert_facts", "session:retract_facts") / ops,
        "trace.overhead_ratio": traced.ops_per_s() / untraced.ops_per_s(),
    }
    units = {"_ms": "ms/op", "_ratio": "ratio"}
    return {
        name: {
            "value": value,
            "unit": next((unit for suffix, unit in units.items() if name.endswith(suffix)),
                         "count/op"),
        }
        for name, value in values.items()
    }


def layer_shares(tracer, traced: Rounds) -> Dict[str, float]:
    """Each layer's self time as a share of the traced op time; the rest
    (benchmark glue and unwrapped code at the top of an op) is ``other``."""
    total_ms = traced.op_time * 1e3
    shares = {name: ms / total_ms for name, ms in tracer.layer_ms().items()}
    shares["other"] = 1.0 - sum(shares.values())
    return shares


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    parser.add_argument(
        "--inject-failure", action="store_true",
        help="corrupt the answer of the first timed read (self-check of the failure count)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import perf_workloads

    if args.workload not in perf_workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(perf_workloads.WORKLOADS)}")
    workload = perf_workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    report: Dict[str, object] = {"host": host_facts(args)}
    setups = [] if args.trace else probe_setups(args, SETUP_RUNS - 1)
    setups.append(timed_setup(workload))
    workload.reference()
    # One untimed round fills the caches a long-lived caller pays for once.
    warm = Rounds(workload).run(0.0)
    runs = [warm]
    if args.trace:
        import perf_trace

        untraced = Rounds(workload).run(args.seconds / 2)
        tracer = perf_trace.Tracer()
        traced = Rounds(workload, tracer).run(args.seconds / 2)
        metrics = per_layer(tracer, traced, untraced)
        report["layer_shares"] = layer_shares(tracer, traced)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"{args.workload}.spans.jsonl")
        tracer.write(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
        runs += [untraced, traced]
    else:
        timed = Rounds(workload, inject_failure=args.inject_failure).run(args.seconds)
        metrics = end_to_end(timed, setups)
        report["setup_samples_s"] = setups
        report["rounds"] = timed.rounds
        report["mean_ops_per_s"] = timed.ops / timed.op_time
        runs.append(timed)
    attempted = sum(run.ops for run in runs)
    failed = sum(run.failed for run in runs)
    work = {w for run in runs for w in run.round_work}
    report["work_repeats"] = len(work) == 1
    for run in runs:
        if run.first_error:
            print(run.first_error, file=sys.stderr)
            break
    report["metrics"] = metrics
    report["ops"] = {
        "attempted": attempted,
        "failed": failed,
        "reads": sum(run.reads for run in runs),
        "round_ops": workload.round_ops,
    }
    print(json.dumps(report))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0 and len(work) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: metrics[entry["name"]] for entry in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
