"""Golden-file coverage for explain(): plan-shape changes must be reviewed.

To refresh after an intentional planner change, run with
``REGEN_EXPLAIN_GOLDEN=1`` and review the diff.
"""

import os
from pathlib import Path

from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_query
from repro.datalog.plans import plan_mode, rule_plan
from repro.engines import run_engine
from repro.instrumentation import Counters
from repro.session import QuerySession
from repro.stats import clear_stats_cache

GOLDEN = Path(__file__).parent / "golden"

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""


def sg_session():
    program = parse_program(SG)
    database = Database.from_dict(
        {
            "up": [("a", "b"), ("b", "c"), ("z", "c")],
            "flat": [("c", "c"), ("b", "d")],
            "down": [("c", "e"), ("e", "f"), ("d", "g")],
        }
    )
    return QuerySession(program, database)


def check_golden(name, actual):
    path = GOLDEN / name
    if os.environ.get("REGEN_EXPLAIN_GOLDEN"):
        path.write_text(actual + "\n")
    expected = path.read_text().rstrip("\n")
    assert actual == expected, f"explain() drifted from golden {name}"


class TestExplainGolden:
    def setup_method(self):
        clear_stats_cache()

    def test_legacy_transcript(self):
        check_golden("explain_sg_legacy.txt", sg_session().explain("sg(a, Y)"))

    def test_cost_transcript(self):
        with plan_mode("cost"):
            check_golden("explain_sg_cost.txt", sg_session().explain("sg(a, Y)"))


class TestExplainActuals:
    def test_counters_add_observed_cardinalities(self):
        from repro.engines.seminaive import evaluate_seminaive

        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."
        )
        database = Database.from_dict({"e": [(i, i + 1) for i in range(10)]})
        counters = Counters()
        database.reset_instrumentation(counters)
        evaluate_seminaive(program, database, counters)
        rule = program.idb_rules()[1]
        report = rule_plan(rule).explain(counters)
        assert "actual in=" in report
        assert "batches=" in report

    def test_session_explain_threads_counters_through(self):
        session = sg_session()
        result = session.query("sg(a, Y)")
        report = session.explain("sg(a, Y)", counters=result.counters)
        assert "plan for sg(X, Y)" in report


def findings(report):
    """The indented finding lines (``hint[...]``/``warning[...]``) of a report."""
    return {line for line in report.splitlines() if "[DL" in line}


class TestExplainIsolation:
    """Findings belong to the session or run they describe, never to another."""

    def test_one_shot_run_leaves_other_sessions_explain_unchanged(self):
        session = sg_session()
        before = session.explain("sg(a, Y)")
        dormant = parse_program("q(1). q(2).\np(X) :- q(X), X > 5.")
        run_engine("seminaive", dormant, parse_query("p(X)"), Database())
        with plan_mode("cost"):
            run_engine(
                "seminaive",
                parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z)."),
                parse_query("tc(X, Y)"),
                Database.from_dict({"e": [(i, i + 1) for i in range(60)]}),
            )
        assert session.explain("sg(a, Y)") == before

    def test_interleaved_sessions_report_disjoint_findings(self):
        low = QuerySession(
            parse_program("p(X) :- q(X), X > 5."), Database.from_dict({"q": [(1,)]})
        )
        high = QuerySession(
            parse_program("\nr(X) :- s(X), X < 0."), Database.from_dict({"s": [(7,)]})
        )
        reports = {"low": [], "high": []}
        for _ in range(2):
            low.query("p(X)")
            reports["low"].append(low.explain("p(X)"))
            high.query("r(X)")
            reports["high"].append(high.explain("r(X)"))
        low_findings = set().union(*map(findings, reports["low"]))
        high_findings = set().union(*map(findings, reports["high"]))
        assert len(low_findings) == len(high_findings) == 1
        assert low_findings.isdisjoint(high_findings)
        assert reports["low"][0] == reports["low"][1]
        assert reports["high"][0] == reports["high"][1]

    def test_explain_renders_the_runs_planner_hints(self):
        program = parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z).")
        session = QuerySession(
            program, Database.from_dict({"e": [(i, i + 1) for i in range(60)]})
        )
        with plan_mode("cost"):
            session.query("tc(X, Y)", engine="seminaive")
        # The fixpoint ran when the model was materialized: its counters
        # carry the re-plan hints; a cached lookup's own counters do not.
        fixpoint = session.materialization("seminaive").counters
        assert "planner hints:" not in session.explain("tc(X, Y)")
        report = session.explain("tc(X, Y)", counters=fixpoint)
        assert "planner hints:" in report
        assert "hint[DL601]" in report
