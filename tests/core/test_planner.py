"""Tests for the end-to-end planner (repro.core.planner and repro.evaluate_query)."""

import pytest

from repro import evaluate_query
from repro.core.planner import evaluate_query as planner_evaluate
from repro.datalog.database import Database
from repro.datalog.errors import NotApplicableError
from repro.datalog.parser import parse_literal, parse_program
from repro.datalog.semantics import answer_query
from repro.engines import run_engine
from repro.workloads import non_reachability, shortest_paths, win_not_move

SG = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    up(a, b). up(b, c).
    flat(c, c). flat(b, d).
    down(c, e). down(e, f). down(d, g).
"""

FLIGHT = """
    cnx(S, DT, D, AT) :- flight(S, DT, D, AT).
    cnx(S, DT, D, AT) :- flight(S, DT, D1, AT1), AT1 < DT1,
                         is_deptime(DT1), cnx(D1, DT1, D, AT).
    flight(hel, 1, par, 3). flight(par, 5, nyc, 9). flight(par, 2, rom, 4).
    is_deptime(5). is_deptime(2).
"""

NONLINEAR = """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), anc(Z, Y).
    par(1, 2). par(2, 3). par(3, 4).
"""


class TestStrategySelection:
    def test_binary_chain_program_uses_graph_traversal(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"))
        assert answer.strategy == "graph-traversal"

    def test_nary_linear_program_uses_chain_transform(self):
        answer = planner_evaluate(parse_program(FLIGHT), parse_literal("cnx(hel, 1, D, AT)"))
        assert answer.strategy == "chain-transform"

    def test_nonlinear_program_falls_back_to_bottom_up(self):
        answer = planner_evaluate(parse_program(NONLINEAR), parse_literal("anc(1, Y)"))
        assert answer.strategy == "bottom-up"

    def test_base_predicate_answered_directly(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("up(a, Y)"))
        assert answer.strategy == "base"
        assert answer.answers == {("b",)}

    def test_non_chain_adornment_falls_back(self):
        program = parse_program(
            """
            p(X, Y) :- b0(X, Y).
            p(X, Y) :- b1(X, Y), p(Y, Z).
            b1(a, b). b0(b, c).
            """
        )
        answer = planner_evaluate(program, parse_literal("p(a, Y)"))
        assert answer.strategy == "bottom-up"
        assert answer.answers == {("b",)}

    def test_forced_strategy_raises_when_not_applicable(self):
        with pytest.raises(NotApplicableError):
            planner_evaluate(
                parse_program(NONLINEAR), parse_literal("anc(1, Y)"), strategy="graph"
            )
        with pytest.raises(NotApplicableError):
            planner_evaluate(
                parse_program(NONLINEAR), parse_literal("anc(1, Y)"), strategy="chain"
            )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"), strategy="magic")

    def test_forced_bottom_up(self):
        answer = planner_evaluate(
            parse_program(SG), parse_literal("sg(a, Y)"), strategy="bottom-up"
        )
        assert answer.strategy == "bottom-up"
        assert answer.answers == {("f",), ("g",)}


class TestAnswerCorrectness:
    @pytest.mark.parametrize(
        "program_text,query_text",
        [
            (SG, "sg(a, Y)"),
            (SG, "sg(X, f)"),
            (SG, "sg(X, Y)"),
            (SG, "sg(a, f)"),
            (SG, "sg(a, e)"),
            (SG, "sg(X, X)"),
            (FLIGHT, "cnx(hel, 1, D, AT)"),
            (FLIGHT, "cnx(par, 2, D, AT)"),
            (FLIGHT, "cnx(hel, 1, nyc, AT)"),
            (NONLINEAR, "anc(1, Y)"),
            (NONLINEAR, "anc(X, 4)"),
        ],
    )
    def test_agreement_with_least_model(self, program_text, query_text):
        program = parse_program(program_text)
        query = parse_literal(query_text)
        answer = planner_evaluate(program, query)
        assert answer.answers == answer_query(program, query)

    def test_external_database_merged_with_program_facts(self):
        program = parse_program(
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- e(X, Y), tc(Y, Z). e(1, 2)."
        )
        extra = Database.from_dict({"e": [(2, 3)]})
        answer = planner_evaluate(program, parse_literal("tc(1, Y)"), database=extra)
        assert answer.answers == {(2,), (3,)}

    def test_cyclic_data_terminates_with_complete_answers(self):
        cyclic = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            up(a1, a2). up(a2, a3). up(a3, a1).
            flat(a1, b1).
            down(b1, b2). down(b2, b3). down(b3, b4). down(b4, b1).
            """
        )
        query = parse_literal("sg(a1, Y)")
        answer = planner_evaluate(cyclic, query)
        assert answer.strategy == "graph-traversal"
        assert answer.answers == answer_query(cyclic, query)

    def test_empty_answer_for_unreachable_constant(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(zzz, Y)"))
        assert answer.answers == set()


class TestQueryAnswerAPI:
    def test_values_and_iteration_helpers(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"))
        assert answer.values() == {"f", "g"}
        assert set(answer) == {("f",), ("g",)}
        assert len(answer) == 2
        assert answer.iterations >= 1
        assert answer.counters.nodes_generated > 0

    def test_details_expose_the_equation_system(self):
        answer = planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"))
        assert "equation_system" in answer.details

    def test_top_level_convenience_wrapper(self):
        program = parse_program(SG)
        answer = evaluate_query(program, parse_literal("sg(a, Y)"))
        assert answer.values() == {"f", "g"}

    def test_counters_can_be_supplied(self):
        from repro.instrumentation import Counters

        counters = Counters()
        planner_evaluate(parse_program(SG), parse_literal("sg(a, Y)"), counters=counters)
        assert counters.nodes_generated > 0
        assert counters.fact_retrievals > 0


def _nonlinear_chain():
    program = parse_program(
        """
        anc(X, Y) :- par(X, Y).
        anc(X, Y) :- anc(X, Z), anc(Z, Y).
        """
    )
    database = Database.from_dict({"par": [(i, i + 1) for i in range(30)]})
    return program, database, parse_literal("anc(0, Y)")


BOTTOM_UP_INPUTS = {
    "win-not-move": lambda: win_not_move(3),
    "non-reachability": lambda: non_reachability(9, extra_edges=4, seed=3),
    "shortest-paths": lambda: shortest_paths(8, extra_edges=3, seed=5),
    "nonlinear-anc": _nonlinear_chain,
}


class TestBottomUpFallbackIsTheRuntime:
    """The fallback evaluates through the stratified runtime, not the oracle:
    answers *and* counters equal the seminaive engine's, under every
    executor cell, with the reference evaluators unreachable."""

    @pytest.mark.parametrize("plan_mode", ["rows", "interpreted", "columnar"])
    @pytest.mark.parametrize("input_name", sorted(BOTTOM_UP_INPUTS))
    def test_fallback_matches_seminaive(self, input_name, plan_mode, executor, monkeypatch):
        import repro.datalog.semantics as semantics

        def unreachable(*args, **kwargs):
            raise AssertionError("the bottom-up fallback ran the reference oracle")

        program, database, query = BOTTOM_UP_INPUTS[input_name]()
        monkeypatch.setattr(semantics, "least_model", unreachable)
        monkeypatch.setattr(semantics, "stratified_model", unreachable)
        with executor(plan_mode):
            answer = planner_evaluate(program, query, database=database)
            expected = run_engine("seminaive", program, query, database)
        assert answer.strategy == "bottom-up"
        assert answer.answers == expected.answers
        assert answer.counters.as_dict() == expected.counters.as_dict()
        assert answer.counters.fact_retrievals > 0
