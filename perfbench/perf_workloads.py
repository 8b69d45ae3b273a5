"""The benchmark's three workloads over the default configuration.

Each workload is a closed loop driven by one client in one process.  It
runs in *rounds*: every round replays the same seeded sequence of ops from
the same starting state, so the run can time each op several times and
check every op against one precomputed reference answer.

A workload object is built from the seed (input generation, untimed), then:

``setup()``
    Everything the program needs before the first op: parsing programs,
    ``Database.from_dict``, ``QuerySession(...)`` and the first
    materialization.  This is what ``setup_s`` times.
``reference()``
    The independent answers the ops are checked against (untimed, and not
    part of ``setup_s``).
``begin_round()``
    Restore the starting state before a round (untimed).
``op(k)``
    The ``k``-th op of a round.  The loop times only :attr:`Op.run`;
    :attr:`Op.check` compares the answers with the reference and reports the
    op's work counters.

The program is reached only through its public functions, looked up on
their modules at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Set, Tuple

import repro
import repro.core.planner as planner
import repro.datalog as datalog
import repro.datalog.semantics as semantics
import repro.engines as engines
import repro.session as session

import perf_inputs as inputs

Answers = Set[Tuple[object, ...]]

#: The strategies a one-shot same-generation query is drawn from;
#: ``evaluate_query`` is the paper's planner entry point.
ONESHOT_STRATEGIES = (
    "graph",
    "counting",
    "reverse-counting",
    "henschen-naqvi",
    "magic",
    "seminaive",
    "evaluate_query",
)

NO_WORK = {"work": 0, "iterations": 0, "fact_retrievals": 0}


def counts_of(counters) -> Dict[str, int]:
    """The work counters an op reports."""
    return {
        "work": counters.total_work(),
        "iterations": counters.iterations,
        "fact_retrievals": counters.fact_retrievals,
    }


class Op:
    """One op: ``run()`` is timed; ``check(result)`` is not and returns
    ``(correct, counts, cached)`` with ``counts`` as :func:`counts_of`
    gives them.  ``before()``, when set, runs untimed just before ``run``.
    """

    __slots__ = ("kind", "run", "check", "before")

    def __init__(self, kind: str, run: Callable, check: Callable, before=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.before = before


class _OneShot:
    """Shared shape of the one-shot workloads: a fixed list of cells
    ``(strategy, program key, facts key, query text)``, each against its
    own prebuilt database; a round runs every cell once.

    ``run_engine`` never mutates the database it is given, so every round
    starts from the same state without a reset.
    """

    cells: List[Tuple[str, str, str, str]]
    programs_text: Dict[str, str]
    facts: Dict[str, inputs.Facts]
    expected: Dict[Tuple[str, str, str], Answers]
    sessions = ()

    def setup(self) -> None:
        self.programs = {
            key: datalog.parse_program(text) for key, text in self.programs_text.items()
        }
        self.databases = {
            key: datalog.Database.from_dict(rows) for key, rows in self.facts.items()
        }

    @property
    def round_ops(self) -> int:
        return len(self.cells)

    def begin_round(self) -> None:
        pass

    def op(self, k: int) -> Op:
        strategy, program_key, facts_key, text = self.cells[k]
        program = self.programs[program_key]
        database = self.databases[facts_key]
        expected = self.expected[(program_key, facts_key, text)]

        def run():
            query = datalog.parse_query(text)
            if strategy == "evaluate_query":
                return planner.evaluate_query(program, query, database)
            return engines.run_engine(strategy, program, query, database)

        def check(result):
            return result.answers == expected, counts_of(result.counters), False

        return Op("read", run, check)


class OneshotSmall(_OneShot):
    """Seeded draws of one-shot queries over EDBs of tens to hundreds of
    facts, so fixed per-query costs dominate."""

    name = "oneshot-small"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        sizes = (10, 20) if tiny else (10, 20, 40, 80)
        self.programs_text = {
            "sg": inputs.SAME_GENERATION,
            "win": inputs.win_move_rules(3),
            "unreach": inputs.NON_REACHABILITY,
        }
        self.facts = {}
        sg_queries = []
        for figure, build, start in (
            ("7a", inputs.fig7a, "a"),
            ("7b", inputs.fig7b, "a1"),
            ("7c", inputs.fig7c, "a1"),
        ):
            for n in sizes:
                key = f"fig{figure}-{n}"
                self.facts[key] = build(n)
                sg_queries.append((key, f"sg({start}, Y)"))
        for index in range(1 if tiny else 2):
            facts, generations = inputs.genealogy(240, 8, rng)
            key = f"genealogy-{index}"
            self.facts[key] = facts
            sg_queries.append((key, f"sg({rng.choice(generations[0])}, Y)"))
        self.facts["game"] = inputs.layered_game(4, 2, rng)
        nodes = 12 if tiny else 20
        self.facts["unreach"] = {
            "edge": inputs.chain_with_extras(nodes, nodes // 4, rng),
            "node": [(i,) for i in range(nodes)],
        }
        cells = [
            (strategy, "sg", key, text)
            for key, text in sg_queries
            for strategy in ONESHOT_STRATEGIES
        ]
        for strategy in ("seminaive", "evaluate_query"):
            cells.append((strategy, "win", "game", "win3(X)"))
            cells.append((strategy, "unreach", "unreach", "unreachable(0, Y)"))
        rng.shuffle(cells)
        self.cells = cells

    def reference(self) -> None:
        self.expected = {}
        for _, program_key, facts_key, text in self.cells:
            key = (program_key, facts_key, text)
            if key not in self.expected:
                self.expected[key] = semantics.answer_query(
                    self.programs[program_key],
                    datalog.parse_query(text),
                    self.databases[facts_key],
                )


class OneshotBulk(_OneShot):
    """A fixed interleaved cycle of full-fixpoint queries whose derived
    relations hold 10^4-10^5 tuples."""

    name = "oneshot-bulk"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        scale = 4 if tiny else 1
        self.programs_text = {
            "tc": inputs.TRANSITIVE_CLOSURE,
            "sg": inputs.SAME_GENERATION,
            "unreach": inputs.NON_REACHABILITY,
            "sp": inputs.SHORTEST_PATHS,
        }
        genealogy, _ = inputs.genealogy(400 // scale, 8, rng)
        unreach_nodes = 140 // scale
        sp_nodes = 40 // scale
        self.facts = {
            "chain": {"edge": inputs.chain_edges(200 // scale)},
            "graph": {"edge": inputs.random_graph_edges(150 // scale, 3, rng)},
            "genealogy": genealogy,
            "fig7b": inputs.fig7b(100 // scale),
            "unreach": {
                "edge": inputs.chain_with_extras(unreach_nodes, unreach_nodes // 2, rng),
                "node": [(i,) for i in range(unreach_nodes)],
            },
            "sp": {
                "edge": inputs.chain_with_extras(sp_nodes, sp_nodes // 2, rng, span=6),
                "succ": inputs.successor_facts(sp_nodes),
            },
            "short-chain": {"edge": inputs.chain_edges(40 // scale)},
        }
        # Fixed order: slow and fast fixpoints alternate within a round.  A
        # percentile of seven ops is one op's time, so the sizes keep three
        # cells well below and four close together above the median: no
        # seed makes a cell jump across a gap.
        self.cells = [
            ("seminaive", "tc", "chain", "tc(X, Y)"),
            ("magic", "sg", "fig7b", "sg(a1, Y)"),
            ("seminaive", "tc", "graph", "tc(X, Y)"),
            ("naive", "tc", "short-chain", "tc(X, Y)"),
            ("seminaive", "sg", "genealogy", "sg(X, Y)"),
            ("seminaive", "sp", "sp", "sp(X, Y, N)"),
            ("seminaive", "unreach", "unreach", "unreachable(X, Y)"),
        ]

    def reference(self) -> None:
        facts = self.facts
        nodes = [row[0] for row in facts["unreach"]["node"]]
        reach = inputs.adjacency(facts["unreach"]["edge"])
        fig7b = facts["fig7b"]
        self.expected = {
            ("tc", "chain", "tc(X, Y)"): inputs.closure(facts["chain"]["edge"]),
            ("tc", "graph", "tc(X, Y)"): inputs.closure(facts["graph"]["edge"]),
            ("tc", "short-chain", "tc(X, Y)"): inputs.closure(facts["short-chain"]["edge"]),
            ("sg", "genealogy", "sg(X, Y)"): inputs.same_generation_all(facts["genealogy"]),
            ("sg", "fig7b", "sg(a1, Y)"): inputs.same_generation_from(
                *(inputs.adjacency(fig7b[name]) for name in ("up", "flat", "down")), "a1"
            ),
            ("unreach", "unreach", "unreachable(X, Y)"): {
                (x, y)
                for x in nodes
                for reached in [inputs.reachable(reach, x)]
                for y in nodes
                if y not in reached
            },
            ("sp", "sp", "sp(X, Y, N)"): inputs.hop_distances(facts["sp"]["edge"]),
        }


class SessionMixed:
    """80% reads and 20% writes over two ``QuerySession``s: 55% of the ops
    go to ``tc`` and 45% to ``sg``.

    Session ``tc`` serves positive transitive closure over a random DAG from
    the seminaive model: reads look up ``tc(k, Y)``, writes insert a
    forward edge (seminaive resume) or retract a present one (DRed).
    Session ``sg`` serves same-generation over a genealogy with the
    auto-selected graph strategy: reads ask ``sg(p, Y)`` for ``p`` from a
    small hot set, so repeats hit the demand cache until a write to
    ``flat`` invalidates it.

    A round is a fixed script of ops over freshly built sessions.
    """

    name = "session-mixed"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.nodes = 60 if tiny else 300
        self.dag = inputs.random_dag_edges(self.nodes, 2, rng)
        self.family, self.generations = inputs.genealogy(120 if tiny else 600, 8, rng)
        self.hot = rng.sample(self.generations[0], 8 if tiny else 24)
        self.script = self._script(rng, 200 if tiny else 1000)

    def _script(self, rng: random.Random, length: int) -> List[Tuple[str, object]]:
        """``length`` ``(kind, argument)`` pairs: ``tc-read``/``sg-read``
        take a start constant, the writes a row.  Writes are drawn against
        the evolving edge and flat sets so that each changes exactly one
        row."""
        edges, flats = list(self.dag), list(self.family["flat"])
        present = set(edges) | set(flats)
        level_of = {
            person: level for level, members in enumerate(self.generations) for person in members
        }
        # An exact mix, shuffled, so seeds differ in which rows they touch,
        # not in how many ops of each kind they run: 50% tc reads, 30% sg
        # reads, 5% of each write kind.  The tc lookups all cost about the
        # same and the sg cache misses cost several times more; with more tc
        # reads the read median falls inside the tc mode instead of on the
        # edge between the two, where it moved by a quarter between seeds.
        kinds = ["tc-read"] * (length // 2) + ["sg-read"] * (length * 3 // 10) + [
            "tc-insert", "tc-retract", "sg-insert", "sg-retract"
        ] * (length // 20)
        rng.shuffle(kinds)
        script: List[Tuple[str, object]] = []
        for kind in kinds:
            if kind == "tc-read":
                script.append((kind, rng.randrange(self.nodes)))
                continue
            if kind == "sg-read":
                script.append((kind, rng.choice(self.hot)))
                continue
            rows = edges if kind.startswith("tc") else flats
            if kind.endswith("insert"):
                while True:
                    if kind.startswith("tc"):
                        a = rng.randrange(self.nodes - 1)
                        row = (a, rng.randrange(a + 1, self.nodes))
                    else:
                        person = rng.choice(rng.choice(self.generations))
                        row = (person, rng.choice(self.generations[level_of[person]]))
                    if row not in present:
                        break
                rows.append(row)
                present.add(row)
            else:
                index = rng.randrange(len(rows))
                row = rows[index]
                rows[index] = rows[-1]
                rows.pop()
                present.discard(row)
            script.append((kind, row))
        return script

    def setup(self) -> None:
        tc_program = datalog.parse_program(inputs.TRANSITIVE_CLOSURE)
        sg_program = datalog.parse_program(inputs.SAME_GENERATION)
        self.tc = session.QuerySession(
            tc_program, datalog.Database.from_dict({"edge": self.dag}), engine="seminaive"
        )
        self.sg = session.QuerySession(sg_program, datalog.Database.from_dict(self.family))
        self.tc.materialization("seminaive")
        self.sg.materialization(self.sg.strategy_for(f"sg({self.hot[0]}, Y)"))

    # Every round replays the script over freshly built sessions.
    begin_round = setup

    @property
    def round_ops(self) -> int:
        return len(self.script)

    @property
    def sessions(self):
        return (self.tc, self.sg)

    def reference(self) -> None:
        """Replay the script over plain sets: BFS answers the ``tc`` reads,
        the level walk the ``sg`` reads."""
        succ: Dict[object, Set[object]] = {node: set() for node in range(self.nodes)}
        for a, b in self.dag:
            succ[a].add(b)
        up = inputs.adjacency(self.family["up"])
        down = inputs.adjacency(self.family["down"])
        flat: Dict[object, Set[object]] = {}
        for a, b in self.family["flat"]:
            flat.setdefault(a, set()).add(b)
        self.expected: List[object] = []
        for kind, argument in self.script:
            if kind == "tc-read":
                answer: object = {(y,) for y in inputs.reachable(succ, argument)}
            elif kind == "sg-read":
                answer = inputs.same_generation_from(up, flat, down, argument)
            else:
                a, b = argument
                target = succ if kind.startswith("tc") else flat
                if kind.endswith("insert"):
                    target.setdefault(a, set()).add(b)
                else:
                    target[a].discard(b)
                answer = 1  # the one row the write changes
            self.expected.append(answer)

    def op(self, k: int) -> Op:
        kind, argument = self.script[k]
        expected = self.expected[k]
        if kind.endswith("read"):
            target = self.tc if kind == "tc-read" else self.sg
            text = f"{kind[:2]}({argument}, Y)"

            def read():
                return target.query(text, counters=repro.Counters())

            def check_read(result):
                cached = bool(result.details.get("cached"))
                return result.answers == expected, counts_of(result.counters), cached

            return Op("read", read, check_read)

        target = self.tc if kind.startswith("tc") else self.sg
        predicate = "edge" if kind.startswith("tc") else "flat"
        change = target.insert_facts if kind.endswith("insert") else target.retract_facts
        before: Dict[str, int] = {}

        def model_counts():
            # Resumes charge the tc model's counters; the sg demand cache
            # refreshes lazily and charges the next read instead.
            if target is self.tc:
                return counts_of(self.tc.materialization("seminaive").counters)
            return NO_WORK

        def write():
            return change(predicate, [argument])

        def check_write(changed):
            after = model_counts()
            work = {key: after[key] - before[key] for key in after}
            return changed == expected, work, False

        return Op("write", write, check_write, lambda: before.update(model_counts()))


WORKLOADS = {cls.name: cls for cls in (OneshotSmall, OneshotBulk, SessionMixed)}
