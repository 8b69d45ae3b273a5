"""Seeded inputs and independent reference answers for the benchmark.

Everything a workload feeds the program is generated here from the
``--seed`` argument: edge lists, fact rows and query texts.  The shapes
follow the paper's experimental workloads (the same-generation samples of
Figures 7a-c, random genealogies, chains and random graphs, the stratified
game programs), but nothing here calls ``repro.workloads``, so a change to
the program under test cannot change what the benchmark measures.

The reference routines (breadth-first search, level walks, hop-count
distances) are small, direct implementations that share no code with the
program; they check the answers of the bulk and session workloads, whose
sizes are far beyond what ``repro.datalog.semantics`` evaluates quickly.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

Edge = Tuple[object, object]
Facts = Dict[str, List[Tuple[object, ...]]]

SAME_GENERATION = """
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
"""

TRANSITIVE_CLOSURE = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""

NON_REACHABILITY = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
    unreachable(X, Y) :- node(X), node(Y), not tc(X, Y).
"""

SHORTEST_PATHS = """
    dist(X, Y, N) :- edge(X, Y), succ(zero, N).
    dist(X, Z, N1) :- dist(X, Y, N), edge(Y, Z), succ(N, N1).
    sp(X, Y, min(N)) :- dist(X, Y, N).
"""


def win_move_rules(depth: int) -> str:
    """The bounded-lookahead win/move game: two fresh strata per level."""
    lines = [
        "has_move(X) :- move(X, Y).",
        "lose0(X) :- position(X), not has_move(X).",
    ]
    previous = "lose0"
    for level in range(1, depth + 1):
        lines.append(f"win{level}(X) :- move(X, Y), {previous}(Y).")
        lines.append(f"escape{level}(X) :- move(X, Y), not win{level}(Y).")
        lines.append(f"lose{level}(X) :- position(X), not escape{level}(X).")
        previous = f"lose{level}"
    return "\n".join(lines)


# -- same generation -----------------------------------------------------------


def fig7a(n: int) -> Facts:
    """Figure 7(a): a fan of n up-edges converging on one flat target."""
    return {
        "up": [("a", f"b{i}") for i in range(1, n + 1)],
        "flat": [(f"b{i}", "c") for i in range(1, n + 1)],
        "down": [("c", "d")],
    }


def fig7b(n: int) -> Facts:
    """Figure 7(b): up chain, a flat rung per level, ascending down chain."""
    return {
        "up": [(f"a{i}", f"a{i + 1}") for i in range(1, n)],
        "flat": [(f"a{i}", f"b{i}") for i in range(1, n + 1)],
        "down": [(f"b{i}", f"b{i + 1}") for i in range(1, n)],
    }


def fig7c(n: int) -> Facts:
    """Figure 7(c): as (b) with a descending down chain (shared suffixes)."""
    return {
        "up": [(f"a{i}", f"a{i + 1}") for i in range(1, n)],
        "flat": [(f"a{i}", f"b{i}") for i in range(1, n + 1)],
        "down": [(f"b{i + 1}", f"b{i}") for i in range(1, n)],
    }


def genealogy(people: int, depth: int, rng: random.Random) -> Tuple[Facts, List[List[str]]]:
    """A random acyclic genealogy: ``up`` child -> parent, ``down`` its
    inverse, ``flat`` random pairs within a generation.

    Every person below the oldest generation has two distinct parents and
    one ``flat`` partner, so the derived relations of different seeds are
    of similar size.  Returns the facts and the generations (youngest
    first).
    """
    generations: List[List[str]] = [[] for _ in range(depth)]
    for index in range(people):
        generations[index % depth].append(f"p{index}")
    up: List[Tuple[object, ...]] = []
    down: List[Tuple[object, ...]] = []
    flat: List[Tuple[object, ...]] = []
    for level in range(depth - 1):
        for person in generations[level]:
            for parent in sorted(rng.sample(generations[level + 1], 2)):
                up.append((person, parent))
                down.append((parent, person))
    for members in generations:
        for person in members:
            flat.append((person, rng.choice(members)))
    return {"up": up, "down": down, "flat": sorted(set(flat))}, generations


def same_generation_from(
    up: Dict[object, Iterable[object]],
    flat: Dict[object, Iterable[object]],
    down: Dict[object, Iterable[object]],
    start: object,
) -> Set[Tuple[object]]:
    """Reference ``sg(start, Y)`` by walking up level by level.

    ``sg(x, y)`` holds when ``x`` climbs ``k`` up-edges to some ``u``,
    ``flat(u, v)``, and ``v`` descends ``k`` down-edges to ``y``; the
    inputs are acyclic, so the climb ends.  The arguments are successor
    maps (see :func:`adjacency`).
    """
    answers: Set[Tuple[object]] = set()
    level = {start}
    depth = 0
    while level:
        frontier = {v for u in level for v in flat.get(u, ())}
        for _ in range(depth):
            frontier = {w for v in frontier for w in down.get(v, ())}
        answers.update((y,) for y in frontier)
        level = {w for u in level for w in up.get(u, ())}
        depth += 1
    return answers


def same_generation_all(facts: Facts) -> Set[Tuple[object, object]]:
    """Reference ``sg(X, Y)``: the level walk from every up/flat source."""
    up, flat, down = (adjacency(facts[name]) for name in ("up", "flat", "down"))
    return {
        (x, y)
        for x in set(up) | set(flat)
        for (y,) in same_generation_from(up, flat, down, x)
    }


# -- graphs --------------------------------------------------------------------


def adjacency(edges: Iterable[Tuple[object, ...]]) -> Dict[object, List[object]]:
    """Successor lists of a binary relation."""
    succ: Dict[object, List[object]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    return succ


def reachable(succ: Dict[object, List[object]], start: object) -> Set[object]:
    """Nodes reachable from ``start`` by one or more edges (BFS)."""
    seen: Set[object] = set()
    queue = deque(succ.get(start, ()))
    while queue:
        node = queue.popleft()
        if node not in seen:
            seen.add(node)
            queue.extend(succ.get(node, ()))
    return seen


def closure(edges: Iterable[Edge]) -> Set[Tuple[object, object]]:
    """Reference ``tc(X, Y)``: reachability from every edge source."""
    succ = adjacency(edges)
    return {(x, y) for x in succ for y in reachable(succ, x)}


def hop_distances(edges: Iterable[Edge]) -> Set[Tuple[object, object, int]]:
    """Reference ``sp(X, Y, N)``: fewest edges on a non-empty path X -> Y."""
    succ = adjacency(edges)
    rows: Set[Tuple[object, object, int]] = set()
    for x in succ:
        dist: Dict[object, int] = {}
        queue = deque((y, 1) for y in succ[x])
        while queue:
            node, hops = queue.popleft()
            if node not in dist:
                dist[node] = hops
                queue.extend((y, hops + 1) for y in succ.get(node, ()))
        rows.update((x, y, n) for y, n in dist.items())
    return rows


def chain_edges(n: int) -> List[Edge]:
    """The path 0 -> 1 -> ... -> n."""
    return [(i, i + 1) for i in range(n)]


def random_graph_edges(n: int, out_degree: int, rng: random.Random) -> List[Edge]:
    """A random directed graph: every node has ``out_degree`` distinct
    random successors other than itself (cycles allowed)."""
    return sorted(
        (a, b)
        for a in range(n)
        for b in rng.sample([node for node in range(n) if node != a], out_degree)
    )


def random_dag_edges(n: int, per_node: int, rng: random.Random) -> List[Edge]:
    """A random DAG: ``per_node`` draws of a larger target per node."""
    edges = {
        (source, rng.randint(source + 1, n - 1))
        for source in range(n - 1)
        for _ in range(per_node)
    }
    return sorted(edges)


def chain_with_extras(n: int, extra: int, rng: random.Random, span: int = 0) -> List[Edge]:
    """A chain of ``n`` nodes plus ``extra`` random edges.

    With ``span`` the extra edges are forward shortcuts of 2 to ``span``
    steps (the graph stays acyclic); without it they join any two nodes.
    """
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n - 1 + extra:
        if span:
            a = rng.randrange(n - 2)
            b = min(n - 1, a + rng.randint(2, span))
        else:
            a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def successor_facts(bound: int) -> List[Edge]:
    """``succ``: zero -> 1 -> ... -> bound (hop counts without arithmetic)."""
    return [("zero", 1)] + [(k, k + 1) for k in range(1, bound)]


def layered_game(levels: int, fanout: int, rng: random.Random) -> Facts:
    """A layered move graph: each position moves to ``fanout`` random
    positions one level down; the bottom level is stuck."""
    width = fanout + 2
    positions = [(f"g{level}_{i}",) for level in range(levels + 1) for i in range(width)]
    moves = {
        (f"g{level}_{i}", f"g{level + 1}_{rng.randrange(width)}")
        for level in range(levels)
        for i in range(width)
        for _ in range(fanout)
    }
    return {"position": positions, "move": sorted(moves)}
