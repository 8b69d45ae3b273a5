"""Compiled join plans: rule bodies analysed once, executed many times.

Every bottom-up engine in this package repeatedly instantiates the same rule
bodies against a growing database.  Instead of re-interpreting the body tuple
by tuple with substitution dictionaries (the historical
:func:`repro.datalog.unify.satisfy_body` nested-loop), this module compiles
each body **once** into a :class:`JoinPlan`:

* non-builtin literals are reordered greedily by bound-argument count
  (sideways information passing): at every step the literal with the most
  arguments already bound -- by constants, by the caller's initial bindings,
  or by earlier literals -- is scanned next, ties broken by textual order so
  that bodies already written in SIP order keep their order (and hence their
  work counters) exactly;
* each built-in comparison is attached to the earliest point at which all of
  its variables are bound; a built-in that can *never* become ground is
  rejected at plan time with :class:`~repro.datalog.errors.EvaluationError`
  instead of diverging or being silently dropped mid-iteration (this is the
  single code path replacing the historical deferral logic of ``unify.py``
  and ``seminaive.py``, which had drifted apart);
* the executor is a flat iterative backtracking loop that drives
  :meth:`repro.datalog.database.Database.scan` (and through it the
  per-position hash indexes of :class:`~repro.datalog.database.Relation`)
  with a positional slot array, never materialising substitution
  dictionaries or re-wrapped literals on the hot path.

Plans are cached (:func:`body_plan` / :func:`rule_plan` / :func:`delta_plan`)
keyed by the body, the set of initially-bound variables and the delta
configuration, so seminaive evaluation gets **one plan variant per recursive
occurrence index** -- the variant whose chosen occurrence reads the delta
relation while every other literal reads the full database.

Counter semantics are preserved exactly: a plan charges ``fact_retrievals``
and ``distinct_facts`` for precisely the rows the interpreted nested-loop
join would have charged for the same literal order, which
:func:`set_execution_mode` makes checkable -- in ``"interpreted"`` mode every
plan runs through a reference substitution-dictionary executor over the same
ordered body, and the differential tests assert both executors produce
identical answers *and* identical counters on every workload.

:func:`compile_image` is the analogous once-per-expression compiler for the
relational-algebra node images used by the Henschen-Naqvi and counting
engines.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat as _repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..storage import runtime as _storage_runtime
from ..storage.columns import (
    DIRECT_CHARGES,
    BatchScan,
    PendingCharges,
    build_probes,
    extern_columns,
)
from ..storage.runtime import MODE_KERNEL
from ..storage.table import FULL_SCAN
from .database import Database, Row
from .errors import EvaluationError
from .literals import BUILTIN_PREDICATES, Literal
from .rules import Rule
from .terms import AGGREGATE_FUNCTIONS, AggregateTerm, Constant, Variable

Substitution = Dict[Variable, object]

#: Where a scan step reads its rows from.
SOURCE_MAIN = 0      # the primary database only
SOURCE_DERIVED = 1   # the secondary (delta) database only
SOURCE_BOTH = 2      # primary first, then secondary

_MODE_COMPILED = "compiled"
_MODE_INTERPRETED = "interpreted"
_MODE_COLUMNAR = "columnar"
_mode = _MODE_COMPILED

#: A plan whose optimistic batch was aborted this many times stops trying:
#: its data shape feeds its own later scans, so every attempt would pay the
#: discarded batch on top of the row-loop re-run.
_BATCH_ABORT_LIMIT = 2


def set_execution_mode(mode: str) -> None:
    """Select how plans execute: ``"compiled"`` (default), ``"interpreted"``
    or ``"columnar"``.

    The interpreted mode runs the reference substitution-dictionary
    nested-loop join over the *same* plan (same literal order, same builtin
    placement, same delta sources) and exists so the differential tests can
    assert the two executors agree on answers and counters.

    The columnar mode keeps the compiled row executor for the generator
    entry points (:meth:`JoinPlan.substitutions` / :meth:`JoinPlan.heads` /
    :meth:`JoinPlan.pairs`, whose callers may interleave arbitrary writes
    with consumption) and additionally offers :meth:`JoinPlan.head_batch`,
    the whole-batch executor the stratified runtime drives: each scan step
    processes the entire binding batch at once -- one indexed probe per
    distinct join key, vectorized builtin filters over value columns,
    anti-join reducers for negation -- with charging replicated bit for bit
    (see :mod:`repro.storage.columns`).
    """
    global _mode
    if mode not in (_MODE_COMPILED, _MODE_INTERPRETED, _MODE_COLUMNAR):
        raise ValueError(f"unknown execution mode {mode!r}")
    _mode = mode


def get_execution_mode() -> str:
    """The currently selected execution mode."""
    return _mode


@contextmanager
def execution_mode(mode: str):
    """Context manager temporarily switching the execution mode."""
    previous = _mode
    set_execution_mode(mode)
    try:
        yield
    finally:
        set_execution_mode(previous)


_PLAN_LEGACY = "legacy"
_PLAN_COST = "cost"
_plan_mode = _PLAN_LEGACY


def set_plan_mode(mode: str) -> None:
    """Select how plans are *ordered*: ``"legacy"`` (default) or ``"cost"``.

    Orthogonal to :func:`set_execution_mode` (how the chosen plan runs).
    The legacy planner is the greedy bound-count order with textual
    tie-breaking whose work counters are pinned bit-identically on the
    paper samples.  The cost planner reads relation statistics
    (:mod:`repro.stats`) through the ``database=`` argument of the plan
    builders and orders scans by estimated intermediate-result size --
    Selinger-style dynamic programming up to :data:`_DP_LIMIT` scan
    literals, greedy with pairwise lookahead beyond -- and is only active
    when a builder is given a database to measure; without one it falls
    back to the legacy order, so cache keys (and plans) for statistics-free
    call sites are byte-identical in both modes.
    """
    global _plan_mode
    if mode not in (_PLAN_LEGACY, _PLAN_COST):
        raise ValueError(f"unknown plan mode {mode!r}")
    _plan_mode = mode


def get_plan_mode() -> str:
    """The currently selected plan mode."""
    return _plan_mode


@contextmanager
def plan_mode(mode: str):
    """Context manager temporarily switching the plan mode."""
    previous = _plan_mode
    set_plan_mode(mode)
    try:
        yield
    finally:
        set_plan_mode(previous)


class BuiltinCheck:
    """A built-in comparison compiled against slot positions.

    The compiled shape (operator plus slot/constant operands) is kept on the
    instance so the columnar executor can evaluate the check over whole value
    columns instead of calling :attr:`evaluate` once per row.
    """

    __slots__ = ("literal", "evaluate", "op", "lslot", "rslot", "lval", "rval")

    def __init__(self, literal: Literal, slot_of: Dict[Variable, int]):
        self.literal = literal
        op = self.op = BUILTIN_PREDICATES[literal.predicate]
        left, right = literal.args
        lslot = self.lslot = slot_of[left] if isinstance(left, Variable) else None
        rslot = self.rslot = slot_of[right] if isinstance(right, Variable) else None
        lval = self.lval = left.value if isinstance(left, Constant) else None
        rval = self.rval = right.value if isinstance(right, Constant) else None
        if lslot is not None and rslot is not None:
            self.evaluate = lambda slots: op(slots[lslot], slots[rslot])
        elif lslot is not None:
            self.evaluate = lambda slots: op(slots[lslot], rval)
        elif rslot is not None:
            self.evaluate = lambda slots: op(lval, slots[rslot])
        else:
            constant = op(lval, rval)
            self.evaluate = lambda slots: constant

    def evaluate_column(self, cols: Dict[int, list], n: int) -> Optional[List[bool]]:
        """The check over a whole batch: a boolean mask, or ``None`` for
        an all-true constant check (so callers skip the filter pass)."""
        op = self.op
        lslot = self.lslot
        rslot = self.rslot
        if lslot is not None and rslot is not None:
            return [op(a, b) for a, b in zip(cols[lslot], cols[rslot])]
        if lslot is not None:
            rval = self.rval
            return [op(a, rval) for a in cols[lslot]]
        if rslot is not None:
            lval = self.lval
            return [op(lval, b) for b in cols[rslot]]
        return None if op(self.lval, self.rval) else [False] * n


class NegationCheck:
    """A negated body literal compiled to an anti-join existence probe.

    Placed -- exactly like a built-in comparison -- at the earliest point by
    which all of its *named* variables are bound (stratification guarantees
    the negated relation is fully evaluated by then), the check scans the
    *main* database for rows matching the bound argument vector and fails
    the current slot assignment when any exist.  Anonymous variables that
    the positive body does not bind are existentially quantified inside the
    anti-join: their positions are simply unconstrained in the scan
    (``not e(X, _)`` asks that no ``e(X, *)`` row exist), with repeated
    occurrences of one variable still constraining each other, mirroring
    :meth:`~repro.datalog.database.Database.match`.  The scan charges
    retrievals the same way a positive scan of the same bound literal would,
    so the compiled and interpreted executors stay counter-identical.
    """

    __slots__ = (
        "literal",
        "predicate",
        "const_bindings",
        "slot_bindings",
        "intra_eq",
        "_buffer",
    )

    def __init__(
        self,
        literal: Literal,
        slot_of: Dict[Variable, int],
        bound_at_placement: Set[Variable],
    ):
        self.literal = literal
        self.predicate = literal.predicate
        const_bindings: List[Tuple[int, object]] = []
        slot_bindings: List[Tuple[int, int]] = []
        intra_eq: List[Tuple[int, int]] = []
        first_position: Dict[Variable, int] = {}
        for position, term in enumerate(literal.args):
            if isinstance(term, Constant):
                const_bindings.append((position, term.value))
            elif term in bound_at_placement:
                slot_bindings.append((position, slot_of[term]))
            else:
                # Unbound (necessarily anonymous, by the placement rule):
                # existential within the anti-join.
                first = first_position.setdefault(term, position)
                if first != position:
                    intra_eq.append((position, first))
        self.const_bindings = tuple(const_bindings)
        self.slot_bindings = tuple(slot_bindings)
        self.intra_eq = tuple(intra_eq)
        # Reusable probe-bindings buffer: the key set is fixed at compile
        # time (constant positions never overwritten, slot positions
        # overwritten on every probe) and Database.scan only reads the dict
        # transiently, so one preallocated buffer replaces the historical
        # per-row dict(self.const_bindings) copy on the anti-join hot path.
        self._buffer: Dict[int, object] = dict(const_bindings)
        for position, _ in slot_bindings:
            self._buffer[position] = None

    def holds(self, slots: List[object], database: Database) -> bool:
        bindings = self._buffer
        for position, slot in self.slot_bindings:
            bindings[position] = slots[slot]
        return not database.scan(self.predicate, bindings, self.intra_eq)


class ScanStep:
    """One non-builtin body literal compiled against slot positions."""

    __slots__ = (
        "literal",
        "predicate",
        "source",
        "const_bindings",
        "slot_bindings",
        "outputs",
        "intra_eq",
        "checks",
        "neg_checks",
    )

    def __init__(
        self,
        literal: Literal,
        source: int,
        slot_of: Dict[Variable, int],
        bound_before: Set[Variable],
    ):
        self.literal = literal
        self.predicate = literal.predicate
        self.source = source
        const_bindings: List[Tuple[int, object]] = []
        slot_bindings: List[Tuple[int, int]] = []
        outputs: List[Tuple[int, int]] = []
        intra_eq: List[Tuple[int, int]] = []
        first_position: Dict[Variable, int] = {}
        for position, term in enumerate(literal.args):
            if isinstance(term, Constant):
                const_bindings.append((position, term.value))
            elif term in bound_before:
                slot_bindings.append((position, slot_of[term]))
            else:
                first = first_position.setdefault(term, position)
                if first == position:
                    outputs.append((position, slot_of[term]))
                else:
                    intra_eq.append((position, first))
        self.const_bindings = tuple(const_bindings)
        self.slot_bindings = tuple(slot_bindings)
        self.outputs = tuple(outputs)
        self.intra_eq = tuple(intra_eq)
        self.checks: Tuple[BuiltinCheck, ...] = ()
        self.neg_checks: Tuple[NegationCheck, ...] = ()


# -- columnar batch shape analysis -----------------------------------------

#: No later scan step can observe the rows the consumer inserts while the
#: batch is being consumed: batch results are identical to the row loop's
#: by construction, so charges go straight through (DIRECT_CHARGES).
_SHAPE_SAFE = 0
#: Some step at depth >= 1 re-scans the head relation from the main
#: database: run the batch optimistically under PendingCharges, record every
#: probe key into the head relation, and abort (fall back to the row loop)
#: when a produced head row could have been observed by one of those probes.
_SHAPE_VERIFY = 1
#: Shapes head_batch does not handle (no head, unbound head, empty body,
#: caller-bound variables, or negation over the head relation).
_SHAPE_NEVER = 2

_SOURCE_TAG = {SOURCE_MAIN: ":", SOURCE_DERIVED: "#", SOURCE_BOTH: "+"}


def _probe_recipe(
    key_positions: Tuple[int, ...], const_dict: Dict[int, object]
) -> Tuple[Tuple[int, ...], Tuple[object, ...], tuple, tuple]:
    """Precompiled key-interning recipe for a step's bound argument positions.

    Returns ``(positions, template, consts, slots)``: the sorted bound
    positions (the probe's index key), an all-``None`` template of that
    length, ``(hole, value)`` pairs placing each constant's interned code
    into its template hole, and ``(hole, key_index)`` pairs mapping the
    components of a join-key tuple (ordered as ``key_slots``) into theirs.
    The kernel probe path fills a template copy with interned codes and
    probes the subset index directly, skipping the per-row bindings dict
    that :meth:`IntTable.bucket` would otherwise rebuild and re-sort.
    """
    slot_index = {position: i for i, position in enumerate(key_positions)}
    positions = tuple(sorted(set(key_positions) | set(const_dict)))
    consts = []
    slots = []
    for hole, position in enumerate(positions):
        if position in const_dict:
            consts.append((hole, const_dict[position]))
        else:
            slots.append((hole, slot_index[position]))
    return positions, (None,) * len(positions), tuple(consts), tuple(slots)


class _NegStepInfo:
    """A placed negation check precompiled for batch anti-join probing."""

    __slots__ = (
        "check",
        "key_positions",
        "key_slots",
        "const_dict",
        "probe_positions",
        "probe_template",
        "probe_consts",
        "probe_slots",
    )

    def __init__(self, check: NegationCheck):
        self.check = check
        self.key_positions = tuple(p for p, _ in check.slot_bindings)
        self.key_slots = tuple(s for _, s in check.slot_bindings)
        self.const_dict = dict(check.const_bindings)
        (
            self.probe_positions,
            self.probe_template,
            self.probe_consts,
            self.probe_slots,
        ) = _probe_recipe(self.key_positions, self.const_dict)


class _StepInfo:
    """Per-step columnar metadata: probe keys, column liveness, verification.

    ``carry`` are the slots gathered through from the parent batch,
    ``out_take`` the ``(position, slot)`` outputs actually read later, and
    ``alive`` the slots that must survive the step's filters.  For steps the
    shape analysis marked unsafe, ``record_positions`` names the sorted bound
    argument positions whose probe keys the verification pass records
    (``loose`` when the step scans the head relation with no bound position
    at all, in which case any fresh head row aborts the batch).
    """

    __slots__ = (
        "node_key",
        "carry",
        "out_take",
        "alive",
        "key_positions",
        "key_slots",
        "const_dict",
        "probe_positions",
        "probe_template",
        "probe_consts",
        "probe_slots",
        "record_positions",
        "loose",
        "negs",
    )


class _BatchInfo:
    """Whole-plan batch shape: SAFE/VERIFY/NEVER plus per-step metadata."""

    __slots__ = ("shape", "steps", "wanted_after")


class ShardRecipe:
    """Fixpoint-offload metadata for a two-step delta-first plan.

    A recipe exists only for the shapes whose observable charging the
    parallel runtime can reconstruct exactly (see its fixpoint offload):
    SAFE two-step plans driving from the delta (step 0 ``SOURCE_DERIVED``)
    into a keyed probe of one main-database relation (step 1
    ``SOURCE_MAIN``), with no negations anywhere and no filters or
    intra-row equalities on the probe step.  Those constraints make the
    step-0 scan unobservable (the delta is runtime scratch), and make
    ``fact_retrievals`` for the probe step equal the number of head rows
    produced -- every probed bucket row yields exactly one head row.

    The rule must also be self-recursive (the head predicate is the delta
    predicate) with an ``invariant_position``: a column whose variable the
    head copies from the delta *at the same position*.  Rows then never
    mix across distinct values of that column, so the whole fixpoint
    partitions by it and each worker can run its partition's delta rounds
    to completion locally, with no per-round synchronisation.
    """

    __slots__ = ("delta_predicate", "probe_predicate", "invariant_position")

    def __init__(
        self, delta_predicate: str, probe_predicate: str, invariant_position: int
    ):
        self.delta_predicate = delta_predicate
        self.probe_predicate = probe_predicate
        self.invariant_position = invariant_position


class JoinPlan:
    """A compiled body: ordered scan steps, placed builtins, head template."""

    __slots__ = (
        "body",
        "head",
        "bound_vars",
        "slot_of",
        "nslots",
        "pre_checks",
        "pre_negs",
        "steps",
        "head_template",
        "head_unbound",
        "out_vars",
        "estimates",
        "_binfo",
        "_aborts",
        "_scan0",
    )

    def __init__(
        self,
        body: Tuple[Literal, ...],
        head: Optional[Literal],
        bound_vars: FrozenSet[Variable],
        slot_of: Dict[Variable, int],
        pre_checks: Tuple[BuiltinCheck, ...],
        steps: Tuple[ScanStep, ...],
        pre_negs: Tuple[NegationCheck, ...] = (),
    ):
        self.body = body
        self.head = head
        self.bound_vars = bound_vars
        self.slot_of = slot_of
        self.nslots = len(slot_of)
        self.pre_checks = pre_checks
        self.pre_negs = pre_negs
        self.steps = steps
        # Every variable the historical substitution dictionaries contained:
        # the caller's initial bindings plus all scan-bound variables.
        out: List[Tuple[Variable, int]] = []
        bound_by_body: Set[Variable] = set(bound_vars)
        for step in steps:
            bound_by_body.update(step.literal.variables())
        for var, slot in slot_of.items():
            if var in bound_by_body:
                out.append((var, slot))
        self.out_vars = tuple(out)
        self.head_template: Tuple[Tuple[Optional[int], object], ...] = ()
        self.head_unbound = False
        if head is not None:
            template: List[Tuple[Optional[int], object]] = []
            for term in head.args:
                if isinstance(term, Constant):
                    template.append((None, term.value))
                elif term in bound_by_body:
                    template.append((slot_of[term], None))
                else:
                    self.head_unbound = True
            self.head_template = tuple(template)
        # Cost-model estimates for explain(): None under the legacy planner,
        # one StepEstimate per scan step when the cost planner chose the
        # order (set by compile_plan after construction).
        self.estimates: Optional[Tuple["StepEstimate", ...]] = None
        # Columnar batch-execution analysis, built lazily on first use, and
        # the count of aborted optimistic batches (see head_batch).
        self._binfo: Optional[_BatchInfo] = None
        self._aborts = 0
        # Step-0 full-scan column cache: (table, mutation epoch, columns).
        # Valid while the scanned table object is unchanged; the cached
        # lists are shared read-only (filters rebind, never mutate).
        self._scan0 = None

    # -- public views ------------------------------------------------------

    @property
    def scan_literals(self) -> Tuple[Literal, ...]:
        """The non-builtin body literals in the order the plan scans them."""
        return tuple(step.literal for step in self.steps)

    @property
    def ordered_body(self) -> Tuple[Literal, ...]:
        """The full body in execution order (filters at their placed point)."""
        ordered: List[Literal] = [check.literal for check in self.pre_checks]
        ordered.extend(neg.literal for neg in self.pre_negs)
        for step in self.steps:
            ordered.append(step.literal)
            ordered.extend(check.literal for check in step.checks)
            ordered.extend(neg.literal for neg in step.neg_checks)
        return tuple(ordered)

    def explain(self, counters=None) -> str:
        """A deterministic text rendering of the chosen plan.

        One line per scan step with its source (``main``/``delta``), access
        path (``index[positions]`` or ``full-scan``) and -- when the cost
        planner chose the order -- the model's estimated rows per probe and
        running frontier.  Filters are listed under the step they attach
        to.  Passing the :class:`~repro.instrumentation.Counters` of a run
        adds observed per-node cardinalities (``actual in=... out=...``)
        wherever the batch executor recorded them, lining estimates up
        against reality.
        """
        source_names = {
            SOURCE_MAIN: "main",
            SOURCE_DERIVED: "delta",
            SOURCE_BOTH: "main+delta",
        }

        def fmt(value: float) -> str:
            return f"{value:.3g}"

        target = str(self.head) if self.head is not None else "<body>"
        mode = "cost" if self.estimates is not None else "legacy"
        lines = [f"plan for {target}  [{mode}]"]
        if self.bound_vars:
            names = ", ".join(sorted(v.name for v in self.bound_vars))
            lines.append(f"  bound on entry: {names}")
        for check in self.pre_checks:
            lines.append(f"  pre-filter {check.literal}")
        for neg in self.pre_negs:
            lines.append(f"  pre-filter {neg.literal}")
        nodes = counters.batch.nodes if counters is not None else {}
        for index, step in enumerate(self.steps):
            positions = sorted(
                {p for p, _ in step.const_bindings}
                | {p for p, _ in step.slot_bindings}
            )
            if positions:
                access = "index[" + ",".join(str(p) for p in positions) + "]"
            else:
                access = "full-scan"
            line = (
                f"  {index}. scan {step.literal}"
                f"  source={source_names[step.source]}  access={access}"
            )
            if self.estimates is not None:
                estimate = self.estimates[index]
                line += (
                    f"  est={fmt(estimate.rows)} rows/probe"
                    f"  frontier={fmt(estimate.frontier)}"
                )
            if self.head is not None:
                node_key = (
                    f"{self.head.predicate}[{index}]"
                    f"{_SOURCE_TAG[step.source]}{step.predicate}"
                )
                cell = nodes.get(node_key)
                if cell is not None:
                    line += (
                        f"  actual in={cell[1]} out={cell[2]}"
                        f" batches={cell[0]}"
                    )
            lines.append(line)
            for check in step.checks:
                lines.append(f"       filter {check.literal}")
            for neg in step.neg_checks:
                lines.append(f"       filter {neg.literal}")
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------

    def substitutions(
        self,
        database: Database,
        derived: Optional[Database] = None,
        initial: Optional[Substitution] = None,
    ) -> Iterator[Substitution]:
        """Enumerate the substitutions satisfying the body (legacy contract)."""
        if _mode == _MODE_INTERPRETED:
            yield from self._execute_interpreted(database, derived, initial)
            return
        out_vars = self.out_vars
        for slots in self._execute(database, derived, initial):
            yield {var: slots[slot] for var, slot in out_vars}

    def heads(
        self,
        database: Database,
        derived: Optional[Database] = None,
        initial: Optional[Substitution] = None,
    ) -> Iterator[Row]:
        """Enumerate head rows, one per satisfying body instantiation."""
        template = self.head_template
        if _mode == _MODE_INTERPRETED:
            for substitution in self._execute_interpreted(database, derived, initial):
                self._check_head_ground()
                yield tuple(
                    substitution[self.head.args[i]] if slot is not None else value
                    for i, (slot, value) in enumerate(template)
                )
            return
        for slots in self._execute(database, derived, initial):
            self._check_head_ground()
            yield tuple(
                slots[slot] if slot is not None else value for slot, value in template
            )

    def pairs(
        self,
        database: Database,
        derived: Optional[Database] = None,
        initial: Optional[Substitution] = None,
    ) -> Iterator[Tuple[Row, Substitution]]:
        """Enumerate ``(head_row, substitution)`` pairs (legacy contract)."""
        template = self.head_template
        if _mode == _MODE_INTERPRETED:
            for substitution in self._execute_interpreted(database, derived, initial):
                self._check_head_ground()
                row = tuple(
                    substitution[self.head.args[i]] if slot is not None else value
                    for i, (slot, value) in enumerate(template)
                )
                yield row, substitution
            return
        out_vars = self.out_vars
        for slots in self._execute(database, derived, initial):
            self._check_head_ground()
            row = tuple(
                slots[slot] if slot is not None else value for slot, value in template
            )
            yield row, {var: slots[slot] for var, slot in out_vars}

    def _check_head_ground(self) -> None:
        if self.head_unbound:
            raise EvaluationError(
                f"rule {Rule(self.head, list(self.body))} produced a non-ground head"
            )

    def _execute(
        self,
        database: Database,
        derived: Optional[Database],
        initial: Optional[Substitution],
    ) -> Iterator[List[object]]:
        """The flat iterative executor over positional binding slots."""
        slots: List[object] = [None] * self.nslots
        if initial:
            slot_of = self.slot_of
            for var, value in initial.items():
                slot = slot_of.get(var)
                if slot is not None:
                    slots[slot] = value
        for check in self.pre_checks:
            if not check.evaluate(slots):
                return
        for neg in self.pre_negs:
            if not neg.holds(slots, database):
                return
        steps = self.steps
        if not steps:
            yield slots
            return
        last = len(steps) - 1
        iterators: List[Optional[Iterator[Row]]] = [None] * len(steps)
        iterators[0] = self._candidates(steps[0], slots, database, derived)
        depth = 0
        while depth >= 0:
            row = next(iterators[depth], None)
            if row is None:
                depth -= 1
                continue
            step = steps[depth]
            for position, slot in step.outputs:
                slots[slot] = row[position]
            ok = True
            for check in step.checks:
                if not check.evaluate(slots):
                    ok = False
                    break
            if ok:
                for neg in step.neg_checks:
                    if not neg.holds(slots, database):
                        ok = False
                        break
            if not ok:
                continue
            if depth == last:
                yield slots
            else:
                depth += 1
                iterators[depth] = self._candidates(steps[depth], slots, database, derived)

    def _candidates(
        self,
        step: ScanStep,
        slots: List[object],
        database: Database,
        derived: Optional[Database],
    ) -> Iterator[Row]:
        source = step.source
        if source == SOURCE_MAIN:
            sources: Tuple[Database, ...] = (database,)
        elif source == SOURCE_DERIVED:
            sources = (derived,) if derived is not None else ()
        else:
            sources = (database,) if derived is None else (database, derived)
        if step.slot_bindings or step.const_bindings:
            bindings = dict(step.const_bindings)
            for position, slot in step.slot_bindings:
                bindings[position] = slots[slot]
        else:
            bindings = None
        if len(sources) == 1:
            return iter(sources[0].scan(step.predicate, bindings, step.intra_eq))
        rows: List[Row] = []
        for db in sources:
            rows.extend(db.scan(step.predicate, bindings, step.intra_eq))
        return iter(rows)

    # -- columnar batch executor -------------------------------------------

    def _build_batch_info(self) -> _BatchInfo:
        """Analyse the plan once for whole-batch execution (cached)."""
        info = _BatchInfo()
        steps = self.steps
        head = self.head
        negs: List[NegationCheck] = list(self.pre_negs)
        for step in steps:
            negs.extend(step.neg_checks)
        if (
            head is None
            or self.head_unbound
            or not steps
            or self.bound_vars
            or any(neg.predicate == head.predicate for neg in negs)
        ):
            info.shape = _SHAPE_NEVER
            info.steps = ()
            info.wanted_after = ()
            self._binfo = info
            return info
        head_predicate = head.predicate
        unsafe = {
            index
            for index in range(1, len(steps))
            if steps[index].predicate == head_predicate
            and steps[index].source != SOURCE_DERIVED
        }
        info.shape = _SHAPE_VERIFY if unsafe else _SHAPE_SAFE

        # Backward liveness: ``need`` holds the slots required by the head
        # and by every step after the one being analysed.
        need: Set[int] = {slot for slot, _ in self.head_template if slot is not None}
        step_infos: List[Optional[_StepInfo]] = [None] * len(steps)
        for index in range(len(steps) - 1, -1, -1):
            step = steps[index]
            si = _StepInfo()
            si.node_key = (
                f"{head_predicate}[{index}]"
                f"{_SOURCE_TAG[step.source]}{step.predicate}"
            )
            si.alive = tuple(sorted(need))
            reads: Set[int] = set()
            for check in step.checks:
                if check.lslot is not None:
                    reads.add(check.lslot)
                if check.rslot is not None:
                    reads.add(check.rslot)
            for neg in step.neg_checks:
                reads.update(slot for _, slot in neg.slot_bindings)
            gather = need | reads
            produced = {slot for _, slot in step.outputs}
            si.carry = tuple(sorted(gather - produced))
            si.out_take = tuple(
                (position, slot) for position, slot in step.outputs if slot in gather
            )
            si.key_positions = tuple(p for p, _ in step.slot_bindings)
            si.key_slots = tuple(s for _, s in step.slot_bindings)
            si.const_dict = dict(step.const_bindings)
            (
                si.probe_positions,
                si.probe_template,
                si.probe_consts,
                si.probe_slots,
            ) = _probe_recipe(si.key_positions, si.const_dict)
            si.record_positions = None
            si.loose = False
            if index in unsafe:
                bound = sorted(set(si.key_positions) | set(si.const_dict))
                if bound:
                    si.record_positions = tuple(bound)
                else:
                    si.loose = True
            si.negs = tuple(_NegStepInfo(neg) for neg in step.neg_checks)
            step_infos[index] = si
            need = (need - produced) | set(si.key_slots) | (reads - produced)
        info.steps = tuple(step_infos)
        # For each step, the union of key slots every *later* step probes
        # on: the set of slots whose interned code columns are worth
        # carrying forward (see the ``ccols`` threading in _run_batch).
        wanted_after: List[FrozenSet[int]] = [frozenset()] * len(step_infos)
        acc: Set[int] = set()
        for wi in range(len(step_infos) - 1, -1, -1):
            wanted_after[wi] = frozenset(acc)
            acc.update(step_infos[wi].key_slots)
        info.wanted_after = tuple(wanted_after)
        self._binfo = info
        return info

    def shard_recipe(self) -> Optional[ShardRecipe]:
        """The fixpoint-offload recipe, or ``None`` when not offloadable.

        See :class:`ShardRecipe` for the eligible shape.
        """
        binfo = self._binfo
        if binfo is None:
            binfo = self._build_batch_info()
        steps = self.steps
        head = self.head
        if (
            binfo.shape != _SHAPE_SAFE
            or len(steps) != 2
            or steps[0].source != SOURCE_DERIVED
            or steps[1].source != SOURCE_MAIN
            or self.pre_negs
            or steps[0].neg_checks
            or steps[1].neg_checks
            or steps[1].checks
            or steps[1].intra_eq
            or not binfo.steps[1].key_slots
            or head is None
            or head.predicate != steps[0].predicate
            or len(self.head_template) != len(head.args)
        ):
            return None
        bound_at = dict(steps[0].outputs)
        for position, (slot, _value) in enumerate(self.head_template):
            if slot is not None and bound_at.get(position) == slot:
                return ShardRecipe(steps[0].predicate, steps[1].predicate, position)
        return None

    def head_batch(
        self,
        database: Database,
        derived: Optional[Database] = None,
        frozen: bool = False,
    ) -> Optional[List[Row]]:
        """Execute the whole plan as one batch; all head rows, or ``None``.

        ``None`` means the caller must fall back to the row-at-a-time
        :meth:`heads` loop: either the plan's shape is not batchable, or an
        optimistic batch over a self-feeding plan was discarded by the
        probe-overlap verification (in which case no counter, touched-set or
        charging-memo state was modified).

        The caller contract matches the stratified runtime's firing loops
        exactly: nothing the plan reads is mutated until the returned batch
        is fully consumed, and consumption only inserts the returned rows
        into ``head.predicate`` of ``database`` (plus databases the plan
        does not read).  ``frozen=True`` strengthens the promise to "no
        mutation of ``database`` at all" (the DRed overdelete loop), letting
        self-feeding shapes skip verification entirely.
        """
        binfo = self._binfo
        if binfo is None:
            binfo = self._build_batch_info()
        stats = database.counters.batch
        if binfo.shape == _SHAPE_NEVER:
            stats.fallbacks += 1
            return None
        verify = binfo.shape == _SHAPE_VERIFY and not frozen
        if verify and self._aborts >= _BATCH_ABORT_LIMIT:
            stats.fallbacks += 1
            return None
        charges = PendingCharges() if verify else DIRECT_CHARGES
        heads = self._run_batch(database, derived, binfo, charges, verify, stats)
        if heads is None:
            charges.discard()
            self._aborts += 1
            stats.fallbacks += 1
            return None
        charges.commit()
        return heads

    def _run_batch(
        self,
        database: Database,
        derived: Optional[Database],
        binfo: _BatchInfo,
        charges,
        verify: bool,
        stats,
    ) -> Optional[List[Row]]:
        # Constant-only pre-filters (no variables are bound before step 0).
        slots0: List[object] = [None] * self.nslots
        for check in self.pre_checks:
            if not check.evaluate(slots0):
                return []
        for neg in self.pre_negs:
            if charges.scan(database, neg.predicate, neg._buffer, neg.intra_eq):
                return []

        steps = self.steps
        infos = binfo.steps
        step = steps[0]
        info = infos[0]
        sources = self._batch_sources(step, database, derived)
        bindings0 = dict(step.const_bindings) if step.const_bindings else None
        node_updates: List[Tuple[str, int, int]] = []
        recorded: List[Tuple[Tuple[int, ...], Set[tuple]]] = []
        loose_probed = False
        cols: Dict[int, list] = {}
        # Interned code columns threaded alongside ``cols`` for the slots
        # later steps probe on, so those probes skip the per-row value
        # re-interning.  A slot is absent when its codes are unknown (rows
        # gathered from bucket values) or stale (a filter mask rebuilt the
        # value columns); probing falls back to the interner then.
        ccols: Dict[int, object] = {}
        wanted_after = binfo.wanted_after
        if (
            bindings0 is None
            and not step.intra_eq
            and len(sources) == 1
            and _storage_runtime._mode == MODE_KERNEL
        ):
            # Single-source full scan in kernel storage mode: charge through
            # an inline copy of Database.scan's FULL_SCAN memo -- directly,
            # into the pending buffer of a verified batch, or not at all for
            # a runtime-internal source, whose counters are unobservable --
            # and materialise columns through the packed code arrays, cached
            # per plan while the table object is unchanged.
            db0 = sources[0]
            relation0 = db0.relations.get(step.predicate)
            n = len(relation0.table) if relation0 is not None else 0
            if n:
                table = relation0.table
                if db0.counters is database.counters:
                    stamp = (n, table.mutations)
                    if charges is DIRECT_CHARGES:
                        charged = db0._charged.get(step.predicate)
                        if charged is None:
                            charged = db0._charged[step.predicate] = {}
                        if charged.get(FULL_SCAN) == stamp:
                            db0.counters.fact_retrievals += n
                        else:
                            db0._charge(step.predicate, table.all_rows())
                            charged[FULL_SCAN] = stamp
                    else:
                        pend = charges._pending(db0)
                        memo_key = (step.predicate, FULL_SCAN)
                        known = pend.memo.get(memo_key)
                        if known is None:
                            charged = db0._charged.get(step.predicate)
                            if charged is not None:
                                known = charged.get(FULL_SCAN)
                        if known == stamp:
                            pend.retrievals += n
                        else:
                            charges._charge_rows(
                                pend, step.predicate, table.all_rows()
                            )
                            pend.memo[memo_key] = stamp
                if info.out_take:
                    cached = self._scan0
                    if (
                        cached is not None
                        and cached[0] is table
                        and cached[1] == table.mutations
                    ):
                        cols = dict(cached[2])
                        ccols = dict(cached[3])
                    else:
                        gathered = extern_columns(
                            table, tuple(position for position, _ in info.out_take)
                        )
                        base = {
                            slot: column
                            for (_, slot), column in zip(info.out_take, gathered)
                        }
                        arrays = table.column_arrays()
                        wanted0 = wanted_after[0]
                        cbase = {
                            slot: arrays[position]
                            for position, slot in info.out_take
                            if slot in wanted0
                        }
                        self._scan0 = (table, table.mutations, base, cbase)
                        cols = dict(base)
                        ccols = dict(cbase)
        else:
            rows0: List[Row] = []
            for db in sources:
                found = charges.scan(db, step.predicate, bindings0, step.intra_eq)
                if found:
                    rows0 = found if not rows0 else rows0 + found
            n = len(rows0)
            if n:
                for position, slot in info.out_take:
                    cols[slot] = [row[position] for row in rows0]
        rows_in = n
        if n:
            kept = self._batch_filters(step, info, cols, n, database, charges)
            if kept != n:
                n = kept
                ccols = {}
            if cols and len(cols) != len(info.alive):
                cols = {slot: cols[slot] for slot in info.alive}
        node_updates.append((info.node_key, rows_in, n))

        for index in range(1, len(steps)):
            if not n:
                break
            step = steps[index]
            info = infos[index]
            entering = n
            const_dict = info.const_dict
            record_keys: Optional[Set[tuple]] = None
            record_positions = info.record_positions
            if verify:
                if info.loose:
                    loose_probed = True
                elif record_positions is not None:
                    record_keys = set()
                    recorded.append((record_positions, record_keys))
            key_slots = info.key_slots
            out_parent: List[int] = []
            out_rows: List[Row] = []
            extend_parents = out_parent.extend
            extend_rows = out_rows.extend
            # Keyed scans in kernel storage mode go through inline index
            # probes: same buckets, same charging memo, none of the
            # per-probe scan machinery.  Under a pending transaction the
            # probes buffer their charges (BufferedProbe) and the join
            # records every probed key for the verification pass.
            kernel = None
            if (
                key_slots
                and not step.intra_eq
                and _storage_runtime._mode == MODE_KERNEL
            ):
                kernel = build_probes(
                    self._batch_sources(step, database, derived),
                    step.predicate,
                    info.probe_positions,
                    database.counters,
                    None if charges is DIRECT_CHARGES else charges,
                )
                if kernel is not None and not kernel and record_keys is not None:
                    # No source holds the relation, but the verification
                    # pass still needs the probed keys (the row loop's scans
                    # would observe the relation once the consumer creates
                    # it): use the generic path, whose misses record them.
                    kernel = None
            if kernel is not None:
                scan = None
                if kernel:
                    ck = None
                    if ccols and record_keys is None:
                        ck = [ccols.get(slot) for slot in key_slots]
                        if any(column is None for column in ck):
                            ck = None
                    self._kernel_join(
                        kernel, info, cols, out_parent, out_rows, record_keys, ck
                    )
            else:
                scan = BatchScan(
                    charges,
                    step.predicate,
                    step.intra_eq,
                    self._batch_sources(step, database, derived),
                )
                cache = scan.cache
                get = cache.get
                miss = scan.miss
                replay = scan.replay
            if scan is None:
                pass
            elif len(key_slots) == 1:
                # The overwhelmingly common join shape: one bound position.
                position = info.key_positions[0]
                for i, value in enumerate(cols[key_slots[0]]):
                    hit = get(value)
                    if hit is None:
                        if const_dict:
                            bindings = dict(const_dict)
                            bindings[position] = value
                        else:
                            bindings = {position: value}
                        rows = miss(value, bindings)
                        if record_keys is not None:
                            record_keys.add(
                                tuple(bindings[p] for p in record_positions)
                            )
                    else:
                        replay(hit)
                        rows = hit[0]
                    if rows:
                        extend_parents(_repeat(i, len(rows)))
                        extend_rows(rows)
            elif key_slots:
                positions = info.key_positions
                key_columns = [cols[slot] for slot in key_slots]
                for i, key in enumerate(zip(*key_columns)):
                    hit = get(key)
                    if hit is None:
                        bindings = dict(const_dict) if const_dict else {}
                        for position, value in zip(positions, key):
                            bindings[position] = value
                        rows = miss(key, bindings)
                        if record_keys is not None:
                            record_keys.add(
                                tuple(bindings[p] for p in record_positions)
                            )
                    else:
                        replay(hit)
                        rows = hit[0]
                    if rows:
                        extend_parents(_repeat(i, len(rows)))
                        extend_rows(rows)
            else:
                # No join key: every parent row scans the same (possibly
                # constant-bound) bucket -- one real scan, n-1 replays.
                bindings = dict(const_dict) if const_dict else None
                rows = miss((), bindings)
                if record_keys is not None:
                    record_keys.add(tuple(bindings[p] for p in record_positions))
                if rows:
                    count = len(rows)
                    hit = cache[()]
                    for i in range(n):
                        if i:
                            replay(hit)
                        extend_parents(_repeat(i, count))
                        extend_rows(rows)

            n = len(out_rows)
            if not n:
                node_updates.append((info.node_key, entering, 0))
                break
            new_cols: Dict[int, list] = {}
            for slot in info.carry:
                column = cols[slot]
                new_cols[slot] = [column[parent] for parent in out_parent]
            for position, slot in info.out_take:
                new_cols[slot] = [row[position] for row in out_rows]
            cols = new_cols
            if ccols:
                wanted = wanted_after[index]
                carried: Dict[int, object] = {}
                for slot, column in ccols.items():
                    if slot in wanted and slot in new_cols:
                        carried[slot] = [column[parent] for parent in out_parent]
                ccols = carried
            kept = self._batch_filters(step, info, cols, n, database, charges)
            if kept != n:
                n = kept
                ccols = {}
            if cols and len(cols) != len(info.alive):
                cols = {slot: cols[slot] for slot in info.alive}
            node_updates.append((info.node_key, entering, n))

        if n:
            template = self.head_template
            if not template:
                heads: List[Row] = [()] * n
            else:
                head_columns: List[object] = []
                constant_only = True
                for slot, value in template:
                    if slot is not None:
                        constant_only = False
                        head_columns.append(cols[slot])
                    else:
                        head_columns.append(_repeat(value))
                if constant_only:
                    heads = [tuple(value for _, value in template)] * n
                else:
                    heads = list(zip(*head_columns))
        else:
            heads = []

        if verify and heads and self._verify_batch(database, heads, recorded, loose_probed):
            return None

        stats.batches += 1
        stats.rows_in += rows_in
        stats.rows_out += len(heads)
        for key, into, out in node_updates:
            cell = stats.node(key)
            cell[0] += 1
            cell[1] += into
            cell[2] += out
        return heads

    @staticmethod
    def _kernel_join(
        probes,
        info: _StepInfo,
        cols: Dict[int, list],
        out_parent: List[int],
        out_rows: List[Row],
        record_keys: Optional[Set[tuple]] = None,
        code_columns: Optional[list] = None,
    ) -> None:
        """Expand one keyed scan step through inline kernel index probes.

        One :meth:`KernelProbe.lookup` per parent row per source, in source
        order -- the exact scan sequence of the row executor, with the
        bucket-level memo making repeat keys O(1).  Join keys are interned
        once per row through the shared interner's code map -- unless
        ``code_columns`` supplies the already-interned key columns (threaded
        through the batch from a step-0 column scan), in which case probes
        use the codes directly; column values always come from stored rows,
        so the interner-miss probe shape cannot arise for them.  When
        ``record_keys`` is given (a verified batch probing an unsafe step),
        every probed *value* key -- bound values in sorted argument-position
        order, exactly the tuples the generic path records -- is added to it
        (callers pass ``code_columns=None`` then).
        """
        code_get = probes[0].code_map.get
        append_parent = out_parent.append
        append_row = out_rows.append
        extend_parents = out_parent.extend
        extend_rows = out_rows.extend
        key_slots = info.key_slots
        consts = info.probe_consts
        base = None
        vbase = None
        if record_keys is not None:
            vbase = list(info.probe_template)
            for hole, value in consts:
                vbase[hole] = value
        if consts:
            base = list(info.probe_template)
            for hole, value in consts:
                code = code_get(value)
                if code is None:
                    # A constant the interner has never seen: every probe is
                    # the shared ``(positions, None)`` empty bucket.  One
                    # stamp per source charges the whole batch (repeats hit
                    # the memo and add zero, exactly like the row loop).
                    for probe in probes:
                        probe.lookup(None)
                    if record_keys is not None:
                        record = record_keys.add
                        slot_targets = info.probe_slots
                        for key in zip(*[cols[slot] for slot in key_slots]):
                            values = vbase[:]
                            for vhole, key_index in slot_targets:
                                values[vhole] = key[key_index]
                            record(tuple(values))
                    return
                base[hole] = code
        if len(probes) == 1 and len(key_slots) == 1 and base is None:
            probe = probes[0]
            column = (
                code_columns[0] if code_columns is not None else cols[key_slots[0]]
            )
            coded = code_columns is not None
            if record_keys is None and not probe.charging and probe.index is not None:
                # Hottest shape of the fixpoint inner loop -- single-key
                # probes into the per-round delta: raw dict gets only.
                index_get = probe.index.get
                if coded:
                    for i, code in enumerate(column):
                        rows = index_get((code,))
                        if rows:
                            if len(rows) == 1:
                                append_parent(i)
                                append_row(rows[0])
                            else:
                                extend_parents(_repeat(i, len(rows)))
                                extend_rows(rows)
                    return
                for i, value in enumerate(column):
                    code = code_get(value)
                    if code is None:
                        continue
                    rows = index_get((code,))
                    if rows:
                        if len(rows) == 1:
                            append_parent(i)
                            append_row(rows[0])
                        else:
                            extend_parents(_repeat(i, len(rows)))
                            extend_rows(rows)
                return
            lookup = probe.lookup
            if record_keys is None:
                if coded:
                    for i, code in enumerate(column):
                        rows = lookup((code,))
                        if rows:
                            if len(rows) == 1:
                                append_parent(i)
                                append_row(rows[0])
                            else:
                                extend_parents(_repeat(i, len(rows)))
                                extend_rows(rows)
                    return
                for i, value in enumerate(column):
                    code = code_get(value)
                    rows = lookup(None if code is None else (code,))
                    if rows:
                        if len(rows) == 1:
                            append_parent(i)
                            append_row(rows[0])
                        else:
                            extend_parents(_repeat(i, len(rows)))
                            extend_rows(rows)
            else:
                record = record_keys.add
                for i, value in enumerate(column):
                    record((value,))
                    code = code_get(value)
                    rows = lookup(None if code is None else (code,))
                    if rows:
                        extend_parents(_repeat(i, len(rows)))
                        extend_rows(rows)
            return
        slot_targets = info.probe_slots
        template0 = base if base is not None else list(info.probe_template)
        single = probes[0].lookup if len(probes) == 1 else None
        if code_columns is not None:
            for i, ckey in enumerate(zip(*code_columns)):
                template = template0[:]
                for hole, key_index in slot_targets:
                    template[hole] = ckey[key_index]
                int_key = tuple(template)
                if single is not None:
                    rows = single(int_key)
                else:
                    rows = None
                    for probe in probes:
                        found = probe.lookup(int_key)
                        if found:
                            rows = found if rows is None else [*rows, *found]
                if rows:
                    if len(rows) == 1:
                        append_parent(i)
                        append_row(rows[0])
                    else:
                        extend_parents(_repeat(i, len(rows)))
                        extend_rows(rows)
            return
        key_columns = [cols[slot] for slot in key_slots]
        record = record_keys.add if record_keys is not None else None
        for i, key in enumerate(zip(*key_columns)):
            if record is not None:
                values = vbase[:]
                for hole, key_index in slot_targets:
                    values[hole] = key[key_index]
                record(tuple(values))
            template = template0[:]
            for hole, key_index in slot_targets:
                code = code_get(key[key_index])
                if code is None:
                    int_key = None
                    break
                template[hole] = code
            else:
                int_key = tuple(template)
            if single is not None:
                rows = single(int_key)
            else:
                rows = None
                for probe in probes:
                    found = probe.lookup(int_key)
                    if found:
                        rows = found if rows is None else [*rows, *found]
            if rows:
                if len(rows) == 1:
                    append_parent(i)
                    append_row(rows[0])
                else:
                    extend_parents(_repeat(i, len(rows)))
                    extend_rows(rows)

    @staticmethod
    def _kernel_antimask(
        probe, neg_info: _NegStepInfo, cols: Dict[int, list]
    ) -> Optional[List[bool]]:
        """Keep-mask for one negation via inline kernel index probes.

        ``None`` means every row passes with the whole batch's charges
        already applied (a constant the interner has never seen: one shared
        empty-bucket stamp, repeats add zero).
        """
        code_get = probe.code_map.get
        lookup = probe.lookup
        key_slots = neg_info.key_slots
        consts = neg_info.probe_consts
        base = None
        if consts:
            base = list(neg_info.probe_template)
            for hole, value in consts:
                code = code_get(value)
                if code is None:
                    lookup(None)
                    return None
                base[hole] = code
        if len(key_slots) == 1 and base is None:
            return [
                not lookup(None if code is None else (code,))
                for code in map(code_get, cols[key_slots[0]])
            ]
        slot_targets = neg_info.probe_slots
        key_columns = [cols[slot] for slot in key_slots]
        template0 = base if base is not None else list(neg_info.probe_template)
        mask: List[bool] = []
        keep = mask.append
        for key in zip(*key_columns):
            template = template0[:]
            for hole, key_index in slot_targets:
                code = code_get(key[key_index])
                if code is None:
                    int_key = None
                    break
                template[hole] = code
            else:
                int_key = tuple(template)
            keep(not lookup(int_key))
        return mask

    def _batch_filters(
        self,
        step: ScanStep,
        info: _StepInfo,
        cols: Dict[int, list],
        n: int,
        database: Database,
        charges,
    ) -> int:
        """Apply the step's builtin checks and negation anti-joins in place.

        Filters run in placement order, matching the per-row executor's
        short-circuit sequence observably: builtins charge nothing, and the
        per-negation probe totals are order-independent sums.
        """
        for check in step.checks:
            if not n:
                return 0
            mask = check.evaluate_column(cols, n)
            if mask is None:
                continue
            kept = sum(mask)
            if kept == n:
                continue
            for slot, column in cols.items():
                cols[slot] = [v for v, ok in zip(column, mask) if ok]
            n = kept
        for neg_info in info.negs:
            if not n:
                return 0
            neg = neg_info.check
            key_slots = neg_info.key_slots
            if (
                key_slots
                and not neg.intra_eq
                and _storage_runtime._mode == MODE_KERNEL
            ):
                kernel = build_probes(
                    (database,),
                    neg.predicate,
                    neg_info.probe_positions,
                    database.counters,
                    None if charges is DIRECT_CHARGES else charges,
                )
                if kernel is not None:
                    if not kernel:
                        continue  # no relation: uncharged empty scans, all pass
                    mask = self._kernel_antimask(kernel[0], neg_info, cols)
                    if mask is None:
                        continue  # unknown constant: empty buckets, all pass
                    kept = sum(mask)
                    if kept != n:
                        for slot, column in cols.items():
                            cols[slot] = [v for v, ok in zip(column, mask) if ok]
                        n = kept
                    continue
            scan = BatchScan(charges, neg.predicate, neg.intra_eq, (database,))
            cache = scan.cache
            get = cache.get
            miss = scan.miss
            replay = scan.replay
            const_dict = neg_info.const_dict
            key_slots = neg_info.key_slots
            mask = []
            keep = mask.append
            if len(key_slots) == 1:
                position = neg_info.key_positions[0]
                for value in cols[key_slots[0]]:
                    hit = get(value)
                    if hit is None:
                        if const_dict:
                            bindings = dict(const_dict)
                            bindings[position] = value
                        else:
                            bindings = {position: value}
                        keep(not miss(value, bindings))
                    else:
                        replay(hit)
                        keep(not hit[0])
            elif key_slots:
                positions = neg_info.key_positions
                key_columns = [cols[slot] for slot in key_slots]
                for key in zip(*key_columns):
                    hit = get(key)
                    if hit is None:
                        bindings = dict(const_dict) if const_dict else {}
                        for position, value in zip(positions, key):
                            bindings[position] = value
                        keep(not miss(key, bindings))
                    else:
                        replay(hit)
                        keep(not hit[0])
            else:
                bindings = dict(const_dict) if const_dict else None
                rows = miss((), bindings)
                if rows:
                    # Every parent row probes the same non-empty bucket and
                    # fails; replay the n-1 repeat charges and empty the batch.
                    hit = cache[()]
                    for _ in range(n - 1):
                        replay(hit)
                    for slot in cols:
                        cols[slot] = []
                    return 0
                continue  # empty bucket: all rows pass, repeats charge nothing
            kept = sum(mask)
            if kept == n:
                continue
            for slot, column in cols.items():
                cols[slot] = [v for v, ok in zip(column, mask) if ok]
            n = kept
        return n

    def _verify_batch(
        self,
        database: Database,
        heads: List[Row],
        recorded: List[Tuple[Tuple[int, ...], Set[tuple]]],
        loose_probed: bool,
    ) -> bool:
        """True when a produced head row overlaps a recorded probe key.

        The consumer will insert exactly the *fresh* head rows (the ones not
        already stored).  The row-at-a-time loop diverges from the batch only
        if some scan of the head relation could have returned one of those
        rows mid-enumeration -- i.e. the row projects onto a probed key (or
        any fresh row exists while an unkeyed full scan of the head relation
        was probed).  Membership checks here are uncharged by design.
        """
        relation = database.relations.get(self.head.predicate)
        contains = relation.table.contains if relation is not None else None
        fresh: List[Row] = []
        seen: Set[Row] = set()
        for row in heads:
            if row in seen:
                continue
            seen.add(row)
            if contains is None or not contains(row):
                fresh.append(row)
        if not fresh:
            return False
        if loose_probed:
            return True
        for positions, keys in recorded:
            for row in fresh:
                if tuple(row[position] for position in positions) in keys:
                    return True
        return False

    def _batch_sources(
        self,
        step: ScanStep,
        database: Database,
        derived: Optional[Database],
    ) -> Tuple[Database, ...]:
        source = step.source
        if source == SOURCE_MAIN:
            return (database,)
        if source == SOURCE_DERIVED:
            return (derived,) if derived is not None else ()
        return (database,) if derived is None else (database, derived)

    # -- reference executor (interpreted mode) -----------------------------

    def _execute_interpreted(
        self,
        database: Database,
        derived: Optional[Database],
        initial: Optional[Substitution],
    ) -> Iterator[Substitution]:
        """Substitution-dictionary nested-loop join over the same plan.

        This is the historical ``unify.py`` evaluation style -- build a bound
        literal per step, :meth:`Database.match` it, extend the substitution
        per row -- kept as an independently-implemented referee for the
        compiled executor.  Answers *and* charged counters must agree.
        """
        from .unify import apply_to_literal, match_literal

        substitution: Substitution = dict(initial) if initial else {}
        for check in self.pre_checks:
            grounded = apply_to_literal(check.literal, substitution)
            if not grounded.evaluate_builtin():
                return
        for neg in self.pre_negs:
            probe = apply_to_literal(neg.literal.positive(), substitution)
            if database.match(probe):
                return
        steps = self.steps

        def satisfy(index: int, substitution: Substitution) -> Iterator[Substitution]:
            if index >= len(steps):
                yield substitution
                return
            step = steps[index]
            bound_literal = apply_to_literal(step.literal, substitution)
            if step.source == SOURCE_MAIN:
                rows = database.match(bound_literal)
            elif step.source == SOURCE_DERIVED:
                rows = derived.match(bound_literal) if derived is not None else []
            else:
                rows = list(database.match(bound_literal))
                if derived is not None:
                    rows.extend(derived.match(bound_literal))
            for row in rows:
                extended = match_literal(step.literal, row, substitution)
                if extended is None:
                    continue
                ok = True
                for check in step.checks:
                    if not apply_to_literal(check.literal, extended).evaluate_builtin():
                        ok = False
                        break
                if ok:
                    for neg in step.neg_checks:
                        probe = apply_to_literal(neg.literal.positive(), extended)
                        if database.match(probe):
                            ok = False
                            break
                if ok:
                    yield from satisfy(index + 1, extended)

        for result in satisfy(0, substitution):
            yield dict(result)


# -- cost model ------------------------------------------------------------

#: Scan-literal count up to which the cost planner runs exact Selinger
#: dynamic programming over join orders; beyond it, greedy with pairwise
#: lookahead (exact DP is 2^n states).
_DP_LIMIT = 8

#: Assumed pass rates for built-in filters when ordering by cost.  These are
#: the classic System-R magic fractions: equality is very selective, an
#: inequality barely filters, a comparison keeps somewhat under half.
_BUILTIN_SELECTIVITY = {"=": 0.1, "==": 0.1, "!=": 0.9}
_BUILTIN_DEFAULT_SELECTIVITY = 0.4

#: A negation filter is never assumed to keep fewer than this fraction --
#: an estimated pass rate of exactly 0 would zero the frontier and make
#: every downstream order look equally free.
_MIN_PASS_RATE = 0.05
#: Frontier floor for cost propagation.  A relation that is empty at plan
#: time (an intensional predicate before round 0, a magic/supplementary
#: scratch relation) estimates 0 rows per probe; multiplying the frontier
#: by that zero would make every *subsequent* step free and the order
#: search degenerate to arbitrary tie-breaking -- over relations that do
#: grow at runtime.  Propagating at least this fraction keeps downstream
#: scans comparable, so the residual order stays sensible even when it is
#: entered through a currently-empty relation.
_FRONTIER_FLOOR = 0.1


class StepEstimate:
    """The cost model's view of one ordered scan step, kept for explain().

    ``bound_positions`` are the argument positions probed through an index
    (empty means a full scan), ``rows`` the estimated rows one probe
    returns, and ``frontier`` the estimated number of binding tuples alive
    *after* the step (filters the step enables included).
    """

    __slots__ = ("literal", "bound_positions", "rows", "frontier")

    def __init__(
        self,
        literal: Literal,
        bound_positions: Tuple[int, ...],
        rows: float,
        frontier: float,
    ):
        self.literal = literal
        self.bound_positions = bound_positions
        self.rows = rows
        self.frontier = frontier

    @property
    def access(self) -> str:
        """``index[p,...]`` when the scan probes bound positions, else
        ``full-scan``."""
        if self.bound_positions:
            inner = ",".join(str(p) for p in self.bound_positions)
            return f"index[{inner}]"
        return "full-scan"


def _scan_estimate(literal, bound, statistics, scaled):
    """``(estimated rows per probe, probed positions)`` for one scan.

    ``bound`` is the variable set known before the scan; constants probe by
    their exact interned frequency (an un-interned constant matches zero
    rows).  ``scaled`` marks the seminaive delta occurrence: the full
    relation's distribution is kept but its cardinality is replaced by the
    statistics view's override (the observed or assumed delta size).
    """
    predicate = literal.predicate
    stats = statistics.stats_for(predicate)
    bound_positions: List[int] = []
    known: Dict[int, Optional[int]] = {}
    for position, term in enumerate(literal.args):
        if isinstance(term, Constant):
            bound_positions.append(position)
            known[position] = statistics.code_of(predicate, term.value)
        elif isinstance(term, Variable) and term in bound:
            bound_positions.append(position)
    if stats is None:
        # Unknown relation (typically intensional scratch): assume the
        # override cardinality if any, with a token fan-in per bound slot.
        estimate = statistics.cardinality(predicate)
        for _ in bound_positions:
            estimate *= 0.2
    else:
        estimate = stats.estimate_rows(bound_positions, known)
        if scaled and stats.cardinality:
            estimate *= statistics.cardinality(predicate) / stats.cardinality
    return estimate, tuple(bound_positions)


def _filter_pass_rate(kind, literal, bound, statistics):
    """Estimated fraction of binding tuples surviving a placed filter."""
    if kind == "builtin":
        return _BUILTIN_SELECTIVITY.get(
            literal.predicate, _BUILTIN_DEFAULT_SELECTIVITY
        )
    # Negation: the anti-join drops a tuple when a matching row exists.  The
    # expected matches per tuple double as a (capped) match probability.
    matches, _ = _scan_estimate(literal, bound, statistics, False)
    return max(_MIN_PASS_RATE, 1.0 - min(1.0, matches))


def _body_filters(builtins, negations):
    """The placeable-filter descriptors the cost simulation consults.

    Each is ``(kind, literal, needed)`` where ``needed`` is the variable set
    that must be positively bound before the filter applies (named variables
    only under negation, matching the placement legality rule).
    """
    filters = []
    for _, literal in builtins:
        filters.append(("builtin", literal, frozenset(literal.variables())))
    for _, literal in negations:
        named = frozenset(v for v in literal.variables() if not v.is_anonymous)
        filters.append(("neg", literal, named))
    return filters


def _cost_step(entry, bound, frontier, statistics, filters, delta_indexes):
    """Cost one candidate scan from a simulation state.

    Returns ``(step_cost, new_bound, new_frontier, est_rows, positions)``.
    A step pays one probe plus the rows it enumerates per live binding
    tuple; filters that become placeable once the step's variables are
    bound shrink the frontier immediately (they attach to the earliest
    legal point -- the frontier only ever grows later, so earliest is also
    the cheapest placement and needs no search of its own).
    """
    index, literal = entry
    est, positions = _scan_estimate(
        literal, bound, statistics, index in delta_indexes
    )
    cost = frontier * (1.0 + est)
    new_bound = bound | set(literal.variables())
    new_frontier = frontier * max(est, _FRONTIER_FLOOR)
    for kind, flit, needed in filters:
        if needed <= new_bound and not needed <= bound:
            new_frontier *= _filter_pass_rate(kind, flit, new_bound, statistics)
    return cost, new_bound, new_frontier, est, positions


def _cost_order(entries, initial_bound, statistics, filters, delta_indexes, forced=None):
    """Order scan entries by estimated total cost.

    ``forced`` (the seminaive delta occurrence) is pinned outermost -- the
    delta drives the round -- and only the *residual* join is searched,
    exactly the textbook delta-as-driver costing.  Up to :data:`_DP_LIMIT`
    residual literals the search is exact dynamic programming over subsets
    (best cost per joined set, Selinger-style); beyond that, greedy with a
    one-step lookahead.  Ties are broken deterministically toward textual
    body order.
    """
    bound = frozenset(initial_bound)
    cost0, frontier0 = 0.0, 1.0
    ordered: List[Tuple[int, Literal]] = []
    if forced is not None:
        cost0, bound, frontier0, _, _ = _cost_step(
            forced, bound, frontier0, statistics, filters, delta_indexes
        )
        ordered.append(forced)
    remaining = list(entries)
    if not remaining:
        return ordered
    if len(remaining) <= _DP_LIMIT:
        n = len(remaining)
        states = {0: (cost0, frontier0, bound, ())}
        for mask in range((1 << n) - 1):
            state = states.get(mask)
            if state is None:
                continue
            cost, frontier, known, order = state
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                step_cost, nb, nf, _, _ = _cost_step(
                    remaining[i], known, frontier, statistics, filters, delta_indexes
                )
                total = cost + step_cost
                prev = states.get(mask | bit)
                if prev is None or total < prev[0]:
                    states[mask | bit] = (total, nf, nb, order + (i,))
        _, _, _, order = states[(1 << n) - 1]
        ordered.extend(remaining[i] for i in order)
        return ordered
    cost, frontier, known = cost0, frontier0, bound
    while remaining:
        best = None
        for i, entry in enumerate(remaining):
            step_cost, nb, nf, _, _ = _cost_step(
                entry, known, frontier, statistics, filters, delta_indexes
            )
            lookahead = 0.0
            if len(remaining) > 1:
                lookahead = min(
                    _cost_step(
                        other, nb, nf, statistics, filters, delta_indexes
                    )[0]
                    for j, other in enumerate(remaining)
                    if j != i
                )
            key = (step_cost + lookahead, entry[0])
            if best is None or key < best[0]:
                best = (key, i, nb, nf)
        _, i, known, frontier = best
        ordered.append(remaining.pop(i))
    return ordered


def estimated_body_cost(
    body: Sequence[Literal],
    statistics,
    bound_vars: FrozenSet[Variable] = frozenset(),
) -> float:
    """The cost model's estimated total cost of one evaluation of ``body``.

    Orders the body with :func:`_cost_order` against ``statistics`` (a
    :class:`repro.stats.PlanStatistics`) and sums the per-step costs --
    probes plus enumerated rows.  The absolute number is in arbitrary
    "row visits" units; it is meaningful only relative to other bodies
    estimated against the same statistics, which is exactly how
    :func:`repro.core.planner.estimate_strategy_costs` uses it.
    """
    scans: List[Tuple[int, Literal]] = []
    builtins: List[Tuple[int, Literal]] = []
    negations: List[Tuple[int, Literal]] = []
    for index, literal in enumerate(body):
        if literal.is_builtin:
            builtins.append((index, literal))
        elif literal.negated:
            negations.append((index, literal))
        else:
            scans.append((index, literal))
    filters = _body_filters(builtins, negations)
    ordered = _cost_order(scans, bound_vars, statistics, filters, frozenset())
    bound = frozenset(bound_vars)
    frontier = 1.0
    total = 0.0
    for entry in ordered:
        cost, bound, frontier, _, _ = _cost_step(
            entry, bound, frontier, statistics, filters, frozenset()
        )
        total += cost
    return total


def _estimate_steps(ordered, initial_bound, statistics, filters, delta_indexes):
    """Per-step :class:`StepEstimate` records for the chosen order."""
    bound = frozenset(initial_bound)
    frontier = 1.0
    estimates: List[StepEstimate] = []
    for entry in ordered:
        _, bound, frontier, est, positions = _cost_step(
            entry, bound, frontier, statistics, filters, delta_indexes
        )
        estimates.append(StepEstimate(entry[1], positions, est, frontier))
    return tuple(estimates)


# -- compilation -----------------------------------------------------------


def compile_plan(
    body: Sequence[Literal],
    head: Optional[Literal] = None,
    bound_vars: FrozenSet[Variable] = frozenset(),
    derived_only_for: FrozenSet[str] = frozenset(),
    has_derived: bool = False,
    delta_predicates: FrozenSet[str] = frozenset(),
    delta_occurrence: Optional[int] = None,
    delta_first: bool = False,
    statistics=None,
) -> JoinPlan:
    """Analyse ``body`` once and build an executable :class:`JoinPlan`.

    ``bound_vars`` are the variables the caller will bind through ``initial``
    at execution time (their *identity* shapes the plan; their values do
    not).  ``delta_predicates``/``delta_occurrence`` select the seminaive
    variant: the ``delta_occurrence``-th occurrence (in textual body order)
    of a literal over ``delta_predicates`` reads the secondary database only,
    every other literal reads the primary one.

    ``delta_first`` additionally forces the chosen delta occurrence to be the
    *outermost* scan, with the remaining literals reordered greedily around
    it.  This is the textbook seminaive join order -- drive the round from
    the (small) delta so the work is proportional to the delta, not to the
    full relations -- and is what the incremental resume path uses.  The
    historical engine loops keep the default (purely greedy) order, whose
    work counters are pinned on the paper samples.

    ``statistics`` (a :class:`repro.stats.PlanStatistics` view, supplied by
    the cached builders under ``set_plan_mode("cost")``) switches the scan
    ordering from the greedy bound-count heuristic to the estimated-cost
    search of :func:`_cost_order`: the delta occurrence -- when one exists
    -- is always the driver and only the residual join is searched, and the
    chosen order's per-step estimates are kept on the plan (``.estimates``)
    for :meth:`JoinPlan.explain`.  Builtin and negation *placement* stays
    earliest-point in both modes: the frontier is non-decreasing along a
    plan, so the earliest legal point minimises both the filter's own
    probes and every later step's input -- the cost search instead orders
    scans so that selective filters become placeable early.
    """
    body = tuple(body)
    scans: List[Tuple[int, Literal]] = []
    builtins: List[Tuple[int, Literal]] = []
    negations: List[Tuple[int, Literal]] = []
    for index, literal in enumerate(body):
        if literal.is_builtin:
            if literal.arity != 2:
                raise EvaluationError(
                    f"built-in literal {literal} must have exactly two arguments"
                )
            builtins.append((index, literal))
        elif literal.negated:
            negations.append((index, literal))
        else:
            scans.append((index, literal))

    # Scan order.  Legacy: greedy sideways-information-passing -- repeatedly
    # pick the literal with the most bound argument positions, ties falling
    # back to textual order.  Cost mode (``statistics`` given): estimated-
    # cost search, delta occurrence pinned as the driver.
    bound: Set[Variable] = set(bound_vars)
    ordered: List[Tuple[int, Literal]] = []
    remaining = list(scans)
    forced_delta: Optional[Tuple[int, Literal]] = None
    if delta_occurrence is not None and (delta_first or statistics is not None):
        seen_delta = 0
        for entry in scans:
            if entry[1].predicate in delta_predicates:
                if seen_delta == delta_occurrence:
                    forced_delta = entry
                    remaining.remove(entry)
                    break
                seen_delta += 1
    estimates: Optional[Tuple[StepEstimate, ...]] = None
    if statistics is not None:
        filters = _body_filters(builtins, negations)
        delta_indexes = frozenset()
        if forced_delta is not None:
            delta_indexes = frozenset((forced_delta[0],))
        ordered = _cost_order(
            remaining, bound, statistics, filters, delta_indexes, forced_delta
        )
        estimates = _estimate_steps(
            ordered, bound_vars, statistics, filters, delta_indexes
        )
        for entry in ordered:
            bound.update(entry[1].variables())
    else:
        if forced_delta is not None:
            ordered.append(forced_delta)
            bound.update(forced_delta[1].variables())
        while remaining:
            def bound_count(entry: Tuple[int, Literal]) -> Tuple[int, int]:
                _, literal = entry
                count = 0
                for term in literal.args:
                    if isinstance(term, Constant) or term in bound:
                        count += 1
                return (count, -entry[0])

            best = max(remaining, key=bound_count)
            remaining.remove(best)
            ordered.append(best)
            bound.update(best[1].variables())

    # Slot assignment: caller-bound variables first (sorted for determinism
    # across call sites sharing the cached plan), then first occurrence order.
    slot_of: Dict[Variable, int] = {}
    for var in sorted(bound_vars, key=lambda v: v.name):
        slot_of[var] = len(slot_of)
    for _, literal in ordered:
        for var in literal.variables():
            if var not in slot_of:
                slot_of[var] = len(slot_of)
    if head is not None:
        for var in head.variables():
            if var not in slot_of:
                slot_of[var] = len(slot_of)

    # Built-in / negation placement: the earliest step after which all
    # variables are bound.  Position 0 means "before any scan" (ground under
    # bound_vars).  Negated literals are anti-join filters: they never bind
    # anything, so -- like built-ins -- they attach to the first point at
    # which the positive body has bound their argument vector, and a negated
    # literal that can never become ground is rejected at plan time.
    # Anonymous variables under negation are exempt from that requirement:
    # they are existentially quantified inside the anti-join, so only the
    # *named* variables of a negated literal must be positively bound.
    available: List[Set[Variable]] = [set(bound_vars)]
    for _, literal in ordered:
        available.append(available[-1] | set(literal.variables()))
    placement: Dict[int, List[Tuple[int, Literal]]] = {}
    for index, literal in builtins:
        variables = set(literal.variables())
        for position, known in enumerate(available):
            if variables <= known:
                placement.setdefault(position, []).append((index, literal))
                break
        else:
            raise EvaluationError(f"built-in literal {literal} never becomes ground")
    neg_placement: Dict[int, List[Tuple[int, Literal]]] = {}
    for index, literal in negations:
        variables = {v for v in literal.variables() if not v.is_anonymous}
        for position, known in enumerate(available):
            if variables <= known:
                neg_placement.setdefault(position, []).append((index, literal))
                break
        else:
            raise EvaluationError(
                f"negated literal {literal} is not bound by the positive body"
            )

    # Delta occurrence indexes count non-builtin delta-predicate literals in
    # textual body order, matching the historical seminaive convention.
    occurrence_of: Dict[int, int] = {}
    seen = 0
    for index, literal in scans:
        if literal.predicate in delta_predicates:
            occurrence_of[index] = seen
            seen += 1
    if delta_occurrence is not None and delta_occurrence >= seen:
        raise EvaluationError(
            f"body has {seen} delta occurrences, cannot build variant {delta_occurrence}"
        )

    pre_checks = tuple(
        BuiltinCheck(literal, slot_of)
        for _, literal in sorted(placement.get(0, []), key=lambda e: e[0])
    )
    pre_negs = tuple(
        NegationCheck(literal, slot_of, available[0])
        for _, literal in sorted(neg_placement.get(0, []), key=lambda e: e[0])
    )
    steps: List[ScanStep] = []
    bound_so_far: Set[Variable] = set(bound_vars)
    for position, (index, literal) in enumerate(ordered):
        if delta_occurrence is not None and occurrence_of.get(index) == delta_occurrence:
            source = SOURCE_DERIVED
        elif literal.predicate in derived_only_for:
            source = SOURCE_DERIVED
        elif has_derived:
            source = SOURCE_BOTH
        else:
            source = SOURCE_MAIN
        step = ScanStep(literal, source, slot_of, bound_so_far)
        step.checks = tuple(
            BuiltinCheck(check_literal, slot_of)
            for _, check_literal in sorted(
                placement.get(position + 1, []), key=lambda e: e[0]
            )
        )
        step.neg_checks = tuple(
            NegationCheck(neg_literal, slot_of, available[position + 1])
            for _, neg_literal in sorted(
                neg_placement.get(position + 1, []), key=lambda e: e[0]
            )
        )
        steps.append(step)
        bound_so_far.update(literal.variables())

    plan = JoinPlan(
        body, head, frozenset(bound_vars), slot_of, pre_checks, tuple(steps), pre_negs
    )
    plan.estimates = estimates
    return plan


# -- plan cache ------------------------------------------------------------

_PLAN_CACHE: Dict[tuple, JoinPlan] = {}
_PLAN_CACHE_LIMIT = 8192


def _cached_plan(key: tuple, build: Callable[[], JoinPlan]) -> JoinPlan:
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.clear()
        plan = build()
        _PLAN_CACHE[key] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan (test isolation helper)."""
    _PLAN_CACHE.clear()
    _IMAGE_CACHE.clear()


def _body_statistics(body: Sequence[Literal], database, overrides=None):
    """``(PlanStatistics, cache-key suffix)`` when the cost planner applies.

    Returns ``(None, ())`` under the legacy plan mode or when the caller
    supplied no database to measure -- in which case the builders' cache
    keys (and plans) are byte-identical to the historical ones.  In cost
    mode the suffix is the coarse cardinality fingerprint of the body's
    relations, so cached cost-based plans are reused while relative sizes
    hold and recompiled only when a relation crosses a power-of-two
    boundary (or an override -- an observed delta size -- does).
    """
    if _plan_mode != _PLAN_COST or database is None:
        return None, ()
    from ..stats import PlanStatistics

    statistics = PlanStatistics(database, overrides)
    predicates = [
        literal.predicate for literal in body if not literal.is_builtin
    ]
    return statistics, ("cost", statistics.fingerprint(predicates))


def body_plan(
    body: Sequence[Literal],
    bound_vars: FrozenSet[Variable] = frozenset(),
    derived_only_for: FrozenSet[str] = frozenset(),
    has_derived: bool = False,
    database=None,
) -> JoinPlan:
    """Cached plan for a bare body (the :func:`satisfy_body` entry point)."""
    body = tuple(body)
    statistics, suffix = _body_statistics(body, database)
    key = ("body", body, bound_vars, derived_only_for, has_derived) + suffix
    return _cached_plan(
        key,
        lambda: compile_plan(
            body,
            bound_vars=bound_vars,
            derived_only_for=derived_only_for,
            has_derived=has_derived,
            statistics=statistics,
        ),
    )


def rule_plan(
    rule: Rule,
    bound_vars: FrozenSet[Variable] = frozenset(),
    derived_only_for: FrozenSet[str] = frozenset(),
    has_derived: bool = False,
    database=None,
) -> JoinPlan:
    """Cached plan for a full rule (the :func:`instantiate_rule` entry point)."""
    statistics, suffix = _body_statistics(rule.body, database)
    key = ("rule", rule, bound_vars, derived_only_for, has_derived) + suffix
    return _cached_plan(
        key,
        lambda: compile_plan(
            rule.body,
            head=rule.head,
            bound_vars=bound_vars,
            derived_only_for=derived_only_for,
            has_derived=has_derived,
            statistics=statistics,
        ),
    )


def delta_plan(
    rule: Rule,
    delta_predicates: FrozenSet[str],
    delta_occurrence: int,
    delta_first: bool = False,
    database=None,
    overrides=None,
) -> JoinPlan:
    """Cached seminaive variant: one plan per recursive-occurrence index.

    In cost mode ``overrides`` carries assumed cardinalities -- the
    adaptive re-planner passes the observed delta size for the recursive
    predicates, so the residual join is costed against the delta that
    actually drives it rather than the full relation (and reports each
    re-plan as a ``DL601`` hint on the run's ``Counters.hints``).
    """
    statistics, suffix = _body_statistics(rule.body, database, overrides)
    key = ("delta", rule, delta_predicates, delta_occurrence, delta_first) + suffix
    return _cached_plan(
        key,
        lambda: compile_plan(
            rule.body,
            head=rule.head,
            delta_predicates=delta_predicates,
            delta_occurrence=delta_occurrence,
            delta_first=delta_first,
            statistics=statistics,
        ),
    )


def delta_plans(
    rule: Rule,
    delta_predicates: FrozenSet[str],
    delta_first: bool = False,
    database=None,
    overrides=None,
) -> List[JoinPlan]:
    """All delta variants of ``rule``: one per recursive body occurrence."""
    occurrences = sum(
        1
        for literal in rule.body
        if not literal.is_builtin
        and not literal.negated
        and literal.predicate in delta_predicates
    )
    return [
        delta_plan(rule, delta_predicates, k, delta_first, database, overrides)
        for k in range(occurrences)
    ]


# -- aggregate folds --------------------------------------------------------


class AggregateFold:
    """An aggregate rule compiled to a post-fixpoint fold operator.

    For a rule such as ``sp(X, Y, min(C)) :- path(X, Y, C).`` the fold runs
    the body's join plan (compiled or interpreted, following the global
    execution mode), groups the satisfying substitutions by the head's plain
    terms and folds, per group, the *set of distinct values* each aggregated
    variable takes -- Datalog is set-based, so this is the only well-defined
    reading (``sum`` sums distinct values, ``count`` counts them).

    Stratification guarantees every body predicate is fully evaluated before
    the fold's stratum starts, so a fold fires exactly once per stratum
    evaluation: its result cannot change during the stratum's own fixpoint.
    """

    __slots__ = ("rule", "plan", "group_template", "aggregates")

    def __init__(self, rule: Rule):
        if not rule.is_aggregate:
            raise EvaluationError(f"rule {rule} has no aggregate head")
        self.rule = rule
        self.plan = compile_plan(rule.body, head=None)
        bound = {var for var, _ in self.plan.out_vars}
        # Head template: (kind, payload) per head position, where kind is
        # "const" / "var" / "agg" and aggregates index into self.aggregates.
        template: List[Tuple[str, object]] = []
        aggregates: List[Tuple[Callable, Variable]] = []
        for term in rule.head.args:
            if isinstance(term, AggregateTerm):
                if term.var not in bound:
                    raise EvaluationError(
                        f"aggregated variable {term.var} of {rule} is not bound "
                        "by the rule body"
                    )
                template.append(("agg", len(aggregates)))
                aggregates.append((AGGREGATE_FUNCTIONS[term.func], term.var))
            elif isinstance(term, Constant):
                template.append(("const", term.value))
            else:
                if term not in bound:
                    raise EvaluationError(
                        f"group variable {term} of {rule} is not bound by the rule body"
                    )
                template.append(("var", term))
        self.group_template = tuple(template)
        self.aggregates = tuple(aggregates)

    def heads(self, database: Database) -> Iterator[Row]:
        """Enumerate the folded head rows over the current database.

        Groups are emitted in first-seen order of the underlying join plan,
        so the output order is as deterministic as the plan's.
        """
        group_vars = tuple(
            payload for kind, payload in self.group_template if kind == "var"
        )
        groups: Dict[Tuple[object, ...], List[Set[object]]] = {}
        for substitution in self.plan.substitutions(database):
            key = tuple(substitution[var] for var in group_vars)
            sets = groups.get(key)
            if sets is None:
                sets = groups[key] = [set() for _ in self.aggregates]
            for index, (_, var) in enumerate(self.aggregates):
                sets[index].add(substitution[var])
        for key, sets in groups.items():
            folded = tuple(
                fold(values)
                for (fold, _), values in zip(self.aggregates, sets)
            )
            row: List[object] = []
            position = 0
            for kind, payload in self.group_template:
                if kind == "const":
                    row.append(payload)
                elif kind == "var":
                    row.append(key[position])
                    position += 1
                else:
                    row.append(folded[payload])
            yield tuple(row)


def aggregate_plan(rule: Rule) -> AggregateFold:
    """Cached fold operator for an aggregate rule."""
    return _cached_plan(("fold", rule), lambda: AggregateFold(rule))


# -- compiled relational-algebra images ------------------------------------

ImageFunction = Callable[[Set[object], Database, "object"], Set[object]]

_IMAGE_CACHE: Dict[object, ImageFunction] = {}


def compile_image(expression) -> ImageFunction:
    """Compile a relalg expression into a reusable node-set image function.

    The returned callable has the signature ``(values, database, counters) ->
    set`` and reproduces the historical per-application expression walker of
    the Henschen-Naqvi engine exactly -- including its per-application
    ``nodes_generated`` charging -- but the expression structure is walked
    once at compile time instead of once per application, and base-predicate
    images drive :meth:`~repro.datalog.database.Database.image`: one
    adjacency-bucket union per frontier value on the interned storage kernel
    (or the historical per-row :meth:`~repro.datalog.database.Database.scan`
    loop under the ``"reference"`` storage mode), charged identically either
    way.
    """
    from ..relalg.expressions import Compose, Empty, Identity, Inverse, Pred, Star, Union
    from .errors import NotApplicableError

    if expression is None:
        return lambda values, database, counters: set(values)
    cached = _IMAGE_CACHE.get(expression)
    if cached is not None:
        return cached
    if len(_IMAGE_CACHE) >= _PLAN_CACHE_LIMIT:
        _IMAGE_CACHE.clear()

    compiled: ImageFunction
    if isinstance(expression, Identity):

        def compiled(values, database, counters):
            return set(values)

    elif isinstance(expression, Empty):

        def compiled(values, database, counters):
            return set()

    elif isinstance(expression, Pred):
        name = expression.name

        def compiled(values, database, counters, _name=name):
            result = database.image(_name, values)
            counters.nodes_generated += len(result)
            return result

    elif isinstance(expression, Inverse):
        inner = expression.inner
        if not isinstance(inner, Pred):
            raise NotApplicableError(
                "image compilation supports inverses of base predicates only"
            )
        name = inner.name

        def compiled(values, database, counters, _name=name):
            result = database.image(_name, values, inverted=True)
            counters.nodes_generated += len(result)
            return result

    elif isinstance(expression, Union):
        items = tuple(compile_image(item) for item in expression.items)

        def compiled(values, database, counters, _items=items):
            result: Set[object] = set()
            for item in _items:
                result |= item(values, database, counters)
            return result

    elif isinstance(expression, Compose):
        items = tuple(compile_image(item) for item in expression.items)

        def compiled(values, database, counters, _items=items):
            current = set(values)
            for item in _items:
                current = item(current, database, counters)
                if not current:
                    break
            return current

    elif isinstance(expression, Star):
        inner_fn = compile_image(expression.inner)

        def compiled(values, database, counters, _inner=inner_fn):
            current = set(values)
            reached = set(values)
            while current:
                current = _inner(current, database, counters) - reached
                reached |= current
            return reached

    else:
        raise NotApplicableError(f"unsupported expression node {expression!r}")

    _IMAGE_CACHE[expression] = compiled
    return compiled
