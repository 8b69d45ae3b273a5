"""The extensional database: a thin adapter over the interned storage kernel.

The paper assumes (Section 3, comparison with Bancilhon et al.) that "any
tuple in a base relation can be retrieved in constant time".  This module
provides exactly that abstraction: a :class:`Database` stores, per predicate,
a :class:`repro.storage.table.IntTable` -- constants interned to dense codes,
hash indexes keyed by any subset of bound argument positions, per-position
adjacency indexes for binary relations, and copy-on-write snapshots -- so
that a lookup such as ``up(a, Y)`` touches only the matching tuples and a
node-set image is a single C-level set union over shared buckets.

Every retrieval is charged to a :class:`~repro.instrumentation.Counters`
object, which is how the benchmarks measure the "set of potentially relevant
facts" consulted by each strategy.  The counters measure *retrievals*, not
representation: the kernel fast paths (and the bucket-level charging memo
that avoids re-walking a bucket row by row once it has been fully charged)
produce bit-identical counter values to the historical per-row object-tuple
loops, which ``tests/storage/test_storage_differential.py`` asserts for
every engine on every workload family.
"""

from __future__ import annotations

from itertools import repeat as _repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..instrumentation import Counters
from ..storage import runtime as _storage_runtime
from ..storage.runtime import MODE_KERNEL
from ..storage.table import FULL_SCAN, BucketToken, IntTable
from .literals import Literal
from .rules import Program, Rule
from .terms import Constant, Variable

Row = Tuple[object, ...]
_T = TypeVar("_T")

_NO_BINDINGS: Dict[int, object] = {}

#: Entries kept by each per-database memo (program facts, analyses).
MEMO_LIMIT = 64


def normalize_row(values: Iterable[object]) -> Row:
    """The canonical stored form of a row: ``Constant`` wrappers unwrapped.

    Every write path (:meth:`Database.add_fact`, :meth:`Database.remove_fact`)
    and every membership probe that must agree with them normalizes through
    this one helper, so the journal, the stored tuples and the resume-path
    accounting can never drift apart on wrapper handling.
    """
    return tuple(v.value if isinstance(v, Constant) else v for v in values)


class Delta:
    """A signed extensional delta: rows inserted and rows deleted.

    This is the shape :meth:`Database.delta_since` returns and every resume
    path (:meth:`repro.engines.base.Engine.resume`,
    :func:`repro.engines.runtime.resume_stratified`) consumes.  ``inserts``
    and ``deletes`` map predicate names to row lists in journal order; a row
    appearing in one side never appears in the other (``delta_since`` nets
    the journal per row).  A plain ``{predicate: rows}`` mapping coerces to
    an insert-only delta, so callers written against the pre-deletion
    contract keep working unchanged.
    """

    __slots__ = ("inserts", "deletes")

    def __init__(
        self,
        inserts: Optional[Dict[str, Iterable[Iterable[object]]]] = None,
        deletes: Optional[Dict[str, Iterable[Iterable[object]]]] = None,
    ):
        self.inserts: Dict[str, List[Row]] = {
            predicate: [tuple(row) for row in rows]
            for predicate, rows in (inserts or {}).items()
        }
        self.deletes: Dict[str, List[Row]] = {
            predicate: [tuple(row) for row in rows]
            for predicate, rows in (deletes or {}).items()
        }

    @classmethod
    def coerce(cls, delta: object) -> "Delta":
        """``delta`` itself when already a :class:`Delta`, else insert-only."""
        if isinstance(delta, Delta):
            return delta
        return cls(inserts=delta)  # type: ignore[arg-type]

    def predicates(self) -> Set[str]:
        """Every predicate the delta touches, on either side."""
        return set(self.inserts) | set(self.deletes)

    @property
    def has_deletes(self) -> bool:
        return any(self.deletes.values())

    @property
    def has_inserts(self) -> bool:
        return any(self.inserts.values())

    def total(self) -> int:
        """Number of rows in the delta, both signs combined."""
        return sum(len(rows) for rows in self.inserts.values()) + sum(
            len(rows) for rows in self.deletes.values()
        )

    def __bool__(self) -> bool:
        return self.has_inserts or self.has_deletes

    def __eq__(self, other) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self.inserts == other.inserts and self.deletes == other.deletes

    def __repr__(self) -> str:
        return f"Delta(inserts={self.inserts!r}, deletes={self.deletes!r})"


class Relation:
    """A single stored relation: an arity-checking adapter over an IntTable."""

    __slots__ = ("name", "arity", "table")

    def __init__(self, name: str, arity: int, table: Optional[IntTable] = None):
        self.name = name
        self.arity = arity
        self.table = table if table is not None else IntTable(arity)

    def add(self, row: Row) -> bool:
        """Insert a tuple; returns True when it was new."""
        if len(row) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, got tuple of length {len(row)}"
            )
        return self.table.add(row)

    def remove(self, row: Row) -> bool:
        """Delete a tuple; returns True when it was present."""
        if len(row) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, got tuple of length {len(row)}"
            )
        return self.table.remove(row)

    @property
    def rows(self) -> FrozenSet[Row]:
        """An immutable snapshot of the stored rows.

        Historically this was the live internal row set; every accessor of
        this class now returns either an immutable snapshot or a read-only
        view, so callers can never corrupt the store or its indexes.
        """
        return self.table.row_set()

    def lookup(self, bindings: Dict[int, object]) -> FrozenSet[Row]:
        """All rows whose value at each position in ``bindings`` matches.

        ``bindings`` maps argument positions (0-based) to required constants.
        An empty ``bindings`` returns every row.  The result is an immutable
        snapshot: mutating it is impossible, so callers can never corrupt the
        relation's row set or its index buckets through the return value.
        """
        rows, _ = self.table.bucket(bindings)
        return frozenset(rows)

    def clone(self) -> "Relation":
        """A logically independent copy (copy-on-write, O(1) until written)."""
        return Relation(self.name, self.arity, self.table.snapshot())

    def __len__(self) -> int:
        return len(self.table)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.table)

    def __contains__(self, row: Row) -> bool:
        return self.table.contains(row)


class Database:
    """A mutable collection of relations (the extensional database).

    The same class is used for derived relations produced by the bottom-up
    engines, so that intermediate results enjoy the same indexing.

    Every database carries a monotonically increasing **version**: the number
    of effective mutations ever applied to it -- insertions of new rows and
    deletions of present rows; duplicate inserts and absent-row deletes do
    not advance it -- offset so that derived databases (:meth:`overlay`,
    :meth:`copy`) continue the numbering of their source.  A *signed* append
    journal records each mutation in order, so :meth:`delta_since` can hand
    back exactly the insert and delete deltas accumulated after any
    previously observed version (netted per row) -- the primitive the
    incremental session layer (:mod:`repro.session`) builds on.
    """

    def __init__(self, counters: Optional[Counters] = None):
        self.relations: Dict[str, Relation] = {}
        self.counters = counters if counters is not None else Counters()
        # Signed append journal of (predicate, row, inserted) for every
        # effective mutation, plus the version number the journal starts at
        # (non-zero for databases derived from another one, whose earlier
        # history is not replayed here).
        self._journal: List[Tuple[str, Row, bool]] = []
        self._journal_base: int = 0
        # Program-facts memo used by the session layer (and through it the
        # bare ``Engine.answer`` path): Program -> (version, combined
        # database).  Lives on the instance so its lifetime matches the data.
        self._program_facts_memo: Dict[object, Tuple[int, "Database"]] = {}
        # Analyses of programs against this database (see :func:`memoized`):
        # (program, key) -> (version, program, result).
        self._analyses: Dict[object, Tuple[int, Program, object]] = {}
        self._touched: Set[Tuple[str, Row]] = set()
        # Predicates whose Relation object is shared with a base database
        # (copy-on-write overlays); cloned on the first mutation.
        self._shared: Set[str] = set()
        # Bucket-level charging memo: predicate -> bucket token -> the
        # (bucket size, table mutation epoch) when it was last charged row
        # by row.  Once a whole bucket has been charged, re-retrieving it
        # only bumps ``fact_retrievals`` by its length -- every row is
        # already in ``_touched``, so the per-row walk would change nothing.
        # Validity is tied to the table's mutation epoch, so a mutation made
        # through *any* database sharing the relation copy-on-write (even a
        # delete followed by a same-size refill) forces a fresh row walk;
        # entries are also dropped eagerly on local mutations and on
        # instrumentation resets.
        self._charged: Dict[str, Dict[BucketToken, int]] = {}
        # Direct-charging kernel probes reused across batches: (predicate,
        # probe positions) -> (relation, table mutation epoch, probe).  A
        # probe is valid while the relation object and its table's mutation
        # epoch are unchanged (and is dropped wholesale on instrumentation
        # resets, which swap the counters object it charges).  Reuse keeps
        # the probe's per-batch key memo warm across fixpoint rounds for
        # static relations.
        self._probe_cache: Dict[Tuple[str, Tuple[int, ...]], tuple] = {}
        # Per-(predicate, position) image context: the adjacency dict, the
        # interner lookup and the charged-bucket memo for :meth:`image`,
        # validated per call by adjacency-dict identity (a cloned or unshared
        # table gets a fresh adjacency dict, so a stale context self-detects).
        self._image_ctx: Dict[Tuple[str, int], tuple] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def overlay(
        cls,
        base: "Database",
        counters: Optional[Counters] = None,
        exclude: Iterable[str] = (),
    ) -> "Database":
        """A copy-on-write view over ``base``.

        The overlay shares the base's :class:`Relation` objects (and hence
        their already-built hash indexes) until a fact is added to one of
        them, at which point that single relation is cloned.  Reads never
        mutate the base beyond populating its lazy index caches, so repeated
        queries against one extensional database do not pay a per-query
        row-by-row copy of the whole database.

        ``exclude`` names relations to leave out of the overlay entirely --
        the stratified resume path uses this to discard the derived relations
        of every stratum at or above the restart point while still sharing
        the kept relations copy-on-write.

        The overlay starts with its own empty touched set, so its
        ``distinct_facts`` count measures only what it retrieves itself.
        """
        db = cls(counters=counters)
        if exclude:
            dropped = set(exclude)
            db.relations = {
                p: rel for p, rel in base.relations.items() if p not in dropped
            }
        else:
            db.relations = dict(base.relations)
        db._shared = set(db.relations)
        # The overlay continues the base's version numbering with a fresh
        # journal: creating it stays O(1), and history before the handoff is
        # answered by the base, not the overlay.
        db._journal_base = base.version
        return db

    def add_fact(self, predicate: str, values: Iterable[object]) -> bool:
        """Add a single fact; returns True when it is new."""
        row = normalize_row(values)
        relation = self.relations.get(predicate)
        if relation is None:
            relation = Relation(predicate, len(row))
            self.relations[predicate] = relation
        elif predicate in self._shared:
            if row in relation:
                return False  # duplicate: no mutation needed, keep sharing
            relation = relation.clone()
            self.relations[predicate] = relation
            self._shared.discard(predicate)
        added = relation.add(row)
        if added:
            self._journal.append((predicate, row, True))
            if self._charged:
                self._charged.pop(predicate, None)
        return added

    def add_facts(self, predicate: str, rows: Iterable[Iterable[object]]) -> int:
        """Add many facts; returns the number of new ones."""
        added = 0
        for row in rows:
            if self.add_fact(predicate, row):
                added += 1
        return added

    def add_rows(
        self,
        predicate: str,
        rows: Sequence[Row],
        journal: bool = True,
        distinct: bool = False,
    ) -> List[Row]:
        """Bulk-insert already-normalized rows; returns the new ones in order.

        This is the batch-executor sink: the rows come from
        :meth:`repro.datalog.plans.JoinPlan.head_batch`, whose values are
        stored canonical values and unwrapped head constants, so the
        :func:`normalize_row` pass of :meth:`add_fact` is skipped.  Journal
        order, copy-on-write cloning and charging-memo invalidation are
        exactly those of the equivalent :meth:`add_fact` sequence.  The
        stratified runtime passes ``journal=False`` for its per-round
        delta/frontier scratch databases, whose journals are discarded
        unread with the round, and ``distinct=True`` when the rows are the
        novel rows another database just reported (see
        :meth:`repro.storage.table.IntTable.add_many`).
        """
        if not rows:
            return []
        relation = self.relations.get(predicate)
        if relation is None:
            relation = Relation(predicate, len(rows[0]))
            self.relations[predicate] = relation
        if predicate in self._shared:
            # Pay the copy-on-write clone only when some row is actually new
            # (the table-level bulk add unshares the snapshot lazily too, but
            # the relations map and shared-set bookkeeping live here).
            contains = relation.table.contains
            if all(contains(row) for row in rows):
                return []
            relation = relation.clone()
            self.relations[predicate] = relation
            self._shared.discard(predicate)
        if len(rows[0]) != relation.arity:
            raise ValueError(
                f"relation {predicate!r} has arity {relation.arity},"
                f" got tuple of length {len(rows[0])}"
            )
        new_rows = relation.table.add_many(rows, distinct)
        if new_rows:
            if journal:
                self._journal.extend(zip(_repeat(predicate), new_rows, _repeat(True)))
            if self._charged:
                self._charged.pop(predicate, None)
        return new_rows

    def remove_fact(self, predicate: str, values: Iterable[object]) -> bool:
        """Delete a single fact; returns True when it was present.

        Deleting from a relation shared copy-on-write with a base database
        clones it first, exactly like :meth:`add_fact`, so the base never
        loses the row.  An effective deletion advances :attr:`version`, is
        journaled with a negative sign, and invalidates the bucket-level
        charging memos for the predicate (buckets no longer only grow, so
        the "same size means fully charged" shortcut would turn stale).
        """
        row = normalize_row(values)
        relation = self.relations.get(predicate)
        if relation is None:
            return False
        if len(row) != relation.arity:
            # Fail fast like add_fact does -- a silent False would make an
            # arity typo look like an absent-row no-op.
            raise ValueError(
                f"relation {predicate!r} has arity {relation.arity}, "
                f"got tuple of length {len(row)}"
            )
        if row not in relation:
            return False
        if predicate in self._shared:
            relation = relation.clone()
            self.relations[predicate] = relation
            self._shared.discard(predicate)
        removed = relation.remove(row)
        if removed:
            self._journal.append((predicate, row, False))
            if self._charged:
                self._charged.pop(predicate, None)
            if self._image_ctx:
                self._image_ctx.pop((predicate, 0), None)
                self._image_ctx.pop((predicate, 1), None)
        return removed

    def remove_facts(self, predicate: str, rows: Iterable[Iterable[object]]) -> int:
        """Delete many facts; returns the number actually present."""
        removed = 0
        for row in rows:
            if self.remove_fact(predicate, row):
                removed += 1
        return removed

    def load_program_facts(self, program: Program) -> int:
        """Copy every fact embedded in a program into this database."""
        added = 0
        for fact in program.edb_facts():
            if self.add_fact(fact.head.predicate, fact.head.constant_values()):
                added += 1
        return added

    @classmethod
    def from_program(cls, program: Program, counters: Optional[Counters] = None) -> "Database":
        """Build a database from the facts of ``program``."""
        db = cls(counters=counters)
        db.load_program_facts(program)
        return db

    @classmethod
    def from_dict(
        cls, facts: Dict[str, Iterable[Iterable[object]]], counters: Optional[Counters] = None
    ) -> "Database":
        """Build a database from ``{"pred": [(a, b), ...], ...}``."""
        db = cls(counters=counters)
        for predicate, rows in facts.items():
            db.add_facts(predicate, rows)
        return db

    # -- versioning --------------------------------------------------------------

    @property
    def version(self) -> int:
        """The monotone version: effective mutations ever applied.

        New-row insertions and present-row deletions both advance it by one;
        duplicate inserts and absent-row deletes do not.  Derived databases
        (:meth:`overlay`, :meth:`copy`) continue the numbering of their
        source, so a version observed on the source can be compared with
        versions of the derivative -- but only mutations made through *this*
        instance are recorded in its own journal.
        """
        return self._journal_base + len(self._journal)

    def delta_since(self, version: int) -> Delta:
        """The signed delta accumulated after ``version``.

        ``version`` must be a value previously read from :attr:`version` of
        this database (or of the database it was derived from, down to its
        handoff point).  The journal window is *netted per row*: a row
        deleted and later re-inserted (or vice versa) within the window
        contributes to neither side, so applying ``delta.deletes`` then
        ``delta.inserts`` to a snapshot at ``version`` reproduces the
        current state exactly.  Rows are listed in journal order.  Asking
        for history older than this instance records, or from the future,
        raises :class:`ValueError`.
        """
        if version > self.version:
            raise ValueError(
                f"version {version} is in the future (database is at {self.version})"
            )
        if version < self._journal_base:
            raise ValueError(
                f"history before version {self._journal_base} is not recorded "
                f"in this database (asked for {version})"
            )
        window = self._journal[version - self._journal_base :]
        # Signs for one row strictly alternate (a duplicate insert or an
        # absent delete is never journaled), so the net per row is -1/0/+1.
        net: Dict[Tuple[str, Row], int] = {}
        for predicate, row, inserted in window:
            key = (predicate, row)
            net[key] = net.get(key, 0) + (1 if inserted else -1)
        delta = Delta()
        emitted: Set[Tuple[str, Row]] = set()
        for predicate, row, _ in window:
            key = (predicate, row)
            if key in emitted:
                continue
            emitted.add(key)
            sign = net[key]
            if sign > 0:
                delta.inserts.setdefault(predicate, []).append(row)
            elif sign < 0:
                delta.deletes.setdefault(predicate, []).append(row)
        return delta

    # -- retrieval ---------------------------------------------------------------

    def predicates(self) -> Set[str]:
        """Names of the stored relations."""
        return set(self.relations)

    def arity(self, predicate: str) -> Optional[int]:
        """Arity of a stored relation, or ``None`` when unknown."""
        relation = self.relations.get(predicate)
        return relation.arity if relation else None

    def rows(self, predicate: str) -> FrozenSet[Row]:
        """All rows of a relation (empty for unknown predicates).

        The result is an immutable snapshot -- never the live internal row
        set, so callers cannot corrupt the relation through the return value
        and the snapshot does not track later insertions.  This accessor does
        *not* charge retrieval counters; it is meant for inspection and for
        bulk set operations whose cost the caller accounts for separately.
        """
        relation = self.relations.get(predicate)
        return relation.table.row_set() if relation else frozenset()

    def contains(self, predicate: str, row: Row) -> bool:
        """Membership test, charged as a single retrieval."""
        relation = self.relations.get(predicate)
        found = relation is not None and tuple(row) in relation
        self._charge(predicate, [tuple(row)] if found else [])
        return found

    def match(self, literal: Literal, charge: bool = True) -> List[Row]:
        """Rows of ``literal``'s relation matching its bound positions.

        The literal may mix constants and variables; repeated variables are
        honoured (``p(X, X)`` only matches rows with equal components).
        Retrievals are charged to :attr:`counters` unless ``charge`` is false.
        """
        bindings: Dict[int, object] = {}
        first_position: Dict[Variable, int] = {}
        intra_eq: List[Tuple[int, int]] = []
        for position, term in enumerate(literal.args):
            if isinstance(term, Constant):
                bindings[position] = term.value
            else:
                first = first_position.setdefault(term, position)
                if first != position:
                    intra_eq.append((position, first))
        return self.scan(literal.predicate, bindings, tuple(intra_eq), charge=charge)

    def scan(
        self,
        predicate: str,
        bindings: Optional[Dict[int, object]] = None,
        intra_eq: Tuple[Tuple[int, int], ...] = (),
        charge: bool = True,
    ) -> List[Row]:
        """Indexed retrieval by raw positional bindings (no :class:`Literal`).

        ``bindings`` maps argument positions to required values; ``intra_eq``
        lists ``(position, other_position)`` pairs whose components must be
        equal (the repeated-variable constraint).  Rows passing both filters
        are charged to :attr:`counters` exactly as :meth:`match` charges them,
        and the returned list is a snapshot safe to iterate while inserting.
        This is the primitive the compiled join plans drive directly.
        """
        relation = self.relations.get(predicate)
        if relation is None:
            return []
        candidates, token = relation.table.bucket(bindings or _NO_BINDINGS)
        if intra_eq:
            result = [
                row
                for row in candidates
                if all(row[position] == row[other] for position, other in intra_eq)
            ]
            if charge:
                self._charge(predicate, result)
            return result
        # A full scan already hands out a freshly-built list; an index bucket
        # is live internal state and must be snapshotted before returning.
        result = candidates if token is FULL_SCAN else list(candidates)
        if charge:
            # Bucket-level charging memo (kernel mode): once a whole bucket
            # has been charged, every row is already in ``_touched``, so a
            # repeat retrieval can bump ``fact_retrievals`` by the bucket
            # size directly.  Any table mutation since the charge -- growth,
            # or a delete-then-refill restoring the size, by this database
            # or by a sibling sharing the relation -- fails the epoch check
            # and the bucket is re-charged row by row.
            if _storage_runtime._mode == MODE_KERNEL:
                charged = self._charged.get(predicate)
                if charged is None:
                    charged = self._charged[predicate] = {}
                stamp = (len(result), relation.table.mutations)
                if charged.get(token) == stamp:
                    self.counters.fact_retrievals += stamp[0]
                else:
                    self._charge(predicate, result)
                    charged[token] = stamp
            else:
                self._charge(predicate, result)
        return result

    def image(
        self, predicate: str, values: Iterable[object], inverted: bool = False
    ) -> Set[object]:
        """The node-set image: ``{y | x ∈ values, predicate(x, y)}``.

        With ``inverted=True`` the predicate is read backwards
        (``{x | y ∈ values, predicate(x, y)}``).  This is the primitive the
        compiled relational-algebra images and the graph-traversal provider
        drive: one adjacency-bucket union per frontier value, charged exactly
        as the equivalent per-value :meth:`scan` loop charges.
        """
        relation = self.relations.get(predicate)
        if relation is None:
            return set()
        position, output = (1, 0) if inverted else (0, 1)
        if relation.arity != 2 or _storage_runtime._mode != MODE_KERNEL:
            # Reference path: the historical per-row object-tuple loop.
            result: Set[object] = set()
            for value in values:
                for row in self.scan(predicate, {position: value}):
                    result.add(row[output])
            return result
        key = (predicate, position)
        ctx = self._image_ctx.get(key)
        if ctx is None or ctx[0] is not relation.table.built_adjacency(position):
            table = relation.table
            ctx = (table.adjacency(position), table.interner.code_of, {})
            self._image_ctx[key] = ctx
        adjacency, code_of, charged = ctx
        counters = self.counters
        mutations = relation.table.mutations
        buckets: List[set] = []
        for value in values:
            code = code_of(value)
            if code is None:
                continue
            entry = adjacency.get(code)
            if entry is None:
                continue
            targets, rows = entry
            stamp = (len(rows), mutations)
            # The memo records (bucket size, table mutation epoch) at full
            # charge; any later mutation -- growth, or a delete-then-refill
            # restoring the size, by this database or by another one sharing
            # the relation copy-on-write -- fails the check and the bucket
            # is re-charged row by row.
            if charged.get(code) == stamp:
                counters.fact_retrievals += stamp[0]
            else:
                self._charge(predicate, rows)
                charged[code] = stamp
            buckets.append(targets)
        if not buckets:
            return set()
        if len(buckets) == 1:
            return set(buckets[0])
        return set().union(*buckets)

    def count(self, predicate: str) -> int:
        """Number of rows stored for ``predicate``."""
        relation = self.relations.get(predicate)
        return len(relation) if relation else 0

    def total_facts(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(rel) for rel in self.relations.values())

    def column_values(self, predicate: str, position: int) -> Set[object]:
        """Distinct values at ``position`` of a relation (uncharged).

        Runs on the kernel's per-column code sets: O(distinct values), not
        O(rows).  Position may be negative (Python indexing convention).
        """
        relation = self.relations.get(predicate)
        if relation is None:
            return set()
        if position < 0:
            position += relation.arity
        if not 0 <= position < relation.arity:
            raise IndexError(
                f"position out of range for {predicate!r} (arity {relation.arity})"
            )
        table = relation.table
        return table.interner.extern_set(table.column_codes(position))

    def active_domain_size(self) -> int:
        """Number of distinct constants across all relations and positions.

        Runs on the per-column code sets of the kernel tables, so the cost is
        O(distinct values), not O(rows x arity).
        """
        codes: Set[int] = set()
        for relation in self.relations.values():
            table = relation.table
            for position in range(relation.arity):
                codes |= table.column_codes(position)
        return len(codes)

    # -- instrumentation -----------------------------------------------------------

    def _charge(self, predicate: str, rows: Iterable[Row]) -> None:
        # Retrieval sets never repeat a row (buckets are deduplicated), so
        # the distinct-fact count is the touched-set growth: one C-level
        # set.update over (predicate, row) keys instead of a per-row
        # membership loop.
        counters = self.counters
        touched = self._touched
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        counters.fact_retrievals += len(rows)
        if rows:
            before = len(touched)
            touched.update(zip(_repeat(predicate), rows))
            counters.distinct_facts += len(touched) - before

    def reset_instrumentation(self, counters: Optional[Counters] = None) -> None:
        """Start a fresh measurement (optionally swapping the counter object)."""
        if counters is not None:
            self.counters = counters
        else:
            self.counters.reset()
        self._touched.clear()
        self._charged.clear()
        self._probe_cache.clear()
        self._image_ctx.clear()

    # -- conversion ------------------------------------------------------------------

    def to_facts(self) -> List[Rule]:
        """Render the whole database as a list of fact rules."""
        facts: List[Rule] = []
        for predicate, relation in sorted(self.relations.items()):
            for row in sorted(relation.table.all_rows(), key=repr):
                facts.append(Rule(Literal(predicate, [Constant(v) for v in row])))
        return facts

    def copy(self) -> "Database":
        """An independent copy sharing no mutable state (counters excluded).

        Like :meth:`overlay`, the copy continues the source's version
        numbering with a fresh journal: re-adding the existing rows is not
        replayed as history, so ``copy().delta_since(self.version)`` is empty
        until the copy itself is written to.
        """
        clone = Database()
        for predicate, relation in self.relations.items():
            clone.add_facts(predicate, relation.table.all_rows())
        clone._journal.clear()
        clone._journal_base = self.version
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {p: rel.table.row_set() for p, rel in self.relations.items() if len(rel)}
        theirs = {p: rel.table.row_set() for p, rel in other.relations.items() if len(rel)}
        return mine == theirs

    def __repr__(self) -> str:
        parts = ", ".join(f"{p}:{len(rel)}" for p, rel in sorted(self.relations.items()))
        return f"Database({parts})"


def memoized(
    program: Program,
    database: Optional[Database],
    key: object,
    build: Callable[[], _T],
) -> _T:
    """``build()``, memoized on ``database`` (on ``program`` without one).

    Keyed by ``(program, key)``, valid while ``database.version`` holds and
    only for the very same program instance (equal programs may differ in
    rule order and spans).  The memo dies with its owner, so a reused id
    can never hit it.
    """
    if database is None:
        memo = program.__dict__.setdefault("_analyses", {})
        version = None
    else:
        memo = database._analyses
        version = database.version
    entry = memo.get((program, key))
    if entry is not None and entry[0] == version and entry[1] is program:
        return entry[2]
    result = build()
    memo[(program, key)] = (version, program, result)
    while len(memo) > MEMO_LIMIT:
        memo.pop(next(iter(memo)))
    return result
