"""The constant interner: a process-wide symbol table of dense integer codes.

The paper's complexity claims assume that "any tuple in a base relation can
be retrieved in constant time".  Every storage structure in this package
honours that assumption over *small dense integers* rather than arbitrary
Python objects: constants are interned once into consecutive codes, tuples of
codes are the stored rows, and adjacency buckets are sets of codes whose
unions and intersections run inside the C set implementation.  The interner
is the single bijection shared by the datalog and relalg layers, which is
what lets a :class:`~repro.relalg.relation.BinaryRelation` view and a
:class:`~repro.datalog.database.Relation` talk about the same constants
without any translation tables of their own.

Interning is append-only: codes are handed out densely in first-intern order
and never reused, so ``extern`` is a plain list index.  :meth:`Interner.code_of`
is the *non-growing* lookup used on query paths -- a constant that was never
stored anywhere cannot match anything, so it must not be allocated a code
just because somebody asked for it.

Canonicalisation semantics: the symbol table is keyed by Python equality,
exactly like the sets and dicts the pre-kernel storage used, so constants
that compare equal (``1``/``1.0``/``True``) share one code and ``extern``
returns the first-interned representative.  The historical storage already
collapsed such values *within* a relation (set membership); the interner
makes the canonical representative process-wide.  Query answers remain
``==``-identical either way.

Concurrency invariants:

* **Concurrent readers are always safe.**  The table is append-only; a code
  observed by any thread or forked child stays valid forever, and the
  non-growing lookups (:meth:`Interner.code_of`, ``extern*``) touch only
  already-published entries.
* **Growth is multi-writer safe.**  The interner is process-wide, so any
  two caller threads that evaluate queries -- even over unrelated
  databases -- intern into the same table.  Allocation of a *new* code
  goes through :meth:`Interner.allocate` -- a double-checked, lock-guarded
  append -- so two threads interning the same fresh value race to one
  code, never two.  The fast path (value already interned) stays a single
  lock-free dict hit.
* **Forked children must not rely on codes allocated after the fork.**  A
  child's copy diverges from the parent at fork time; the fixpoint offload
  in :mod:`repro.engines.runtime` therefore ships any row holding a code
  at or above the fork-time length by value.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

IntRow = Tuple[int, ...]


class Interner:
    """A bijection between hashable constants and dense integer codes."""

    __slots__ = ("_code_of", "_value_of", "_introw_of", "_grow_lock")

    def __init__(self) -> None:
        self._code_of: Dict[Hashable, int] = {}
        self._value_of: List[Hashable] = []
        # Serialises *allocation* only; every read path stays lock-free.
        self._grow_lock = threading.Lock()
        # Row-level memo: object tuple -> interned tuple, for rows that have
        # been fully interned at least once.  The fixpoint insert path runs
        # every derived row through interning two or three times (main
        # database, per-round delta, re-derivations in later rounds); the
        # memo turns the repeats into one dict hit.  Append-only like the
        # symbol table itself -- the same "retain everything ever stored"
        # trade the interner already makes for constants.
        self._introw_of: Dict[Tuple[Hashable, ...], IntRow] = {}

    # -- interning (growing) ------------------------------------------------

    def allocate(self, value: Hashable) -> int:
        """Allocate (or find) the code of a value missed by the fast path.

        The slow half of :meth:`intern`, factored out so call sites that
        inline the fast-path dict hit (``IntTable.add`` and friends) share
        one locked, double-checked allocation: publishing the code into
        ``_code_of`` *after* the value is appended keeps lock-free readers
        from ever observing a code without its value.
        """
        with self._grow_lock:
            code = self._code_of.get(value)
            if code is None:
                values = self._value_of
                code = len(values)
                values.append(value)
                self._code_of[value] = code
        return code

    def intern(self, value: Hashable) -> int:
        """The code of ``value``, allocating the next dense code when new."""
        code = self._code_of.get(value)
        if code is None:
            code = self.allocate(value)
        return code

    def intern_many(self, values: Iterable[Hashable]) -> List[int]:
        """Bulk :meth:`intern`, preserving order (including duplicates)."""
        intern = self.intern
        return [intern(value) for value in values]

    def intern_row(self, row: Iterable[Hashable]) -> IntRow:
        """Intern every component of a tuple-like row into an int tuple.

        One call per row, with only the lock-free fast path inlined (no
        per-value method call until a value is actually new).
        :meth:`repro.storage.table.IntTable.add` duplicates this loop on its
        insert path to also skip the per-row call -- keep the two in sync.
        """
        code_map = self._code_of
        allocate = self.allocate
        codes = []
        for value in row:
            code = code_map.get(value)
            if code is None:
                code = allocate(value)
            codes.append(code)
        return tuple(codes)

    # -- lookup (non-growing) -----------------------------------------------

    def code_of(self, value: Hashable) -> Optional[int]:
        """The code of ``value`` or ``None`` -- never allocates."""
        return self._code_of.get(value)

    def row_code_of(self, row: Iterable[Hashable]) -> Optional[IntRow]:
        """The int tuple of a row, or ``None`` when any component is unknown."""
        code_of = self._code_of
        codes = []
        for value in row:
            code = code_of.get(value)
            if code is None:
                return None
            codes.append(code)
        return tuple(codes)

    # -- externing ----------------------------------------------------------

    def extern(self, code: int) -> Hashable:
        """The value a code stands for (raises ``IndexError`` when unknown)."""
        return self._value_of[code]

    def extern_many(self, codes: Iterable[int]) -> List[Hashable]:
        """Bulk :meth:`extern`, preserving order."""
        value_of = self._value_of
        return [value_of[code] for code in codes]

    def extern_set(self, codes: Iterable[int]) -> set:
        """Extern a set of codes into a set of values."""
        value_of = self._value_of
        return {value_of[code] for code in codes}

    def extern_row(self, codes: Iterable[int]) -> Tuple[Hashable, ...]:
        """Extern an int tuple back into the original object tuple."""
        value_of = self._value_of
        return tuple(value_of[code] for code in codes)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._value_of)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._code_of

    def __repr__(self) -> str:
        return f"Interner({len(self._value_of)} constants)"


#: The process-wide interner shared by every storage structure.  Tests that
#: need isolation can construct private :class:`Interner` instances (IntTable
#: accepts one); the shared table only ever grows -- codes stay valid for the
#: process lifetime, which is the retrieval-stability guarantee the kernel
#: relies on, at the cost of retaining every constant ever stored.
_GLOBAL = Interner()


def global_interner() -> Interner:
    """The process-wide shared :class:`Interner`."""
    return _GLOBAL
