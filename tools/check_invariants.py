#!/usr/bin/env python
"""Repo invariant checker: storage encapsulation and identity-keyed maps.

The :class:`repro.storage.table.IntTable` row map, subset indexes, lag
watermarks, adjacency caches and column caches (``_rows``, ``_indexes``,
``_index_lag``, ``_adjacency``, ``_columns``, ``_colarrays``) are private
representation: every consumer outside the storage package must go through
the public accessors (``rows_map``, ``bucket``, ``adjacency``,
``built_adjacency``, ``column_codes``, ``column_arrays``,
``merge_novel_coded``, ``seed_coded_rows``), so the packed-array kernel can
swap representations without auditing the whole tree.  This script walks the
source tree's ASTs and fails on any attribute access to a banned name from
outside ``src/repro/storage`` -- except through ``self``, so other classes
may keep private attributes that happen to share a name with their *own*
state, as :class:`~repro.datalog.database.Database` does.

It also flags ``id(...)`` used as a dict or set key -- a subscript, a
``.get``/``.pop``/``.setdefault``/``.add``/``.discard`` argument, a membership
test, or the value assigned to a ``key`` variable -- anywhere in the tree.
CPython reuses the id of a freed object, so such a memo can serve a stale
entry to an unrelated object.  The only exceptions are the maps in
:data:`ID_KEY_ALLOWED`, each of which keeps its keyed object alive.  An
allow-list entry that no longer matches an ``id(...)``-keyed site is itself
a violation, so the list cannot outlive the code it excuses.

Usage::

    python tools/check_invariants.py            # check src/repro
    python tools/check_invariants.py PATH...    # check specific trees

Exit status 0 when clean, 1 when a violation is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

#: IntTable storage representation -- see the class's ``__slots__``.
BANNED_ATTRIBUTES = frozenset(
    {
        "_rows",
        "_indexes",
        "_index_lag",
        "_adjacency",
        "_columns",
        "_colarrays",
    }
)

#: The package that owns the representation and may touch it freely.
ALLOWED_PREFIX = ("src", "repro", "storage")


#: Identity-keyed maps that are safe because an entry holds a strong
#: reference to its keyed object, so the id cannot be reused while the entry
#: exists: (path suffix, enclosing function) -> that reference.
ID_KEY_ALLOWED = {
    ("repro/stats.py", "table_stats"): "each _CACHE entry stores `rows` itself",
    ("repro/storage/columns.py", "PendingCharges._pending"): "_DbCharges.db",
}

#: Methods whose first argument is a dict or set key.
_KEY_METHODS = frozenset({"get", "pop", "setdefault", "add", "discard"})


def _is_id_key(node: Optional[ast.AST]) -> bool:
    """Whether a key expression contains an ``id(x)`` call anywhere.

    Covers ``id(x)`` itself, tuples such as ``(id(x), version)`` and
    conditional parts such as ``None if x is None else id(x)``.
    """
    return node is not None and any(
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "id"
        for inner in ast.walk(node)
    )


class _IdKeyFinder(ast.NodeVisitor):
    """Collect ``(node, enclosing qualname)`` for every ``id(...)`` key."""

    def __init__(self) -> None:
        self.scope: List[str] = []
        self.found: List[Tuple[ast.AST, str]] = []

    def _flag(self, node: ast.AST) -> None:
        self.found.append((node, ".".join(self.scope)))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_id_key(node.slice):
            self._flag(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _KEY_METHODS
            and node.args
            and _is_id_key(node.args[0])
        ):
            self._flag(node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if _is_id_key(node.left) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            self._flag(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_id_key(node.value) and any(
            isinstance(target, ast.Name)
            and (target.id == "key" or target.id.endswith("_key"))
            for target in node.targets
        ):
            self._flag(node)
        self.generic_visit(node)


def _allow_entry(path: Path, qualname: str) -> Optional[Tuple[str, str]]:
    """The :data:`ID_KEY_ALLOWED` entry covering ``qualname`` in ``path``."""
    posix = path.as_posix()
    for suffix, function in ID_KEY_ALLOWED:
        if posix.endswith(suffix) and qualname == function:
            return suffix, function
    return None


def _is_self_access(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


def _exempt(path: Path) -> bool:
    parts = path.parts
    for start in range(len(parts)):
        if parts[start : start + len(ALLOWED_PREFIX)] == ALLOWED_PREFIX:
            return True
    return False


def check_file(path: Path) -> List[Tuple[int, int, str]]:
    """Violations in one file as ``(line, col, message)``, in line order."""
    return _check(path)[0]


def _check(
    path: Path,
) -> Tuple[List[Tuple[int, int, str]], Set[Tuple[str, str]]]:
    """:func:`check_file`'s violations plus the allow-list entries used."""
    used: Set[Tuple[str, str]] = set()
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [(0, 0, f"cannot parse: {exc}")], used
    violations: List[Tuple[int, int, str]] = []
    finder = _IdKeyFinder()
    finder.visit(tree)
    for node, qualname in finder.found:
        entry = _allow_entry(path, qualname)
        if entry is not None:
            used.add(entry)
        else:
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    "`id(...)` used as a dict/set key: a freed object's id "
                    "is reused; key on the object itself, or allow-list a "
                    "map that keeps it alive",
                )
            )
    exempt = _exempt(path)
    for node in ast.walk(tree):
        if (
            not exempt
            and isinstance(node, ast.Attribute)
            and node.attr in BANNED_ATTRIBUTES
            and not _is_self_access(node)
        ):
            violations.append(
                (
                    node.lineno,
                    node.col_offset + 1,
                    f"access to storage-private attribute `{node.attr}` "
                    "outside repro.storage; use the IntTable public API",
                )
            )
    return sorted(violations), used


def check_tree(roots: Iterable[Path]) -> int:
    """Check every ``.py`` under ``roots``; print violations, return count.

    An allow-list entry is stale when a checked file matches its path but
    no ``id(...)``-keyed site in that file's named function needed it.
    """
    found = 0
    used: Set[Tuple[str, str]] = set()
    checked: List[str] = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            checked.append(path.as_posix())
            violations, entries = _check(path)
            used |= entries
            for line, column, message in violations:
                print(f"{path}:{line}:{column}: {message}")
                found += 1
    for suffix, function in sorted(set(ID_KEY_ALLOWED) - used):
        if any(posix.endswith(suffix) for posix in checked):
            print(
                f"{suffix}: stale ID_KEY_ALLOWED entry: no `id(...)` key in "
                f"{function}; delete the entry"
            )
            found += 1
    return found


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src") / "repro"]
    found = check_tree(roots)
    if found:
        print(f"{found} invariant violation(s)")
        return 1
    print("storage encapsulation and identity-key invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
