"""The repo invariant checker (``tools/check_invariants.py``).

Pins three things: the real source tree is clean, synthetic violations of
both rules (storage encapsulation, ``id(...)``-keyed maps) are flagged with
an exact ``line:column``, and the exemptions -- ``self`` access, the storage
package, the identity-key allow-list -- hold so the checker never cries wolf.
"""

import pytest

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECKER = REPO / "tools" / "check_invariants.py"

sys.path.insert(0, str(REPO / "tools"))
import check_invariants  # noqa: E402


class TestCheckFile:
    def test_flags_external_private_access(self, tmp_path):
        source = tmp_path / "client.py"
        source.write_text("def peek(table):\n    return table._rows\n")
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == (2, 12)
        assert "_rows" in message and "repro.storage" in message

    def test_self_access_is_exempt(self, tmp_path):
        source = tmp_path / "own_state.py"
        source.write_text(
            "class Database:\n"
            "    def __init__(self):\n"
            "        self._rows = {}\n"
            "    def size(self):\n"
            "        return len(self._rows)\n"
        )
        assert check_invariants.check_file(source) == []

    def test_public_api_is_clean(self, tmp_path):
        source = tmp_path / "consumer.py"
        source.write_text("def rows(table):\n    return table.rows_map\n")
        assert check_invariants.check_file(source) == []

    def test_storage_package_is_exempt(self, tmp_path):
        nested = tmp_path / "src" / "repro" / "storage"
        nested.mkdir(parents=True)
        inside = nested / "table.py"
        inside.write_text("def merge(a, b):\n    a._rows.update(b._rows)\n")
        assert check_invariants.check_tree([tmp_path / "src"]) == 0

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        source = tmp_path / "broken.py"
        source.write_text("def (:\n")
        violations = check_invariants.check_file(source)
        assert len(violations) == 1
        assert "cannot parse" in violations[0][2]


ID_KEY_TRIGGERS = [
    ("memo[id(obj)] = value", (2, 5)),
    ("hit = memo.get(id(obj))", (2, 11)),
    ("memo.setdefault((id(obj), 1), value)", (2, 5)),
    ("seen.add(id(obj))", (2, 5)),
    ("hit = id(obj) not in seen", (2, 11)),
    ("key = (id(obj), obj.version)", (2, 5)),
    ("key = (None if obj is None else id(obj), 2)", (2, 5)),
    ("plan_key = id(obj)", (2, 5)),
]

ID_KEY_NEAR_MISSES = [
    "print(id(obj))",
    "ids = [id(obj)]",
    "key = (obj, obj.version)",
    "hit = obj in seen",
    "memo[obj] = id(obj)",
    "memo.get(obj, id(obj))",
]


def _function(tmp_path, body, name="client.py"):
    source = tmp_path / name
    source.write_text(f"def use(obj, memo, seen, value):\n    {body}\n")
    return source


class TestIdKeys:
    @pytest.mark.parametrize("body,position", ID_KEY_TRIGGERS)
    def test_flags_identity_key(self, tmp_path, body, position):
        violations = check_invariants.check_file(_function(tmp_path, body))
        assert len(violations) == 1
        line, column, message = violations[0]
        assert (line, column) == position
        assert "`id(...)`" in message

    @pytest.mark.parametrize("body", ID_KEY_NEAR_MISSES)
    def test_near_miss_is_clean(self, tmp_path, body):
        assert check_invariants.check_file(_function(tmp_path, body)) == []

    def test_allow_list_names_path_and_function(self, tmp_path):
        nested = tmp_path / "src" / "repro" / "storage"
        nested.mkdir(parents=True)
        source = nested / "columns.py"
        source.write_text(
            "class PendingCharges:\n"
            "    def _pending(self, db):\n"
            "        return self._by_db.get(id(db))\n"
            "    def other(self, db):\n"
            "        return self._by_db.get(id(db))\n"
        )
        violations = check_invariants.check_file(source)
        assert [line for line, _, _ in violations] == [5]

    def test_every_allow_list_entry_names_its_reference(self):
        for (suffix, function), reference in check_invariants.ID_KEY_ALLOWED.items():
            assert suffix.endswith(".py") and function and reference.strip()

    def test_storage_package_is_not_exempt(self, tmp_path):
        nested = tmp_path / "src" / "repro" / "storage"
        nested.mkdir(parents=True)
        (nested / "table.py").write_text("def f(memo, row):\n    return memo[id(row)]\n")
        assert check_invariants.check_tree([tmp_path / "src"]) == 1


class TestRepoTree:
    def test_source_tree_holds_the_invariant(self):
        result = subprocess.run(
            [sys.executable, str(CHECKER)],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "invariants hold" in result.stdout
