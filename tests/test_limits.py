"""Size limits: one refusal rule, and one binding per limit read when a builder runs."""

import ast
from pathlib import Path

import pytest

from bpsing import dgcat
from bpsing.dgcat import a_category, tensor, tensor_bp
from bpsing.grading import check_limit
from bpsing.lattice import euler_gram, st_gram
from bpsing.suspension import directed_extension

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bpsing"
PHRASE = "exceeds the limit"


def _strings_by_function(tree):
    """(enclosing function name or None, text) of every string constant in a module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                found.append((owner, child.value))
            visit(child, owner)

    visit(tree, None)
    return found


def test_check_limit_refuses_only_above_the_limit():
    check_limit("object count", 8, 8)
    with pytest.raises(ValueError) as err:
        check_limit("object count prod(p_i - 1) =", 9, 8)
    assert str(err.value) == "object count prod(p_i - 1) = 9 exceeds the limit 8"


def test_every_size_refusal_is_the_one_rule_and_no_limit_is_copied():
    outside, copies, defined = [], [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for owner, text in _strings_by_function(tree):
            if PHRASE in text and (path.name, owner) != ("grading.py", "check_limit"):
                outside.append(f"{path.name}: {owner}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                copies += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("MAX_")]
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for t in targets:
                if isinstance(t, ast.Name) and t.id.startswith("MAX_"):
                    defined.setdefault(t.id, []).append(path.name)
    assert not outside, "a size refusal written outside grading.check_limit"
    assert not copies, "a limit imported by value goes stale when the defining module's is patched"
    assert {name: where for name, where in defined.items() if len(where) > 1} == {}
    assert sum(path.read_text().count(PHRASE) for path in PACKAGE.glob("*.py")) == 1


def test_every_builder_reads_the_object_limit_when_it_runs(monkeypatch):
    monkeypatch.setattr(dgcat, "MAX_RANK", 3)
    # each builder at three objects, then at four
    for admitted, refused in [
        (lambda: a_category(3), lambda: a_category(4)),
        (lambda: tensor(a_category(1), a_category(3)), lambda: tensor(a_category(2), a_category(2))),
        (lambda: tensor_bp((4,)), lambda: tensor_bp((3, 3))),
        (lambda: directed_extension(a_category(1), 3), lambda: directed_extension(a_category(2), 2)),
        (lambda: st_gram((4,)), lambda: st_gram((3, 3))),
        (lambda: euler_gram((4,)), lambda: euler_gram((3, 3))),
    ]:
        admitted()
        with pytest.raises(ValueError, match=" 4 exceeds the limit 3$"):
            refused()
