"""``checks.INEQUALITIES`` is the one place that says what an inequality is:
no code in ``src/`` names an ``InequalityId`` member outside that literal,
so a check, its claim status and a hunt of it are read off its entry."""

import ast
from pathlib import Path

from gdom.checks import InequalityId

SRC = Path(__file__).resolve().parent.parent / "src" / "gdom"


def _member_names(tree: ast.AST) -> list[ast.Attribute]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "InequalityId"
        and node.attr in InequalityId.__members__
    ]


def _table(tree: ast.Module) -> ast.AST:
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and "INEQUALITIES" in [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    ]
    return table


def test_only_the_inequality_table_names_an_id_member():
    named = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for node in _member_names(_table(tree))} if path.name == "checks.py" else set()
        for node in _member_names(tree):
            if id(node) not in inside:
                named.setdefault(path.name, []).append(f"l. {node.lineno}: InequalityId.{node.attr}")
    assert named == {}, "read it off the id's INEQUALITIES entry instead"


def test_the_table_names_every_member_once():
    table = _table(ast.parse((SRC / "checks.py").read_text()))
    assert sorted(node.attr for node in _member_names(table)) == sorted(InequalityId.__members__)
