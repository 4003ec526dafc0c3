"""A memo keys on ``Multigraph.key``, which holds no object of the graph.

A key built as ``(g.n, g.edges, ...)`` would keep the graph's tuple of edge
records alive for as long as its entry lives, so no module but
``multigraph`` builds a tuple from a graph's ``.n`` and ``.edges``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gdom"


def _graph_tuples(tree: ast.AST) -> list[int]:
    """The lines of the tuple displays in ``tree`` that name both ``.n`` and ``.edges``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and {"n", "edges"} <= {elt.attr for elt in node.elts if isinstance(elt, ast.Attribute)}
    ]


def test_the_guard_sees_a_key_that_holds_the_edges():
    assert _graph_tuples(ast.parse("key = (g.n, g.edges, q)")) == [1]
    assert _graph_tuples(ast.parse("key = (g.key, q)\nn, m = g.n, len(g.edges)")) == []


def test_only_multigraph_builds_a_tuple_of_a_graphs_n_and_edges():
    built = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "multigraph.py" and (lines := _graph_tuples(ast.parse(path.read_text())))
    }
    assert built == {}, "key the memo on Multigraph.key instead"
