"""No public function or method of ``src/gdom`` that only tests call, and
no private module-level function that no code calls.

A public function (no leading underscore) counts as named where a module in
``src/``, ``scripts/`` or ``bench/`` names it: by name, by import or as an
attribute.  A public method counts only where it is called as an attribute
(``x.name(...)``), and a property where it is read as one (``x.name``), so a
local variable of the same name does not count.  :data:`DOCUMENTED_API` is
the public API that a user calls and no module needs.  A private function
(one leading underscore) counts as named as a public function does.
"""

import ast
from pathlib import Path

from gdom.checks import EDGE_FAMILIES, VERTEX_FAMILIES

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTED_API = {
    # graph builders
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "single_edge",
    "single_vertex",
    # homomorphism targets and spectral test functions
    "HomTarget.independent_set_target",
    "exp_decay",
    "hinge",
    "shifted_inverse",
    "check_shearer",
    "automorphisms",
    # the counters that ``checks.family_count`` reaches through getattr
    *(f"count_{family}" for family in {**VERTEX_FAMILIES, **EDGE_FAMILIES}),
}


def _public_definitions() -> dict[str, str]:
    """'name' or 'Class.name' -> 'function', 'method' or 'property'."""
    found = {}
    for path in sorted((ROOT / "src" / "gdom").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = "function"
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        prop = any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)
                        found[f"{node.name}.{item.name}"] = "property" if prop else "method"
    return found


def _named() -> dict[str, set[str]]:
    """What the modules of src/, scripts/ and bench/ name, by the kind it can name."""
    names, reads, calls = set(), set(), set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    calls.add(node.func.attr)
    return {"function": names | reads, "method": calls, "property": reads}


def test_every_public_function_is_named_outside_tests():
    named = _named()
    unnamed = [
        qualified
        for qualified, kind in _public_definitions().items()
        if qualified not in DOCUMENTED_API and qualified.rpartition(".")[2] not in named[kind]
    ]
    assert unnamed == [], "only tests call these; move them to tests, delete them or document them"


def test_documented_api_is_defined():
    assert DOCUMENTED_API <= _public_definitions().keys()


def test_every_private_function_is_named_outside_tests():
    named = _named()["function"]
    unnamed = [
        f"{path.stem}.{node.name}"
        for path in sorted((ROOT / "src" / "gdom").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    ]
    assert unnamed == [], "no code calls these; delete them or move them to tests"
