"""The library holds no function that only the tests call.

Every top-level function and class of ``src/wachkit``, and every method that
is not a dunder, must be referenced (as a name or an attribute) somewhere in
the library outside its own definition, be exported in ``wachkit.__all__``,
or be one of the public helpers listed below.  A helper that only tests need
lives in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import wachkit

SRC = Path(wachkit.__file__).parent

# public helpers with no library caller that the tests use as API
ALLOWED = {
    "torsion",
    "projector",
    "TruncationProfile.default",
    "unit_fl",
    "direct_sum_wach",
    "context_to_dict",
    "howell_member",
    "smith_elementary_divisors",
    "PMatrix.matvec",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, node) of top-level functions, classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def _references(node: ast.AST, enclosing: tuple = ()):
    """(name, enclosing definitions) of every Name and Attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node,)
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def test_every_library_name_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs: dict[str, list[tuple]] = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            refs.setdefault(name, []).append(enclosing)
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            if qualname in ALLOWED or qualname in wachkit.__all__:
                continue
            outside = [e for e in refs.get(node.name, []) if not any(d is node for d in e)]
            if not outside:
                unused.append(f"{module}: {qualname}")
    assert not unused, "no library caller: " + ", ".join(unused)
