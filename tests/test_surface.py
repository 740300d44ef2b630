"""The library holds no function that only the tests call, and the CLI no flag
that its handler ignores.

Every top-level function and class of ``src/wachkit``, and every method that
is not a dunder, must be referenced (as a name or an attribute) somewhere in
the library outside its own definition, be exported in ``wachkit.__all__``,
or be one of the public helpers listed below.  A helper that only tests need
lives in ``tests/oracles.py``.
"""

import argparse
import ast
from pathlib import Path

import wachkit
from wachkit import cli

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
    "series_multiply",
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


def _args_read(fn: ast.FunctionDef) -> set[str]:
    """The attributes fn reads from its ``args`` namespace."""
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def test_every_cli_flag_is_read_by_its_handler():
    # "read" means args.<dest> appears in the handler, or in _context_for
    # when the handler calls it
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    context_reads = _args_read(functions["_context_for"])
    subparsers = next(
        a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unread = []
    for command, parser in subparsers.choices.items():
        handler = functions[cli._HANDLERS[command].__name__]
        reads = _args_read(handler)
        if any(isinstance(n, ast.Name) and n.id == "_context_for" for n in ast.walk(handler)):
            reads |= context_reads
        for action in parser._actions:
            if action.dest != "help" and action.dest not in reads:
                unread.append(f"{command} {'/'.join(action.option_strings) or action.dest}")
    assert not unread, "flags no handler reads: " + ", ".join(unread)


def test_no_kernel_parameter_defaults_to_none():
    # a parameter that defaults to None is an optional mode of a kernel; the
    # kernels have one path each, so every argument is given
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [
        (f"{node.name}.{item.name}", item)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    ]
    optional = []
    for name, fn in functions:
        args = fn.args
        params = args.posonlyargs + args.args
        pairs = list(zip(params[len(params) - len(args.defaults) :], args.defaults))
        pairs += zip(args.kwonlyargs, args.kw_defaults)
        optional += [
            f"{name}({a.arg})" for a, default in pairs if isinstance(default, ast.Constant) and default.value is None
        ]
    assert not optional, "kernel parameters that default to None: " + ", ".join(optional)
