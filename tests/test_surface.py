"""The library holds no function that only the tests call, and the CLI no flag
that its handler ignores.

Every top-level function and class of ``src/wachkit``, and every method that
is not a dunder, must have a library caller, be exported in
``wachkit.__all__``, or be one of the public helpers listed below.  A helper
that only tests need lives in ``tests/oracles.py``.

A caller is a reference resolved to the definition, not a matching bare name:

* a top-level function or class is used when a ``Name`` in its own module
  refers to it outside its own body, when another library module imports it
  by name (a re-export in ``__init__`` alone does not count), or when another
  library module reads it as ``<module>.<name>``;
* a method is used when an attribute load outside its own body names it; an
  attribute on ``self`` or ``cls`` counts only for the enclosing class.
"""

import argparse
import ast
from pathlib import Path

import wachkit
from wachkit import cli
from wachkit.cyclo import get_context

SRC = Path(wachkit.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# public helpers with no library caller, and why they stay
ALLOWED = {
    "flmod.unit_fl": "the unit object of the FL category",
    "series.series_multiply": "the series product the benchmark's kernel probe times",
    "series.TruncationProfile.M_pi": "the pi-order the benchmark's torsion probe reads",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _definitions(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """Top-level functions and classes and their methods, by qualified name.

    "module.name" for a function or class, "module.Class.method" for a method.
    """
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def _walk(node: ast.AST, enclosing: tuple = ()):
    """(node, enclosing definitions) of every node under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node,)
    yield node, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, enclosing)


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local names that a module binds to library modules (``from . import kernels``)."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def _references(trees: dict[str, ast.Module], defs: dict[str, ast.AST]):
    """(qualified name, enclosing definitions) of every reference that counts."""
    methods: dict[str, list[str]] = {}
    for key in defs:
        if key.count(".") == 2:
            methods.setdefault(key.rsplit(".", 1)[1], []).append(key)
    for module, tree in trees.items():
        aliases = _module_aliases(tree)
        for node, enclosing in _walk(tree):
            if isinstance(node, ast.Name):
                yield f"{module}.{node.id}", enclosing
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module and module != "__init__":
                for alias in node.names:
                    yield f"{node.module}.{alias.name}", enclosing
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in aliases:
                    yield f"{aliases[owner]}.{node.attr}", enclosing
                elif owner in ("self", "cls"):
                    classes = [d for d in enclosing if isinstance(d, ast.ClassDef)]
                    if classes:
                        yield f"{module}.{classes[-1].name}.{node.attr}", enclosing
                else:
                    for key in methods.get(node.attr, ()):
                        yield key, enclosing


def _used(trees: dict[str, ast.Module], defs: dict[str, ast.AST]) -> set[str]:
    """The definitions referenced from outside their own bodies."""
    return {
        key
        for key, enclosing in _references(trees, defs)
        if key in defs and not any(d is defs[key] for d in enclosing)
    }


def _exported(key: str) -> bool:
    return key.split(".", 1)[1] in wachkit.__all__


def test_every_library_name_has_a_library_caller():
    trees = _trees()
    defs = _definitions(trees)
    used = _used(trees, defs)
    unused = [key for key in defs if key not in used and not _exported(key) and key not in ALLOWED]
    assert not unused, "no library caller: " + ", ".join(unused)
    # an entry stays on ALLOWED only while it names a definition that nothing
    # else keeps
    stale = [key for key in ALLOWED if key not in defs or key in used or _exported(key)]
    assert not stale, "stale ALLOWED entries: " + ", ".join(stale)


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
    # kernels and the ring layer's functions have one path each, so every
    # argument is given.  Methods of series.py stay outside: the acceptance
    # suite calls Substitution.apply both with and without an order.
    trees = _trees()
    functions = [
        (f"{module}.{node.name}", node)
        for module in ("kernels", "series")
        for node in trees[module].body
        if isinstance(node, ast.FunctionDef)
    ]
    functions += [
        (f"kernels.{node.name}.{item.name}", item)
        for node in trees["kernels"].body
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


def test_benchmark_kernel_probes_run(monkeypatch):
    # the benchmark's --trace 1 probes read names outside wachkit.__all__
    # (series_multiply, OperatorTag's kinds, the context's work twins and
    # M_pi); running them here catches a deletion before a benchmark run does
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    _, ok = run.kernel_probes({3: get_context(3)}, 1)
    assert ok
