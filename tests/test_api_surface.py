"""Every public function, class and method of the package has a caller.

A public definition is a module-level function or class, or a method or
property of a module-level class, whose name does not start with an
underscore. It counts as used when code in `src/`, `demos/` or
`perfbench/`, outside its own definition, refers to its name: as a name,
an attribute, an import, or a word of a string literal (perfbench patches
functions by name). Docstrings and comments are prose, not callers.
Test-only API fails here: delete it, or name it below with the reason it
stays.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cpnslab")

KEPT_WITHOUT_CALLER = {
    "save_table":
        "writes the documented table format that `load_table` reads",
}


def _trees():
    for top in ("src", "demos", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        yield path, ast.parse(fh.read())


def _references(tree):
    """(name, line) of every code reference in a module: names,
    attributes, imported names and the words of string literals, but not
    the bare string statements that docstrings are."""
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr)
             and isinstance(node.value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name, node.asname):
                for word in re.findall(r"\w+", name or ""):
                    yield word, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in prose):
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _public_definitions(trees):
    """(path, name, first line, last line) of each public top-level def
    and each public method of a top-level class of the package."""
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        found = _public(tree.body, (ast.FunctionDef, ast.ClassDef))
        for cls in _public(tree.body, ast.ClassDef):
            found += _public(cls.body, ast.FunctionDef)
        for node in found:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield path, node.name, first, node.end_lineno


def test_every_public_definition_is_used_outside_its_own_def():
    trees = dict(_trees())
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    defined, unused = set(), []
    for path, name, first, last in sorted(_public_definitions(trees)):
        defined.add(name)
        used = any(word == name
                   and (other != path or not first <= line <= last)
                   for other, found in refs.items() for word, line in found)
        if name not in KEPT_WITHOUT_CALLER and not used:
            unused.append(f"{os.path.relpath(path, ROOT)}: {name}")
    assert not unused, f"public API with no caller: {unused}"
    assert set(KEPT_WITHOUT_CALLER) <= defined, "stale allowlist entry"


def test_docstrings_are_not_callers():
    code = '"""Calls f."""\ndef g():\n    """Also f."""\n    return "mod.h"\n'
    words = {word for word, _ in _references(ast.parse(code))}
    assert "f" not in words and "h" in words


def _imported_names(tree):
    """Every dotted part of every module and name a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield from name.split(".")


def test_only_the_model_imports_autodiff():
    # the run path's softmax numerics live in counterfactual; the graph
    # stays for the tests and for perfbench's tracer, which wraps
    # model.ExpandableModel.current_feature_graph
    for code in ("from . import autodiff as ad", "from .autodiff import leaf",
                 "import cpnslab.autodiff"):
        assert "autodiff" in _imported_names(ast.parse(code))
    importers = [os.path.basename(path) for path, tree in _trees()
                 if os.path.dirname(path) == PACKAGE
                 and "autodiff" in _imported_names(tree)]
    assert importers == ["model.py"]


def _json_dumps_users(tree):
    """The name of the function around each `json.dumps` in a module,
    and "<module>" for one outside any function; an import of `dumps`
    from json counts as a use where it stands."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "dumps"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "json"):
                yield where
            elif (isinstance(child, ast.ImportFrom) and child.module == "json"
                    and any(a.name == "dumps" for a in child.names)):
                yield where
            yield from walk(child, where)
    return list(walk(tree, "<module>"))


def test_one_encoder_writes_the_json_artifacts():
    # every JSON artifact is encoded by atomic.canonical_json, so its
    # bytes are decided in one place; the CLI's stdout print is no artifact
    code = ("import json\nfrom json import dumps\n"
            "def f():\n    def g():\n        return json.dumps(1)\n"
            "    return json.loads('1')\n")
    assert _json_dumps_users(ast.parse(code)) == ["<module>", "g"]
    users = sorted((os.path.basename(path), where)
                   for path, tree in _trees()
                   if os.path.dirname(path) == PACKAGE
                   for where in _json_dumps_users(tree))
    assert users == [("atomic.py", "canonical_json"), ("cli.py", "main")]
