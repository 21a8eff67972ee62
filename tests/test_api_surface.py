"""Every public function, class and method of the package has a caller.

A public definition is a module-level function or class, or a method or
property of a module-level class, whose name does not start with an
underscore. It counts as used when its name appears in `src/`, `demos/`
or `perfbench/` outside its own definition. Test-only API fails here:
delete it, or name it below with the reason it stays.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cpnslab")

KEPT_WITHOUT_CALLER = {
    "estimate_pns_interventional":
        "backs the acceptance gate's interventional PNS checks",
    "consecutive_overlap":
        "data audit: checks that gen_scm_stream gives the configured overlap",
    "spurious_gap":
        "data audit: checks that gen_scm_stream sets a shortcut trap",
}


def _sources():
    for top in ("src", "demos", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        yield path, fh.read()


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _public_definitions():
    """(path, name, first line, last line) of each public top-level def
    and each public method of a top-level class."""
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        found = _public(tree.body, (ast.FunctionDef, ast.ClassDef))
        for cls in _public(tree.body, ast.ClassDef):
            found += _public(cls.body, ast.FunctionDef)
        for node in found:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield path, node.name, first, node.end_lineno


def test_every_public_definition_is_used_outside_its_own_def():
    sources = dict(_sources())
    defined, unused = set(), []
    for path, name, first, last in _public_definitions():
        defined.add(name)
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = sources[path].splitlines()
        texts = [text for other, text in sources.items() if other != path]
        texts.append("\n".join(own[:first - 1] + own[last:]))
        if name not in KEPT_WITHOUT_CALLER and not any(map(word.search, texts)):
            unused.append(f"{os.path.relpath(path, ROOT)}: {name}")
    assert not unused, f"public API with no caller: {unused}"
    assert set(KEPT_WITHOUT_CALLER) <= defined, "stale allowlist entry"
