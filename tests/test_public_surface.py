"""Every public top-level function and class of the package, and every
public method of such a class, has a caller outside the tests.

A name only the tests use is a test oracle or dead surface, and belongs in
``tests/`` (``helpers`` keeps the references).  A name counts as used when
a module of ``src/halfhandle`` reads or imports it outside its own
definition, or when ``perfbench/`` does, by name or as a string: the
benchmark's ``SPANNED`` lists name the functions it times, such as
``slice_topology.joinable_to_wall`` and ``trajectory.broken_closure``.
"""

import ast
from pathlib import Path

from helpers import PERFBENCH

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfhandle"


def referenced(tree, skip=None, strings=False):
    """The names ``tree`` reads, as a name or an attribute, or imports,
    outside the node ``skip``; with ``strings``, its string constants too."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_public_names(modules, outside):
    """(module, name) of each public top-level function and class of the
    parsed ``modules`` (by name), and (module, "Class.method") of each
    public method of such a class, that no module references outside its
    own definition and that is not in the names ``outside``.

    A method is looked for by its name alone, so a method whose name also
    names another function, method or attribute in use counts as used: for
    methods the check is best-effort."""
    everywhere = {name: referenced(tree) for name, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [("%s.%s" % (node.name, f.name), f) for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            for label, member in members:
                if member.name in outside or member.name in referenced(tree, member):
                    continue
                if not any(member.name in refs for name, refs in everywhere.items()
                           if name != module):
                    unused.append((module, label))
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) >= 8
    bench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        bench |= referenced(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    assert {"joinable_to_wall", "broken_closure"} <= bench  # SPANNED
    assert unused_public_names(modules, bench) == []


def test_a_name_used_only_in_its_own_definition_is_caught():
    modules = {
        "a": ast.parse("def used(): pass\ndef recursive(n): return recursive(n - 1)\n"
                       "class Timed: pass\ndef _private(): pass\n"),
        "b": ast.parse("from .a import used\n"),
    }
    assert unused_public_names(modules, set()) == [("a", "recursive"), ("a", "Timed")]
    assert unused_public_names(modules, {"Timed"}) == [("a", "recursive")]


def test_a_method_used_only_in_its_own_definition_is_caught():
    modules = {
        "a": ast.parse("class Datum:\n"
                       "    def point(self): return self.point()\n"
                       "    def has_point(self, pid): return self.has_point(pid)\n"
                       "    def values(self): pass\n"
                       "    def _built(self): pass\n"
                       "def keys(d): return d.values()\n"),
        "b": ast.parse("from .a import Datum, keys\n"
                       "def _reach(d): return d.point(), keys(d)\n"),
    }
    # values is read by keys, point by b; has_point only calls itself
    assert unused_public_names(modules, set()) == [("a", "Datum.has_point")]
    # a name in use elsewhere, by whatever it names, counts as used
    modules["b"] = ast.parse("from .a import Datum, keys\n"
                             "def _reach(d, text): return d.point(), keys(d), text.has_point\n")
    assert unused_public_names(modules, set()) == []
