"""Static checks on the package source, by ``ast`` alone: no module imports a
name it never uses, every private module-level function or class is
referenced somewhere in the package, so folding duplicates together leaves
no dead helper behind, every public function, class and method is reached
from outside the tests, and no public function shares its name with a
public method, which would hide either one from that rule.  The graph kind
(``.symmetric``) is read only where a listed function needs the kind itself;
everywhere else the twin pairing says whether an edge has a twin.  A
homomorphism's flat record (``_picked``) is touched only by the listed
functions of ``hom`` and ``construct``."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "cylgraph"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree) -> set:
    """Every name read as a variable and every attribute name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_private_helpers_are_referenced():
    trees = {path: _tree(path) for path in MODULES}
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not dead, f"private helpers nobody references: {dead}"


def _exported() -> set:
    """The names in ``__all__``, read from ``__init__.py`` without importing it."""
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _reads(node) -> Counter:
    """How often each name, attribute and string constant is read under ``node``."""
    reads = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            reads[child.id] += 1
        elif isinstance(child, ast.Attribute):
            reads[child.attr] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            reads[child.value] += 1
    return reads


def _readme_code_names(text: str) -> set:
    """Every identifier inside backticks in the Markdown ``text``: inline code
    spans and fenced blocks, the fences' info strings and ``#`` comments left
    out."""
    spans = [re.sub(r"#.*", "", block) for block in re.findall(r"```[^\n]*\n(.*?)```", text, flags=re.S)]
    spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def _unreached(trees: dict, known: set) -> list:
    """``file:qualname`` of every public function, class and method in
    ``trees`` (file name -> parsed module) that is not in ``known``, not a
    ``*_direct`` oracle, and read nowhere in ``trees`` but in its own body."""
    package = sum(map(_reads, trees.values()), Counter())

    def defs(tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item

    return [
        f"{name}:{qualname}"
        for name, tree in trees.items()
        for qualname, node in defs(tree)
        if not node.name.startswith("_")
        and not node.name.endswith("_direct")
        and node.name not in known
        and package[node.name] == _reads(node)[node.name]  # read nowhere but in its own body
    ]


def test_public_names_are_reached():
    """Every public module-level function and class, and every public method,
    is in ``__all__``, read somewhere else in the package (as a name, an
    attribute or a string such as the CLI's ``cmd_*`` dispatch), read by the
    benchmark, named in backticks in README.md, or a ``*_direct`` oracle."""
    trees = {path.name: _tree(path) for path in MODULES}
    bench = set().union(*(_reads(_tree(path)) for path in (REPO / "bench").glob("*.py")))
    known = _exported() | bench | _readme_code_names((REPO / "README.md").read_text(encoding="utf-8"))
    unreached = _unreached(trees, known)
    assert not unreached, f"public names nothing outside the tests reaches: {unreached}"


def test_reachability_rule_flags_what_only_tests_reach():
    trees = {
        "a.py": ast.parse(
            "def kept(n):\n    return kept(n - 1) if n else helper()\n"  # recursion alone does not count
            "def helper():\n    return Box().used()\n"
            "def cmd_run():\n    pass\n"
            "def table_direct():\n    pass\n"
            "def listed():\n    pass\n"
            "class Box:\n"
            "    def used(self):\n        return self.lonely\n"
            "    def lonely(self):\n        pass\n"
            "    def dead(self):\n        return self.dead()\n"
            "    def _private(self):\n        pass\n"
        ),
        "b.py": ast.parse("VERBS = {'run': 'cmd_run'}\n"),
    }
    assert _unreached(trees, {"listed"}) == ["a.py:kept", "a.py:Box.dead"]


def _shadowed(trees: dict) -> list:
    """``file:Class.method`` of every method in ``trees`` (file name -> parsed
    module) that has the name of a public module-level function."""
    functions = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    return [
        f"{name}:{node.name}.{item.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in functions
    ]


def test_no_public_function_shares_its_name_with_a_public_method():
    """The reachability rule matches by name, so a function and a method of
    one name each pass on the other's reads."""
    shadowed = _shadowed({path.name: _tree(path) for path in MODULES})
    assert not shadowed, f"public methods named as a public module-level function: {shadowed}"


def test_name_sharing_rule_flags_a_method_named_as_a_public_function():
    trees = {
        "a.py": ast.parse("def act(x, g):\n    return g.act(x)\ndef _helper():\n    pass\n"),
        "b.py": ast.parse(
            "class Perm:\n"
            "    def act(self, x):\n        pass\n"
            "    def _helper(self):\n        pass\n"
            "    def other(self):\n        pass\n"
        ),
    }
    assert _shadowed(trees) == ["b.py:Perm.act"]


def test_readme_code_names_take_spans_and_fences_but_not_prose_or_comments():
    text = (
        "Prose names plain_word and `cyl_product(a, b)`.\n"
        "```python\n"
        "g = petersen()  # comment_word\n"
        "```\n"
        "More prose, then `twist`.\n"
    )
    assert _readme_code_names(text) == {"cyl_product", "a", "b", "g", "petersen", "twist"}


# The functions that may read the graph kind, ``.symmetric`` not called
# (``PermGroup.symmetric(k)`` builds a group).  Anywhere else an edge has a
# twin exactly when it is in ``pairing``, so a branch on the kind is a second
# code path for one behaviour.
KIND_READERS = {
    # the kind itself, and the forms that compare, print or check it
    "core.py:Graph.__eq__", "core.py:Graph.__repr__", "core.py:Graph.to_json", "core.py:Graph.to_dot",
    "core.py:Graph.validate", "cylinder.py:CylinderSet.symmetric",
    # refusals of a graph of the wrong kind
    "core.py:Graph.add_sym_edge", "core.py:disjoint_union", "core.py:isomorphic", "hom.py:_require_comparable",
    "cylinder.py:CylinderSet.validate", "catalog.py:neps_cylinder", "catalog.py:rotation_labels",
    "catalog.py:join_cylinder",
    # outputs that take their input's kind; the exponential's twin emission
    # decides its output's kind, and ``Graph._linker`` picks how a builder
    # joins two vertices
    "core.py:Graph.copy", "core.py:Graph.induced", "core.py:Graph.with_labels", "core.py:identify_vertices",
    "core.py:merge_parallel", "core.py:Graph._linker", "construct.py:cyl_product", "construct.py:exponential",
    "construct.py:cylinders_from_surjection", "catalog.py:walk_power", "catalog.py:subdivision",
    "catalog.py:voltage_lift", "catalog.py:graph_minor",
    # the oracles the tests compare against
    "catalog.py:walk_power_direct", "catalog.py:voltage_lift_direct", "catalog.py:line_graph_direct",
}


def _owners(tree):
    """(qualname, node) of every module-level function or class and every
    method in ``tree``; ``<module>`` for a statement outside them.  A nested
    function belongs to the function it is defined in."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                yield (f"{node.name}.{item.name}" if method else node.name), item
        else:
            yield getattr(node, "name", "<module>"), node


def _kind_readers(trees: dict) -> set:
    """``file:qualname`` of every owner (see :func:`_owners`) in ``trees``
    (file name -> parsed module) that reads an attribute ``symmetric`` other
    than to call it."""
    found = set()
    for name, tree in trees.items():
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for qualname, node in _owners(tree):
            if any(isinstance(x, ast.Attribute) and x.attr == "symmetric" and isinstance(x.ctx, ast.Load)
                   and id(x) not in called for x in ast.walk(node)):
                found.add(f"{name}:{qualname}")
    return found


def test_only_the_listed_functions_read_the_graph_kind():
    readers = _kind_readers({path.name: _tree(path) for path in MODULES})
    new, stale = sorted(readers - KIND_READERS), sorted(KIND_READERS - readers)
    assert not new, f"these read the graph kind; ask the pairing whether an edge has a twin instead: {new}"
    assert not stale, f"listed as reading the graph kind, but no longer do: {stale}"


def test_kind_rule_flags_a_read_but_not_a_call_or_a_store():
    trees = {
        "a.py": ast.parse(
            "def fork(g):\n    return 2 if g.symmetric else 1\n"
            "def group(k):\n    return PermGroup.symmetric(k)\n"  # a call builds a group
            "class Graph:\n"
            "    def __init__(self, symmetric):\n        self.symmetric = symmetric\n"  # a store
            "    def twins(self):\n        def inner():\n            return self.symmetric\n        return inner()\n"
            "    def plain(self):\n        return self.pairing\n"
            "KIND = G.symmetric\n"
        ),
        "b.py": ast.parse("def oracle_direct(g):\n    return Graph(symmetric=g.symmetric)\n"),
    }
    assert _kind_readers(trees) == {"a.py:fork", "a.py:Graph.twins", "a.py:<module>", "b.py:oracle_direct"}


# The functions that may read or write a map's flat record, ``_picked``: the
# search that makes it, the lazy read that unpacks it, and the exponential's
# tables that keep and join records.  The record layout stays private to
# ``hom`` and ``construct``; the test oracles are not package code.
RECORD_USERS = {
    "hom.py:_homs", "hom.py:Homomorphism.__getattr__", "construct.py:_first_maps",
    "construct.py:_Witnesses.__getitem__",
}


def _record_users(trees: dict) -> set:
    """``file:qualname`` of every owner (see :func:`_owners`) in ``trees``
    that reads, writes or deletes an attribute ``_picked``."""
    return {
        f"{name}:{qualname}"
        for name, tree in trees.items()
        for qualname, node in _owners(tree)
        if any(isinstance(x, ast.Attribute) and x.attr == "_picked" for x in ast.walk(node))
    }


def test_only_the_listed_functions_touch_a_maps_record():
    users = _record_users({path.name: _tree(path) for path in MODULES})
    new, stale = sorted(users - RECORD_USERS), sorted(RECORD_USERS - users)
    assert not new, f"these touch a map's flat record; read its vmap and emap instead: {new}"
    assert not stale, f"listed as touching a map's flat record, but no longer do: {stale}"


def test_record_rule_flags_reads_and_writes_but_not_the_slot_name():
    trees = {
        "a.py": ast.parse(
            "class Hom:\n"
            "    __slots__ = ('_picked',)\n"  # naming the slot touches no record
            "    def read(self):\n        return self._picked[1]\n"
            "def make():\n    def inner(hom):\n        hom._picked = ()\n    return inner\n"
            "def other(hom):\n    return hom.vmap\n"
        ),
        "b.py": ast.parse("del HOM._picked\n"),
    }
    assert _record_users(trees) == {"a.py:Hom.read", "a.py:make", "b.py:<module>"}
