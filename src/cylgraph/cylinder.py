"""Cylinders: a graph with two marked rows of boundary vertices.

A width-k cylinder marks a row ``y = (y_1..y_k)`` and a row ``z = (z_1..z_k)``
in a graph so that the slotwise map ``y_i -> z_i`` is an isomorphism between
the subgraphs the rows induce (the two *bases*).  Rows may overlap: the
partial injection ``eps = {(i, j) : y_i is z_j}`` is read off from vertex
identity, never stored separately.

A :class:`CylinderSet` bundles keyed cylinders of one width with a permutation
group acting on the slots; every group element must be an automorphism of the
common base.  These sets parameterise the gluing product and the exponential.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from .core import Graph, _weld, disjoint_union, identify_vertices, merge_parallel
from .errors import JSON_SCALAR, DomainError, EpsilonError, NotACylinder, NotATwist, count_checked, json_checked
from .perm import Perm, PermGroup, _perm_checked


def _row_signature(g: Graph, row) -> Counter:
    """The multiset of ``(slot i, slot j, label)`` over the edges ``row[i] -> row[j]``:
    two rows induce slotwise isomorphic bases iff their signatures are equal."""
    slot = {v: i for i, v in enumerate(row)}
    out = (g.edges[eid] for v in row for eid in g.out_edges(v))
    return Counter((slot[e.tail], slot[e.head], e.label) for e in out if e.head in slot)


class Cylinder:
    __slots__ = ("graph", "y", "z")

    def __init__(self, graph: Graph, y, z):
        self.graph = graph
        self.y = tuple(y)
        self.z = tuple(z)

    @property
    def width(self) -> int:
        return len(self.y)

    def eps(self) -> dict[int, int]:
        """Row overlap as 1-based slot pairs: eps[i] = j iff y_i is z_j."""
        pos = {v: j for j, v in enumerate(self.z, start=1)}
        return {i: pos[v] for i, v in enumerate(self.y, start=1) if v in pos}

    def validate(self) -> None:
        self.graph.validate()
        if len(self.y) != len(self.z):
            raise NotACylinder(f"row lengths differ: {len(self.y)} vs {len(self.z)}")
        if not self.y:
            raise NotACylinder("cylinder width must be at least 1")
        for row, name in ((self.y, "y"), (self.z, "z")):
            for v in row:
                if not self.graph.has_vertex(v):
                    raise DomainError(f"{name}-row vertex {v!r} not in graph")
            if len(set(row)) != len(row):
                raise EpsilonError(f"{name}-row has repeated vertices: {row!r}")
        if _row_signature(self.graph, self.y) != _row_signature(self.graph, self.z):
            raise NotACylinder("slotwise map between the rows is not an isomorphism of the bases")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cylinder)
            and self.graph == other.graph
            and self.y == other.y
            and self.z == other.z
        )

    def __repr__(self) -> str:
        return f"Cylinder(width={self.width}, {len(self.graph.vertices)} vertices, {len(self.graph.edges)} edges)"

    def to_json(self) -> dict:
        return {"graph": self.graph.to_json(), "y": list(self.y), "z": list(self.z)}

    @classmethod
    def from_json(cls, data: dict) -> Cylinder:
        json_checked(data, dict, "cylinder")
        rows = [json_checked(data.get(row), list, f"cylinder {row!r}") for row in ("y", "z")]
        for v in rows[0] + rows[1]:
            json_checked(v, JSON_SCALAR, "row vertex")
        return make_cylinder(Graph.from_json(data.get("graph")), *rows)


def make_cylinder(graph: Graph, y, z) -> Cylinder:
    """Validated constructor, the only one: every cylinder is built here."""
    cyl = Cylinder(graph, y, z)
    cyl.validate()
    return cyl


def base_automorphism(cyl: Cylinder, g: Perm, row: str = "y") -> bool:
    """Does slot permutation ``g`` preserve the base induced by the given row?"""
    vs = cyl.y if row == "y" else cyl.z
    if g.degree != len(vs):
        return False
    return _row_signature(cyl.graph, vs) == _row_signature(cyl.graph, g.act(vs))


def twist(cyl: Cylinder, g: Perm, l: Perm) -> Cylinder:
    """Re-mark the rows: the new slot i holds the old y_{g^-1(i)} / z_{l^-1(i)}.
    Both permutations must preserve their base."""
    if not base_automorphism(cyl, _perm_checked(g, "g="), "y"):
        raise NotATwist(f"{g!r} is not an automorphism of the y-base")
    if not base_automorphism(cyl, _perm_checked(l, "l="), "z"):
        raise NotATwist(f"{l!r} is not an automorphism of the z-base")
    return make_cylinder(cyl.graph, g.inverse().act(cyl.y), l.inverse().act(cyl.z))


def cyl_sum(a: Cylinder, b: Cylinder) -> Cylinder:
    """Glue two cylinders slotwise along both rows.  Same-label parallel edges
    arising from the identification are collapsed."""
    if a.width != b.width:
        raise DomainError(f"cannot sum cylinders of widths {a.width} and {b.width}")
    u = disjoint_union(a.graph, b.graph, (".a", ".b"))
    cmap = _weld(list(u.vertices), [(f"{v}.a", f"{w}.b") for v, w in zip(a.y + a.z, b.y + b.z)])
    g = merge_parallel(identify_vertices(u, cmap))
    y, z = ([cmap[f"{v}.a"] for v in row] for row in (a.y, a.z))
    return make_cylinder(g, y, z)


def cyl_disjoint(a: Cylinder, b: Cylinder) -> Cylinder:
    """Side-by-side juxtaposition; the width is the sum of the widths."""
    g = disjoint_union(a.graph, b.graph, (".a", ".b"))
    y = tuple(f"{v}.a" for v in a.y) + tuple(f"{v}.b" for v in b.y)
    z = tuple(f"{v}.a" for v in a.z) + tuple(f"{v}.b" for v in b.z)
    return make_cylinder(g, y, z)


def generalized_loop(cyl: Cylinder, g: Perm, l: Perm) -> Cylinder:
    """Close a cylinder onto itself through slot permutations: slot vertex
    s_{g(b)} absorbs y_b and s_{l(b)} absorbs z_b.  The result is marked with
    both rows equal to the slot row.  Fails if the row overlap forces two
    slots together."""
    k = cyl.width
    if _perm_checked(g, "g=").degree != k or _perm_checked(l, "l=").degree != k:
        raise DomainError("slot permutations must match the cylinder width")
    prefix = "s"
    names = set(map(str, cyl.graph.vertices))
    while any(f"{prefix}{i}" in names for i in range(1, k + 1)):
        prefix += "_"
    slots = [f"{prefix}{i}" for i in range(1, k + 1)]

    cmap = _weld([*cyl.graph.vertices, *slots], [*zip(g.act(slots), cyl.y), *zip(l.act(slots), cyl.z)])
    slot_of_class = {cmap[s]: s for s in slots}
    if len(slot_of_class) != k:
        raise EpsilonError("row overlap merges two slots; the closure is not a cylinder")

    # rename each class to its slot vertex where one is present
    final = {v: slot_of_class.get(rep, rep) for v, rep in cmap.items()}
    return make_cylinder(merge_parallel(identify_vertices(cyl.graph, final)), slots, slots)


class CylinderSet:
    """Keyed cylinders of one width plus a slot group.

    Every cylinder's rows must induce one common base (slotwise), and every
    group element must be an automorphism of it.  Only the group's
    generators are tested, or every element when it has none.
    """

    __slots__ = ("group", "cyls")

    def __init__(self, group: PermGroup, cyls: Mapping):
        self.group = group
        self.cyls: dict = dict(cyls)
        self.validate()

    @property
    def width(self) -> int:
        return self.group.degree

    def keys(self):
        return self.cyls.keys()

    def __getitem__(self, key) -> Cylinder:
        if key not in self.cyls:
            raise DomainError(f"no cylinder with key {key!r}")
        return self.cyls[key]

    def __contains__(self, key) -> bool:
        return key in self.cyls

    def validate(self) -> None:
        if not self.cyls:
            raise NotACylinder("cylinder set is empty")
        first = base = None
        for key, cyl in self.cyls.items():
            cyl.validate()
            if cyl.width != self.group.degree:
                raise NotACylinder(
                    f"cylinder {key!r} has width {cyl.width}, group acts on {self.group.degree} slots"
                )
            if first is None:
                first, base = cyl, _row_signature(cyl.graph, cyl.y)
            else:
                if cyl.graph.symmetric != first.graph.symmetric:
                    raise NotACylinder("cylinders mix symmetric and directed graphs")
                if _row_signature(cyl.graph, cyl.y) != base:
                    raise NotACylinder(f"cylinder {key!r} does not share the common base")
        def fixes_base(g) -> bool:
            return _row_signature(first.graph, g.act(first.y)) == base

        # the base automorphisms form a group, so passing generators pass
        # their whole closure; a failure names the first element that fails
        if not all(map(fixes_base, self.group.generators or self.group)):
            for g in self.group:
                if not fixes_base(g):
                    raise NotATwist(f"group element {g!r} is not an automorphism of the base")

    @property
    def symmetric(self) -> bool:
        return next(iter(self.cyls.values())).graph.symmetric

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "cylinders": [
                {"key": key, "cyl": cyl.to_json()}
                for key, cyl in sorted(self.cyls.items(), key=lambda kv: str(kv[0]))
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> CylinderSet:
        group = PermGroup.from_json(json_checked(data, dict, "cylinder set").get("group"))
        cyls = {}
        for i, rec in enumerate(json_checked(data.get("cylinders"), list, "'cylinders'")):
            if not isinstance(rec, dict) or "key" not in rec or "cyl" not in rec:
                raise DomainError(f"cylinder record #{i} needs 'key' and 'cyl'")
            key = json_checked(rec["key"], JSON_SCALAR, f"cylinder record #{i} 'key'")
            if key in cyls:  # 1, 1.0 and true are one key
                raise DomainError(f"cylinder record #{i} repeats the key {key!r} of an earlier record")
            cyls[key] = Cylinder.from_json(rec["cyl"])
        return cls(group, cyls)


# -- builtin shapes -----------------------------------------------------------


def _bare_rows(k: int, symmetric: bool = True) -> tuple[Graph, list, list]:
    """An edgeless graph on ``y1..yk`` then ``z1..zk`` (hom search reads that
    order), with the two rows."""
    ys = [f"y{i}" for i in range(1, k + 1)]
    zs = [f"z{i}" for i in range(1, k + 1)]
    g = Graph(symmetric=symmetric)
    g.add_vertices(ys + zs)
    return g, ys, zs


def identity_cyl(k: int, directed: bool = False) -> Cylinder:
    """Width-k matching: two disjoint empty rows joined by the rung y_i - z_i
    in each slot.  Gluing it reproduces the edge (slot by slot), so it is the
    unit of the gluing product; with a nontrivial slot group it builds lifts."""
    g, ys, zs = _bare_rows(count_checked(k, "k="), not directed)
    link = g._linker()
    for y, z in zip(ys, zs):
        link(y, z)
    return make_cylinder(g, ys, zs)


def path_cyl(n: int, labels=None, directed: bool = False) -> Cylinder:
    """Width-1 path with n edges from the y end to the z end (n = 0 collapses
    the rows onto one vertex, which makes gluing contract the edge)."""
    count_checked(n, "path length")
    if labels is not None and len(labels) != n:
        raise DomainError(f"need {n} labels, got {len(labels)}")
    g = Graph(symmetric=not directed)
    vs = [f"w{i}" for i in range(n + 1)]
    g.add_vertices(vs)
    link = g._linker()
    for i in range(n):
        link(vs[i], vs[i + 1], None if labels is None else labels[i])
    return make_cylinder(g, [vs[0]], [vs[-1]])


def contraction_cyl(directed: bool = False) -> Cylinder:
    """Width-1, one vertex on both rows: gluing it contracts the edge."""
    return path_cyl(0, directed=directed)


def deletion_cyl(directed: bool = False) -> Cylinder:
    """Width-1, two isolated marked vertices: gluing it erases the edge."""
    return make_cylinder(*_bare_rows(1, not directed))


def sqcap_cyl() -> Cylinder:
    """Width-2: an edge on each row plus one rung y1-z1."""
    g, ys, zs = _bare_rows(2)
    g.add_sym_edge("y1", "y2")
    g.add_sym_edge("z1", "z2")
    g.add_sym_edge("y1", "z1")
    return make_cylinder(g, ys, zs)


def wedge_cyl() -> Cylinder:
    """Width-2: the rows share their first vertex, with one edge hanging off
    it on each side."""
    g = Graph(symmetric=True)
    g.add_vertices(["c", "y2", "z2"])
    g.add_sym_edge("c", "y2")
    g.add_sym_edge("c", "z2")
    return make_cylinder(g, ["c", "y2"], ["c", "z2"])


def square_cyl() -> Cylinder:
    """Width-2 four-cycle: an edge on each row and both rungs."""
    g, ys, zs = _bare_rows(2)
    g.add_sym_edge("y1", "y2")
    g.add_sym_edge("z1", "z2")
    g.add_sym_edge("y1", "z1")
    g.add_sym_edge("y2", "z2")
    return make_cylinder(g, ys, zs)
