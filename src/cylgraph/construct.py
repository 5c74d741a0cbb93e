"""The two central constructions: gluing product and exponential.

The *gluing product* ``cyl_product(g, cset)`` blows every vertex of ``g`` up
into one slot per cylinder width, then replaces each edge by a copy of the
cylinder its label selects, with the label's two slot permutations deciding
which slot each boundary row vertex lands on.  Copies that land the same
boundary vertex on two slots identify them; same-label parallel edges arising
from the overlaps are collapsed.

The *exponential* ``exponential(cset, h)`` goes the other way: vertices are
orbit representatives of width-length tuples over ``V(h)`` under the slot
group, and an edge carries label ``(d-, key, d+)`` exactly when some labeled
homomorphism from that cylinder into ``h`` restricts on the marked rows to the
endpoint tuples shifted by ``d-`` and ``d+``.  Isolated representatives are
dropped at the end.

Both functions return trace objects that remember where every piece came
from; the duality maps in :mod:`cylgraph.duality` are built on those traces.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Mapping
from typing import NamedTuple

from .core import Edge, GammaLabel, Graph, _class_names, _union, label_sort_key, node_budget
from .cylinder import CylinderSet, _bare_rows, make_cylinder
from .errors import DomainError, LabelConflict, NotATwist, ResourceLimit
from .hom import (Homomorphism, _emap_keys, _first_record, _has_vertex_map, _Matcher, _project, _Search,
                  _src_edges, _tuple_getter, _vertex_order, iter_homs)
from .perm import Perm, PermGroup

MAX_PRODUCT_EDGES = 2_000_000
MAX_TUPLE_SPACE = 400_000
MAX_EXPO_VERTICES = 10_000

_name = json.JSONEncoder(separators=(",", ":"), default=str).encode  # one encoder for every vertex name


def uniform_labels(g: Graph, key, width: int = 1) -> Graph:
    """Copy of ``g`` with every edge labeled ``(id, key, id)`` at the given
    width.  This is how a plain graph enters the product or a homomorphism
    against a labeled one."""
    out = _uniform(g, key, width)
    out.validate()
    return out


def _uniform(g: Graph, key, width: int) -> Graph:
    """:func:`uniform_labels` unvalidated (one label object on every edge), for :func:`cyl_product` to check."""
    ident = Perm.identity(width)
    return g.with_labels(dict.fromkeys(g.edges, GammaLabel(ident, key, ident)))


class ProductTrace:
    """Result of :func:`cyl_product` plus provenance.

    slot       -- (source vertex, slot index 1..k) -> final vertex name
    copy       -- (source edge id, cylinder vertex) -> final vertex name
    edge_src   -- final edge id -> list of (source edge id, cylinder edge id)
    src_edge   -- (source edge id, cylinder edge id) -> final edge id

    The four maps are built together on first read, from the integer gluing
    record :func:`cyl_product` captured (later changes to the source graph do
    not reach them); the record is dropped once they exist.  A caller that
    keeps only ``graph`` never pays for them.  The same pass lays out what
    the duality maps read on every call, so :func:`~cylgraph.duality.section`
    and :func:`~cylgraph.duality.retraction` see the product as it was made:
    each source vertex's slot row (what :meth:`blowup` returns), the copies
    grouped by source edge, the output edges grouped by the source edge that
    named them, the canonical source edges with their ends and labels, and
    the identity twist.
    """

    __slots__ = ("graph", "source", "cset", "_record", "_maps")

    def __init__(self, graph, source, cset, record):
        self.graph = graph
        self.source = source
        self.cset = cset
        self._record = record
        self._maps = None

    def _built(self) -> tuple:
        if self._maps is None:
            self._maps = _provenance(*self._record)
            self._record = None
        return self._maps

    slot = property(lambda self: self._built()[0])
    copy = property(lambda self: self._built()[1])
    edge_src = property(lambda self: self._built()[2])
    src_edge = property(lambda self: self._built()[3])
    _layout = property(lambda self: self._built()[4])

    def blowup(self, v) -> tuple:
        """The slot names of source vertex ``v``, slot 1 first."""
        return self._layout.rows[v]

    def __repr__(self) -> str:
        return (
            f"ProductTrace({len(self.graph.vertices)} vertices, "
            f"{len(self.graph.edges)} edges from {len(self.source.edges)} source edges)"
        )


class _Layout(NamedTuple):
    """What the duality maps read of a product on every call, in the orders
    the product defines."""

    rows: dict  # source vertex -> its slot names, slot 1 first
    copies: list  # per source edge: (edge id, its cylinder's vertices, their copies' names)
    runs: dict  # source edge -> (the output edges it names, the cylinder edges they copy)
    lifts: list  # _lift_edges of the source edges
    ident: Perm  # the identity twist


def _provenance(verts, k, names, src_eids, keys, rows, nodes, shapes, gids, fids, width, ends, twins) -> tuple:
    """The four :class:`ProductTrace` maps from :func:`cyl_product`'s gluing
    record, in the insertion order the product defines: slots by source
    vertex then index, copies by source edge then cylinder vertex,
    ``edge_src`` by output edge, and ``src_edge`` by merge group, then
    source edge, then cylinder edge; then the :class:`_Layout`."""
    slot = dict(zip([(v, i) for v in verts for i in range(1, k + 1)], names))
    slot_rows = dict(zip(verts, zip(*[iter(names)] * k)))  # names opens with the slots, k per vertex
    copy: dict = {}
    copies: list = []
    members: list = [[] for _ in range(len(fids) // width)]
    pos = j = 0
    for eid, key in zip(src_eids, keys):
        xs = rows[key][1]
        made = tuple(map(names.__getitem__, nodes[pos : pos + len(xs)]))
        pos += len(xs)
        copies.append((eid, xs, made))
        copy.update(zip([(eid, x) for x in xs], made))
        for entry in shapes[key]:
            c = gids[j]
            j += 1
            members[c >> 1].append((eid, entry[0], c & 1))
    edge_src: dict = {fid: [] for fid in fids}
    src_edge: dict = {}
    runs: dict = {}
    for gid, group in enumerate(members):
        own = fids[gid * width : (gid + 1) * width]
        first = group[0][2]
        for eid, ids, o in group:
            for ce, fid in zip(ids, own if o == first else own[::-1]):
                src_edge[(eid, ce)] = fid
                edge_src[fid].append((eid, ce))
        named, copied = runs.setdefault(group[0][0], ([], []))  # the group's first copy names its edges
        for ce, fid in zip(group[0][1], own):
            named.append(fid)
            copied.append(ce)
    layout = _Layout(slot_rows, copies, runs, _lift_edges(src_eids, ends, twins), Perm.identity(k))
    return slot, copy, edge_src, src_edge, layout


def _lift_edges(eids, edges, twins) -> list:
    """Per edge id of ``eids``, with its :class:`Edge` and its twin id (None
    without one): the id and its twin, the edge's tail and head, and its
    label's ``pre``, ``key`` and ``post``."""
    return [((eid,) if tw is None else (eid, tw), e.tail, e.head, e.label.pre, e.label.key, e.label.post)
            for eid, e, tw in zip(eids, edges, twins)]


def _audit_product_labels(g: Graph, cset: CylinderSet) -> None:
    group = cset.group
    k = cset.width
    inside: set = set()  # the twists already found in the group
    first: dict = {}  # label id -> the first edge carrying it; a later one passes as that edge did
    for eid, e in g.edges.items():
        if first.setdefault(id(lab := e.label), eid) != eid:
            continue
        if not isinstance(lab, GammaLabel):
            raise LabelConflict(f"edge {eid!r} carries {lab!r}, not a slot-group label")
        if lab.key not in cset:
            raise DomainError(f"edge {eid!r} asks for cylinder {lab.key!r}, which the set lacks")
        if (d := lab.pre.degree) != k or (d := lab.post.degree) != k:
            raise DomainError(f"edge {eid!r} twists {d} slots, cylinders have {k}")
        for p in (lab.pre, lab.post):
            if p not in inside:
                if p not in group:
                    raise NotATwist(f"edge {eid!r} twists by a permutation outside the slot group")
                inside.add(p)


def _cylinder_rows(cyl) -> tuple:
    """A cylinder's edge count, its vertices, and per vertex (the vertex,
    its 0-based y row position, its z row position), None off a row."""
    ypos = {v: b for b, v in enumerate(cyl.y)}
    zpos = {v: b for b, v in enumerate(cyl.z)}
    verts = cyl.graph.vertices
    return len(cyl.graph.edges), verts, [(x, ypos.get(x), zpos.get(x)) for x in verts]


def _cylinder_shape(key, cg: Graph, row: tuple, labels: dict) -> list:
    """One entry per canonical edge of a cylinder graph, in ``str`` order of
    edge id: (``with_twin`` of the edge, its twin or None, tail and head
    positions in the vertices of ``row`` (its :func:`_cylinder_rows`), the
    ids ``labels`` interns the label and twin label under, the label, the
    twin label, alone).  Without a twin, the twin label is the label; labels
    that compare equal share an id.  An edge is *alone* when it meets an
    interior position, whose copies belong to one copy each, and no other
    edge meets the same interior positions under the same label ids: its
    copies can merge with nothing."""
    pos = {x: j for j, x in enumerate(row[1])}
    inner = {j for j, (_, yb, zb) in enumerate(row[2]) if yb is None and zb is None}
    shape = []
    for ce in sorted(cg.canonical_edges(), key=str):
        e = cg.edges[ce]
        ids = cg.with_twin(ce)
        twin_label = cg.edges[ids[-1]].label
        try:
            lid = labels.setdefault(e.label, len(labels))
            rlid = labels.setdefault(twin_label, len(labels))
        except TypeError:
            raise LabelConflict(f"cylinder {key!r} edge {ce!r} carries an unhashable label") from None
        shape.append((ids, cg.pairing.get(ce), pos[e.tail], pos[e.head], lid, rlid, e.label, twin_label))
    reach = [(frozenset({ti, hi} & inner), frozenset({lid, rlid})) for _, _, ti, hi, lid, rlid, _, _ in shape]
    shared = Counter(reach)
    return [(*entry, bool(r[0]) and shared[r] == 1) for entry, r in zip(shape, reach)]


_ID_CLASH = "duplicate edge id {!r}"


def cyl_product(g: Graph, cset: CylinderSet) -> ProductTrace:
    """Glue one cylinder copy onto every edge of ``g``.

    Boundary row vertex ``y_b`` of the copy on edge ``u -> v`` labeled
    ``(pre, key, post)`` lands on slot ``u#pre(b)``, and ``z_b`` on
    ``v#post(b)``.  Rows sharing a vertex weld the two slots together.

    The gluing runs over dense integer ids: slot ``(v, i)`` is
    ``rank(v)·k + i − 1``, ranks in ``g.vertices`` order, and interior copy
    vertices are numbered after the slots.  ``core``'s array union-find welds
    slots and names each class by its smallest member (``str`` order) once at
    the end.  Copies whose ends land on the same (tail, head, label) set
    merge into the first copy's edges, which name the output edges.
    """
    g.validate()
    if g.symmetric != cset.symmetric:
        raise DomainError("source graph and cylinders disagree about being symmetric")
    _audit_product_labels(g, cset)
    k = cset.width
    verts = g.vertices
    slot_names = [f"{v}#{i}" for v in verts for i in range(1, k + 1)]
    if len(set(slot_names)) != len(slot_names):
        raise DomainError("vertex names collide after slotting; rename the source vertices")
    n_slots = len(slot_names)
    base = {v: r * k - 1 for r, v in enumerate(verts)}  # slot id of (v, i) is base[v] + i

    src_eids = sorted(g.canonical_edges(), key=str)
    rows: dict = {}  # cylinder key -> _cylinder_rows
    keys: list = []  # cylinder key per source edge
    ends: list = []  # Edge per source edge
    nodes: list = []  # node id per copy vertex, source edge by source edge
    inner: dict = {}  # names of interior nodes n_slots, n_slots + 1, ...
    parent = None  # array union-find over slot ids, made at the first weld
    n_pre = 0
    for eid in src_eids:
        e = g.edges[eid]
        lab = e.label
        key = lab.key
        row = rows.get(key)
        if row is None:
            row = rows[key] = _cylinder_rows(cset[key])
        n_pre += row[0]
        if n_pre > MAX_PRODUCT_EDGES:
            raise ResourceLimit(f"product would exceed {MAX_PRODUCT_EDGES} edges before merging")
        keys.append(key)
        ends.append(e)
        bt, bh = base[e.tail], base[e.head]
        pre, post = lab.pre, lab.post
        for x, yb, zb in row[2]:
            if yb is not None:
                a = bt + pre[yb]
                if zb is not None:
                    if parent is None:
                        parent = list(range(n_slots))
                    _union(parent, a, bh + post[zb])
                nodes.append(a)
            elif zb is not None:
                nodes.append(bh + post[zb])
            else:
                name = f"{eid}@{x}"
                if name in inner:
                    raise DomainError(f"inner vertex name {name!r} collides; rename edges or cylinder vertices")
                nodes.append(n_slots + len(inner))
                inner[name] = None
    if not set(slot_names).isdisjoint(inner):
        raise DomainError("inner vertex names collide with slot names; rename the source vertices")

    if parent is not None:  # each slot takes its class's name
        root, slot_names = _class_names(parent, slot_names)
        nodes = [root[x] if x < n_slots else x for x in nodes]
    names = slot_names + list(inner)  # node id -> final vertex name

    out = Graph(symmetric=g.symmetric)
    out._vertices = dict.fromkeys(sorted(set(names)))
    edges, pairing, new = out.edges, out.pairing, tuple.__new__  # an Edge without NamedTuple's __new__

    # Each canonical cylinder edge travels with its twin when it has one.  An
    # end (tail node, head node, label id) is the integer
    # (tail * len(names) + head) * n_labels + label id, and a copy's group key
    # is its ends in sorted order.  A copy whose first end is not the group's
    # first end lies the other way round; ``gids`` keeps 2 * group + (first
    # end is the smaller).  No cylinder interns more labels than it has edges.
    # An edge alone in its cylinder (see _cylinder_shape) opens its own group
    # without a key.
    n_labels = 1 + sum(row[0] for row in rows.values())
    nl = len(names) * n_labels
    span = len(names) * nl
    labels: dict = {}  # label -> interned id, shared by every cylinder
    shapes: dict = {}  # cylinder key -> _cylinder_shape
    groups: dict = {}  # group key -> group number
    n_groups = 0
    gids: list = []  # per copy edge, source edge by source edge
    off = 0
    for eid, key in zip(src_eids, keys):
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _cylinder_shape(key, cset[key].graph, rows[key], labels)
        for ids, tw, ti, hi, lid, rlid, lab, rlab, alone in shape:
            a, b = nodes[off + ti], nodes[off + hi]
            if alone:
                gid, first = n_groups, True
            else:
                end = a * nl + b * n_labels + lid
                if tw is None:
                    gk, first = end, True
                else:
                    back = b * nl + a * n_labels + rlid
                    first = end <= back
                    gk = end * span + back if first else back * span + end
                gid = groups.setdefault(gk, n_groups)
            if gid == n_groups:
                n_groups += 1
                fid = f"{eid}@{ids[0]}"
                if fid in edges:
                    raise DomainError(_ID_CLASH.format(fid))
                edges[fid] = new(Edge, (names[a], names[b], lab))
                if tw is not None:
                    tid = f"{eid}@{tw}"
                    if tid in edges:
                        raise DomainError(_ID_CLASH.format(tid))
                    edges[tid] = new(Edge, (names[b], names[a], rlab))
                    pairing[fid], pairing[tid] = tid, fid
            gids.append(2 * gid + first)
        off += len(rows[key][1])

    record = (verts, k, names, src_eids, keys, rows, nodes, shapes, gids, list(edges), 2 if pairing else 1,
              ends, list(map(g.pairing.get, src_eids)))
    return ProductTrace(out, g, cset, record)


class _Witnesses(Mapping):
    """Read-only map, exponential edge id in edge order -> witness.  A read works the edge's pair out
    from the edge (a triple fixes its pair) and joins the pair's shares of the component tables into
    the witness, once per pair: a pair's edges share it."""

    __slots__ = ("_graph", "_tuple_of", "_tables", "_read", "_pairs")

    def __init__(self, graph, tuple_of, tables):
        self._graph, self._tuple_of, self._tables = graph, tuple_of, tables  # tables: key -> _first_maps
        self._read, self._pairs = {}, {}  # edge id -> witness, (cylinder key, p + q) -> witness

    def __getitem__(self, fid) -> Homomorphism:
        if fid not in self._read:
            tail, head, lab = self._graph.edges[fid]
            pair = (lab.key, lab.pre.act(self._tuple_of[tail]) + lab.post.act(self._tuple_of[head]))
            if pair not in self._pairs:
                layout, places, tables = self._tables[lab.key]
                hom = self._pairs[pair] = Homomorphism._owning()  # the graph's first map with the pair
                shares = (t[tuple(map(pair[1].__getitem__, at))] for at, t in zip(places, tables))
                hom._picked = (layout, sum(shares, ()))
            self._read[fid] = self._pairs[pair]
        return self._read[fid]

    def __iter__(self):
        return iter(self._graph.edges)

    def __len__(self) -> int:
        return len(self._graph.edges)


class ExpoTrace:
    """Result of :func:`exponential` plus everything the duality maps need.

    tuple_of       -- final vertex name -> representative tuple
    witnesses      -- read-only map, final edge id -> hom from that cylinder's
                      graph into target, built on first read from the
                      cylinder's per-component tables of first maps; a
                      projected component's record is found by a search
                      with its share fixed, on the first read that needs it
    edge_by_triple -- (tail name, head name, GammaLabel) -> final edge id,
                      built from ``graph``'s edges on first read
    names          -- representative tuple -> vertex name (every orbit of
                      V(target)^k, isolated ones included)

    One orbit table, filled once per orbit by :func:`exponential`, answers
    :meth:`rep` and :meth:`shift` for every tuple over the target's
    vertices: it maps a tuple ``t`` to its representative and to the slot
    permutations ``d``, in group order, with ``d.act(rep) == t``.

    For the duality maps the trace also keeps, each filled on first read and
    then frozen like ``edge_by_triple``: per row of target vertices looked
    up, its vertex name, shift and inverse shift (None when its orbit has no
    vertex in ``graph``); and, per edge, ``edge_by_triple``'s key as the
    plain tuple (tail, head, pre, key, post), mapped to the edge and its
    twin.
    """

    __slots__ = ("graph", "cset", "tuple_of", "witnesses", "_edge_by_triple", "names", "_reps", "_lifts",
                 "_by_ends")

    def __init__(self, graph, cset, tuple_of, tables, names, orbits):
        self.graph = graph
        self.cset = cset
        self.tuple_of = tuple_of
        self.witnesses = _Witnesses(graph, tuple_of, tables)
        self._edge_by_triple = None
        self.names = names
        self._reps = orbits
        self._lifts: dict = {}  # row -> (vertex name, shift, inverse shift), or None
        self._by_ends = None

    @property
    def edge_by_triple(self) -> dict:
        if self._edge_by_triple is None:
            found: dict = {}
            for fid, e in self.graph.edges.items():
                found.setdefault(tuple(e), fid)  # a self-reverse loop keeps its first edge
            self._edge_by_triple = found
        return self._edge_by_triple

    @property
    def _edge_by_ends(self) -> dict:
        """(tail, head, pre, key, post) -> ``with_twin`` of the edge ``edge_by_triple`` names."""
        if self._by_ends is None:
            graph, found = self.graph, {}
            for fid, (tail, head, lab) in graph.edges.items():
                ends = (tail, head, lab.pre, lab.key, lab.post)
                if ends not in found:  # a self-reverse loop keeps its first edge
                    found[ends] = graph.with_twin(fid)
            self._by_ends = found
        return self._by_ends

    def _lifted(self, row) -> tuple | None:
        """``row``'s entry in the memo of lifted rows, made on its first look-up by :meth:`rep`,
        ``names`` and ``graph.has_vertex``; an unhashable row is looked up afresh each time."""
        name = self.names.get(self.rep(row))
        hit = None
        if name is not None and self.graph.has_vertex(name):
            d = self.shift(row)
            hit = (name, d, d.inverse())
        try:
            self._lifts[row] = hit
        except TypeError:
            pass
        return hit

    def rep(self, t: tuple) -> tuple | None:
        """Canonical representative of the slot-group orbit of ``t``; None
        when ``t`` is not a width-long tuple over the target's vertices."""
        try:
            return self._reps[tuple(t)][0]
        except (KeyError, TypeError):  # not in the table, or not a tuple of vertex names
            return None

    def shift(self, t: tuple) -> Perm:
        """The first slot permutation, in group order, carrying ``rep(t)`` to ``t``."""
        try:
            return self._reps[tuple(t)][1][0]
        except (KeyError, TypeError):
            raise DomainError(f"{t!r} is not a width-{self.cset.width} tuple over the target's vertices") from None

    def __repr__(self) -> str:
        return f"ExpoTrace({len(self.graph.vertices)} vertices, {len(self.graph.edges)} edges)"


class _Projected(dict):
    """A projected component's table: share -> the record of the component's first map with that share,
    None until read.  The shares come from eliminating the component's other vertices; a read fills its
    record by one search with the share's vertices fixed, under its own budget.  The search is built on
    the first read, over the candidate tables the elimination built, and serves every later one."""

    __slots__ = ("_at", "_matcher", "_search")

    def __init__(self, graph: Graph, h: Graph, names: list, at: list):
        matcher = _Matcher(graph, h, "labeled", None)
        kept, counts = _project(matcher, set(names))
        super().__init__(dict.fromkeys(map(_tuple_getter([kept.index(v) for v in names]), counts)))
        self._at, self._matcher, self._search = at, matcher, None  # at: the search positions of names

    def __getitem__(self, share) -> tuple:
        record = super().__getitem__(share)
        if record is None:
            if self._search is None:
                self._search = _Search(self._matcher, {})
            record = self[share] = _first_record(self._search, dict(zip(self._at, share)))
        return record


def _first_maps(cyl, h: Graph):
    """The realized pairs of rows ``y + z`` factorised: one table per component, in the whole graph's
    search order, from its share of the rows (its ``places`` in ``y + z``) to the record of its first
    map with that share.  A component with a vertex off the rows is projected onto its share (a
    :class:`_Projected` table, records found on first read); one whose vertices all lie on the rows has
    its pairs as its maps (up to edge picks), so :func:`iter_homs` enumerates it and its table keeps the
    first record per share.  Returns (layout, places, tables), None when some component has no map."""
    g, ends = cyl.graph, (*cyl.y, *cyl.z)
    nbrs, runs, placed = g.neighbour_sets(), [], set()
    for v in _vertex_order(g, {}):  # one run per component, in the component's own search order
        if nbrs[v].isdisjoint(placed):  # see connected_order
            runs.append([])
        runs[-1].append(v)
        placed.add(v)
    parts = [set(run) for run in runs]
    graphs = [g.induced(part) for part in parts] if len(parts) > 1 else [g]
    # as in the whole graph's search, no edge pick is charged before every part has a vertex map
    if not all(_has_vertex_map(part, h) for part in graphs[:-1]):
        return None
    places = [[j for j, v in enumerate(ends) if v in part] for part in parts]
    srcs = [_src_edges(part) for part in graphs]
    tables: list = [None] * len(parts)
    on_rows = set(ends)
    for i in range(-1, len(parts) - 1):  # the last part first: the others have vertex maps
        names = [ends[j] for j in places[i]]
        at = [runs[i].index(v) for v in names]  # a name's place in the search order
        if not parts[i] <= on_rows:
            first = _Projected(graphs[i], h, names, at)
        else:
            first, read = {}, _tuple_getter([len(srcs[i]) + a for a in at])  # a record: picks, then images
            for hom in iter_homs(graphs[i], h, mode="labeled"):
                record = hom._picked[1]
                share = read(record)
                if share not in first:
                    first[share] = record
        if not first:
            return None
        tables[i] = first
    labels = [x for src, run in zip(srcs, runs) for x in [(0, e) for e in src] + [(1, v) for v in run]]
    at, src, names = {label: j for j, label in enumerate(labels)}, _src_edges(g), [v for c, v in labels if c]
    layout = (*_emap_keys(g, h, src), [at[0, e] for e in src], names, [at[1, v] for v in names])
    return layout, places, tables


def exponential(cset: CylinderSet, h: Graph) -> ExpoTrace:
    """Build the exponential of ``h`` by the cylinder set.

    Vertices: one representative per orbit of ``V(h)^k`` under the slot group,
    the smallest in ``str``-lexicographic order.  Edges: ``(R1, R2)`` gets
    label ``(d-, key, d+)`` when some labeled homomorphism ``s`` from that
    cylinder's graph into ``h`` satisfies ``s(y_b) = R1[d-(b)]`` and
    ``s(z_b) = R2[d+(b)]`` for every slot ``b``.  Vertices left isolated are
    dropped.

    The witness of an edge is the first hom, in ``iter_homs`` order over that
    cylinder's graph, whose boundary rows are the edge's pair ``(p, q)``;
    :func:`~cylgraph.duality.section` fills cylinder interiors from it.  A
    triple fixes ``p = R1 . d-`` and ``q = R2 . d+``, so every triple of a
    pair is realized by the pair's first hom.  Triples are built once per
    realized pair.

    A cylinder graph's homs are the product of its components' (Lovász
    1967), in ``iter_homs`` order the lexicographic one, and the realized
    pairs are the product of the components' shares of the rows, a
    factorised representation (Olteanu & Závodný 2015).  Only the realized
    shares matter, so a component with a vertex off the rows is projected
    onto them by bucket elimination (Dechter 1999), its other vertices summed
    out of the per-edge tables that :func:`~cylgraph.hom.count_homs` uses; a
    component whose vertices all lie on the rows has its maps as its shares,
    up to edge images, and is enumerated.  Each projection or search runs
    under its own ``CYL_NODE_BUDGET`` nodes.  The trace keeps the tables and
    builds a witness from them on its first read; a projected component finds
    its part of the witness then, by its own search.  A bad
    ``CYL_NODE_BUDGET`` raises :class:`DomainError` before any orbit work.
    """
    node_budget()
    if h.symmetric != cset.symmetric:
        raise DomainError("target graph and cylinders disagree about being symmetric")
    h.validate()
    group = cset.group
    k = cset.width

    verts = sorted(h.vertices, key=str)
    if verts and len(verts) ** k > MAX_TUPLE_SPACE:
        raise ResourceLimit(f"tuple space {len(verts)}^{k} exceeds {MAX_TUPLE_SPACE}")

    orbits: dict = {}
    names: dict = {}  # representative -> vertex name, in first-seen order
    coded: list = []  # per tuple, in ``itertools.product`` order (its code): its orbit table entry
    acts = [(d, _tuple_getter([j - 1 for j in d])) for d in group]  # ``d.act``, checks left out
    for t in itertools.product(verts, repeat=k):
        if t not in orbits:
            # ties under ``str`` (names 1 and "1") go to the first in group order
            r = min((act(t) for _, act in acts), key=lambda x: tuple(map(str, x))) if len(acts) > 1 else t
            for d, act in acts:
                orbits.setdefault(act(r), (r, []))[1].append(d)
            names[r] = _name(r)
            if len(names) > MAX_EXPO_VERTICES:
                raise ResourceLimit(f"more than {MAX_EXPO_VERTICES} orbit representatives, the exponential's vertex cap")
        coded.append(orbits[t])

    # triple (tail, head, label) -> the integer (tail rank * N + head rank) * L + label rank: names are
    # ranked by ``str`` and labels by sort key, ties sharing a rank; the first label seen keeps the triple
    by_name = sorted(set(names.values()))
    N, rank = len(by_name), {name: n for n, name in enumerate(by_name)}
    rank = {r: rank[name] for r, name in names.items()}
    index = {d: i for i, d in enumerate(group)}
    ranks = [rank[r] for r, _ in coded]  # per row code: its representative's rank
    shifts: dict = {}  # each distinct tuple of shifts' indices, made once for the rows to share
    coded = [shifts.setdefault(ix, ix) for ix in (tuple(map(index.__getitem__, ds)) for _, ds in coded)]
    keys = sorted(cset.keys(), key=str)
    made = {(key, a, b): GammaLabel(a, key, b) for key in keys for a in group for b in group}
    sort_key = {lk: label_sort_key(lab) for lk, lab in made.items()}
    lrank = {sk: n for n, sk in enumerate(sorted(set(sort_key.values())))}
    L = len(lrank)
    # a row's code is its index in ``itertools.product(verts, repeat=k)``, a pair's y's code * n^k + z's
    at, nk = {v: i for i, v in enumerate(verts)}, len(verts) ** k
    weight = [len(verts) ** (2 * k - 1 - j) for j in range(2 * k)]  # per place j in y + z: its value's
    triples: dict = {}  # triple -> (label, its reversed label's rank)
    tables: dict = {}  # cylinder key -> its _first_maps
    for key in keys:
        maps = tables[key] = _first_maps(cset[key], h)
        if maps is None:
            continue
        # per (d-, d+) by index in the group: (the label's rank, (the label, its reversed label's rank))
        labs = [[(lrank[sort_key[key, a, b]], (made[key, a, b], lrank[sort_key[key, b, a]])) for b in group]
                for a in group]
        # each share's part of the pair code, once; the pairs are the sums over the product of the shares,
        # in its order: all but the last component's folded into a list, the last's run through
        parts = [[sum(at[v] * weight[j] for j, v in zip(places, share)) for share in table]
                 for places, table in zip(maps[1], maps[2])]
        *init, last = parts or [[0]]
        sums = [0]
        for part in init:
            sums = [c + p for c in sums for p in part]
        for c0 in sums:
            for c in last:
                y, z = divmod(c0 + c, nk)
                base, dp = (ranks[y] * N + ranks[z]) * L, coded[z]
                for a in coded[y]:
                    row = labs[a]
                    for b in dp:
                        lr, val = row[b]
                        triples.setdefault(base + lr, val)

    # edge x<n> per triple in order, and when symmetric its twin x<n>t carrying the reverse
    symmetric = h.symmetric
    g = Graph(symmetric=symmetric)
    edges, pairing, new = g.edges, g.pairing, tuple.__new__
    ends: set = set()  # ranks of the names edges meet
    ids = itertools.count()
    for tk in sorted(triples):
        lab, rl = triples[tk]
        t, hd = divmod(tk // L, N)
        if symmetric:
            rk = (hd * N + t) * L + rl
            if rk not in triples:
                raise LabelConflict(
                    "exponential edge set is not reversal-closed; the cylinders are not genuinely symmetric"
                )
            if rk < tk:
                continue
        fid = f"x{next(ids)}"
        ends.update((t, hd))
        edges[fid] = new(Edge, (by_name[t], by_name[hd], lab))
        if symmetric:
            tid = fid + "t"
            edges[tid] = new(Edge, (by_name[hd], by_name[t], triples[rk][0]))
            pairing[fid], pairing[tid] = tid, fid

    tuple_of = {name: r for r, name in names.items() if rank[r] in ends}
    g._vertices = dict.fromkeys(tuple_of)
    return ExpoTrace(g, cset, tuple_of, tables, names, orbits)


def cylinders_from_surjection(g: Graph, h: Graph, vmap: dict) -> tuple[Graph, CylinderSet]:
    """Encode a vertex-surjective homomorphism ``vmap: g -> h`` as cylinders.

    Each edge of ``h`` receives its own empty-based cylinder whose rungs are
    the ``g``-edges between the two fibers; ``h`` comes back labeled so that
    its product with the set rebuilds ``g`` (up to the padding slots, which
    stay isolated: strip them afterwards).  Parallel ``g``-edges between the
    same pair of vertices would collapse; feed simple graphs.
    """
    if g.symmetric != h.symmetric:
        raise DomainError("graphs disagree about being symmetric")
    g.validate()
    h.validate()
    for v in g.vertices:
        if vmap.get(v) is None or not h.has_vertex(vmap[v]):
            raise DomainError(f"vertex {v!r} is not mapped into the target")

    fibers: dict = {w: [] for w in h.vertices}
    for v in sorted(g.vertices, key=str):
        fibers[vmap[v]].append(v)
    empty = [w for w, fb in fibers.items() if not fb]
    if empty:
        raise DomainError(f"map is not vertex-surjective; nothing lands on {empty[0]!r}")
    k = max(len(fb) for fb in fibers.values())
    pos = {v: i for fb in fibers.values() for i, v in enumerate(fb, start=1)}

    def h_edge_between(a, b):
        cands = [eid for eid in h.out_edges(a) if h.edges[eid].head == b]
        if not cands:
            return None
        return min(cands, key=str)

    canon = sorted(h.canonical_edges(), key=str)
    rungs: dict = {eid: [] for eid in canon}
    for geid in sorted(g.canonical_edges(), key=str):
        e = g.edges[geid]
        a, b = vmap[e.tail], vmap[e.head]
        target = h_edge_between(a, b)
        if target is not None and target not in rungs:
            target = h.pairing.get(target)
        if target is None or target not in rungs:
            raise DomainError(f"edge {geid!r} does not sit over any target edge")
        te = h.edges[target]
        if (a, b) == (te.tail, te.head):
            rungs[target].append((pos[e.tail], pos[e.head]))
        else:
            rungs[target].append((pos[e.head], pos[e.tail]))

    cyls = {}
    for eid in canon:
        cg, ys, zs = _bare_rows(k, g.symmetric)
        link = cg._linker()
        for (i, j) in sorted(set(rungs[eid])):
            link(ys[i - 1], zs[j - 1])
        cyls[eid] = make_cylinder(cg, ys, zs)

    ident = Perm.identity(k)
    labeled = h.with_labels({eid: GammaLabel(ident, eid, ident) for eid in canon})
    return labeled, CylinderSet(PermGroup.trivial(k), cyls)
