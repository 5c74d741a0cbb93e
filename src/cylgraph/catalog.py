"""Named graphs and constructions assembled from products and exponentials.

Everything here is a thin recipe over :func:`~cylgraph.construct.cyl_product`
and :func:`~cylgraph.construct.exponential` — the point of the catalog is
that familiar constructions (graph powers, subdivisions, the standard
two-factor products, permutation-voltage lifts, replacement and zig-zag
products, line graphs, cones, minors) all arise from one gluing mechanism
with the right cylinder in hand.  Each recipe that has a classical direct
description also ships it (``*_direct``) so the two routes can be compared
on concrete graphs.  Products of unlabeled cylinders are returned as glued.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .construct import _uniform, cyl_product, exponential
from .core import Edge, GammaLabel, Graph, merge_parallel
from .cylinder import (
    Cylinder,
    CylinderSet,
    _bare_rows,
    contraction_cyl,
    deletion_cyl,
    identity_cyl,
    make_cylinder,
    path_cyl,
    sqcap_cyl,
    wedge_cyl,
)
from .errors import DomainError, count_checked
from .hom import iter_homs
from .perm import Perm, PermGroup, _perm_checked

# -- plain builders --------------------------------------------------------


def empty_graph(n: int) -> Graph:
    g = Graph(symmetric=True)
    g.add_vertices(range(count_checked(n, "n=")))
    return g


def complete_graph(n: int) -> Graph:
    g = empty_graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_sym_edge(i, j)
    return g


def cycle_graph(n: int) -> Graph:
    if count_checked(n, "n=") < 3:
        raise DomainError("cycles need at least 3 vertices")
    g = empty_graph(n)
    for i in range(n):
        g.add_sym_edge(i, (i + 1) % n)
    return g


def path_graph(n: int) -> Graph:
    """Path with n edges on vertices 0..n."""
    g = empty_graph(count_checked(n, "n=") + 1)
    for i in range(n):
        g.add_sym_edge(i, i + 1)
    return g


def kneser_graph(n: int, k: int) -> Graph:
    n, k = count_checked(n, "n="), count_checked(k, "k=")
    g = Graph(symmetric=True)
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    names = {s: "".join(map(str, sorted(s))) for s in subsets}
    g.add_vertices(sorted(names.values()))
    for a, b in combinations(subsets, 2):
        if not a & b:
            g.add_sym_edge(names[a], names[b])
    return g


# -- the Petersen graph as a twisted double cover of K5 --------------------


def pentagon_pentagram() -> Graph:
    """K5 with its edges split into the 5-cycle (untwisted) and the
    5-cycle of chords (twisted by the swap)."""
    ident, swap = Perm.identity(2), Perm((2, 1))
    g = Graph(symmetric=True)
    g.add_vertices(range(5))
    for i in range(5):
        g.add_sym_edge(i, (i + 1) % 5, GammaLabel(ident, 1, ident))
        g.add_sym_edge(i, (i + 2) % 5, GammaLabel(swap, 1, swap))
    return g


def petersen() -> Graph:
    cs = CylinderSet(PermGroup.symmetric(2), {1: sqcap_cyl()})
    return cyl_product(pentagon_pentagram(), cs).graph


# -- walk powers and subdivisions ------------------------------------------


def _power(h: Graph, key, cyl: Cylinder, group: PermGroup | None = None) -> Graph:
    """The exponential of ``h`` by ``cyl`` alone (trivial slot group by default), its graph
    unlabeled in place: the graph is new and the trace dropped, so no copy is needed."""
    g = exponential(CylinderSet(group or PermGroup.trivial(cyl.width), {key: cyl}), h).graph
    g.edges = {eid: tuple.__new__(Edge, (tail, head, None)) for eid, (tail, head, _) in g.edges.items()}
    return g


def walk_power(g: Graph, n: int) -> Graph:
    """Vertices of ``g``, with an edge wherever a walk of length n runs.
    Vertices on no walk of length n drop out."""
    return _power(g, 1, path_cyl(n, directed=not g.symmetric))


def walk_power_direct(g: Graph, n: int) -> Graph:
    """The same graph read off the boolean n-th power of the adjacency
    matrix (isolated rows and columns dropped to match)."""
    count_checked(n, "path length")
    vs = sorted(g.vertices, key=str)
    pos = {v: i for i, v in enumerate(vs)}
    m = len(vs)
    adj = [[False] * m for _ in range(m)]
    for e in g.edges.values():
        adj[pos[e.tail]][pos[e.head]] = True
    power = [[i == j for j in range(m)] for i in range(m)]
    for _ in range(n):
        nxt = [[False] * m for _ in range(m)]
        for i in range(m):
            row = power[i]
            out = nxt[i]
            for t in range(m):
                if row[t]:
                    arow = adj[t]
                    for j in range(m):
                        if arow[j]:
                            out[j] = True
        power = nxt
    out = Graph(symmetric=g.symmetric)
    out.add_vertices(vs)
    for i in range(m):
        for j in range(i if g.symmetric else 0, m):
            if g.symmetric:
                if power[i][j]:
                    out.add_sym_edge(vs[i], vs[j])
            elif power[i][j]:
                out.add_edge(vs[i], vs[j])
    return out.reduced()


def subdivision(g: Graph, n: int) -> Graph:
    """Every edge replaced by a path of n edges."""
    cyl = path_cyl(n, directed=not g.symmetric)  # first: it checks that n is an int
    if n < 1:
        raise DomainError("subdivision needs n >= 1")
    cs = CylinderSet(PermGroup.trivial(1), {1: cyl})
    return cyl_product(_uniform(g, key=1, width=1), cs).graph


def fractional_power(g: Graph, m: int, n: int) -> Graph:
    """Length-m walks on the n-fold subdivision."""
    return walk_power(subdivision(g, n), m)


# -- the standard two-factor products as cylinders --------------------------

NEPS_KINDS = ("cartesian", "tensor", "strong", "lexicographic")


def neps_cylinder(g: Graph, kind: str) -> Cylinder:
    """A cylinder over the vertex set of ``g`` whose product with any graph
    is the chosen standard product with ``g``.

    Rows carry copies of ``g`` except in the tensor case; the rungs encode
    which combinations of a step and a stay are adjacent.
    """
    if kind not in NEPS_KINDS:
        raise DomainError(f"unknown product kind {kind!r}; pick one of {NEPS_KINDS}")
    if not g.symmetric:
        raise DomainError("product cylinders are built from a symmetric factor")
    for e in g.edges.values():
        if e.tail == e.head:
            raise DomainError("product cylinders need a loop-free factor")
    vs = sorted(g.vertices, key=str)
    pos = {v: i + 1 for i, v in enumerate(vs)}
    k = len(vs)
    cyl, ys, zs = _bare_rows(k)
    if kind != "tensor":
        for eid in g.canonical_edges():
            e = g.edges[eid]
            a, b = pos[e.tail], pos[e.head]
            cyl.add_sym_edge(f"y{a}", f"y{b}")
            cyl.add_sym_edge(f"z{a}", f"z{b}")
    if kind in ("cartesian", "strong"):
        for i in range(1, k + 1):
            cyl.add_sym_edge(f"y{i}", f"z{i}")
    if kind in ("tensor", "strong"):
        for e in g.edges.values():  # both directions: rungs cross both ways
            cyl.add_sym_edge(f"y{pos[e.tail]}", f"z{pos[e.head]}")
    if kind == "lexicographic":
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                cyl.add_sym_edge(f"y{i}", f"z{j}")
    return make_cylinder(cyl, ys, zs)


def neps_product(h: Graph, g: Graph, kind: str) -> Graph:
    """The chosen standard product of ``h`` with ``g``, built by gluing.
    Isolated vertices of ``h`` contribute bare slot rows (no copy of ``g``)."""
    cyl = neps_cylinder(g, kind)
    cs = CylinderSet(PermGroup.trivial(cyl.width), {kind: cyl})
    return cyl_product(_uniform(h, key=kind, width=cyl.width), cs).graph


def neps_direct(h: Graph, g: Graph, kind: str) -> Graph:
    """Textbook definition of the same product, on pair vertices."""
    if kind not in NEPS_KINDS:
        raise DomainError(f"unknown product kind {kind!r}; pick one of {NEPS_KINDS}")
    hv = sorted(h.vertices, key=str)
    gv = sorted(g.vertices, key=str)
    hadj = {(e.tail, e.head) for e in h.edges.values()}
    gadj = {(e.tail, e.head) for e in g.edges.values()}
    out = Graph(symmetric=True)
    pairs = [(u, a) for u in hv for a in gv]
    out.add_vertices(pairs)
    for (u, a), (v, b) in combinations(pairs, 2):
        hstep = (u, v) in hadj
        hstay = u == v
        gstep = (a, b) in gadj
        gstay = a == b
        if kind == "cartesian":
            ok = (hstep and gstay) or (hstay and gstep)
        elif kind == "tensor":
            ok = hstep and gstep
        elif kind == "strong":
            ok = (hstep and gstay) or (hstay and gstep) or (hstep and gstep)
        else:
            ok = hstep or (hstay and gstep)
        if ok:
            out.add_sym_edge((u, a), (v, b))
    return out


# -- map graphs --------------------------------------------------------------


def function_power(g: Graph, h: Graph) -> Graph:
    """All maps V(g) -> V(h) as vertices, adjacent when they respect every
    edge of ``g`` crosswise; maps with no partner drop out."""
    return _power(h, "tensor", neps_cylinder(g, "tensor"))


def function_power_direct(g: Graph, h: Graph) -> Graph:
    gv = sorted(g.vertices, key=str)
    hv = sorted(h.vertices, key=str)
    hadj = {(e.tail, e.head) for e in h.edges.values()}
    gedges = [(e.tail, e.head) for e in g.edges.values()]
    maps = [()]
    for _ in gv:
        maps = [m + (w,) for m in maps for w in hv]
    pos = {v: i for i, v in enumerate(gv)}
    out = Graph(symmetric=True)
    out.add_vertices(maps)
    for f1, f2 in combinations(maps, 2):
        if all((f1[pos[a]], f2[pos[b]]) in hadj for a, b in gedges):
            out.add_sym_edge(f1, f2)
    for f1 in maps:
        if all((f1[pos[a]], f1[pos[b]]) in hadj for a, b in gedges):
            out.add_sym_edge(f1, f1)
    return out.reduced()


# -- permutation-voltage lifts ----------------------------------------------


def voltage_lift(base: Graph, voltages: dict, k: int) -> Graph:
    """The k-fold cover of ``base`` where travelling an edge permutes the
    sheets by that edge's voltage.  ``voltages`` maps each edge id (one per
    twin pair when symmetric) to a degree-k permutation; missing edges get
    the identity.  Coincident sheets collapse to a single edge."""
    ident = Perm.identity(k)
    perms = {eid: voltages.get(eid, ident) for eid in sorted(base.canonical_edges())}
    if bad := [eid for eid in voltages if eid not in perms]:
        raise DomainError(f"voltage key {bad[0]!r} is not an edge id of the base (a twin pair goes by its smaller id)")
    for eid, rho in perms.items():
        if _perm_checked(rho, f"voltage on {eid!r}").degree != k:
            raise DomainError(f"voltage on {eid!r} has degree {rho.degree}, expected {k}")
    labeled = base.with_labels({eid: GammaLabel(ident, "lift", rho) for eid, rho in perms.items()})
    group = PermGroup.generated(k, list(perms.values()))
    cyl = identity_cyl(k, directed=not base.symmetric)
    cs = CylinderSet(group, {"lift": cyl})
    return cyl_product(labeled, cs).graph


def voltage_lift_direct(base: Graph, voltages: dict, k: int) -> Graph:
    """The same cover spelled out sheet by sheet."""
    ident = Perm.identity(k)
    out = Graph(symmetric=base.symmetric)
    out.add_vertices(f"{v}#{b}" for v in base.vertices for b in range(1, k + 1))
    canon = set(base.canonical_edges())
    if bad := [eid for eid in voltages if eid not in canon]:
        raise DomainError(f"voltage key {bad[0]!r} is not an edge id of the base (a twin pair goes by its smaller id)")
    seen: set = set()
    for eid in sorted(canon):
        e = base.edges[eid]
        rho = voltages.get(eid, ident)
        for b in range(1, k + 1):
            u, w = f"{e.tail}#{b}", f"{e.head}#{rho(b)}"
            if base.symmetric:
                key = frozenset((u, w)) if u != w else (u,)
                if key in seen:
                    continue
                seen.add(key)
                out.add_sym_edge(u, w)
            else:
                if (u, w) in seen:
                    continue
                seen.add((u, w))
                out.add_edge(u, w)
    return out


def petersen_dumbbell() -> Graph:
    """The Petersen graph as a 5-sheet lift of a dumbbell: a loop with a
    5-cycle voltage, a loop with its square, and a plain bar between them."""
    base = Graph(symmetric=True)
    base.add_vertices("uw")
    e1, _ = base.add_sym_edge("u", "u")
    e2, _ = base.add_sym_edge("w", "w")
    base.add_sym_edge("u", "w")
    rho = Perm.from_cycles(5, (1, 2, 3, 4, 5))
    return voltage_lift(base, {e1: rho, e2: rho * rho}, 5)


# -- replacement and zig-zag products ----------------------------------------


def _transitive_shifts(h: Graph) -> list[Perm]:
    """One automorphism of ``h`` per vertex, sending the first vertex there,
    expressed as a permutation of 1..D in sorted-vertex numbering."""
    vs = sorted(h.vertices, key=str)
    pos = {v: i + 1 for i, v in enumerate(vs)}
    n_edges = len(h.edges)
    shifts = []
    for target in vs:
        found = None
        for hom in iter_homs(h, h, mode="plain", pins={vs[0]: target}):
            if len(set(hom.vmap.values())) == len(vs) and len(set(hom.emap.values())) == n_edges:
                found = hom
                break
        if found is None:
            raise DomainError(
                "the inner template must look the same from every vertex "
                f"(no symmetry carries {vs[0]!r} to {target!r})"
            )
        shifts.append(Perm([pos[found.vmap[v]] for v in vs]))
    return shifts


def _ports(g: Graph, d: int) -> dict:
    """Number the edge ends around every vertex 1..d, in edge id order."""
    inc: dict = {v: [] for v in g.vertices}
    for eid in sorted(g.canonical_edges()):
        for v in {g.edges[eid].tail, g.edges[eid].head}:
            inc[v].append(eid)
    ports: dict = {}
    for v in sorted(g.vertices, key=str):
        if len(inc[v]) != d:
            raise DomainError(f"vertex {v!r} has degree {len(inc[v])}, expected {d}")
        for i, eid in enumerate(inc[v], start=1):
            ports[(v, eid)] = i
    return ports


def rotation_labels(g: Graph, h: Graph):
    """Label a regular graph so each edge remembers which port it uses at
    either end, twisted into the symmetry group of the inner template.
    Returns (labeled graph, slot group)."""
    if not g.symmetric or not h.symmetric:
        raise DomainError("replacement-style products take symmetric graphs")
    for e in g.edges.values():
        if e.tail == e.head:
            raise DomainError("the outer graph must be loop-free")
    d = len(h.vertices)
    shifts = _transitive_shifts(h)
    gammas = {i + 1: s for i, s in enumerate(shifts)}
    group = PermGroup.generated(d, shifts)
    ports = _ports(g, d)
    labels: dict = {}
    for eid in g.canonical_edges():
        e = g.edges[eid]
        labels[eid] = GammaLabel(gammas[ports[(e.tail, eid)]], "rot", gammas[ports[(e.head, eid)]])
    return g.with_labels(labels), group


def replacement_cylinder(h: Graph) -> Cylinder:
    """Two copies of the inner template (edges tagged 0) bridged by a single
    rung between the first vertices (tagged 1)."""
    vs = sorted(h.vertices, key=str)
    pos = {v: i + 1 for i, v in enumerate(vs)}
    cyl, ys, zs = _bare_rows(len(vs))
    for eid in h.canonical_edges():
        e = h.edges[eid]
        a, b = pos[e.tail], pos[e.head]
        cyl.add_sym_edge(f"y{a}", f"y{b}", 0)
        cyl.add_sym_edge(f"z{a}", f"z{b}", 0)
    cyl.add_sym_edge("y1", "z1", 1)
    return make_cylinder(cyl, ys, zs)


def zigzag_cylinder(h: Graph) -> Cylinder:
    """The replacement cylinder plus a crossing (tagged 2) for every pair of
    neighbours of the first vertex — one short walk on each side of the rung."""
    base = replacement_cylinder(h)
    vs = sorted(h.vertices, key=str)
    pos = {v: i + 1 for i, v in enumerate(vs)}
    first = vs[0]
    nbrs = sorted(
        {e.head for e in h.edges.values() if e.tail == first}
        | {e.tail for e in h.edges.values() if e.head == first},
        key=str,
    )
    cyl = base.graph
    for a in nbrs:
        for b in nbrs:
            cyl.add_sym_edge(f"y{pos[a]}", f"z{pos[b]}", 2)
    return make_cylinder(cyl, base.y, base.z)


def replacement_product(g: Graph, h: Graph):
    """Each vertex of ``g`` blown up into a copy of ``h``, copies joined by
    port-to-port rungs.  Returns (graph with 0/1 edge tags, product trace)."""
    labeled, group = rotation_labels(g, h)
    cs = CylinderSet(group, {"rot": replacement_cylinder(h)})
    tr = cyl_product(labeled, cs)
    return tr.graph, tr


def zigzag_product(g: Graph, h: Graph) -> Graph:
    """Keep only the crossing edges of the fattened product: a step inside a
    cloud, across a rung, and inside the far cloud becomes one edge."""
    labeled, group = rotation_labels(g, h)
    cs = CylinderSet(group, {"rot": zigzag_cylinder(h)})
    full = cyl_product(labeled, cs).graph
    out = Graph(symmetric=True)
    out.add_vertices(full.vertices)
    for eid in full.canonical_edges():
        e = full.edges[eid]
        if e.label == 2:
            out.add_sym_edge(e.tail, e.head)
    return out


def zigzag_via_walks(g: Graph, h: Graph) -> Graph:
    """The same graph extracted from the replacement product by taking all
    walks that go cloud-step, rung, cloud-step."""
    fat, _ = replacement_product(g, h)
    return _power(fat, "walk", path_cyl(3, labels=[0, 1, 0]))


# -- line graphs --------------------------------------------------------------


def looped_line_graph(h: Graph) -> Graph:
    """Edges of ``h`` as vertices, adjacent when they share an endpoint —
    which every edge does with itself, so every vertex carries a loop."""
    return merge_parallel(_power(h, "w", wedge_cyl(), PermGroup.symmetric(2)))


def line_graph_direct(h: Graph) -> Graph:
    """The classical (loop-free) line graph."""
    if not h.symmetric:
        raise DomainError("line graphs are taken of symmetric graphs")
    canon = sorted(h.canonical_edges())
    ends = {eid: {h.edges[eid].tail, h.edges[eid].head} for eid in canon}
    out = Graph(symmetric=True)
    out.add_vertices(canon)
    for e1, e2 in combinations(canon, 2):
        if ends[e1] & ends[e2]:
            out.add_sym_edge(e1, e2)
    return out


# -- cones and joins -----------------------------------------------------------


def join_cylinder(h: Graph) -> Cylinder:
    """Width 1 + |V(h)|: the extra slots are shared between the rows, carry a
    copy of ``h``, and see both marked ends — so a product attaches one copy
    of ``h`` joined to everything (per connected component of the base)."""
    if not h.symmetric:
        raise DomainError("joins are taken with a symmetric graph")
    vs = sorted(h.vertices, key=str)
    pos = {v: i for i, v in enumerate(vs, start=1)}
    cyl = Graph(symmetric=True)
    shared = [f"c{pos[v]}" for v in vs]
    cyl.add_vertices(["y1", "z1"] + shared)
    cyl.add_sym_edge("y1", "z1")
    for c in shared:
        cyl.add_sym_edge("y1", c)
        cyl.add_sym_edge("z1", c)
    for eid in h.canonical_edges():
        e = h.edges[eid]
        cyl.add_sym_edge(f"c{pos[e.tail]}", f"c{pos[e.head]}")
    return make_cylinder(cyl, ["y1"] + shared, ["z1"] + shared)


def join_with(g: Graph, h: Graph) -> Graph:
    """Join of ``g`` (edge-connected) with ``h``: all of ``g``, one copy of
    ``h`` per component of ``g``, and every cross edge."""
    cyl = join_cylinder(h)
    cs = CylinderSet(PermGroup.trivial(cyl.width), {"join": cyl})
    return cyl_product(_uniform(g, key="join", width=cyl.width), cs).graph


def cone(g: Graph) -> Graph:
    return join_with(g, empty_graph(1))


# -- minors ---------------------------------------------------------------------


def graph_minor(g: Graph, contract=(), delete=()) -> Graph:
    """Contract and delete the named edges (ids of canonical directions).
    Kept parallel edges collapse, as minors of simple graphs do.  The first
    unknown id, in the order given and contract before delete, is named."""
    for what, ids in (("contract=", contract), ("delete=", delete)):
        if isinstance(ids, str) or not isinstance(ids, Iterable):
            raise DomainError(f"{what} must be a collection of edge ids, got {ids!r}")
    contract, delete = tuple(contract), tuple(delete)
    canon = set(g.canonical_edges())
    for eid in (*contract, *delete):
        if not isinstance(eid, str) or eid not in canon:  # ids are strings: a list names no edge
            raise DomainError(f"edge {eid!r} is not a canonical edge of the graph")
    contract, delete = dict.fromkeys(contract), dict.fromkeys(delete)  # sets in the order given
    overlap = contract.keys() & delete.keys()
    if overlap:
        raise DomainError(f"edges {sorted(overlap)} are both contracted and deleted")
    directed = not g.symmetric
    cyls = {
        "keep": identity_cyl(1, directed=directed),
        "cut": contraction_cyl(directed),
        "drop": deletion_cyl(directed),
    }
    cs = CylinderSet(PermGroup.trivial(1), cyls)
    ident = Perm.identity(1)
    labeled = g.with_labels({
        eid: GammaLabel(ident, "cut" if eid in contract else ("drop" if eid in delete else "keep"), ident)
        for eid in canon
    })
    return cyl_product(labeled, cs).graph
