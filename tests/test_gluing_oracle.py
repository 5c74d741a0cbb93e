"""The gluing product and ``merge_parallel`` against frozen copies of their
earlier two-branch versions (one branch for directed graphs, one for twin
pairs), kept as differential oracles: outputs, provenance maps and, for the
product, the error raised first on each bad input.  ``cyl_sum`` and
``generalized_loop`` are checked the same way against their versions built on
the dict union-find the library once had, frozen here with them."""

import itertools
import json
import random
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from cylgraph import construct
from cylgraph.construct import MAX_PRODUCT_EDGES, _audit_product_labels, cyl_product
from cylgraph.catalog import NEPS_KINDS, complete_graph, neps_cylinder, path_graph
from cylgraph.core import GammaLabel, Graph, disjoint_union, identify_vertices, label_to_json, merge_parallel
from cylgraph.cylinder import (
    CylinderSet,
    cyl_sum,
    generalized_loop,
    identity_cyl,
    make_cylinder,
    path_cyl,
    sqcap_cyl,
    square_cyl,
    twist,
    wedge_cyl,
)
from cylgraph.errors import CylError, DomainError, EpsilonError, ResourceLimit
from cylgraph.perm import Perm, PermGroup

from util import random_gamma_labels, random_multigraph


class UnionFind:
    """Disjoint sets over arbitrary hashable items; representative is the
    smallest member by string order, fixed at query time."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while x != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if str(rb) < str(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra

    def canonical_map(self) -> dict:
        """item -> smallest member of its class (by string order)."""
        classes: dict = defaultdict(list)
        for x in self.parent:
            classes[self.find(x)].append(x)
        out = {}
        for members in classes.values():
            rep = min(members, key=str)
            for x in members:
                out[x] = rep
        return out


def json_key(label) -> str:
    return json.dumps(label_to_json(label), sort_keys=True, default=str)


def product_oracle(g, cset, stats=None):
    """``cyl_product`` as built with separate directed and symmetric merge
    loops keyed by the labels' JSON text.  ``stats`` counts merged copies,
    copies merged in flipped orientation and loop pairs whose label is its
    own reverse."""
    stats = Counter() if stats is None else stats
    if g.symmetric != cset.symmetric:
        raise DomainError("source graph and cylinders disagree about being symmetric")
    g.validate()
    _audit_product_labels(g, cset)
    k = cset.width
    slot = {(v, i): f"{v}#{i}" for v in g.vertices for i in range(1, k + 1)}
    if len(set(slot.values())) != len(slot):
        raise DomainError("vertex names collide after slotting; rename the source vertices")
    src_eids = sorted(g.canonical_edges(), key=str)
    uf = UnionFind()
    for nm in slot.values():
        uf.find(nm)
    copy, inner_names, n_pre = {}, set(), 0
    for eid in src_eids:
        e = g.edges[eid]
        lab = e.label
        cyl = cset[lab.key]
        n_pre += len(cyl.graph.edges)
        if n_pre > MAX_PRODUCT_EDGES:
            raise ResourceLimit(f"product would exceed {MAX_PRODUCT_EDGES} edges before merging")
        ypos = {v: b for b, v in enumerate(cyl.y, start=1)}
        zpos = {v: b for b, v in enumerate(cyl.z, start=1)}
        for x in cyl.graph.vertices:
            aliases = []
            if x in ypos:
                aliases.append(slot[(e.tail, lab.pre(ypos[x]))])
            if x in zpos:
                aliases.append(slot[(e.head, lab.post(zpos[x]))])
            if not aliases:
                nm = f"{eid}@{x}"
                if nm in inner_names:
                    raise DomainError(f"inner vertex name {nm!r} collides; rename edges or cylinder vertices")
                inner_names.add(nm)
                aliases.append(nm)
            copy[(eid, x)] = aliases[0]
            uf.find(aliases[0])
            for other in aliases[1:]:
                uf.union(aliases[0], other)
    if inner_names & set(slot.values()):
        raise DomainError("inner vertex names collide with slot names; rename the source vertices")
    cmap = uf.canonical_map()
    final_slot = {key: cmap[nm] for key, nm in slot.items()}
    final_copy = {key: cmap[nm] for key, nm in copy.items()}
    out = Graph(symmetric=g.symmetric)
    for nm in sorted(set(cmap.values()), key=str):
        out.add_vertex(nm)

    edge_src, src_edge = {}, {}
    if not g.symmetric:
        groups, order = {}, []
        for eid in src_eids:
            cyl = cset[g.edges[eid].label.key]
            for ce in sorted(cyl.graph.edges, key=str):
                ed = cyl.graph.edges[ce]
                gk = (final_copy[(eid, ed.tail)], final_copy[(eid, ed.head)], json_key(ed.label))
                if gk not in groups:
                    groups[gk] = (ed.label, [])
                    order.append(gk)
                groups[gk][1].append((eid, ce))
        for gk in order:
            lab, members = groups[gk]
            fid = f"{members[0][0]}@{members[0][1]}"
            out.add_edge(gk[0], gk[1], lab, fid)
            edge_src[fid] = list(members)
            for m in members:
                src_edge[m] = fid
            stats["merged"] += len(members) - 1
    else:
        groups, order = {}, []
        for eid in src_eids:
            cyl = cset[g.edges[eid].label.key]
            for ce in sorted(cyl.graph.canonical_edges(), key=str):
                tw = cyl.graph.pairing[ce]
                e1, e2 = cyl.graph.edges[ce], cyl.graph.edges[tw]
                k1 = (final_copy[(eid, e1.tail)], final_copy[(eid, e1.head)], json_key(e1.label))
                k2 = (final_copy[(eid, e2.tail)], final_copy[(eid, e2.head)], json_key(e2.label))
                gk = (min(k1, k2), max(k1, k2))
                if gk not in groups:
                    groups[gk] = []
                    order.append(gk)
                groups[gk].append((eid, ce, tw, k1))
                stats["self_reverse_loops"] += k1 == k2
        for gk in order:
            members = groups[gk]
            eid0, ce0, tw0, k1_0 = members[0]
            src0 = cset[g.edges[eid0].label.key].graph
            fid_a, fid_b = f"{eid0}@{ce0}", f"{eid0}@{tw0}"
            ea, eb = src0.edges[ce0], src0.edges[tw0]
            out.add_edge(final_copy[(eid0, ea.tail)], final_copy[(eid0, ea.head)], ea.label, fid_a)
            out.add_edge(final_copy[(eid0, eb.tail)], final_copy[(eid0, eb.head)], eb.label, fid_b)
            out.pair_edges(fid_a, fid_b)
            edge_src[fid_a] = []
            edge_src[fid_b] = []
            for eid, ce, tw, k1 in members:
                f_ce, f_tw = (fid_a, fid_b) if k1 == k1_0 else (fid_b, fid_a)
                src_edge[(eid, ce)] = f_ce
                src_edge[(eid, tw)] = f_tw
                edge_src[f_ce].append((eid, ce))
                edge_src[f_tw].append((eid, tw))
            stats["merged"] += len(members) - 1
            stats["flipped"] += sum(k1 != k1_0 for *_, k1 in members)
    out.validate()
    return SimpleNamespace(graph=out, slot=final_slot, copy=final_copy, edge_src=edge_src, src_edge=src_edge)


def merge_oracle(g):
    """``merge_parallel`` with separate directed and twin-pair loops; twin
    pairs are keyed by the smaller of their two JSON-keyed ends."""
    out = Graph(g.symmetric)
    out.add_vertices(g.vertices)
    if not g.symmetric:
        seen = {}
        for eid in sorted(g.edges):
            e = g.edges[eid]
            key = (e.tail, e.head, e.label)
            if key not in seen:
                seen[key] = eid
                out.add_edge(e.tail, e.head, e.label, eid)
        return out
    seen = {}
    for eid in sorted(g.canonical_edges()):
        e = g.edges[eid]
        tw = g.pairing[eid]
        t = g.edges[tw]
        key = min((e.tail, e.head, json_key(e.label)), (t.tail, t.head, json_key(t.label)), key=str)
        if key not in seen:
            seen[key] = eid
            out.add_edge(e.tail, e.head, e.label, eid)
            out.add_edge(t.tail, t.head, t.label, tw)
            out.pair_edges(eid, tw)
    return out


# -- random instances ---------------------------------------------------------

S2 = Perm([2, 1])
ID2 = Perm.identity(2)
# Scalars and slot-group triples, some their own reverse and some not; no two
# of them compare equal while serialising differently.
LABELS = (None, "a", "b", GammaLabel(S2, "r", ID2), GammaLabel(S2, "s", S2))


def _random_cylinder(rng, k, symmetric):
    """Rows that may share vertices, random rungs, inner vertices with loops
    and parallel same-label edges."""
    g = Graph(symmetric=symmetric)
    ys = [f"y{i}" for i in range(1, k + 1)]
    zs = [f"z{i}" for i in range(1, k + 1)]
    if rng.random() < 0.3:
        zs[0] = ys[0]
    inner = [f"i{j}" for j in range(rng.randint(0, 2))]
    g.add_vertices(dict.fromkeys(ys + zs + inner))
    lab = rng.choice(LABELS)
    for _ in range(rng.randint(1, 2 * k + len(inner))):
        if rng.random() < 0.6:
            lab = rng.choice(LABELS)
        u = rng.choice(ys + inner)
        v = u if inner and rng.random() < 0.2 else rng.choice(zs + inner)
        if symmetric:
            g.add_sym_edge(u, v, lab)
        else:
            g.add_edge(*((v, u) if rng.random() < 0.3 else (u, v)), lab)
    return make_cylinder(g, ys, zs)


def _random_cset(rng, symmetric):
    while True:
        try:
            if rng.random() < 0.3:
                if symmetric and rng.random() < 0.5:
                    picks = rng.sample([sqcap_cyl, square_cyl, wedge_cyl], rng.randint(1, 2))
                    return CylinderSet(PermGroup.symmetric(2), {j + 1: f() for j, f in enumerate(picks)})
                k = rng.choice([1, 2])
                cyls = {1: identity_cyl(k, not symmetric)}
                if k == 1:
                    cyls[2] = path_cyl(rng.randint(0, 2), directed=not symmetric)
                return CylinderSet(rng.choice([PermGroup.trivial(k), PermGroup.symmetric(k)]), cyls)
            k = rng.choice([1, 2])
            group = rng.choice([PermGroup.trivial(k), PermGroup.symmetric(k)])
            return CylinderSet(group, {j: _random_cylinder(rng, k, symmetric) for j in range(1, rng.randint(1, 2) + 1)})
        except CylError:
            continue


def random_product_instance(rng):
    symmetric = rng.random() < 0.6
    cset = _random_cset(rng, symmetric)
    n = rng.randint(1, 4)
    base = random_multigraph(rng, n, rng.randint(1, 2 * n + 1), symmetric=symmetric)
    return random_gamma_labels(rng, base, cset), cset


def _outcome(build):
    try:
        return build()
    except CylError as exc:
        return type(exc).__name__, str(exc)


def test_product_matches_the_frozen_two_branch_merge():
    rng = random.Random(6006)
    stats = Counter()
    kinds = Counter()
    for _ in range(250):
        g, cset = random_product_instance(rng)
        want = _outcome(lambda: product_oracle(g, cset, stats))
        got = _outcome(lambda: cyl_product(g, cset))
        if isinstance(want, tuple):
            assert got == want
            kinds["error"] += 1
            continue
        assert json.dumps(got.graph.to_json()) == json.dumps(want.graph.to_json())
        assert list(got.graph.edges.items()) == list(want.graph.edges.items())
        assert list(got.graph.pairing.items()) == list(want.graph.pairing.items())
        for field in ("slot", "copy", "edge_src", "src_edge"):
            assert list(getattr(got, field).items()) == list(getattr(want, field).items()), field
        kinds["symmetric" if g.symmetric else "directed"] += 1
    # the battery reaches both kinds of graph and every merge case
    assert kinds["symmetric"] >= 100 and kinds["directed"] >= 60
    assert stats["merged"] >= 100 and stats["flipped"] >= 20 and stats["self_reverse_loops"] >= 20


def test_merge_parallel_matches_the_frozen_two_branch_merge():
    rng = random.Random(6007)
    flipped = 0
    for i in range(250):
        symmetric = i % 2 == 0
        n = rng.randint(1, 4)
        g = random_multigraph(rng, n, rng.randint(1, 3 * n), labels=LABELS, symmetric=symmetric)
        if symmetric:
            # re-add some pairs the other way round, so they merge flipped
            for eid in rng.sample(g.canonical_edges(), rng.randint(0, len(g.edges) // 2)):
                e = g.edges[g.pairing[eid]]
                g.add_sym_edge(e.tail, e.head, e.label)
                flipped += 1
        want, got = merge_oracle(g), merge_parallel(g)
        assert got.vertices == want.vertices
        assert list(got.edges.items()) == list(want.edges.items())
        assert list(got.pairing.items()) == list(want.pairing.items())
    assert flipped >= 100


# -- error paths and the maps built on first read ---------------------------------

ID1 = Perm.identity(1)


def _directed_cset(*edges, inner=()):
    """Width 1, directed: rows y1 and z1, the given inner vertices, and one
    edge ``(tail, head, label, id)`` per entry."""
    cg = Graph()
    cg.add_vertices(["y1", "z1", *inner])
    for tail, head, lab, eid in edges:
        cg.add_edge(tail, head, lab, eid)
    return CylinderSet(PermGroup.trivial(1), {1: make_cylinder(cg, ["y1"], ["z1"])})


def _directed_source(vertices, edges):
    """``edges`` are ``(tail, head, id)``, each labeled ``(id, 1, id)``."""
    g = Graph()
    g.add_vertices(vertices)
    for tail, head, eid in edges:
        g.add_edge(tail, head, GammaLabel(ID1, 1, ID1), eid)
    return g


def _slot_collision():
    return _directed_source([1, "1"], [(1, "1", "e")]), _directed_cset(("y1", "z1", None, "r"))


def _inner_collision():
    cset = _directed_cset(("y1", "z1", None, "rung"), inner=["q@r", "r"])
    return _directed_source("uv", [("u", "v", "p"), ("u", "v", "p@q")]), cset


def _inner_slot_collision():
    cset = _directed_cset(("y1", "x#1", None, "a"), inner=["x#1"])
    return _directed_source(["u", "e0@x"], [("u", "e0@x", "e0")]), cset


def _duplicate_edge_id():
    cset = _directed_cset(("y1", "z1", "a", "q@r"), ("y1", "z1", "b", "r"))
    return _directed_source("uvw", [("u", "v", "p"), ("v", "w", "p@q")]), cset


def _duplicate_twin_id():
    """The second copy's first edge id is new, but its twin's id ``u@v@w``
    is the first copy's ``u`` + ``@`` + ``v@w``."""
    cg = Graph(symmetric=True)
    cg.add_vertices(["y1", "z1", "m"])
    cg.add_sym_edge("y1", "z1", None, "a", "w")
    cg.add_sym_edge("y1", "m", None, "b", "v@w")
    cg.add_sym_edge("m", "z1", None, "c", "d")
    g = Graph(symmetric=True)
    g.add_vertices("xyz")
    g.add_sym_edge("x", "y", GammaLabel(ID1, 1, ID1), "u", "u~")
    g.add_sym_edge("y", "z", GammaLabel(ID1, 1, ID1), "u@v", "u@v~")
    return g, CylinderSet(PermGroup.trivial(1), {1: make_cylinder(cg, ["y1"], ["z1"])})


def _duplicate_id_before_unhashable_label():
    g, cset = _duplicate_edge_id()
    cg = Graph()
    cg.add_vertices(["y1", "z1"])
    cg.add_edge("y1", "z1", ["unhashable"], "s")
    cset = CylinderSet(PermGroup.trivial(1), {1: cset[1], 2: make_cylinder(cg, ["y1"], ["z1"])})
    g.add_vertex("x")
    g.add_edge("w", "x", GammaLabel(ID1, 2, ID1), "q")
    return g, cset


ERROR_CASES = {
    "slot collision": (_slot_collision, DomainError, "vertex names collide after slotting"),
    "inner collision": (_inner_collision, DomainError, "inner vertex name 'p@q@r' collides"),
    "inner vs slot collision": (_inner_slot_collision, DomainError, "inner vertex names collide with slot names"),
    "duplicate edge id": (_duplicate_edge_id, DomainError, "duplicate edge id 'p@q@r'"),
    "duplicate twin id": (_duplicate_twin_id, DomainError, "duplicate edge id 'u@v@w'"),
    "duplicate id before unhashable label": (_duplicate_id_before_unhashable_label, DomainError, "duplicate edge id"),
}


@pytest.mark.parametrize("case", ERROR_CASES, ids=list(ERROR_CASES))
def test_error_paths_match_the_oracle(case):
    build, kind, message = ERROR_CASES[case]
    g, cset = build()
    want = _outcome(lambda: product_oracle(g, cset))
    assert want[0] == kind.__name__ and message in want[1]
    assert _outcome(lambda: cyl_product(g, cset)) == want


@pytest.mark.parametrize(
    "cap, second, kind",
    [(5, "p@q", "ResourceLimit"), (8, "p@q", "DomainError"), (8, "s", "ResourceLimit")],
    ids=["cap before collision", "collision before cap", "cap at the last edge"],
)
def test_edge_cap_matches_the_oracle(monkeypatch, cap, second, kind):
    """Three source edges of three cylinder edges each.  With a second edge
    named ``p@q`` its inner names collide with the first edge's, and the
    error the oracle raises first depends on where the cap falls."""
    cset = _directed_cset(("y1", "q@r", None, "a"), ("q@r", "r", None, "b"), ("r", "z1", None, "c"), inner=["q@r", "r"])
    g = _directed_source("uvwx", [("u", "v", "p"), ("v", "w", second), ("w", "x", "t")])
    monkeypatch.setattr(construct, "MAX_PRODUCT_EDGES", cap)
    monkeypatch.setitem(globals(), "MAX_PRODUCT_EDGES", cap)
    want = _outcome(lambda: product_oracle(g, cset))
    assert want[0] == kind
    assert _outcome(lambda: cyl_product(g, cset)) == want


def test_maps_survive_a_later_change_to_the_source():
    """The maps are built on first read, from what the product saw."""
    rng = random.Random(6008)
    checked = 0
    while checked < 20:
        g, cset = random_product_instance(rng)
        try:
            want = product_oracle(g, cset)
        except CylError:
            continue
        got = cyl_product(g, cset)
        eid = next(iter(g.edges))
        e = g.edges[eid]
        g.add_vertex("late")
        if g.symmetric:
            g.add_sym_edge(e.tail, "late", e.label, "a-late", "b-late")
        else:
            g.add_edge(e.tail, "late", e.label, "a-late")
        for field in ("slot", "copy", "edge_src", "src_edge"):
            assert list(getattr(got, field).items()) == list(getattr(want, field).items()), field
        assert got.blowup(e.tail) == tuple(want.slot[(e.tail, i)] for i in range(1, cset.width + 1))
        checked += 1


# -- the cylinder algebra against its dict union-find versions ----------------


def sum_oracle(a, b):
    """``cyl_sum`` as built on the dict union-find."""
    if a.width != b.width:
        raise DomainError(f"cannot sum cylinders of widths {a.width} and {b.width}")
    u = disjoint_union(a.graph, b.graph, (".a", ".b"))
    uf = UnionFind()
    for v in u.vertices:
        uf.find(v)
    for i in range(a.width):
        uf.union(f"{a.y[i]}.a", f"{b.y[i]}.b")
        uf.union(f"{a.z[i]}.a", f"{b.z[i]}.b")
    cmap = uf.canonical_map()
    g = merge_parallel(identify_vertices(u, cmap))
    y = tuple(cmap[f"{v}.a"] for v in a.y)
    z = tuple(cmap[f"{v}.a"] for v in a.z)
    return make_cylinder(g, y, z)


def loop_oracle(cyl, g, l):
    """``generalized_loop`` as built on the dict union-find."""
    k = cyl.width
    if g.degree != k or l.degree != k:
        raise DomainError("slot permutations must match the cylinder width")
    prefix = "s"
    names = set(map(str, cyl.graph.vertices))
    while any(f"{prefix}{i}" in names for i in range(1, k + 1)):
        prefix += "_"
    slots = [f"{prefix}{i}" for i in range(1, k + 1)]
    uf = UnionFind()
    for v in cyl.graph.vertices:
        uf.find(v)
    for s in slots:
        uf.find(s)
    for b in range(1, k + 1):
        uf.union(slots[g(b) - 1], cyl.y[b - 1])
        uf.union(slots[l(b) - 1], cyl.z[b - 1])
    cmap = uf.canonical_map()
    if len({cmap[s] for s in slots}) != k:
        raise EpsilonError("row overlap merges two slots; the closure is not a cylinder")
    slot_of_class = {cmap[s]: s for s in slots}
    final = {v: slot_of_class.get(rep, rep) for v, rep in cmap.items()}
    return make_cylinder(merge_parallel(identify_vertices(cyl.graph, final)), slots, slots)


def _tied_cylinder():
    """Width 2 over vertices 1 and "1" (and 2 and "2"), which tie under
    ``str``, with an inner vertex "0" smaller than all of them."""
    g = Graph(symmetric=True)
    g.add_vertices([1, "1", 2, "2", "0"])
    g.add_sym_edge(1, 2)
    g.add_sym_edge("1", "2")
    g.add_sym_edge(1, "0")
    g.add_sym_edge("0", "1")
    return make_cylinder(g, [1, 2], ["1", "2"])


def _merging_cylinder():
    """Width 2 with y2 = z1: the identity loop welds slots 1 and 2."""
    g = Graph(symmetric=True)
    g.add_vertices("abc")
    return make_cylinder(g, ["a", "b"], ["b", "c"])


def _algebra_cylinders():
    cyls = [identity_cyl(k, directed) for k in (1, 2, 3) for directed in (False, True)]
    cyls += [path_cyl(n, directed=directed) for n in (0, 1, 2) for directed in (False, True)]
    cyls += [sqcap_cyl(), square_cyl(), wedge_cyl(), _tied_cylinder(), _merging_cylinder()]
    cyls += [neps_cylinder(f, kind) for f in (complete_graph(2), path_graph(2)) for kind in NEPS_KINDS]
    rng = random.Random(6009)
    while len(cyls) < 60:
        try:
            cyls.append(_random_cylinder(rng, rng.choice([1, 2]), rng.random() < 0.5))
        except CylError:
            continue
    return cyls


def _cyl_outcome(build):
    out = _outcome(build)
    return out if isinstance(out, tuple) else json.dumps(out.to_json())


def test_generalized_loop_matches_the_dict_union_find_on_every_slot_permutation_pair():
    outcomes = Counter()
    for cyl in _algebra_cylinders():
        perms = list(PermGroup.symmetric(cyl.width).elements)
        for g, l in itertools.product(perms, perms):
            want = _cyl_outcome(lambda: loop_oracle(cyl, g, l))
            assert _cyl_outcome(lambda: generalized_loop(cyl, g, l)) == want
            outcomes[want[0] if isinstance(want, tuple) else "ok"] += 1
    assert outcomes["ok"] >= 300 and outcomes["EpsilonError"] >= 5, outcomes


def test_cyl_sum_matches_the_dict_union_find():
    rng = random.Random(6010)
    cyls = _algebra_cylinders()
    by_width = defaultdict(list)
    for cyl in cyls:
        perms = list(PermGroup.symmetric(cyl.width).elements)
        for g, l in itertools.product(perms, perms):  # every twist that is one
            try:
                by_width[cyl.width].append(twist(cyl, g, l))
            except CylError:
                pass
    outcomes = Counter()
    for a in cyls:
        for b in rng.sample(by_width[a.width], min(12, len(by_width[a.width]))) + [rng.choice(cyls)]:
            want = _cyl_outcome(lambda: sum_oracle(a, b))
            assert _cyl_outcome(lambda: cyl_sum(a, b)) == want
            outcomes[want[0] if isinstance(want, tuple) else "ok"] += 1
    assert outcomes["ok"] >= 300 and outcomes["DomainError"] >= 10, outcomes
