"""Gluing product and exponential against small frozen oracles."""

import math
from itertools import combinations

import pytest

from cylgraph import construct
from cylgraph.construct import (
    MAX_EXPO_VERTICES,
    MAX_TUPLE_SPACE,
    ProductTrace,
    cyl_product,
    cylinders_from_surjection,
    exponential,
    uniform_labels,
)
from cylgraph.core import GammaLabel, Graph, isomorphic
from cylgraph.cylinder import (
    CylinderSet,
    identity_cyl,
    make_cylinder,
    path_cyl,
    sqcap_cyl,
    wedge_cyl,
)
from cylgraph.errors import DomainError, LabelConflict, NotATwist, ResourceLimit
from cylgraph.hom import check_hom
from cylgraph.perm import Perm, PermGroup

from util import degree, girth, pair_class, without_loops


def cycle(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n):
        g.add_sym_edge(i, (i + 1) % n)
    return g


def complete(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_sym_edge(i, j)
    return g


def path_graph(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n + 1))
    for i in range(n):
        g.add_sym_edge(i, i + 1)
    return g


def one_path_set(n, key=1):
    return CylinderSet(PermGroup.trivial(1), {key: path_cyl(n)})


def test_subdividing_a_cycle():
    c5 = uniform_labels(cycle(5), key=1)
    tr = cyl_product(c5, one_path_set(4))
    assert len(tr.graph.vertices) == 20
    assert len(tr.graph.canonical_edges()) == 20
    assert isomorphic(tr.graph.stripped(), cycle(20)) is not None


def test_product_identity_law():
    for g in (cycle(5), path_graph(3), complete(4)):
        lg = uniform_labels(g, key="e")
        cs = CylinderSet(PermGroup.trivial(1), {"e": identity_cyl(1)})
        tr = cyl_product(lg, cs)
        assert isomorphic(tr.graph.stripped(), g) is not None
    d = Graph()
    d.add_vertices("abc")
    d.add_edge("a", "b")
    d.add_edge("b", "c")
    d.add_edge("c", "a")
    d.add_edge("a", "a")
    cs = CylinderSet(PermGroup.trivial(1), {"e": identity_cyl(1, directed=True)})
    tr = cyl_product(uniform_labels(d, key="e"), cs)
    assert isomorphic(tr.graph.stripped(), d) is not None


def test_loop_with_path_closes_into_cycle():
    g = Graph(symmetric=True)
    g.add_vertex("u")
    g.add_sym_edge("u", "u", GammaLabel(Perm.identity(1), 1, Perm.identity(1)))
    tr = cyl_product(g, one_path_set(3))
    assert isomorphic(tr.graph.stripped(), cycle(3)) is not None


def test_petersen_via_sqcap():
    ident, pi = Perm.identity(2), Perm((2, 1))
    g = Graph(symmetric=True)
    g.add_vertices(range(5))
    for i in range(5):
        g.add_sym_edge(i, (i + 1) % 5, GammaLabel(ident, 1, ident))
        g.add_sym_edge(i, (i + 2) % 5, GammaLabel(pi, 1, pi))
    tr = cyl_product(g, CylinderSet(PermGroup.symmetric(2), {1: sqcap_cyl()}))
    pet = tr.graph
    assert len(pet.vertices) == 10
    assert len(pet.canonical_edges()) == 15
    assert all(degree(pet, v) == 3 for v in pet.vertices)
    assert girth(pet) == 5
    kneser = Graph(symmetric=True)
    pairs = list(combinations(range(5), 2))
    kneser.add_vertices(pairs)
    for a, b in combinations(pairs, 2):
        if not set(a) & set(b):
            kneser.add_sym_edge(a, b)
    assert isomorphic(pet.stripped(), kneser) is not None
    # the spokes absorbed one contribution per incident source edge
    spokes = [eid for eid, ms in tr.edge_src.items() if len(ms) == 4]
    assert len(spokes) == 10  # five spokes, two directions each
    for eid, members in tr.edge_src.items():
        for m in members:
            assert tr.src_edge[m] == eid


def test_glue_direction_is_pinned():
    rho = Perm.from_cycles(2, (1, 2))
    g = Graph()
    g.add_vertices("uv")
    g.add_edge("u", "v", GammaLabel(Perm.identity(2), "k", rho))
    cs = CylinderSet(PermGroup.symmetric(2), {"k": identity_cyl(2, directed=True)})
    tr = cyl_product(g, cs)
    got = {(e.tail, e.head) for e in tr.graph.edges.values()}
    assert got == {("u#1", "v#2"), ("u#2", "v#1")}
    g2 = Graph()
    g2.add_vertices("uv")
    g2.add_edge("u", "v", GammaLabel(rho, "k", Perm.identity(2)))
    got2 = {(e.tail, e.head) for e in cyl_product(g2, cs).graph.edges.values()}
    assert got2 == {("u#2", "v#1"), ("u#1", "v#2")}
    # and the slot map knows where each copy vertex went
    assert tr.copy[(next(iter(g.edges)), "y1")] == "u#1"
    assert tr.copy[(next(iter(g.edges)), "z1")] == "v#2"


def test_row_overlap_welds_slots():
    g = Graph(symmetric=True)
    g.add_vertices("ab")
    g.add_sym_edge("a", "b", GammaLabel(Perm.identity(2), "w", Perm.identity(2)))
    tr = cyl_product(g, CylinderSet(PermGroup.trivial(2), {"w": wedge_cyl()}))
    assert len(tr.graph.vertices) == 3
    assert tr.slot[("a", 1)] == tr.slot[("b", 1)]
    assert isomorphic(tr.graph.stripped(), path_graph(2)) is not None


def test_product_rejects_bad_labels():
    g = Graph(symmetric=True)
    g.add_vertices("ab")
    g.add_sym_edge("a", "b", "plain")
    cs = CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1)})
    with pytest.raises(LabelConflict):
        cyl_product(g, cs)
    g2 = Graph(symmetric=True)
    g2.add_vertices("ab")
    g2.add_sym_edge("a", "b", GammaLabel(Perm.identity(1), "missing", Perm.identity(1)))
    with pytest.raises(DomainError):
        cyl_product(g2, cs)
    g3 = Graph(symmetric=True)
    g3.add_vertices("ab")
    g3.add_sym_edge("a", "b", GammaLabel(Perm((2, 1)), 1, Perm((2, 1))))
    cs2 = CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2)})
    with pytest.raises(NotATwist):
        cyl_product(g3, cs2)
    with pytest.raises(DomainError):
        cyl_product(Graph(symmetric=True), CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1, directed=True)}))


def test_product_audits_a_shared_label_once_and_names_the_first_bad_edge():
    ok = GammaLabel(Perm.identity(1), 1, Perm.identity(1))
    lacking = GammaLabel(Perm.identity(1), 2, Perm.identity(1))
    g = Graph()
    g.add_vertices(range(6))
    for i, lab in enumerate([ok, ok, lacking, ok, lacking]):
        g.add_edge(i, i + 1, lab)
    cs = CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1, directed=True)})
    with pytest.raises(DomainError, match="^edge 'e2' asks for cylinder 2, which the set lacks$"):
        cyl_product(g, cs)
    g.edges["e1"] = g.edges["e1"]._replace(label=None)
    with pytest.raises(LabelConflict, match="^edge 'e1' carries None, not a slot-group label$"):
        cyl_product(g, cs)


def test_product_reports_a_malformed_graph_before_a_kind_mismatch():
    g = uniform_labels(path_graph(1), 1)
    cs = CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1, directed=True)})
    with pytest.raises(DomainError, match="^source graph and cylinders disagree about being symmetric$"):
        cyl_product(g, cs)
    del g.pairing["e1"]
    with pytest.raises(DomainError, match=r"^symmetric graph with unpaired edges: \['e1'\]$"):
        cyl_product(g, cs)


@pytest.mark.parametrize("pre, post", [(3, 2), (2, 3)])
def test_product_names_the_degree_of_the_twist_that_is_wrong(pre, post):
    g = Graph()
    g.add_vertices("uv")
    g.add_edge("u", "v", GammaLabel(Perm.identity(pre), 1, Perm.identity(post)))
    with pytest.raises(DomainError, match="^edge 'e0' twists 3 slots, cylinders have 2$"):
        cyl_product(g, CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2, directed=True)}))


def _rung_cylinder(*labels):
    """Width 1: parallel rungs y1 - z1, one per label."""
    cg = Graph(symmetric=True)
    cg.add_vertices(["y1", "z1"])
    for lab in labels:
        cg.add_sym_edge("y1", "z1", lab)
    return CylinderSet(PermGroup.trivial(1), {1: make_cylinder(cg, ["y1"], ["z1"])})


def test_product_merges_rungs_whose_labels_compare_equal():
    # labeled hom search already treats 1 and 1.0 as one label
    tr = cyl_product(uniform_labels(path_graph(1), 1), _rung_cylinder(1, 1.0, "1"))
    assert sorted(e.label for e in tr.graph.edges.values() if e.label != "1") == [1, 1]
    assert len(tr.graph.edges) == 4


def test_product_rejects_unhashable_cylinder_labels():
    with pytest.raises(LabelConflict):
        cyl_product(uniform_labels(path_graph(1), 1), _rung_cylinder(["a"]))


def test_exponential_identity_law():
    cs = CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1)})
    h = cycle(4)
    h.add_vertex("floating")
    h.add_sym_edge(0, 2)
    et = exponential(cs, h)
    assert isomorphic(et.graph.stripped(), h.reduced()) is not None
    d = Graph()
    d.add_vertices("pqr")
    d.add_edge("p", "q")
    d.add_edge("q", "q")
    csd = CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1, directed=True)})
    etd = exponential(csd, d)
    assert isomorphic(etd.graph.stripped(), d.reduced()) is not None


def test_walk_power_oracle():
    for k in (1, 2):
        cs = one_path_set(2 * k - 1)
        et = exponential(cs, cycle(2 * k + 1))
        assert isomorphic(et.graph.stripped(), complete(2 * k + 1)) is not None


def test_even_walks_make_loops():
    et = exponential(one_path_set(2), complete(2))
    assert sorted(et.graph.vertices) == ["[0]", "[1]"]
    assert all(e.tail == e.head for e in et.graph.edges.values())
    assert len(et.graph.canonical_edges()) == 2


def test_exponential_coset_labels_are_pinned():
    h = Graph()
    h.add_vertices("ab")
    h.add_edge("a", "b")
    cs = CylinderSet(PermGroup.symmetric(2), {"k": identity_cyl(2, directed=True)})
    et = exponential(cs, h)
    assert sorted(et.graph.vertices) == ['["a","a"]', '["b","b"]']
    labels = {(e.label.pre, e.label.post) for e in et.graph.edges.values()}
    s2 = list(PermGroup.symmetric(2))
    assert labels == {(a, b) for a in s2 for b in s2}
    assert all(e.tail == '["a","a"]' and e.head == '["b","b"]' for e in et.graph.edges.values())


def test_looped_incidence_from_shared_vertex_cylinder():
    h = Graph(symmetric=True)
    h.add_vertices([1, 2, 3, 4])
    for a, b in ((1, 2), (1, 3), (3, 4), (2, 4), (1, 4)):
        h.add_sym_edge(a, b)
    cs = CylinderSet(PermGroup.symmetric(2), {"w": wedge_cyl()})
    et = exponential(cs, h)
    assert len(et.graph.vertices) == 5
    loops = [eid for eid in et.graph.canonical_edges() if et.graph.edges[eid].tail == et.graph.edges[eid].head]
    # each vertex carries one loop per aligning twist pair: (id,id) and (swap,swap)
    assert len(loops) == 10
    by_vertex = {}
    for eid in loops:
        e = et.graph.edges[eid]
        by_vertex.setdefault(e.tail, set()).add((e.label.pre, e.label.post))
    ident, swap = Perm.identity(2), Perm((2, 1))
    assert all(labs == {(ident, ident), (swap, swap)} for labs in by_vertex.values())
    assert len(et.graph.canonical_edges()) == 18
    line = Graph(symmetric=True)
    edges = [(1, 2), (1, 3), (3, 4), (2, 4), (1, 4)]
    line.add_vertices(range(5))
    for i, j in combinations(range(5), 2):
        if set(edges[i]) & set(edges[j]):
            line.add_sym_edge(i, j)
    assert isomorphic(without_loops(et.graph).stripped(), line) is not None


def test_exponential_witnesses_are_valid():
    cs = CylinderSet(PermGroup.symmetric(2), {"w": wedge_cyl()})
    h = complete(3)
    et = exponential(cs, h)
    for eid, hom in et.witnesses.items():
        assert check_hom(cs["w"].graph, h, hom, mode="labeled") is None
        e = et.graph.edges[eid]
        p = tuple(hom.vmap[v] for v in cs["w"].y)
        q = tuple(hom.vmap[v] for v in cs["w"].z)
        assert e.label.pre.act(et.tuple_of[e.tail]) == p
        assert e.label.post.act(et.tuple_of[e.head]) == q
        assert et.edge_by_triple[e.tail, e.head, e.label] in pair_class(et.graph, eid)


def test_exponential_budget_and_degenerate_targets(monkeypatch):
    cs = CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2)})
    monkeypatch.setattr(construct, "MAX_EXPO_VERTICES", 10)
    with pytest.raises(ResourceLimit):
        exponential(cs, complete(5))
    empty = Graph(symmetric=True)
    et = exponential(cs, empty)
    assert len(et.graph.vertices) == 0 and len(et.graph.edges) == 0


def test_exponential_refuses_a_target_of_the_other_kind_and_a_huge_tuple_space():
    cs = CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2)})
    with pytest.raises(DomainError, match="^target graph and cylinders disagree about being symmetric$"):
        exponential(cs, Graph())
    n = math.isqrt(MAX_TUPLE_SPACE) + 1
    wide = Graph(symmetric=True)
    wide.add_vertices(range(n))
    with pytest.raises(ResourceLimit) as err:
        exponential(cs, wide)
    assert str(err.value) == f"tuple space {n}^2 exceeds {MAX_TUPLE_SPACE}"


def test_exponential_takes_no_size_option():
    cs = CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2)})
    with pytest.raises(TypeError):
        exponential(cs, complete(3), max_vertices=MAX_EXPO_VERTICES)


@pytest.mark.parametrize("bad", ["5x", "2.5", "True", "-1"], ids=repr)
def test_exponential_checks_budget_before_building_orbits(monkeypatch, bad):
    cs = CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2)})
    monkeypatch.setattr(construct, "MAX_EXPO_VERTICES", 0)
    monkeypatch.setenv("CYL_NODE_BUDGET", bad)
    with pytest.raises(DomainError) as err:
        exponential(cs, complete(5))
    assert str(err.value) == f"CYL_NODE_BUDGET must be a non-negative integer, got {bad!r}"


def test_exponential_orbit_cap_names_the_cap(monkeypatch):
    assert MAX_EXPO_VERTICES == 10_000
    cs = CylinderSet(PermGroup.trivial(2), {1: identity_cyl(2)})
    monkeypatch.setattr(construct, "MAX_EXPO_VERTICES", 9)
    assert len(exponential(cs, complete(3)).names) == 9  # 3^2 orbits
    for cap, target in ((8, complete(3)), (0, complete(1))):
        monkeypatch.setattr(construct, "MAX_EXPO_VERTICES", cap)
        with pytest.raises(ResourceLimit) as err:
            exponential(cs, target)
        assert str(err.value) == f"more than {cap} orbit representatives, the exponential's vertex cap"
    assert len(exponential(cs, Graph(symmetric=True)).names) == 0


def test_surjection_cylinders_roundtrip():
    cases = []
    g1 = cycle(4)
    cases.append((g1, complete(2), {0: 0, 1: 1, 2: 0, 3: 1}))
    g2 = cycle(6)
    cases.append((g2, cycle(3), {i: i % 3 for i in range(6)}))
    p = path_graph(3)
    h = Graph(symmetric=True)
    h.add_vertices("ab")
    h.add_sym_edge("a", "b")
    cases.append((p, h, {0: "a", 1: "b", 2: "a", 3: "b"}))
    for g, target, vmap in cases:
        labeled, cs = cylinders_from_surjection(g, target, vmap)
        tr = cyl_product(labeled, cs)
        assert isomorphic(tr.graph.reduced().stripped(), g) is not None


def test_surjection_cylinders_reject_bad_maps():
    g = cycle(4)
    with pytest.raises(DomainError):
        cylinders_from_surjection(g, complete(3), {0: 0, 1: 1, 2: 0, 3: 1})  # misses a vertex
    with pytest.raises(DomainError):
        cylinders_from_surjection(complete(3), complete(2), {0: 0, 1: 1, 2: 0})  # not a hom
    directed = Graph()
    directed.add_vertices([0, 1])
    for target, vmap, message in (
        (directed, {0: 0, 1: 1, 2: 0, 3: 1}, "graphs disagree about being symmetric"),
        (complete(2), {0: 0, 1: 1, 2: 0}, "vertex 3 is not mapped into the target"),
        (complete(2), {0: 0, 1: 1, 2: 0, 3: 7}, "vertex 3 is not mapped into the target"),
    ):
        with pytest.raises(DomainError) as err:
            cylinders_from_surjection(g, target, vmap)
        assert str(err.value) == message


def test_uniform_labels_roundtrip():
    g = cycle(3)
    lg = uniform_labels(g, key="only", width=2)
    lg.validate()
    assert all(isinstance(e.label, GammaLabel) for e in lg.edges.values())
    assert isomorphic(lg.stripped(), g) is not None
