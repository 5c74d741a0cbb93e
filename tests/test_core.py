import random
import time
from collections import Counter

import pytest

from cylgraph.catalog import complete_graph, cycle_graph, neps_product, path_graph, petersen
from cylgraph.core import (
    Edge,
    Graph,
    GammaLabel,
    _weld,
    connected_order,
    disjoint_union,
    identify_vertices,
    isomorphic,
    merge_parallel,
)
from cylgraph.errors import DomainError, LabelConflict, ResourceLimit
from cylgraph.perm import Perm

from util import (
    components,
    degree,
    girth,
    iso_error,
    outputs_under_hash_seeds,
    pool_scan,
    random_graph,
    random_multigraph,
    shuffled_relabel,
    tied_names,
)


def path(n: int) -> Graph:
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n - 1):
        g.add_sym_edge(i, i + 1)
    return g


def cycle(n: int) -> Graph:
    g = path(n)
    g.add_sym_edge(n - 1, 0)
    return g


def test_build_and_adjacency():
    g = Graph()
    g.add_vertices("abc")
    e1 = g.add_edge("a", "b", label="x")
    e2 = g.add_edge("a", "c")
    g.validate()
    assert set(g.out_edges("a")) == {e1, e2}
    assert g.in_edges("b") == [e1]
    assert degree(g, "a") == 2
    assert g.isolated_vertices() == []
    g.add_vertex("d")
    assert g.isolated_vertices() == ["d"]
    assert g.reduced().vertices == ["a", "b", "c"]


def test_add_edge_checks_endpoints():
    g = Graph()
    g.add_vertex("a")
    with pytest.raises(DomainError):
        g.add_edge("a", "zzz")


def test_symmetric_pairing_validation():
    g = Graph(symmetric=True)
    g.add_vertices("ab")
    g.add_edge("a", "b")
    with pytest.raises(DomainError):
        g.validate()  # unpaired edge
    h = Graph(symmetric=True)
    h.add_vertices("ab")
    h.add_sym_edge("a", "b", label="w")
    h.validate()
    # a symmetric loop is a pair of twin loops
    h.add_sym_edge("a", "a")
    h.validate()
    assert degree(h, "a") == 3
    assert len(h.canonical_edges()) == 2


def test_gamma_label_pairing_swaps_sides():
    g = Graph(symmetric=True)
    g.add_vertices("uv")
    lab = GammaLabel(Perm((2, 1)), "j", Perm((1, 2)))
    e1, e2 = g.add_sym_edge("u", "v", lab)
    assert g.edges[e2].label == GammaLabel(Perm((1, 2)), "j", Perm((2, 1)))
    g.validate()


@pytest.mark.parametrize("label, twin_label, ok", [
    (GammaLabel(Perm((2, 1)), 1, Perm((1, 2))), GammaLabel(Perm([1, 2]), 1.0, Perm([2, 1])), True),
    (GammaLabel(Perm((2, 1)), 1, Perm((1, 2))), GammaLabel(Perm((2, 1)), 1, Perm((1, 2))), False),
    (GammaLabel(Perm((2, 1)), 1, Perm((1, 2))), GammaLabel(Perm((1, 2)), 2, Perm((2, 1))), False),
    (GammaLabel(Perm((1, 2)), 1, Perm((1, 2))), (Perm((1, 2)), 1, Perm((1, 2))), False),
    ((Perm((1, 2)), 1, Perm((1, 2))), GammaLabel(Perm((1, 2)), 1, Perm((1, 2))), False),
    ("w", "w", True),
    (1, 1.0, True),
    ("w", "v", False),
], ids=repr)
def test_twin_labels_must_be_reverses(label, twin_label, ok):
    # a GammaLabel's twin is the label reversed; any other label's twin is the label
    g = Graph(symmetric=True)
    g.add_vertices("ab")
    g.add_edge("a", "b", label, "e")
    g.add_edge("b", "a", twin_label, "f")
    g.pair_edges("e", "f")
    if ok:
        g.validate()
    else:
        with pytest.raises(LabelConflict, match=r"^paired edges 'e'/'f' carry incompatible labels$"):
            g.validate()


def _ab(symmetric=False, edges=(), pairing=()):
    """Vertices a and b, the edges ``(id, tail, head)`` written straight
    into the edge dict and the pairing into the pairing dict, so no check
    of ``add_edge`` or ``pair_edges`` runs."""
    g = Graph(symmetric=symmetric)
    g.add_vertices("ab")
    g.edges.update((eid, Edge(tail, head, None)) for eid, tail, head in edges)
    g.pairing.update(pairing)
    return g


STRUCTURE_ERRORS = {
    "unknown tail": (lambda: _ab().add_edge("x", "a"), "unknown tail vertex 'x'"),
    "unknown head": (lambda: _ab().add_edge("a", "x"), "unknown head vertex 'x'"),
    "add_sym_edge on a directed graph": (lambda: _ab().add_sym_edge("a", "b"), "add_sym_edge on a non-symmetric graph"),
    "pair non-reverses": (
        lambda: _ab(True, [("e", "a", "b"), ("f", "a", "b")]).pair_edges("e", "f"),
        "edges 'e', 'f' are not mutual reverses",
    ),
    "pair a loop with itself": (
        lambda: _ab(True, [("e", "a", "a")]).pair_edges("e", "e"), "an edge cannot be its own twin"),
    "missing endpoint": (lambda: _ab(edges=[("e", "a", "x")]).validate(), "edge 'e' has a missing endpoint"),
    "unpaired": (lambda: _ab(True, [("e", "a", "b")]).validate(), "symmetric graph with unpaired edges: ['e']"),
    "self-twin": (
        lambda: _ab(True, [("e", "a", "a")], {"e": "e"}).validate(),
        "pairing is not a fixed-point-free involution at 'e'",
    ),
    "twins that are not reverses": (
        lambda: _ab(True, [("e", "a", "b"), ("f", "a", "b")], {"e": "f", "f": "e"}).validate(),
        "paired edges 'e'/'f' are not mutual reverses",
    ),
    "directed with a pairing": (
        lambda: _ab(False, [("e", "a", "b"), ("f", "b", "a")], {"e": "f", "f": "e"}).validate(),
        "non-symmetric graph must not carry a pairing",
    ),
}


@pytest.mark.parametrize("case", STRUCTURE_ERRORS)
def test_structural_errors_are_named(case):
    call, message = STRUCTURE_ERRORS[case]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_graphs_are_unhashable_and_a_symmetric_graph_is_no_directed_one():
    with pytest.raises(TypeError, match="^graphs are not hashable$"):
        hash(Graph())
    assert isomorphic(Graph(symmetric=True), Graph()) is None
    assert isomorphic(_ab(True), _ab()) is None


def test_merge_parallel_directed():
    g = Graph()
    g.add_vertices("ab")
    g.add_edge("a", "b", "x")
    g.add_edge("a", "b", "x")
    g.add_edge("a", "b", "y")
    m = merge_parallel(g)
    assert len(m.edges) == 2


def test_merge_parallel_keeps_twin_loops():
    g = Graph(symmetric=True)
    g.add_vertex("u")
    g.add_sym_edge("u", "u")
    g.add_sym_edge("u", "u")
    m = merge_parallel(g)
    m.validate()
    assert len(m.edges) == 2  # one undirected loop = two paired twins
    assert len(m.canonical_edges()) == 1


def test_union_find_keeps_smallest_representative_on_deep_chains():
    names = [f"v{5000 - i:04d}" for i in range(5000)]  # the smallest name has the last id
    chain = list(zip(names, names[1:]))[::-1]  # each weld hangs the chain under a new root
    assert set(_weld(names, chain).values()) == {min(names)} == {names[-1]}
    cmap = _weld([*names, "0"], [*chain, (names[0], "0")])  # a later weld to "0" renames the class
    assert set(cmap.values()) == {"0"}


def test_weld_names_a_tie_by_its_earliest_member():
    assert _weld([1, "1", "2"], [(1, "1"), ("2", "1")]) == {1: 1, "1": 1, "2": 1}
    assert _weld(["1", 1], [(1, "1")]) == {"1": "1", 1: "1"}
    assert _weld(["b", "a"], []) == {"b": "b", "a": "a"}


def test_identify_keeps_parallels():
    g = Graph()
    g.add_vertices("abc")
    g.add_edge("a", "b", "x")
    g.add_edge("c", "b", "x")
    q = identify_vertices(g, {"c": "a"})
    assert sorted(q.vertices) == ["a", "b"]
    assert len(q.edges) == 2


def test_disjoint_union():
    u = disjoint_union(cycle(3), cycle(3))
    u.validate()
    assert len(u.vertices) == 6
    assert len(u.edges) == 12
    assert len(components(u)) == 2


def _named(*vertices) -> Graph:
    g = Graph(symmetric=True)
    g.add_vertices(vertices)
    return g


def test_disjoint_union_refuses_vertex_names_that_collide():
    tied = _named(1, "1")
    tied.add_sym_edge(1, "1")
    with pytest.raises(DomainError, match=r"^vertex names collide after suffixing: 1 and '1' both become '1\.0'; "
                                          r"rename the source vertices$"):
        disjoint_union(tied, tied)
    # a suffix can make two names meet across the sides ...
    with pytest.raises(DomainError, match=r"^vertex names collide after suffixing: 'ax' and 'a' both become 'ax';"):
        disjoint_union(_named("ax"), _named("a"), ("", "x"))
    # ... or fold the two sides into one copy
    with pytest.raises(DomainError, match=r"^vertex names collide after suffixing: 0 and 0 both become '0\.s';"):
        disjoint_union(cycle(3), cycle(3), (".s", ".s"))
    u = disjoint_union(_named("a", "b"), _named("a"), ("", "x"))
    assert list(u.vertices) == ["a", "b", "ax"]


def test_disjoint_union_refuses_edge_ids_that_collide():
    # the vertex names stay apart, but edge id "ex" meets "e" + "x": the
    # union must refuse rather than drop one of the two edges
    a = _named("p", "q")
    a.add_edge("p", "q", eid="ex")
    b = _named("r", "s")
    b.add_edge("r", "s", eid="e")
    with pytest.raises(DomainError, match=r"^duplicate edge id 'ex'$"):
        disjoint_union(a, b, ("", "x"))


@pytest.mark.parametrize("symmetric", [True, False])
def test_disjoint_union_keeps_the_output_of_names_that_stay_apart(symmetric):
    rng = random.Random(21)
    for suffixes in ((".0", ".1"), ("", "x"), ("l", "r")):
        for _ in range(20):
            a = random_multigraph(rng, rng.randint(0, 5), rng.randint(0, 8), symmetric=symmetric)
            b = random_multigraph(rng, rng.randint(0, 5), rng.randint(0, 8), symmetric=symmetric)
            b = b.relabel({v: f"b{v}" for v in b.vertices})  # "x" never ends a name of ``a``
            u = disjoint_union(a, b, suffixes)
            u.validate()
            assert u.vertices == [f"{v}{s}" for g, s in zip((a, b), suffixes) for v in g.vertices]
            assert {eid: (e.tail, e.head, e.label) for eid, e in u.edges.items()} == {
                f"{eid}{s}": (f"{e.tail}{s}", f"{e.head}{s}", e.label)
                for g, s in zip((a, b), suffixes) for eid, e in g.edges.items()
            }
            assert u.pairing == {f"{eid}{s}": f"{tw}{s}" for g, s in zip((a, b), suffixes)
                                 for eid, tw in g.pairing.items()}


COLLISION_SCRIPT = """
from cylgraph.core import Graph, disjoint_union
from cylgraph.cylinder import cyl_disjoint, cyl_sum, make_cylinder
from cylgraph.errors import DomainError
g = Graph(symmetric=True)
g.add_vertices([1, "1"])
g.add_sym_edge(1, "1")
c = make_cylinder(g, [1], ["1"])
for call in (lambda: disjoint_union(g, g), lambda: cyl_sum(c, c), lambda: cyl_disjoint(c, c)):
    try:
        call()
    except DomainError as exc:
        print(exc)
"""


def test_collision_messages_ignore_the_hash_seed():
    outputs = outputs_under_hash_seeds(COLLISION_SCRIPT, seeds=(0, 12345))
    assert len(outputs) == 1
    lines = next(iter(outputs)).splitlines()
    assert len(lines) == 3
    assert all(line.startswith("vertex names collide after suffixing: 1 and '1' both become") for line in lines)


def test_with_labels_reverses_twin_labels_like_add_sym_edge():
    ident, swap = Perm.identity(2), Perm((2, 1))
    labels = [GammaLabel(ident, "a", swap), "x", None, GammaLabel(swap, 1, swap)]
    built = Graph(symmetric=True)
    built.add_vertices("uvw")
    for lab, (t, h) in zip(labels, ("uv", "vw", "ww", "wu")):
        built.add_sym_edge(t, h, lab)
    relabeled = built.stripped().with_labels(dict(zip(built.canonical_edges(), labels)))
    assert relabeled == built
    # records built without NamedTuple's __new__ are still Edges, fields and all
    assert all(type(e) is Edge for e in relabeled.edges.values())
    assert [(e.tail, e.head, e.label) for e in relabeled.edges.values()] == list(map(tuple, built.edges.values()))
    assert list(relabeled.edges.items()) == list(built.edges.items())
    assert relabeled.edges["e1"].label == GammaLabel(swap, "a", ident)
    assert relabeled.edges["e3"].label == "x"


def test_with_labels_names_an_edge_left_without_a_label():
    g = cycle(3)
    with pytest.raises(DomainError, match="'e2'"):
        g.with_labels({"e0": 1, "e1": 1})
    directed = Graph()
    directed.add_vertices("ab")
    directed.add_edge("a", "b", 1, "f")
    with pytest.raises(DomainError, match="'f'"):
        directed.with_labels({})


def test_stripped_keeps_insertion_order():
    g = random_multigraph(random.Random(4), 5, 12, symmetric=True)
    g.add_vertex("late")
    g.add_sym_edge("late", "late", "loop")
    bare = g.stripped()
    assert bare.vertices == g.vertices
    assert list(bare.edges) == list(g.edges)
    assert list(bare.pairing.items()) == list(g.pairing.items())
    assert [e[:2] for e in bare.edges.values()] == [e[:2] for e in g.edges.values()]
    assert all(e.label is None for e in bare.edges.values())
    assert all(type(e) is Edge and (e.tail, e.head) == e[:2] for e in bare.edges.values())


def test_components_and_girth():
    c5 = cycle(5)
    assert girth(c5) == 5
    assert len(components(c5)) == 1
    assert girth(path(4)) is None


def test_isomorphic_finds_relabeling():
    g = cycle(6)
    h = g.relabel({i: f"w{(i * 5) % 6}" for i in range(6)})
    found = isomorphic(g, h)
    assert found is not None
    vmap, emap = found["vertices"], found["edges"]
    assert len(set(vmap.values())) == 6
    for eid, e in g.edges.items():
        img = h.edges[emap[eid]]
        assert (vmap[e.tail], vmap[e.head], e.label) == (img.tail, img.head, img.label)


def test_isomorphic_rejects():
    assert isomorphic(cycle(6), path(6)) is None
    assert isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3))) is None
    a = Graph()
    a.add_vertices("ab")
    a.add_edge("a", "b", "x")
    b = Graph()
    b.add_vertices("ab")
    b.add_edge("a", "b", "y")
    assert isomorphic(a, b) is None


def test_isomorphic_respects_labels_multiedges():
    a = Graph()
    a.add_vertices("ab")
    a.add_edge("a", "b", "x")
    a.add_edge("a", "b", "x")
    b = Graph()
    b.add_vertices("ab")
    b.add_edge("a", "b", "x")
    b.add_edge("b", "a", "x")
    assert isomorphic(a, b) is None


def test_connected_order_matches_the_pool_scan():
    rng = random.Random(5)
    for _ in range(600):
        g = tied_names(random_graph(rng, rng.randint(0, 12), p=rng.choice((0.1, 0.3, 0.6)),
                                    symmetric=rng.random() < 0.5, loops=True))
        nbrs = g.neighbour_sets()
        ranked = sorted(g.vertices, key=lambda v: (rng.random() < 0.3, str(v)))  # str ties stay in place
        pinned = set(rng.sample(ranked, rng.randint(0, min(3, len(ranked)))))
        for eligible in ((), pinned):
            assert connected_order(ranked, nbrs, eligible) == pool_scan(ranked, nbrs, eligible)


@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
def test_connected_order_places_each_component_as_one_run(symmetric):
    # construct._first_maps splits its search order into components at the
    # vertices with no earlier neighbour; this is the property it relies on
    rng = random.Random(31 + symmetric)
    several = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        g = random_multigraph(rng, n, rng.randint(0, n), symmetric=symmetric)  # sparse: isolated vertices
        nbrs = g.neighbour_sets()
        ranked = g.vertices
        rng.shuffle(ranked)
        order = connected_order(ranked, nbrs)
        assert sorted(order) == sorted(ranked)
        at = {v: i for i, v in enumerate(order)}
        comps = sorted(components(g), key=lambda comp: min(map(at.get, comp)))
        starts = [min(map(at.get, comp)) for comp in comps]
        for comp, start in zip(comps, starts):
            assert sorted(map(at.get, comp)) == list(range(start, start + len(comp)))
        assert starts == [i for i, v in enumerate(order) if not any(at[u] < i for u in nbrs[v])]
        several += len(comps) > 1
    assert several >= 100


def test_isomorphic_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        out = nx.MultiDiGraph()
        out.add_nodes_from(g.vertices)
        out.add_edges_from((e.tail, e.head, {"label": e.label}) for e in g.edges.values())
        return out

    def same_labels(a, b):
        return Counter(d["label"] for d in a.values()) == Counter(d["label"] for d in b.values())

    rng = random.Random(11)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        symmetric = rng.random() < 0.5
        g = random_multigraph(rng, n, rng.randint(0, 2 * n), symmetric=symmetric)
        if rng.random() < 0.5:
            h = shuffled_relabel(rng, g)
        else:
            h = random_multigraph(rng, n, len(g.canonical_edges()), symmetric=symmetric)
        got = isomorphic(g, h)
        assert (got is not None) == nx.is_isomorphic(to_nx(g), to_nx(h), edge_match=same_labels)
        if got is not None:
            found += 1
            assert iso_error(g, h, got) is None
    assert found >= 150


def test_isomorphic_node_count_is_pinned(monkeypatch):
    # Petersen and the pentagonal prism are both cubic on 10 vertices, so the
    # invariants cannot tell them apart; refuting a match takes 1520 nodes
    prism = neps_product(cycle_graph(5), complete_graph(2), "cartesian")
    monkeypatch.setenv("CYL_NODE_BUDGET", "1520")
    assert isomorphic(petersen(), prism) is None
    monkeypatch.setenv("CYL_NODE_BUDGET", "1519")
    with pytest.raises(ResourceLimit):
        isomorphic(petersen(), prism)


def _loop_labelled_square(order):
    """Four vertices in one refined class: 0 and 2 carry an ``a`` loop and
    are joined by ``b`` both ways, 1 and 3 the other way round."""
    g = Graph()
    g.add_vertices(order)
    for tail, head, lab in ((0, 0, "a"), (2, 2, "a"), (0, 2, "b"), (2, 0, "b"),
                            (1, 1, "b"), (3, 3, "b"), (1, 3, "a"), (3, 1, "a")):
        g.add_edge(tail, head, lab)
    return g


@pytest.mark.parametrize("order, vmap", [
    ([1, 0, 3, 2], {0: 0, 2: 2, 1: 1, 3: 3}),
    ([3, 2, 1, 0], {0: 2, 2: 0, 1: 3, 3: 1}),
])
def test_isomorphic_tells_candidates_apart_by_their_loop_labels(monkeypatch, order, vmap):
    g, h = _loop_labelled_square([0, 1, 2, 3]), _loop_labelled_square(order)
    monkeypatch.setenv("CYL_NODE_BUDGET", "7")
    got = isomorphic(g, h)
    assert got["vertices"] == vmap
    assert list(got["vertices"]) == list(vmap)
    assert iso_error(g, h, got) is None
    monkeypatch.setenv("CYL_NODE_BUDGET", "6")
    with pytest.raises(ResourceLimit):
        isomorphic(g, h)


def test_isomorphic_reads_the_budget_from_the_environment(monkeypatch):
    monkeypatch.setenv("CYL_NODE_BUDGET", "0")
    with pytest.raises(ResourceLimit):
        isomorphic(cycle(6), cycle(6))
    monkeypatch.setenv("CYL_NODE_BUDGET", "6")
    assert isomorphic(cycle(6), cycle(6)) is not None
    monkeypatch.setenv("CYL_NODE_BUDGET", "many")
    with pytest.raises(DomainError):
        isomorphic(cycle(6), cycle(6))


@pytest.mark.parametrize("g", [path_graph(1500), cycle_graph(200)], ids=["P1500", "C200"])
def test_isomorphic_at_scale(g):
    # random names, same vertex order: candidates are still tried in h's
    # vertex order, so a shuffled order costs quadratically many nodes
    names = random.Random(2).sample(range(10 * len(g.vertices)), len(g.vertices))
    h = g.relabel(dict(zip(g.vertices, names)))
    start = time.perf_counter()
    found = isomorphic(g, h)
    assert time.perf_counter() - start <= 2.0
    assert iso_error(g, h, found) is None


def test_json_roundtrip():
    g = Graph(symmetric=True)
    g.add_vertices("uv")
    g.add_sym_edge("u", "v", GammaLabel(Perm((2, 1)), 0, Perm((1, 2))))
    g.add_sym_edge("u", "u", "plain")
    data = g.to_json()
    back = Graph.from_json(data)
    assert back == g
    assert back.to_json() == data


def test_dot_output():
    g = cycle(3)
    dot = g.to_dot()
    assert dot.startswith('graph "G" {')
    assert dot.count("--") == 3
    d = Graph()
    d.add_vertices("ab")
    d.add_edge("a", "b", "lbl")
    assert '->' in d.to_dot()


def test_relabel_requires_injective():
    g = path(3)
    with pytest.raises(DomainError):
        g.relabel({0: "x", 1: "x"})


def test_induced():
    g = cycle(4)
    sub = g.induced([0, 1])
    sub.validate()
    assert len(sub.edges) == 2
    with pytest.raises(DomainError):
        g.induced(["nope"])


def test_from_json_shares_one_object_per_distinct_attachment_label():
    # the product's label audit memoises by label object, so a graph read back from JSON
    # must carry one object per distinct label, as the graph it was written from did
    ident = Perm.identity(2)
    g = cycle_graph(40).with_labels(dict.fromkeys(cycle_graph(40).edges, GammaLabel(ident, "k", ident)))
    back = Graph.from_json(g.to_json())
    assert back == g and len({id(e.label) for e in back.edges.values()}) == 1
    # keys equal as values but written apart in JSON stay apart
    h = Graph()
    h.add_vertices("ab")
    for key in (1, 1.0, True, 0.0, -0.0, 1, "1"):
        h.add_edge("a", "b", GammaLabel(ident, key, ident))
    back = Graph.from_json(h.to_json())
    assert [repr(e.label.key) for e in back.edges.values()] == ["1", "1.0", "True", "0.0", "-0.0", "1", "'1'"]
    assert len({id(e.label) for e in back.edges.values()}) == 6
