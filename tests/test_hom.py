import copy
import pickle
import random
import time

import pytest

from cylgraph.catalog import complete_graph, cycle_graph, kneser_graph
from cylgraph.construct import uniform_labels
from cylgraph.core import GammaLabel, Graph, disjoint_union, isomorphic
from cylgraph.errors import DomainError, ResourceLimit
from cylgraph.hom import (
    MODES,
    Homomorphism,
    _vertex_order,
    check_hom,
    compose_homs,
    count_homs,
    extract_alphas,
    find_hom,
    identity_hom,
    iter_homs,
    list_homs,
)
from cylgraph.perm import Perm, PermGroup

from util import hom_key, outputs_under_hash_seeds, pool_scan, random_graph, random_multigraph, tied_names


def sym_cycle(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n):
        g.add_sym_edge(i, (i + 1) % n)
    return g


def sym_path(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n + 1))
    for i in range(n):
        g.add_sym_edge(i, i + 1)
    return g


def complete(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_sym_edge(i, j)
    return g


def two_loops():
    g = Graph(symmetric=True)
    g.add_vertices(["p", "q"])
    g.add_sym_edge("p", "p")
    g.add_sym_edge("q", "q")
    return g


def test_odd_cycle_vs_cliques():
    c5 = sym_cycle(5)
    assert find_hom(c5, complete(3)) is not None
    assert find_hom(c5, complete(2)) is None
    assert find_hom(sym_cycle(4), complete(2)) is not None


def test_cycle_to_clique_count_closed_form():
    # maps of an n-cycle into a clique: (k-1)^n + (-1)^n (k-1)
    assert count_homs(sym_cycle(5), complete(3)) == 2**5 - 2
    assert count_homs(sym_cycle(20), complete(5)) == 4**20 + 4


def test_two_loop_target_counts_components():
    tgt = two_loops()
    assert count_homs(sym_path(2), tgt) == 2
    g = disjoint_union(sym_path(1), sym_cycle(3))
    assert count_homs(g, tgt) == 4
    homs = list_homs(sym_path(1), tgt)
    assert len(homs) == 2
    assert all(check_hom(sym_path(1), tgt, s) is None for s in homs)


def test_count_matches_enumeration_randomised():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        g = Graph(symmetric=True)
        g.add_vertices(range(n))
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randrange(n), rng.randrange(n)
            g.add_sym_edge(a, b, rng.choice(["r", "s"]))
        h = Graph(symmetric=True)
        h.add_vertices(range(m))
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randrange(m), rng.randrange(m)
            h.add_sym_edge(a, b, rng.choice(["r", "s"]))
        for mode in ("plain", "labeled"):
            homs = list_homs(g, h, mode=mode)
            assert count_homs(g, h, mode=mode) == len(homs)
            assert len(set(homs)) == len(homs)
            for s in homs:
                assert check_hom(g, h, s, mode=mode) is None


def test_count_matches_enumeration_directed():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        g = Graph()
        g.add_vertices(range(n))
        for _ in range(rng.randint(0, 5)):
            g.add_edge(rng.randrange(n), rng.randrange(n), rng.choice([None, "t"]))
        h = Graph()
        h.add_vertices(range(m))
        for _ in range(rng.randint(0, 5)):
            h.add_edge(rng.randrange(m), rng.randrange(m), rng.choice([None, "t"]))
        for mode in ("plain", "labeled"):
            assert count_homs(g, h, mode=mode) == len(list_homs(g, h, mode=mode))


def test_labels_respected():
    g = Graph()
    g.add_vertices("uv")
    g.add_edge("u", "v", "red")
    h = Graph()
    h.add_vertices("ab")
    h.add_edge("a", "b", "blue")
    assert find_hom(g, h, mode="labeled") is None
    assert find_hom(g, h, mode="plain") is not None


def test_pins():
    p = sym_path(2)  # 0-1-2
    homs = list_homs(p, p, pins={0: 0, 2: 2})
    assert len(homs) == 1
    assert homs[0].vmap == {0: 0, 1: 1, 2: 2}
    assert count_homs(p, p, pins={0: 0, 2: 2}) == 1
    c4 = sym_cycle(4)
    assert count_homs(p, c4, pins={0: 0, 2: 0}) == 2  # middle folds to 1 or 3
    with pytest.raises(DomainError):
        find_hom(p, p, pins={99: 0})


@pytest.mark.parametrize("mode", ["plain", "labeled", "gamma"])
@pytest.mark.parametrize("pins", [{99: 0}, {0: "zz"}])
def test_count_rejects_pins_off_the_graphs(mode, pins):
    g, h = uniform_labels(cycle_graph(5), 1), uniform_labels(complete_graph(3), 1)
    group = PermGroup.trivial(1)
    for query in (count_homs, list_homs):
        with pytest.raises(DomainError):
            query(g, h, mode=mode, group=group, pins=pins)


@pytest.mark.parametrize("target", [[1], {1: 2}, (1, [2])], ids=repr)
def test_unhashable_pin_targets_are_domain_errors(target):
    c5 = cycle_graph(5)
    for query in (count_homs, list_homs, iter_homs, find_hom):
        with pytest.raises(DomainError) as err:
            query(c5, c5, pins={0: target})
        assert str(err.value) == f"pin target {target!r} of 0 not in target"


def test_list_limit():
    k3 = complete(3)
    assert list_homs(k3, k3, mode="plain", limit=0) == []
    assert len(list_homs(k3, k3, mode="plain", limit=2)) == 2
    assert len(list_homs(k3, k3, mode="plain", limit=None)) == 6
    with pytest.raises(DomainError):
        list_homs(k3, k3, mode="plain", limit=-3)
    for bad in ("3", 2.5, True, False, -1, [2]):
        with pytest.raises(DomainError) as err:
            list_homs(k3, k3, mode="plain", limit=bad)
        assert str(err.value) == f"limit= must be a non-negative integer, got {bad!r}"


@pytest.mark.parametrize("bad, message", [
    ({"mode": "colour"}, "unknown mode"),
    ({"pins": {99: 0}}, "not in source"),
    ({"pins": {0: "zz"}}, "not in target"),
    ({"mode": "gamma"}, "needs the slot group"),
], ids=repr)
def test_iter_homs_checks_its_arguments_at_the_call(bad, message):
    k3 = complete_graph(3)
    with pytest.raises(DomainError, match=message):
        iter_homs(k3, k3, **bad)
    with pytest.raises(DomainError, match=message):
        list_homs(k3, k3, limit=0, **bad)


def test_iter_homs_reads_the_node_budget_at_the_call(monkeypatch):
    k3 = complete_graph(3)
    monkeypatch.setenv("CYL_NODE_BUDGET", "5x")
    with pytest.raises(DomainError, match="CYL_NODE_BUDGET must be a non-negative integer"):
        iter_homs(k3, k3)
    with pytest.raises(DomainError, match="CYL_NODE_BUDGET must be a non-negative integer"):
        list_homs(k3, k3, limit=0)


def test_empty_and_edgeless():
    e3 = Graph(symmetric=True)
    e3.add_vertices("xyz")
    assert count_homs(e3, complete(4)) == 4**3
    none = Graph(symmetric=True)
    assert count_homs(none, complete(2)) == 1
    assert count_homs(e3, Graph(symmetric=True)) == 0


def test_symmetry_mismatch_rejected():
    d = Graph()
    d.add_vertex("a")
    with pytest.raises(DomainError):
        find_hom(d, complete(2))


def gamma_edge(lab, sym=False):
    g = Graph(symmetric=sym)
    g.add_vertices("uv")
    if sym:
        g.add_sym_edge("u", "v", lab)
    else:
        g.add_edge("u", "v", lab)
    return g


def test_gamma_mode_twists():
    ident = Perm.identity(2)
    tau = Perm((2, 1))
    s2 = PermGroup.symmetric(2)
    g = gamma_edge(GammaLabel(ident, 0, ident))
    h = gamma_edge(GammaLabel(tau, 0, tau))
    homs = list_homs(g, h, mode="gamma", group=s2)
    assert len(homs) == 1
    assert homs[0].alphas == {"u": tau, "v": tau}
    assert check_hom(g, h, homs[0], mode="gamma", group=s2) is None
    assert find_hom(g, h, mode="gamma", group=PermGroup.trivial(2)) is None
    assert count_homs(g, h, mode="gamma", group=s2) == 1


def test_gamma_key_must_match():
    ident = Perm.identity(2)
    s2 = PermGroup.symmetric(2)
    g = gamma_edge(GammaLabel(ident, 0, ident))
    h = gamma_edge(GammaLabel(ident, 1, ident))
    assert find_hom(g, h, mode="gamma", group=s2) is None


def test_gamma_count_matches_enumeration():
    ident = Perm.identity(2)
    tau = Perm((2, 1))
    s2 = PermGroup.symmetric(2)
    rng = random.Random(3)
    for _ in range(20):
        g = Graph()
        h = Graph()
        g.add_vertices(range(3))
        h.add_vertices(range(3))
        for _ in range(rng.randint(1, 3)):
            g.add_edge(rng.randrange(3), rng.randrange(3),
                       GammaLabel(rng.choice([ident, tau]), rng.choice([0, 1]), rng.choice([ident, tau])))
        for _ in range(rng.randint(1, 4)):
            h.add_edge(rng.randrange(3), rng.randrange(3),
                       GammaLabel(rng.choice([ident, tau]), rng.choice([0, 1]), rng.choice([ident, tau])))
        homs = list_homs(g, h, mode="gamma", group=s2)
        assert count_homs(g, h, mode="gamma", group=s2) == len(homs)
        assert len(set(homs)) == len(homs)
        for s in homs:
            assert check_hom(g, h, s, mode="gamma", group=s2) is None
            assert extract_alphas(g, h, s, s2) == s.alphas


def _multigraph_pairs(mode, symmetric):
    """(source, target, group) over multigraphs with parallel edges and
    loops, so that one vertex map has several edge maps."""
    ident, tau = Perm.identity(2), Perm((2, 1))
    labels = [GammaLabel(ident, 0, ident), GammaLabel(tau, 0, ident)] if mode == "gamma" else [None, "a"]
    group = PermGroup.symmetric(2) if mode == "gamma" else None
    rng = random.Random(f"{mode}-{symmetric}")
    return [(random_multigraph(rng, 3, 3, labels, symmetric), random_multigraph(rng, 3, 12, labels, symmetric), group)
            for _ in range(6)]


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "directed"])
@pytest.mark.parametrize("mode", MODES)
def test_edge_maps_read_after_listing_match_eager_maps(mode, symmetric):
    moved = 0
    for g, h, group in _multigraph_pairs(mode, symmetric):
        read = [(dict(s.vmap), dict(s.emap), s.alphas, hom_key(s), s.to_json(), hash(s))
                for s in iter_homs(g, h, mode=mode, group=group)]
        homs = list(iter_homs(g, h, mode=mode, group=group))
        assert len(homs) == len(read) == count_homs(g, h, mode=mode, group=group)
        for s, (vmap, emap, alphas, key, data, hashed) in zip(homs, read):
            eager = Homomorphism(vmap, emap, alphas)
            assert s.emap == emap and list(s.emap) == list(emap)
            assert (hom_key(s), s.to_json(), hash(s)) == (key, data, hashed) == (hom_key(eager), eager.to_json(), hash(eager))
            assert s == eager and eager == s
            assert check_hom(g, h, s, mode=mode, group=group) is None
        moved += sum(a.vmap == b.vmap and a.alphas == b.alphas for a, b in zip(homs, homs[1:]))
        assert len(set(homs)) == len(homs)
        for clone in (copy.copy, lambda s: pickle.loads(pickle.dumps(s))):
            for s, (vmap, emap, alphas, key, data, hashed) in zip(iter_homs(g, h, mode=mode, group=group), read):
                c = clone(s)  # before anything reads the edge map
                assert (c.vmap, c.emap, c.alphas, c.to_json(), hash(c)) == (vmap, emap, alphas, data, hashed)
                assert c == s
    # the edge picks moved under a fixed vertex map (and twists)
    assert moved >= 5


def test_gamma_requires_group_and_labels():
    g = gamma_edge(GammaLabel(Perm.identity(1), 0, Perm.identity(1)))
    with pytest.raises(DomainError):
        find_hom(g, g, mode="gamma")
    p = Graph()
    p.add_vertices("uv")
    p.add_edge("u", "v", "plain")
    with pytest.raises(DomainError):
        find_hom(p, p, mode="gamma", group=PermGroup.trivial(1))


def _twisted(pre_degree, post_degree):
    """One arc u -> v labeled by identity twists of the given degrees."""
    return gamma_edge(GammaLabel(Perm.identity(pre_degree), 0, Perm.identity(post_degree)))


GAMMA_VERBS = {
    "iter_homs": lambda g, h, group: iter_homs(g, h, mode="gamma", group=group),
    "find_hom": lambda g, h, group: find_hom(g, h, mode="gamma", group=group),
    "list_homs": lambda g, h, group: list_homs(g, h, mode="gamma", group=group),
    "count_homs": lambda g, h, group: count_homs(g, h, mode="gamma", group=group),
    "check_hom": lambda g, h, group: check_hom(g, h, Homomorphism({}, {}), mode="gamma", group=group),
}


@pytest.mark.parametrize("verb", sorted(GAMMA_VERBS))
def test_gamma_labels_of_another_degree_than_the_group_name_their_edge(verb):
    """A label whose pre or post twist acts on another number of slots than
    the group is an error naming its side, its edge and that twist's degree,
    not an answer of "no maps" or a degree mismatch naming no edge."""
    group = PermGroup.trivial(2)
    cases = [
        (_twisted(3, 3), _twisted(2, 2), "source edge 'e0' twists 3 slots, the group acts on 2"),
        (_twisted(2, 2), _twisted(3, 3), "target edge 'e0' twists 3 slots, the group acts on 2"),
        (_twisted(2, 2), _twisted(2, 3), "target edge 'e0' twists 3 slots, the group acts on 2"),
    ]
    for g, h, message in cases:
        with pytest.raises(DomainError) as err:
            GAMMA_VERBS[verb](g, h, group)
        assert str(err.value) == message


def test_identity_hom_and_compose():
    c = sym_cycle(4)
    ident = identity_hom(c)
    assert check_hom(c, c, ident) is None
    rot = find_hom(c, c, pins={0: 1})
    assert rot is not None
    both = compose_homs(ident, rot)
    assert both.vmap == rot.vmap
    assert check_hom(c, c, both) is None


def test_check_hom_reports_failures():
    g = sym_path(1)
    h = sym_path(1)
    good = find_hom(g, h)
    bad = Homomorphism(dict(good.vmap), dict(good.emap))
    bad.vmap[0] = "nope"
    assert check_hom(g, h, bad) is not None
    partial = Homomorphism({0: 0}, {})
    assert "unmapped" in check_hom(g, h, partial)
    # g and h have edges e0: 0 -> 1 and its twin e1: 1 -> 0
    ident = {0: 0, 1: 1}
    cases = [
        ({"e1": "e1"}, "edge 'e0' unmapped"),
        ({"e0": "zz", "e1": "e1"}, "edge 'e0' maps to unknown edge 'zz'"),
        ({"e0": "e1", "e1": "e0"}, "edge 'e0' image has wrong endpoints"),
    ]
    for emap, message in cases:
        assert check_hom(g, h, Homomorphism(ident, emap)) == message
    # two parallel edges 0 - 1: e0 may map to either, but its twin must follow
    h2 = sym_path(1)
    h2.add_sym_edge(0, 1, eid="f0", twin_eid="f1")
    crossed = Homomorphism(ident, {"e0": "e0", "e1": "f1"})
    assert check_hom(g, h2, crossed) == "edge map does not respect the twin pairing at 'e0'"


def test_budget_limits(monkeypatch):
    big = complete(7)
    monkeypatch.setenv("CYL_NODE_BUDGET", "50")
    with pytest.raises(ResourceLimit):
        list_homs(sym_cycle(7), big)


def test_elimination_ties_between_names_with_equal_str():
    # 1 and "1" tie on (degree, str); the engine must not compare the names
    g = Graph(symmetric=True)
    g.add_vertices([1, "1", 2])
    g.add_sym_edge(1, 2)
    g.add_sym_edge("1", 2)
    assert count_homs(g, complete(3), mode="plain") == 12


GAMMA_ORDER_SCRIPT = """
from cylgraph.core import GammaLabel, Graph
from cylgraph.hom import list_homs
from cylgraph.perm import Perm, PermGroup

ident, tau = Perm.identity(2), Perm((2, 1))
g = Graph()
g.add_vertices(["1", 1])
g.add_edge(1, "1", GammaLabel(ident, 0, ident))
h = Graph()
h.add_vertices("uv")
h.add_edge("u", "v", GammaLabel(tau, 0, tau))
h.add_edge("u", "v", GammaLabel(ident, 0, tau))
h.add_edge("v", "u", GammaLabel(ident, 0, ident))
for m in list_homs(g, h, mode="gamma", group=PermGroup.symmetric(2)):
    print([(repr(v), w) for v, w in m.vmap.items()], m.emap,
          [(repr(v), tuple(a)) for v, a in m.alphas.items()])
"""


def test_gamma_hom_order_ignores_the_hash_seed():
    # 1 and "1" tie under str; their twists must not come out in hash order
    outputs = outputs_under_hash_seeds(GAMMA_ORDER_SCRIPT)
    assert len(outputs) == 1
    assert next(iter(outputs)).count("\n") >= 2


def test_elimination_closed_forms_at_scale():
    rng = random.Random(3)
    tree = Graph(symmetric=True)
    tree.add_vertices(range(1500))
    for v in range(1, 1500):
        tree.add_sym_edge(rng.randrange(v), v)
    start = time.perf_counter()
    assert count_homs(sym_cycle(2000), complete(3), mode="plain") == 2**2000 + 2
    # a tree on n vertices has k (k-1)^(n-1) maps into K_k
    assert count_homs(sym_path(1999), complete(4), mode="plain") == 4 * 3**1999
    assert count_homs(tree, complete(3), mode="plain") == 3 * 2**1499
    assert time.perf_counter() - start <= 5.0


def test_elimination_order_pins_budget(monkeypatch):
    # the Petersen graph has 12960 proper 4-colourings; 6687 nodes is exactly
    # what the min-degree elimination order spends on counting them
    petersen = kneser_graph(5, 2)
    monkeypatch.setenv("CYL_NODE_BUDGET", "6687")
    assert count_homs(petersen, complete(4), mode="plain") == 12960
    monkeypatch.setenv("CYL_NODE_BUDGET", "6686")
    with pytest.raises(ResourceLimit):
        count_homs(petersen, complete(4), mode="plain")


def test_deep_search_has_no_recursion_limit():
    c = sym_cycle(2001)
    hom = find_hom(c, complete(3), mode="plain")
    assert hom is not None
    assert check_hom(c, complete(3), hom, mode="plain") is None


def test_vertex_order_matches_the_pool_scan():
    rng = random.Random(8)
    for _ in range(600):
        g = tied_names(random_graph(rng, rng.randint(0, 12), p=rng.choice((0.1, 0.3, 0.6)),
                                    symmetric=rng.random() < 0.5, loops=True))
        pins = {v: 0 for v in rng.sample(g.vertices, rng.randint(0, min(3, len(g.vertices))))}
        deg = {v: len(g.out_edges(v)) + len(g.in_edges(v)) for v in g.vertices}
        ranked = sorted(g.vertices, key=lambda v: (v not in pins, -deg[v], str(v)))
        assert _vertex_order(g, pins) == pool_scan(ranked, g.neighbour_sets(), pins)


def test_vertex_map_search_is_linear_in_the_source():
    c = sym_cycle(8001)
    start = time.perf_counter()
    hom = find_hom(c, complete(3), mode="plain")
    assert time.perf_counter() - start <= 2.0
    assert check_hom(c, complete(3), hom, mode="plain") is None


def test_resource_limit_names_the_limit_and_the_knobs(monkeypatch):
    monkeypatch.setenv("CYL_NODE_BUDGET", "3")
    for run, what in ((lambda: find_hom(cycle_graph(5), complete_graph(3)), "homomorphism search"),
                      (lambda: count_homs(cycle_graph(5), complete_graph(3)), "homomorphism count"),
                      (lambda: isomorphic(cycle_graph(5), cycle_graph(5)), "isomorphism search")):
        with pytest.raises(ResourceLimit) as err:
            run()
        assert str(err.value) == f"{what} exceeded its node budget of 3 nodes; raise CYL_NODE_BUDGET"
