"""The search contract of ``iter_homs``: its output order against a brute-force
oracle, its node counts in every mode, and gamma search on deep sources; and
gamma-mode counting by elimination against that enumeration."""

import itertools
import random
import time
from collections import Counter

import pytest

from cylgraph.catalog import complete_graph, cycle_graph, path_graph, petersen
from cylgraph.construct import cyl_product, exponential, uniform_labels
from cylgraph.core import GammaLabel, Graph, _Budget
from cylgraph.cylinder import CylinderSet, square_cyl, wedge_cyl
from cylgraph.errors import ResourceLimit
from cylgraph.hom import (
    Homomorphism,
    _src_edges,
    _vertex_order,
    check_hom,
    count_homs,
    extract_alphas,
    find_hom,
    iter_homs,
    list_homs,
)
from cylgraph.perm import Perm, PermGroup

from util import hom_key, pair_class, random_gamma_labels, random_multigraph


def brute_homs(g, h, mode, group=None, pins=None):
    """Every candidate in the documented nested order, kept when valid:

    - vertex maps, lexicographic over ``_vertex_order(g, pins)``, target
      vertices by ``str`` (a pinned vertex takes only its pin);
    - gamma mode: twist vectors, lexicographic over the edge-incident
      vertices sorted by ``str``, each running through the group in order;
    - edge images, lexicographic over ``_src_edges(g)``, target edges by id,
      keeping the first valid image of each twin pair.

    A candidate is valid when ``check_hom`` accepts it and, in gamma mode,
    its twists are the ones ``extract_alphas`` reads off its edges."""
    pins = pins or {}
    order = _vertex_order(g, pins)
    hverts = sorted(h.vertices, key=str)
    src = _src_edges(g)
    twist_verts = sorted({v for e in g.edges.values() for v in (e.tail, e.head)}, key=str)
    out = []
    for images in itertools.product(*([pins[u]] if u in pins else hverts for u in order)):
        vmap = dict(zip(order, images))
        options = [
            [f for f in sorted(h.edges) if h.edges[f][:2] == (vmap[g.edges[eid].tail], vmap[g.edges[eid].head])]
            for eid in src
        ]
        vectors = itertools.product(list(group), repeat=len(twist_verts)) if mode == "gamma" else [None]
        for vector in vectors:
            alphas = None if vector is None else dict(zip(twist_verts, vector))
            seen = set()
            for pick in itertools.product(*options):
                emap = dict(zip(src, pick))
                if g.symmetric:
                    emap.update({g.pairing[eid]: h.pairing[f] for eid, f in zip(src, pick)})
                hom = Homomorphism(vmap, emap, alphas)
                if check_hom(g, h, hom, mode=mode, group=group) is not None:
                    continue
                if alphas is not None and extract_alphas(g, h, hom, group) != alphas:
                    continue
                classes = tuple(pair_class(h, f) for f in pick)
                if classes not in seen:
                    seen.add(classes)
                    out.append(hom)
    return out


def fingerprint(hom):
    twists = None if hom.alphas is None else sorted((str(v), tuple(a)) for v, a in hom.alphas.items())
    return hom_key(hom), twists


def random_labelled(rng, n, m, symmetric, perms):
    """n vertices and m random edges (twin pairs when symmetric), loops and
    parallels allowed, each labelled with a random key and random twists."""
    g = Graph(symmetric=symmetric)
    g.add_vertices(range(n))
    for _ in range(m if n else 0):
        lab = GammaLabel(rng.choice(perms), rng.choice((0, 1)), rng.choice(perms))
        if symmetric:
            g.add_sym_edge(rng.randrange(n), rng.randrange(n), lab)
        else:
            g.add_edge(rng.randrange(n), rng.randrange(n), lab)
    return g


@pytest.mark.parametrize("group", [PermGroup.symmetric(2), PermGroup.cyclic(3), PermGroup.symmetric(3)],
                         ids=["S2", "C3", "S3"])
def test_list_homs_matches_the_brute_force_order(group):
    rng = random.Random(17 + group.degree + len(group))
    everything = list(PermGroup.symmetric(group.degree))
    checked = 0
    for _ in range(40 if len(group) < 6 else 12):
        symmetric = rng.random() < 0.5
        # labels drawn partly from outside the group, so some twists fail
        perms = everything if rng.random() < 0.5 else list(group)
        g = random_labelled(rng, rng.randint(1, 3), rng.randint(1, 3), symmetric, perms)
        h = random_labelled(rng, rng.randint(1, 3), rng.randint(2, 6), symmetric, perms)
        pin_sets = [{}]
        v = rng.choice(g.vertices)
        pin_sets.append({v: rng.choice(h.vertices)})
        for mode in ("plain", "labeled", "gamma"):
            grp = group if mode == "gamma" else None
            for pins in pin_sets:
                want = brute_homs(g, h, mode, grp, pins)
                got = list_homs(g, h, mode=mode, group=grp, pins=pins)
                assert [fingerprint(x) for x in got] == [fingerprint(x) for x in want]
                assert count_homs(g, h, mode=mode, group=grp, pins=pins) == len(want)
                checked += len(want)
    assert checked > 100  # the instances are not all hom-free


def gamma_instances():
    s2 = PermGroup.symmetric(2)
    wedge = CylinderSet(s2, {1: wedge_cyl()})
    mixed = CylinderSet(s2, {1: wedge_cyl(), 2: square_cyl()})
    return {
        "wedge": (uniform_labels(cycle_graph(4), 1, width=2), exponential(wedge, cycle_graph(5)).graph, s2),
        "twisted": (random_gamma_labels(random.Random(7), path_graph(3), mixed),
                    exponential(mixed, complete_graph(3)).graph, s2),
    }


# name -> (homs, smallest budget list_homs succeeds at, smallest budget
# count_homs succeeds at), each found by bisection: one node less raises.
# The list budget is what the vertex-map and twist search spends; the count
# budget is what variable elimination over (vertex, twist) values spends.
GAMMA_NODE_PINS = {"wedge": (80, 1360, 155), "twisted": (48, 882, 47)}


@pytest.mark.parametrize("name", sorted(GAMMA_NODE_PINS))
def test_gamma_search_spends_pinned_node_counts(monkeypatch, name):
    g, h, group = gamma_instances()[name]
    homs, list_budget, count_budget = GAMMA_NODE_PINS[name]
    monkeypatch.setenv("CYL_NODE_BUDGET", str(list_budget))
    assert len(list_homs(g, h, mode="gamma", group=group)) == homs
    monkeypatch.setenv("CYL_NODE_BUDGET", str(list_budget - 1))
    with pytest.raises(ResourceLimit):
        list_homs(g, h, mode="gamma", group=group)
    monkeypatch.setenv("CYL_NODE_BUDGET", str(count_budget))
    assert count_homs(g, h, mode="gamma", group=group) == homs
    monkeypatch.setenv("CYL_NODE_BUDGET", str(count_budget - 1))
    with pytest.raises(ResourceLimit):
        count_homs(g, h, mode="gamma", group=group)


def list_instances():
    labels = ("a", "b")
    return {
        "petersen_k3_plain": (petersen(), complete_graph(3), "plain"),
        "labeled_multigraph": (random_multigraph(random.Random(4), 6, 7, labels=labels, symmetric=True),
                               random_multigraph(random.Random(104), 4, 10, labels=labels, symmetric=True),
                               "labeled"),
    }


# name -> (homs, smallest budget list_homs succeeds at), found by the same
# bisection: what the vertex-map search and the edge choices spend.
LIST_NODE_PINS = {"petersen_k3_plain": (120, 3288), "labeled_multigraph": (1320, 5132)}


@pytest.mark.parametrize("name", sorted(LIST_NODE_PINS))
def test_plain_and_labeled_search_spend_pinned_node_counts(monkeypatch, name):
    g, h, mode = list_instances()[name]
    homs, list_budget = LIST_NODE_PINS[name]
    monkeypatch.setenv("CYL_NODE_BUDGET", str(list_budget))
    assert len(list_homs(g, h, mode=mode)) == homs
    monkeypatch.setenv("CYL_NODE_BUDGET", str(list_budget - 1))
    with pytest.raises(ResourceLimit):
        list_homs(g, h, mode=mode)


def pinned_multigraph_instance(mode):
    """A pinned source into a symmetric multigraph target whose parallel edges give leaves several picks."""
    rng = random.Random(4)
    labels = (GammaLabel(Perm.identity(2), 0, Perm.identity(2)), GammaLabel(Perm.identity(2), 0, Perm((2, 1))))
    labels = labels if mode == "gamma" else ("a", "a", "b")
    g = random_multigraph(rng, 4, 4, labels=labels, symmetric=True)
    h = random_multigraph(rng, 3, 14, labels=labels, symmetric=True)
    return g, h, PermGroup.symmetric(2) if mode == "gamma" else None, {0: 1}


# mode -> (maps, smallest budget at which the whole enumeration completes), found by bisection
# before the search charged its budget inline; the charge must stay the same to the node
ENUMERATION_NODE_PINS = {"plain": (530, 930), "labeled": (97, 290), "gamma": (36, 335)}


@pytest.mark.parametrize("mode", sorted(ENUMERATION_NODE_PINS))
def test_inline_node_charges_keep_budget_and_message(monkeypatch, mode):
    g, h, group, pins = pinned_multigraph_instance(mode)
    maps, budget = ENUMERATION_NODE_PINS[mode]
    monkeypatch.setenv("CYL_NODE_BUDGET", str(budget))
    assert len(list(iter_homs(g, h, mode, group, pins))) == maps
    monkeypatch.setenv("CYL_NODE_BUDGET", str(budget - 1))
    with pytest.raises(ResourceLimit) as err:
        list(iter_homs(g, h, mode, group, pins))
    with pytest.raises(ResourceLimit) as spent:  # the message has one home, ``_Budget.spend``
        _Budget().spend(budget)
    assert str(err.value) == str(spent.value)


def test_gamma_search_has_no_recursion_limit():
    g = uniform_labels(path_graph(1500), 1)
    k2 = uniform_labels(complete_graph(2), 1)
    trivial = PermGroup.trivial(1)
    start = time.perf_counter()
    hom = find_hom(g, k2, mode="gamma", group=trivial)
    assert count_homs(g, k2, mode="gamma", group=trivial) == 2
    assert time.perf_counter() - start <= 2.0
    assert check_hom(g, k2, hom, mode="gamma", group=trivial) is None
    assert hom.alphas == dict.fromkeys(g.vertices, Perm.identity(1))


def test_gamma_lists_a_twin_pair_of_loops_once():
    # both directed loops of the target pair induce the identity twist, so
    # the source loop has one image per twin pair, not two
    ident = Perm.identity(2)
    s2 = PermGroup.symmetric(2)
    g = Graph(symmetric=True)
    g.add_vertex("u")
    g.add_sym_edge("u", "u", GammaLabel(ident, 0, ident))
    h = Graph(symmetric=True)
    h.add_vertex("x")
    h.add_sym_edge("x", "x", GammaLabel(ident, 0, ident))
    homs = list_homs(g, h, mode="gamma", group=s2)
    assert [fingerprint(x) for x in homs] == [fingerprint(x) for x in brute_homs(g, h, "gamma", s2)]
    assert len(homs) == count_homs(g, h, mode="gamma", group=s2) == 1
    assert homs[0].alphas == {"u": ident}


@pytest.mark.parametrize("group", [PermGroup.trivial(2), PermGroup.symmetric(2), PermGroup.cyclic(3),
                                   PermGroup.symmetric(3)], ids=["trivial2", "S2", "C3", "S3"])
def test_gamma_count_equals_the_enumeration(group):
    rng = random.Random(41 + group.degree + len(group))
    everything = list(PermGroup.symmetric(group.degree))
    seen: Counter = Counter()
    for _ in range(100):
        symmetric = rng.random() < 0.5
        # labels drawn partly from outside the group, so some twists fail
        perms = everything if rng.random() < 0.5 else list(group)
        g = random_labelled(rng, rng.randint(0, 4), rng.randint(0, 5), symmetric, perms)
        h = random_labelled(rng, rng.randint(1, 3), rng.randint(2, 9), symmetric, perms)
        pins = {}
        if g.vertices and rng.random() < 0.4:
            pins = {rng.choice(g.vertices): rng.choice(h.vertices)}
        want = sum(1 for _ in iter_homs(g, h, mode="gamma", group=group, pins=pins))
        assert count_homs(g, h, mode="gamma", group=group, pins=pins) == want
        ends = [frozenset(g.edges[eid][:2]) for eid in g.canonical_edges()]  # one per twin pair
        seen.update(nonzero=want > 0, symmetric=symmetric, empty=not g.vertices, pinned=bool(pins),
                    loops=any(len(e) == 1 for e in ends), parallel=len(set(ends)) < len(ends),
                    isolated=bool(g.isolated_vertices()))
    assert seen["nonzero"] >= 30  # the instances are not all hom-free
    assert all(seen[k] for k in ("symmetric", "empty", "pinned", "loops", "parallel", "isolated"))


def test_gamma_counts_of_wedge_cycles_equal_the_product_side():
    s2 = PermGroup.symmetric(2)
    cset = CylinderSet(s2, {1: wedge_cyl()})
    k3 = complete_graph(3)
    expo = exponential(cset, k3).graph
    for n, want in ((6, 192), (9, 1536), (12, 12288), (15, 98304), (200, None)):
        g = uniform_labels(cycle_graph(n), 1, width=2)
        start = time.perf_counter()
        got = count_homs(g, expo, mode="gamma", group=s2)
        assert time.perf_counter() - start <= 1.0
        assert got == count_homs(cyl_product(g, cset).graph, k3, "labeled")
        assert want is None or got == want
