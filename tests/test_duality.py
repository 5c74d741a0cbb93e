"""Both directions of the product/exponential correspondence."""

import random

import pytest

from cylgraph.catalog import path_graph
from cylgraph.construct import cyl_product, exponential, uniform_labels
from cylgraph.core import GammaLabel, Graph
from cylgraph.cylinder import CylinderSet, identity_cyl, path_cyl, sqcap_cyl, square_cyl
from cylgraph.duality import (
    check_duality,
    counit_map,
    exponential_map,
    gamma_acts_freely,
    is_lower_closed,
    is_upper_closed,
    product_map,
    retraction,
    section,
    unit_map,
)
from cylgraph.errors import DomainError
from cylgraph.hom import (
    Homomorphism,
    check_hom,
    compose_homs,
    find_hom,
    identity_hom,
    iter_homs,
)
from cylgraph.perm import Perm, PermGroup
from util import complete, cycle, random_gamma_labels, random_graph


def one_cyl(cyl, group):
    return CylinderSet(group, {1: cyl})


def pentagon_pentagram():
    ident, pi = Perm.identity(2), Perm((2, 1))
    g = Graph(symmetric=True)
    g.add_vertices(range(5))
    for i in range(5):
        g.add_sym_edge(i, (i + 1) % 5, GammaLabel(ident, 1, ident))
        g.add_sym_edge(i, (i + 2) % 5, GammaLabel(pi, 1, pi))
    return g


def test_identity_cylinder_report():
    g = uniform_labels(cycle(5), key=1)
    cs = one_cyl(identity_cyl(1), PermGroup.trivial(1))
    rep = check_duality(g, cs, complete(3))
    assert rep.count_product_side == 30  # walks around C5 in K3
    assert rep.count_exponential_side == 30
    assert rep.exists_equiv and rep.retraction_section_identity
    assert rep.tight_on_G and rep.gamma_action_free
    assert rep.maps_checked == 30


def test_petersen_three_colorings_on_both_sides():
    cs = one_cyl(sqcap_cyl(), PermGroup.symmetric(2))
    rep = check_duality(pentagon_pentagram(), cs, complete(3))
    # the product is the Petersen graph, which has 120 proper 3-colorings
    assert rep.count_product_side == 120
    assert rep.count_exponential_side == 120
    assert rep.retraction_section_identity and rep.gamma_action_free


def test_nonfree_instance_keeps_existence_only():
    g = Graph()
    g.add_vertex("u")
    g.add_edge("u", "u", GammaLabel(Perm.identity(2), 1, Perm.identity(2)))
    h = Graph()
    h.add_vertex("w")
    h.add_edge("w", "w")
    cs = one_cyl(identity_cyl(2, directed=True), PermGroup.symmetric(2))
    rep = check_duality(g, cs, h)
    assert rep.count_product_side == 1
    assert rep.count_exponential_side == 2
    assert rep.exists_equiv
    assert not rep.tight_on_G
    assert not rep.gamma_action_free
    assert not rep.retraction_section_identity
    assert rep.to_json()["count_exponential_side"] == 2


def test_retraction_inverts_each_vertex_shift_once(monkeypatch):
    cs = one_cyl(sqcap_cyl(), PermGroup.symmetric(2))
    g, h = pentagon_pentagram(), complete(3)
    tr, et = cyl_product(g, cs), exponential(cs, h)
    sigma = find_hom(tr.graph, h, mode="labeled")
    shifts = {v: et.shift(tuple(sigma.vmap[s] for s in tr.blowup(v))) for v in g.vertices}
    inverse, calls = Perm.inverse, []
    monkeypatch.setattr(Perm, "inverse", lambda p: calls.append(p) or inverse(p))
    sp = retraction(tr, et, sigma)
    assert calls == list(shifts.values())  # one per vertex, not one per incident edge
    assert sp.alphas == {v: inverse(d) for v, d in shifts.items()}
    assert len(set(shifts.values())) == 2  # both slot orders occur


def test_random_free_instances_roundtrip(seed=20240817):
    rng = random.Random(seed)
    cs = one_cyl(sqcap_cyl(), PermGroup.symmetric(2))
    free_seen = 0
    tries = 0
    while free_seen < 6 and tries < 60:
        tries += 1
        g = random_gamma_labels(rng, random_graph(rng, 4, 0.6, keep_isolated=False), cs)
        h = random_graph(rng, 4, 0.6)
        if not g.edges or not h.edges:
            continue
        et = exponential(cs, h)
        if not gamma_acts_freely(et):
            continue
        free_seen += 1
        rep = check_duality(g, cs, h)
        assert rep.exists_equiv
        assert rep.retraction_section_identity
        assert rep.count_product_side >= rep.count_exponential_side
    assert free_seen >= 6


def test_unit_and_counit_are_valid():
    g = uniform_labels(cycle(5), key=1)
    cs = one_cyl(path_cyl(2), PermGroup.trivial(1))
    u, tr, et = unit_map(g, cs)
    assert check_hom(g, et.graph, u, mode="gamma", group=cs.group) is None
    c, tr2, et2 = counit_map(cs, complete(3))
    assert check_hom(tr2.graph, complete(3), c, mode="labeled") is None


def directed_edge(prefix, lab):
    g = Graph()
    g.add_vertices([prefix + "0", prefix + "1"])
    g.add_edge(prefix + "0", prefix + "1", lab, "e_" + prefix)
    return g


def test_product_functor_laws():
    ident, pi = Perm.identity(2), Perm((2, 1))
    grp = PermGroup.symmetric(2)
    cs = one_cyl(identity_cyl(2, directed=True), grp)
    g1 = directed_edge("a", GammaLabel(ident, 1, ident))
    g2 = directed_edge("b", GammaLabel(pi, 1, pi))
    g3 = directed_edge("c", GammaLabel(ident, 1, pi))
    tr1, tr2, tr3 = (cyl_product(x, cs) for x in (g1, g2, g3))
    f = find_hom(g1, g2, mode="gamma", group=grp)
    g = find_hom(g2, g3, mode="gamma", group=grp)
    big_f = product_map(f, tr1, tr2)
    big_g = product_map(g, tr2, tr3)
    assert check_hom(tr1.graph, tr2.graph, big_f, mode="labeled") is None
    assert product_map(identity_hom(g1), tr1, tr1) == identity_hom(tr1.graph)
    assert product_map(compose_homs(f, g), tr1, tr3) == compose_homs(big_f, big_g)


def test_product_map_carries_a_reversed_edge_through_the_cylinder_reversal():
    # f swaps the two ends of the base edge, so it sends e0 onto its twin e1
    # and the copy of the path cylinder on e0 is carried end for end
    cs = one_cyl(path_cyl(2), PermGroup.trivial(1))
    g = uniform_labels(path_graph(1), 1)
    tr = cyl_product(g, cs)
    f = find_hom(g, g, mode="gamma", group=cs.group, pins={0: 1})
    assert f.emap == {"e0": "e1", "e1": "e0"}
    big = product_map(f, tr, tr)
    assert big.vmap == {"0#1": "1#1", "1#1": "0#1", "e0@w1": "e0@w1"}
    assert big.emap == {"e0@e0": "e0@e3", "e0@e1": "e0@e2", "e0@e2": "e0@e1", "e0@e3": "e0@e0"}
    assert check_hom(tr.graph, tr.graph, big, mode="labeled") is None


def test_product_map_needs_a_reversal_to_carry_a_reversed_edge():
    cs = one_cyl(path_cyl(2, labels=[0, 1]), PermGroup.trivial(1))
    g = uniform_labels(path_graph(1), 1)
    tr = cyl_product(g, cs)
    f = find_hom(g, g, mode="gamma", group=cs.group, pins={0: 1})
    with pytest.raises(DomainError) as err:
        product_map(f, tr, tr)
    assert str(err.value) == (
        "cylinder 1 has no end-for-end reversal; "
        "cannot carry a pair-reversing base map across the product"
    )


def test_exponential_functor_laws():
    grp = PermGroup.symmetric(2)
    cs = one_cyl(identity_cyl(2, directed=True), grp)
    h1 = Graph()
    h1.add_vertices("xy")
    h1.add_edge("x", "y")
    h2 = Graph()
    h2.add_vertices("pq")
    h2.add_edge("p", "q")
    h2.add_edge("q", "p")
    h3 = Graph()
    h3.add_vertices("st")
    h3.add_edge("s", "t")
    h3.add_edge("t", "s")
    h3.add_edge("s", "s")
    et1, et2, et3 = (exponential(cs, h) for h in (h1, h2, h3))
    q = find_hom(h1, h2, mode="labeled")
    r = find_hom(h2, h3, mode="labeled")
    big_q = exponential_map(q, et1, et2)
    assert check_hom(et1.graph, et2.graph, big_q, mode="gamma", group=grp) is None
    assert exponential_map(identity_hom(h1), et1, et1) == identity_hom(et1.graph)
    lhs = exponential_map(compose_homs(q, r), et1, et3)
    rhs = compose_homs(big_q, exponential_map(r, et2, et3))
    assert lhs == rhs


def test_naturality_squares():
    ident, pi = Perm.identity(2), Perm((2, 1))
    grp = PermGroup.symmetric(2)
    cs = one_cyl(identity_cyl(2, directed=True), grp)
    g1 = directed_edge("a", GammaLabel(ident, 1, ident))
    g2 = directed_edge("b", GammaLabel(pi, 1, pi))
    tr1, tr2 = cyl_product(g1, cs), cyl_product(g2, cs)
    f = find_hom(g1, g2, mode="gamma", group=grp)

    h1 = Graph()
    h1.add_vertices("xy")
    h1.add_edge("x", "y")
    h2 = Graph()
    h2.add_vertices("pq")
    h2.add_edge("p", "q")
    h2.add_edge("q", "p")
    q = find_hom(h1, h2, mode="labeled")
    et1, et2 = exponential(cs, h1), exponential(cs, h2)
    big_q = exponential_map(q, et1, et2)

    # base side: expanding after precomposition == precomposing the expansion
    n = 0
    for sp in iter_homs(g2, et1.graph, mode="gamma", group=grp):
        lhs = section(tr1, et1, compose_homs(f, sp))
        rhs = compose_homs(product_map(f, tr1, tr2), section(tr2, et1, sp))
        assert lhs == rhs
        n += 1
    assert n > 0

    # target side: folding after postcomposition == postcomposing the fold
    m = 0
    for sigma in iter_homs(tr1.graph, h1, mode="labeled"):
        lhs = retraction(tr1, et2, compose_homs(sigma, q))
        rhs = compose_homs(retraction(tr1, et1, sigma), big_q)
        assert lhs == rhs
        m += 1
    assert m > 0


def test_closedness_verdicts():
    p2 = one_cyl(path_cyl(2), PermGroup.trivial(1))
    p3 = one_cyl(path_cyl(3), PermGroup.trivial(1))
    sq = one_cyl(square_cyl(), PermGroup.trivial(2))
    assert not is_lower_closed(p2, complete(3))
    assert is_lower_closed(p3, complete(3))
    assert is_lower_closed(p3, cycle(5))
    assert is_lower_closed(sq, complete(3))
    assert is_lower_closed(sq, cycle(5))
    i1 = one_cyl(identity_cyl(1), PermGroup.trivial(1))
    assert is_upper_closed(i1, complete(3))
    two = CylinderSet(PermGroup.trivial(1), {1: path_cyl(1), 2: path_cyl(2)})
    with pytest.raises(DomainError):
        is_lower_closed(two, complete(3))


def _malformed_targets():
    """name -> (target, the error type and message its uniform labeling's validation raises)."""
    dangling = complete(3)
    dangling.edges["e1"] = dangling.edges["e1"]._replace(head=9)
    unpaired = complete(3)
    del unpaired.pairing["e1"], unpaired.pairing["e2"]
    loose = complete(3)
    loose.pairing["e1"] = "e3"
    return {
        "dangling": (dangling, DomainError, "edge 'e1' has a missing endpoint"),
        "unpaired": (unpaired, DomainError, "symmetric graph with unpaired edges: ['e1', 'e2']"),
        "loose": (loose, DomainError, "pairing is not a fixed-point-free involution at 'e0'"),
        "directed": (random_graph(random.Random(1), 3, symmetric=False), DomainError,
                     "source graph and cylinders disagree about being symmetric"),
    }


@pytest.mark.parametrize("name", sorted(_malformed_targets()))
def test_is_lower_closed_refuses_a_malformed_target_as_the_labeling_did(name):
    # the target is labeled without a check of its own: the product's one validation raises what
    # ``uniform_labels`` raised before it, type and message alike
    h, kind, message = _malformed_targets()[name]
    p3 = one_cyl(path_cyl(3), PermGroup.trivial(1))
    with pytest.raises(kind) as err:
        is_lower_closed(p3, h)
    assert type(err.value) is kind and str(err.value) == message


def test_retraction_rejects_non_homomorphisms():
    g = uniform_labels(cycle(3), key=1)
    cs = one_cyl(identity_cyl(1), PermGroup.trivial(1))
    tr = cyl_product(g, cs)
    et = exponential(cs, complete(2))
    bad = Homomorphism({v: "[0]" for v in tr.graph.vertices}, {})
    with pytest.raises(DomainError):
        retraction(tr, et, bad)
    # every row lands on the exponential vertex [0], which carries no loop
    collapsed = Homomorphism(dict.fromkeys(tr.graph.vertices, 0), {})
    with pytest.raises(DomainError) as err:
        retraction(tr, et, collapsed)
    assert str(err.value) == (
        "no exponential edge realizes the image of 'e0'; the given map does not respect the product structure"
    )


def test_maps_without_twists_expand_as_with_them():
    """``section`` and ``product_map`` work the twists out from the edge map
    when the map does not carry them."""
    ident, pi = Perm.identity(2), Perm((2, 1))
    grp = PermGroup.symmetric(2)
    cs = one_cyl(identity_cyl(2, directed=True), grp)
    g1 = directed_edge("a", GammaLabel(ident, 1, ident))
    g2 = directed_edge("b", GammaLabel(pi, 1, ident))
    tr1, tr2 = cyl_product(g1, cs), cyl_product(g2, cs)
    f = find_hom(g1, g2, mode="gamma", group=grp)
    assert any(not a.is_identity() for a in f.alphas.values())
    assert product_map(Homomorphism(f.vmap, f.emap), tr1, tr2) == product_map(f, tr1, tr2)
    et = exponential(cs, _directed_k2())
    n = 0
    for sp in iter_homs(g2, et.graph, mode="gamma", group=grp):
        assert section(tr2, et, Homomorphism(sp.vmap, sp.emap)) == section(tr2, et, sp)
        n += any(not a.is_identity() for a in sp.alphas.values())
    assert n > 0


def _directed_k2():
    h = Graph()
    h.add_vertices("pq")
    h.add_edge("p", "q")
    h.add_edge("q", "p")
    return h


def test_maps_between_two_cylinder_sets_are_refused():
    one, two = (one_cyl(identity_cyl(k, directed=True), PermGroup.trivial(k)) for k in (1, 2))
    g1 = directed_edge("a", GammaLabel(Perm.identity(1), 1, Perm.identity(1)))
    g2 = directed_edge("a", GammaLabel(Perm.identity(2), 1, Perm.identity(2)))
    with pytest.raises(DomainError, match="^the two products use different cylinder sets$"):
        product_map(identity_hom(g1), cyl_product(g1, one), cyl_product(g2, two))
    h = _directed_k2()
    with pytest.raises(DomainError, match="^the two exponential graphs use different cylinder sets$"):
        exponential_map(identity_hom(h), exponential(one, h), exponential(two, h))


def test_section_rejects_inconsistent_input():
    g = Graph(symmetric=True)
    g.add_vertices("abc")
    lab = GammaLabel(Perm.identity(1), 1, Perm.identity(1))
    e1, _ = g.add_sym_edge("a", "b", lab)
    e2, _ = g.add_sym_edge("b", "c", lab)
    cs = one_cyl(identity_cyl(1), PermGroup.trivial(1))
    tr = cyl_product(g, cs)
    et = exponential(cs, complete(3))
    x = et.graph
    edge_ab = next(eid for eid, e in x.edges.items() if e.tail == "[0]" and e.head == "[1]")
    edge_bc = next(eid for eid, e in x.edges.items() if e.tail == "[1]" and e.head == "[2]")
    vmap = {"a": "[0]", "b": "[1]", "c": "[0]"}  # c disagrees with the second edge
    emap = {e1: edge_ab, g.pairing[e1]: x.pairing[edge_ab],
            e2: edge_bc, g.pairing[e2]: x.pairing[edge_bc]}
    with pytest.raises(DomainError):
        section(tr, et, Homomorphism(vmap, emap, {v: Perm.identity(1) for v in "abc"}))
