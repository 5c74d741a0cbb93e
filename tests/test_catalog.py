"""The named constructions, each checked against an independent oracle."""
from __future__ import annotations

import random
import sys
import time
from collections import Counter

import pytest

from cylgraph.catalog import (
    NEPS_KINDS,
    _ports,
    complete_graph,
    cone,
    cycle_graph,
    fractional_power,
    function_power,
    function_power_direct,
    graph_minor,
    join_cylinder,
    join_with,
    kneser_graph,
    line_graph_direct,
    looped_line_graph,
    neps_cylinder,
    neps_direct,
    neps_product,
    path_graph,
    pentagon_pentagram,
    petersen,
    petersen_dumbbell,
    replacement_product,
    rotation_labels,
    subdivision,
    voltage_lift,
    voltage_lift_direct,
    walk_power,
    walk_power_direct,
    zigzag_product,
    zigzag_via_walks,
)
from cylgraph.core import Edge, Graph, disjoint_union, isomorphic
from cylgraph.cylinder import path_cyl
from cylgraph import catalog
from cylgraph.errors import DomainError, ResourceLimit
from cylgraph.perm import Perm

from util import degree, girth, random_graph, without_loops


def test_petersen_is_kneser_5_2():
    p = petersen()
    assert len(p.vertices) == 10
    assert len(p.canonical_edges()) == 15
    assert all(degree(p, v) == 3 for v in p.vertices)
    assert girth(p) == 5
    assert isomorphic(p, kneser_graph(5, 2)) is not None


def test_pentagon_pentagram_label_split():
    g = pentagon_pentagram()
    assert len(g.vertices) == 5
    canon = g.canonical_edges()
    assert len(canon) == 10
    plain = sum(1 for eid in canon if g.edges[eid].label.pre == Perm.identity(2))
    twisted = len(canon) - plain
    assert (plain, twisted) == (5, 5)


def test_walk_powers_match_matrix_oracle():
    rng = random.Random(404)
    for _ in range(6):
        g = random_graph(rng, rng.randint(3, 6), p=0.55, keep_isolated=False)
        if not g.edges:
            continue
        n = rng.randint(1, 4)
        assert isomorphic(walk_power(g, n), walk_power_direct(g, n)) is not None


def test_long_walk_powers_project_their_paths_instead_of_enumerating_walks():
    """The exponential eliminates a path cylinder's interior vertices.  When it
    enumerated every walk, walk_power(K6, 7) alone took 1.43 s on a 2-CPU host."""
    k6 = complete_graph(6)
    start = time.perf_counter()
    got = {n: walk_power(k6, n) for n in (8, 16)}
    assert time.perf_counter() - start < 1.0
    for n, g in got.items():
        assert isomorphic(g, walk_power_direct(k6, n)) is not None


def test_a_walk_power_longer_than_the_recursion_limit_builds():
    n = 2001
    assert n > sys.getrecursionlimit()
    c5 = cycle_graph(5)
    assert isomorphic(walk_power(c5, n), walk_power_direct(c5, n)) is not None


def test_walk_power_of_odd_cycle_completes():
    # Walks of every length up to the diameter mix an odd cycle completely.
    assert isomorphic(walk_power(cycle_graph(5), 3), complete_graph(5)) is not None


def test_subdivision_stretches_each_edge():
    assert isomorphic(subdivision(cycle_graph(3), 2), cycle_graph(6)) is not None
    assert isomorphic(subdivision(cycle_graph(3), 3), cycle_graph(9)) is not None
    k4 = complete_graph(4)
    s = subdivision(k4, 2)
    assert len(s.vertices) == 4 + 6
    assert isomorphic(subdivision(k4, 1), k4) is not None
    with pytest.raises(DomainError):
        subdivision(k4, 0)


@pytest.mark.parametrize("bad", ["2", "x", 2.0, True, None, -1], ids=repr)
def test_path_lengths_must_be_non_negative_integers(bad):
    c5 = cycle_graph(5)
    builds = [
        lambda: path_cyl(bad),
        lambda: walk_power(c5, bad),
        lambda: subdivision(c5, bad),
        lambda: fractional_power(c5, bad, 2),
        lambda: fractional_power(c5, 2, bad),
    ]
    for build in builds:
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == f"path length must be a non-negative integer, got {bad!r}"


def test_fractional_power_half_then_square():
    # Stretch C5 by two, then walk two steps: the even and odd halves of C10
    # each close back into a pentagon (plus a loop at every vertex).
    fp = fractional_power(cycle_graph(5), 2, 2)
    assert len(fp.vertices) == 10
    loops = {e.tail for e in fp.edges.values() if e.tail == e.head}
    assert loops == set(fp.vertices)
    two_pentagons = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert isomorphic(without_loops(fp), two_pentagons) is not None


def test_neps_kinds_on_the_square_of_an_edge():
    k2 = complete_graph(2)
    assert isomorphic(neps_product(k2, k2, "cartesian"), cycle_graph(4)) is not None
    tensor = neps_product(k2, k2, "tensor")
    assert isomorphic(tensor, disjoint_union(k2, complete_graph(2))) is not None
    assert isomorphic(neps_product(k2, k2, "strong"), complete_graph(4)) is not None
    assert isomorphic(neps_product(k2, k2, "lexicographic"), complete_graph(4)) is not None


def test_neps_kinds_match_direct_oracles():
    rng = random.Random(77)
    for kind in NEPS_KINDS:
        for _ in range(3):
            h = random_graph(rng, 4, p=0.7, keep_isolated=False)
            g = random_graph(rng, 3, p=0.8, keep_isolated=False)
            if not h.edges or not g.edges:
                continue
            assert isomorphic(neps_product(h, g, kind), neps_direct(h, g, kind)) is not None
    with pytest.raises(DomainError):
        neps_product(complete_graph(2), complete_graph(2), "co-normal")


def test_function_power_matches_direct():
    rng = random.Random(78)
    for _ in range(4):
        g = random_graph(rng, 3, p=0.8, keep_isolated=False)
        h = random_graph(rng, 3, p=0.7, keep_isolated=False)
        if not g.edges or not h.edges:
            continue
        a = function_power(g, h)
        b = function_power_direct(g, h)
        assert len(a.vertices) == len(b.vertices)
        assert isomorphic(a, b) is not None


def test_dumbbell_voltages_lift_to_petersen():
    assert isomorphic(petersen_dumbbell(), kneser_graph(5, 2)) is not None


def test_trivial_voltages_give_disjoint_copies():
    base = cycle_graph(4)
    volts = {eid: Perm.identity(3) for eid in base.canonical_edges()}
    lifted = voltage_lift(base, volts, 3)
    copies = disjoint_union(base, disjoint_union(cycle_graph(4), cycle_graph(4)))
    assert isomorphic(lifted, copies) is not None


def test_voltage_lift_matches_direct():
    rng = random.Random(23)
    for _ in range(5):
        base = random_graph(rng, 4, p=0.7, keep_isolated=False, loops=True)
        if not base.edges:
            continue
        k = rng.randint(2, 4)
        volts = {}
        for eid in base.canonical_edges():
            images = list(range(1, k + 1))
            rng.shuffle(images)
            volts[eid] = Perm(images)
        a = voltage_lift(base, volts, k)
        b = voltage_lift_direct(base, volts, k)
        assert isomorphic(a, b) is not None


def test_voltage_lift_rejects_wrong_degree():
    base = cycle_graph(3)
    volts = {eid: Perm.identity(4) for eid in base.canonical_edges()}
    with pytest.raises(DomainError):
        voltage_lift(base, volts, 5)


@pytest.mark.parametrize("lift", [voltage_lift, voltage_lift_direct], ids=lambda f: f.__name__)
@pytest.mark.parametrize("key", ["nope", "e1", 0], ids=["unknown", "twin", "int"])
def test_voltage_lift_rejects_a_key_that_is_no_canonical_edge_id(lift, key):
    """A voltage on no edge, or on a twin (``e1`` is ``e0``'s), is an error
    naming its key rather than a voltage silently left out of the lift."""
    with pytest.raises(DomainError, match=f"^voltage key {key!r} is not an edge id of the base"):
        lift(cycle_graph(3), {"e0": Perm([2, 1]), key: Perm([2, 1])}, 2)


def test_voltage_lift_of_a_directed_base_matches_direct():
    """A loop and two parallel arcs; one sheet of the parallels coincides."""
    base = Graph()
    base.add_vertices("uvw")
    for tail, head in ("uv", "vw", "wu", "uu", "uv"):
        base.add_edge(tail, head)
    volts = {"e0": Perm([2, 3, 1]), "e3": Perm([2, 1, 3]), "e4": Perm([3, 2, 1])}
    a, b = voltage_lift(base, volts, 3), voltage_lift_direct(base, volts, 3)
    assert set(a.vertices) == set(b.vertices) and len(a.vertices) == 9
    ends = [Counter((e.tail, e.head) for e in g.edges.values()) for g in (a, b)]
    assert ends[0] == ends[1] and sum(ends[0].values()) == 14


def _digraph():
    g = Graph()
    g.add_vertices([1, 2])
    g.add_edge(1, 2)
    return g


def _looped_edge():
    g = complete_graph(2)
    g.add_sym_edge(0, 0)
    return g


BUILDER_ERRORS = {
    "cycle_graph(2)": (lambda: cycle_graph(2), "cycles need at least 3 vertices"),
    "neps_cylinder directed": (
        lambda: neps_cylinder(_digraph(), "cartesian"), "product cylinders are built from a symmetric factor"),
    "neps_cylinder looped": (
        lambda: neps_cylinder(_looped_edge(), "strong"), "product cylinders need a loop-free factor"),
    "neps_cylinder unknown kind": (
        lambda: neps_cylinder(complete_graph(2), "bogus"),
        f"unknown product kind 'bogus'; pick one of {NEPS_KINDS}",
    ),
    "neps_direct unknown kind": (
        lambda: neps_direct(complete_graph(2), complete_graph(2), "bogus"),
        f"unknown product kind 'bogus'; pick one of {NEPS_KINDS}",
    ),
    "join_cylinder directed": (lambda: join_cylinder(_digraph()), "joins are taken with a symmetric graph"),
    "line_graph_direct directed": (
        lambda: line_graph_direct(_digraph()), "line graphs are taken of symmetric graphs"),
    "rotation_labels directed outer": (
        lambda: rotation_labels(_digraph(), complete_graph(2)), "replacement-style products take symmetric graphs"),
    "rotation_labels directed inner": (
        lambda: rotation_labels(complete_graph(3), _digraph()), "replacement-style products take symmetric graphs"),
    "rotation_labels looped outer": (
        lambda: rotation_labels(_looped_edge(), complete_graph(2)), "the outer graph must be loop-free"),
    "rotation_labels non-regular outer": (
        lambda: rotation_labels(path_graph(2), complete_graph(2)), "vertex 0 has degree 1, expected 2"),
    "rotation_labels inner not vertex-transitive": (
        lambda: rotation_labels(complete_graph(4), path_graph(2)),
        "the inner template must look the same from every vertex (no symmetry carries 0 to 1)",
    ),
}


@pytest.mark.parametrize("case", BUILDER_ERRORS)
def test_builders_name_what_they_cannot_build(case):
    call, message = BUILDER_ERRORS[case]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_zigzag_of_k4_and_triangle():
    zz = zigzag_product(complete_graph(4), cycle_graph(3))
    assert len(zz.vertices) == 12
    assert all(degree(zz, v) == 4 for v in zz.vertices)
    via = zigzag_via_walks(complete_graph(4), cycle_graph(3))
    assert isomorphic(zz, via.stripped()) is not None


def test_zigzag_of_square_and_edge():
    zz = zigzag_product(cycle_graph(4), complete_graph(2))
    assert len(zz.vertices) == 8
    assert all(degree(zz, v) == 1 for v in zz.vertices)
    via = zigzag_via_walks(cycle_graph(4), complete_graph(2))
    assert isomorphic(zz, via.stripped()) is not None


def test_replacement_product_shape():
    rp, _ = replacement_product(complete_graph(4), cycle_graph(3))
    assert len(rp.vertices) == 12
    assert all(degree(rp, v) == 3 for v in rp.vertices)


def test_looped_line_graph_matches_classic():
    rng = random.Random(5)
    seen = 0
    while seen < 4:
        h = random_graph(rng, 5, p=0.6, keep_isolated=False)
        if not h.edges:
            continue
        seen += 1
        a = looped_line_graph(h)
        loops = {e.tail for e in a.edges.values() if e.tail == e.head}
        assert loops == set(a.vertices)  # every edge meets itself
        assert isomorphic(without_loops(a), line_graph_direct(h)) is not None
    tri = looped_line_graph(cycle_graph(3))
    assert isomorphic(without_loops(tri), cycle_graph(3)) is not None


def test_cones_and_joins():
    assert isomorphic(cone(complete_graph(3)), complete_graph(4)) is not None
    wheel = join_with(cycle_graph(4), complete_graph(1))
    assert sorted(degree(wheel, v) for v in wheel.vertices) == [3, 3, 3, 3, 4]
    assert isomorphic(join_with(complete_graph(2), complete_graph(2)), complete_graph(4)) is not None
    # a cone is a join with a single point
    for g in (cycle_graph(5), path_graph(3)):
        assert isomorphic(cone(g), join_with(g, complete_graph(1))) is not None


def test_graph_minor_contract_and_delete():
    c5 = cycle_graph(5)
    eids = sorted(c5.canonical_edges())
    assert isomorphic(graph_minor(c5, contract=(eids[0],)), cycle_graph(4)) is not None
    assert isomorphic(graph_minor(c5, delete=(eids[0],)), path_graph(4)) is not None
    both = graph_minor(c5, contract=(eids[0],), delete=(eids[1],))
    assert len(both.vertices) == 4
    assert len(both.canonical_edges()) == 3
    with pytest.raises(DomainError):
        graph_minor(c5, contract=(eids[0],), delete=(eids[0],))
    with pytest.raises(DomainError):
        graph_minor(c5, contract=("nope",))


def test_graph_minor_contracts_a_long_path_named_against_its_order():
    # union-find roots each class at its smallest name, so decreasing names
    # build a parent chain as long as the path
    g = path_graph(3000).relabel({i: f"{100000 - i}" for i in range(3001)})
    m = graph_minor(g, contract=g.canonical_edges())
    assert len(m.vertices) == 1 and not m.edges


def test_ports_take_one_pass_over_the_edges():
    """A 3-regular prism on 4,000 vertices; scanning every edge per vertex
    took 13.7 s here."""
    n = 2000
    g = Graph(symmetric=True)
    g.add_vertices(range(2 * n))
    for i in range(n):
        g.add_sym_edge(i, (i + 1) % n)
        g.add_sym_edge(n + i, n + (i + 1) % n)
        g.add_sym_edge(i, n + i)
    start = time.perf_counter()
    ports = _ports(g, 3)
    assert time.perf_counter() - start <= 1.0
    assert len(ports) == 6 * n
    # ports follow edge id order (as strings) around each vertex
    assert [ports[(0, eid)] for eid in ("e0", "e11994", "e4")] == [1, 2, 3]


def test_subdivision_of_a_long_cycle_glues_over_integer_ids():
    """100,000 vertices and 200,000 directed edges; the string-keyed gluing
    took 2.5 s here on a 2-CPU host."""
    g = cycle_graph(20000)
    start = time.perf_counter()
    out = subdivision(g, 5)
    assert time.perf_counter() - start <= 2.0
    assert len(out.vertices) == 100_000
    assert len(out.edges) == 200_000


def test_the_product_builders_return_the_glued_graph_unlabeled():
    # their cylinders carry no edge labels, so the product needs no stripped copy
    c5 = cycle_graph(5)
    built = {
        "petersen": petersen(),
        "subdivision": subdivision(c5, 3),
        "neps_product": neps_product(c5, complete_graph(3), "strong"),
        "voltage_lift": voltage_lift(c5, {"e0": Perm((2, 1))}, 2),
        "join_with": join_with(c5, path_graph(2)),
        "graph_minor": graph_minor(c5, contract=("e0",), delete=("e2",)),
    }
    for name, g in built.items():
        assert g.edges and all(e.label is None for e in g.edges.values()), name
        assert g == g.stripped(), name


def test_the_powers_return_the_exponentials_own_graph(monkeypatch):
    # the exponential's graph is new, so its labels are cleared in place and
    # no relabeled copy is made; zigzag_via_walks still labels its outer graph
    callers = []
    with_labels = Graph.with_labels

    def counted(self, labels):
        callers.append(sys._getframe(1).f_code.co_name)
        return with_labels(self, labels)

    monkeypatch.setattr(Graph, "with_labels", counted)
    c4 = cycle_graph(4)
    built = {
        "walk_power": (walk_power(c4, 2), []),
        "function_power": (function_power(path_graph(1), complete_graph(3)), []),
        "looped_line_graph": (looped_line_graph(c4), []),
        "zigzag_via_walks": (zigzag_via_walks(complete_graph(4), cycle_graph(3)), ["rotation_labels"]),
    }
    assert callers == [call for _, calls in built.values() for call in calls]
    for name, (g, _) in built.items():
        assert g.edges and all(type(e) is Edge and e.label is None for e in g.edges.values()), name
        g.validate()


def _malformed_graphs() -> dict:
    unpaired = Graph(symmetric=True)
    unpaired.add_vertices([0, 1])
    unpaired.add_edge(0, 1)
    dangling = cycle_graph(3)
    dangling.edges["x"] = Edge(0, 5, None)
    dangling_directed = Graph()
    dangling_directed.add_vertices([0, 1])
    dangling_directed.add_edge(0, 1)
    dangling_directed.edges["x"] = Edge(0, 5, None)
    return {
        "unpaired": (unpaired, "symmetric graph with unpaired edges: ['e0']"),
        "dangling": (dangling, "edge 'x' has a missing endpoint"),
        # neps_product and join_with glue symmetric cylinders: the graph's defect is still named first
        "dangling directed": (dangling_directed, "edge 'x' has a missing endpoint"),
    }


@pytest.mark.parametrize("graph", sorted(_malformed_graphs()))
@pytest.mark.parametrize("build", [
    lambda g: subdivision(g, 2),
    lambda g: neps_product(g, complete_graph(2), "cartesian"),
    lambda g: join_with(g, path_graph(1)),
], ids=["subdivision", "neps_product", "join_with"])
def test_a_builder_validating_once_names_the_defect_of_a_malformed_graph(graph, build):
    g, message = _malformed_graphs()[graph]
    with pytest.raises(DomainError) as err:
        build(g)
    assert type(err.value) is DomainError
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs, what", [
    ({"contract": 2.5}, "contract="),
    ({"contract": "e0"}, "contract="),
    ({"delete": None}, "delete="),
    ({"delete": "e0,e1"}, "delete="),
])
def test_graph_minor_rejects_a_string_or_non_iterable(kwargs, what):
    with pytest.raises(DomainError) as err:
        graph_minor(cycle_graph(5), **kwargs)
    (bad,) = kwargs.values()
    assert str(err.value) == f"{what} must be a collection of edge ids, got {bad!r}"


def test_graph_minor_names_the_first_unknown_id_in_the_order_given():
    c5 = cycle_graph(5)
    known = sorted(c5.canonical_edges())[0]
    unknown = ("zz", "aa", "mm", "qq", "bb", "yy")
    for contract, delete, first in [
        (unknown, (), "zz"),
        ((known, "mm", "aa"), ("bb",), "mm"),
        ((known,), unknown[::-1], "yy"),
        (("qq",), ("aa",), "qq"),
        (("zz",), ("zz",), "zz"),  # unknown is reported before contract/delete overlap
    ]:
        with pytest.raises(DomainError) as err:
            graph_minor(c5, contract=contract, delete=delete)
        assert str(err.value) == f"edge {first!r} is not a canonical edge of the graph"
    # any iterable of ids will do, a generator included
    assert len(graph_minor(c5, contract=(e for e in [known])).vertices) == 4


def test_graph_minor_names_an_unhashable_id():
    with pytest.raises(DomainError) as err:
        graph_minor(cycle_graph(5), contract=[["e0"]])
    assert str(err.value) == "edge ['e0'] is not a canonical edge of the graph"
    # a generator is read once, for the check and the minor alike
    assert len(graph_minor(cycle_graph(5), delete=(e for e in ["e0"])).canonical_edges()) == 4


@pytest.mark.parametrize("build", [walk_power, subdivision, lambda g, n: fractional_power(g, n, 1),
                                   lambda g, n: fractional_power(g, 1, n)],
                         ids=["walk_power", "subdivision", "fractional_power m", "fractional_power n"])
def test_a_path_length_is_checked_against_the_product_edge_cap(monkeypatch, build):
    """Up to the cap a path is built; one more edge raises before it is (the
    cap lowered here, so that the largest length allowed stays small)."""
    monkeypatch.setattr(catalog, "MAX_PRODUCT_EDGES", 4)
    g = cycle_graph(5)
    assert build(g, 4).edges
    with pytest.raises(ResourceLimit) as err:
        build(g, 5)
    assert str(err.value) == "path length 5 exceeds 4, the product edge cap"
    with pytest.raises(DomainError, match="^path length must be"):
        build(g, -1)


def test_a_sheet_count_is_checked_against_the_product_edge_cap(monkeypatch):
    """A width-k identity cylinder has k rungs, so ``voltage_lift`` takes k up
    to the cap and raises one past it, before a permutation is built."""
    monkeypatch.setattr(catalog, "MAX_PRODUCT_EDGES", 4)
    base = cycle_graph(3)
    assert len(voltage_lift(base, {"e0": Perm.from_cycles(4, (1, 2, 3, 4))}, 4).vertices) == 12
    with pytest.raises(ResourceLimit) as err:
        voltage_lift(base, {"e0": Perm.from_cycles(4, (1, 2, 3, 4))}, 5)
    assert str(err.value) == "sheet count 5 exceeds 4, the product edge cap"
    with pytest.raises(DomainError, match="^k= must be"):
        voltage_lift(base, {}, -1)
