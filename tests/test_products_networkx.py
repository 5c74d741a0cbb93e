"""Property tests of the catalog's glued products and looped line graphs
against networkx's textbook constructions."""
import json
from collections import Counter
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import given, settings, strategies as st

from cylgraph.catalog import NEPS_KINDS, looped_line_graph, neps_product
from cylgraph.core import Graph

NX_PRODUCTS = {
    "cartesian": nx.cartesian_product,
    "tensor": nx.tensor_product,
    "strong": nx.strong_product,
    "lexicographic": nx.lexicographic_product,
}


@st.composite
def simple_graphs(draw, min_n=1, max_n=4, isolated=False):
    """A loop-free simple graph on 0..n-1; without isolated vertices unless
    ``isolated``."""
    n = draw(st.integers(min_n, max_n))
    pairs = draw(st.sets(st.sampled_from(list(combinations(range(n), 2))))) if n > 1 else set()
    if not isolated:
        hypothesis.assume(n > 1 and {v for pair in pairs for v in pair} == set(range(n)))
    return n, sorted(pairs)


def ours(n, pairs):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for u, v in pairs:
        g.add_sym_edge(u, v)
    return g


def theirs(n, pairs):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    return g


def undirected_edges(g, name=lambda v: v):
    """Each twin pair as the frozenset of its renamed ends, counted."""
    return Counter(frozenset((name(g.edges[eid].tail), name(g.edges[eid].head))) for eid in g.canonical_edges())


@pytest.mark.parametrize("kind", NEPS_KINDS)
@settings(max_examples=40, deadline=None)
@given(left=simple_graphs(), right=simple_graphs(max_n=3))
def test_neps_product_is_the_networkx_product(kind, left, right):
    # isolated vertices are the documented exception: an isolated vertex of
    # the left factor keeps only a bare row of slots
    h, g = ours(*left), ours(*right)
    slots = sorted(g.vertices, key=str)  # slot i of the cylinder is the i-th vertex of g
    names = {f"{u}#{i}": (u, a) for u in h.vertices for i, a in enumerate(slots, start=1)}
    got = neps_product(h, g, kind)
    want = NX_PRODUCTS[kind](theirs(*left), theirs(*right))
    assert {names[v] for v in got.vertices} == set(want.nodes)
    assert undirected_edges(got, names.__getitem__) == Counter(frozenset(e) for e in want.edges)


@settings(max_examples=60, deadline=None)
@given(simple_graphs(max_n=5, isolated=True))
def test_looped_line_graph_is_the_networkx_line_graph_with_loops(case):
    got = looped_line_graph(ours(*case))
    line = nx.line_graph(theirs(*case))

    def ends(name):  # a vertex of the looped line graph is named by its edge's ends
        return frozenset(json.loads(name))

    want = Counter(frozenset((frozenset(a), frozenset(b))) for a, b in line.edges)
    want.update(frozenset((frozenset(v),)) for v in line.nodes)  # one loop per vertex
    assert {ends(v) for v in got.vertices} == {frozenset(v) for v in line.nodes}
    assert undirected_edges(got, ends) == want
