"""Property tests for the search order and the isomorphism search."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cylgraph.core import Graph, connected_order, isomorphic

from util import iso_error, pool_scan


@st.composite
def graphs_and_permutations(draw):
    n = draw(st.integers(0, 7))
    g = Graph(symmetric=draw(st.booleans()))
    g.add_vertices(range(n))
    if n:
        for u, v, lab in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                                 st.sampled_from((None, "a", "b"))), max_size=12)):
            if g.symmetric:
                g.add_sym_edge(u, v, lab)
            else:
                g.add_edge(u, v, lab)
    return g, draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None)
@given(graphs_and_permutations())
def test_isomorphic_finds_every_relabelling(case):
    g, perm = case
    h = g.relabel({v: f"w{perm[v]}" for v in g.vertices})
    found = isomorphic(g, h)
    assert found is not None
    assert iso_error(g, h, found) is None


@settings(max_examples=100, deadline=None)
@given(graphs_and_permutations(), st.data())
def test_connected_order_is_the_pool_scan(case, data):
    g, perm = case
    ranked = [g.vertices[i] for i in perm]
    eligible = data.draw(st.sets(st.sampled_from(ranked))) if ranked else set()
    nbrs = g.neighbour_sets()
    assert connected_order(ranked, nbrs, eligible) == pool_scan(ranked, nbrs, eligible)
