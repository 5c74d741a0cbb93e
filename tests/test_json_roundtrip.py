"""Property tests: graphs and cylinder sets survive a trip through JSON text."""
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cylgraph.core import GammaLabel, Graph
from cylgraph.cylinder import CylinderSet, make_cylinder
from cylgraph.perm import Perm, PermGroup

S2 = Perm([2, 1])
ID2 = Perm.identity(2)
# int and str names that print alike, so a round trip that swaps them fails
NAMES = st.sampled_from([0, 1, 2, 10, "0", "1", "a", "b", "x#1"])
LABELS = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "1"]),
    st.integers(-3, 12),
    st.builds(GammaLabel, st.sampled_from([ID2, S2]), st.sampled_from([1, "1", "k"]), st.sampled_from([ID2, S2])),
)


def through_json(data):
    return json.loads(json.dumps(data))


@st.composite
def multigraphs(draw):
    """Directed or symmetric multigraphs with loops, parallel edges and
    isolated vertices; some edges carry their own ids."""
    g = Graph(symmetric=draw(st.booleans()))
    g.add_vertices(draw(st.lists(NAMES, min_size=1, max_size=6, unique=True)))
    vs = g.vertices
    for n in range(draw(st.integers(0, 8))):
        u, v = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
        lab = draw(LABELS)
        ids = (f"m{n}", f"m{n}t") if draw(st.booleans()) else (None, None)
        if g.symmetric:
            g.add_sym_edge(u, v, lab, *ids)
        else:
            g.add_edge(u, v, lab, ids[0])
    return g


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_graph_json_round_trip(g):
    back = Graph.from_json(through_json(g.to_json()))
    assert back == g
    assert back.to_json() == g.to_json()


@st.composite
def cylinder_sets(draw):
    """Width 1 or 2 with empty bases (no edge inside a row), so the full
    slot group is allowed; rungs, inner vertices and loops carry labels."""
    k = draw(st.sampled_from([1, 2]))
    symmetric = draw(st.booleans())
    group = draw(st.sampled_from([PermGroup.trivial(k), PermGroup.symmetric(k)]))
    cyls = {}
    for key in draw(st.lists(st.sampled_from([1, 2, "1", "k"]), min_size=1, max_size=3, unique=True)):
        cg = Graph(symmetric=symmetric)
        ys, zs = [f"y{i}" for i in range(1, k + 1)], [f"z{i}" for i in range(1, k + 1)]
        inner = draw(st.lists(st.sampled_from([0, 1, "i", "j"]), max_size=2, unique=True))
        cg.add_vertices(ys + zs + inner)
        for _ in range(draw(st.integers(0, 5))):
            u = draw(st.sampled_from(ys + inner))
            v = draw(st.sampled_from(zs + inner)) if u in ys else draw(st.sampled_from(ys + zs + inner))
            lab = draw(st.one_of(st.none(), st.sampled_from(["a", "b"]), st.integers(0, 3)))
            if symmetric:
                cg.add_sym_edge(u, v, lab)
            else:
                cg.add_edge(*((v, u) if draw(st.booleans()) else (u, v)), lab)
        cyls[key] = make_cylinder(cg, ys, zs)
    return CylinderSet(group, cyls)


@settings(max_examples=150, deadline=None)
@given(cylinder_sets())
def test_cylinder_set_json_round_trip(cset):
    back = CylinderSet.from_json(through_json(cset.to_json()))
    assert back.group == cset.group
    assert list(back.keys()) == sorted(cset.keys(), key=str)
    assert all(back[key] == cset[key] for key in cset.keys())
    assert back.to_json() == cset.to_json()
