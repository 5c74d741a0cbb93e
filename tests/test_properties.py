"""Property tests for the search order, the isomorphism search and the
CLI's JSON writer."""
import enum
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cylgraph.cli import _dumps
from cylgraph.core import Graph, connected_order, isomorphic
from cylgraph.perm import Perm

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


class _Shade(enum.IntEnum):
    DARK = 1


class _Name(str):
    pass


class _Opaque:
    def __str__(self) -> str:
        return "opaque\n}, {"


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('{}[],: \n\t\x00"\\é\u2028')), max_size=6)
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.just(10**30), st.floats(), _TEXT)
_KEY = st.one_of(_TEXT, st.integers(-3, 3), st.floats(), st.booleans(), st.none())
_ODD = st.one_of(  # what stdlib's encoder handles by type test or by default=str
    st.permutations(range(1, 4)).map(Perm), st.just(_Shade.DARK), _TEXT.map(_Name),
    st.just(_Opaque()), st.frozensets(st.integers(0, 3), max_size=2), st.complex_numbers(allow_nan=False),
)
_VALUE = st.recursive(
    st.one_of(_SCALAR, _ODD, st.lists(st.dictionaries(_KEY, _SCALAR, max_size=3), max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(_KEY, inner, max_size=3),
    ),
    max_leaves=20,
)


def _outcome(dump, x):
    try:
        return dump(x)
    except (TypeError, ValueError) as exc:  # unsortable or unencodable keys
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None)
@given(_VALUE)
def test_the_cli_writer_writes_the_bytes_of_indented_sorted_json(x):
    want = _outcome(lambda v: json.dumps(v, indent=2, sort_keys=True, default=str), x)
    assert _outcome(_dumps, x) == want
    with pytest.MonkeyPatch.context() as mp:  # an interpreter without the C encoder
        mp.setattr(json.encoder, "c_make_encoder", None)
        assert _outcome(_dumps, x) == want
