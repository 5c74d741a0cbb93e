"""One node budget: every public function that searches reads
``CYL_NODE_BUDGET`` when its search starts, and none takes a ``budget``
parameter."""

import inspect

import pytest

from cylgraph.catalog import (
    complete_graph,
    cycle_graph,
    fractional_power,
    function_power,
    looped_line_graph,
    path_graph,
    replacement_product,
    rotation_labels,
    walk_power,
    zigzag_product,
    zigzag_via_walks,
)
from cylgraph.construct import cyl_product, exponential, uniform_labels
from cylgraph.core import isomorphic
from cylgraph.cylinder import CylinderSet, path_cyl
from cylgraph.duality import check_duality, counit_map, is_lower_closed, is_upper_closed, product_map, unit_map
from cylgraph.errors import ResourceLimit
from cylgraph.hom import Homomorphism, count_homs, find_hom, iter_homs, list_homs
from cylgraph.perm import PermGroup


def _reversed_edge():
    """``product_map`` arguments whose base map sends an edge onto its twin,
    so the map searches for the path cylinder's end-for-end reversal."""
    g = uniform_labels(path_graph(1), 1)
    tr = cyl_product(g, CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)}))
    return Homomorphism({0: 1, 1: 0}, {"e0": "e1", "e1": "e0"}), tr, tr


def _cases():
    """Public function -> a builder of arguments that reach a search."""
    k3, c3, c4, k2 = complete_graph(3), cycle_graph(3), cycle_graph(4), complete_graph(2)
    p2 = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)})
    edge = uniform_labels(path_graph(1), 1)
    return {
        iter_homs: lambda: (k3, k3),
        find_hom: lambda: (k3, k3),
        list_homs: lambda: (k3, k3),
        count_homs: lambda: (k3, k3),
        isomorphic: lambda: (k3, k3),
        exponential: lambda: (p2, c3),
        unit_map: lambda: (edge, p2),
        counit_map: lambda: (p2, c3),
        check_duality: lambda: (edge, p2, c3),
        is_lower_closed: lambda: (p2, c3),
        is_upper_closed: lambda: (p2, c3),
        walk_power: lambda: (c3, 2),
        fractional_power: lambda: (c3, 2, 1),
        function_power: lambda: (path_graph(1), k3),
        zigzag_via_walks: lambda: (c4, k2),
        looped_line_graph: lambda: (c3,),
        product_map: _reversed_edge,
        rotation_labels: lambda: (c4, k2),
        replacement_product: lambda: (c4, k2),
        zigzag_product: lambda: (c4, k2),
    }


CASES = _cases()


def _run(fn, args, **kwargs):
    out = fn(*args, **kwargs)
    return list(out) if fn is iter_homs else out  # iter_homs searches only when iterated


@pytest.mark.parametrize("fn", CASES, ids=lambda fn: fn.__name__)
def test_no_search_takes_a_budget_keyword(fn):
    assert "budget" not in inspect.signature(fn).parameters
    with pytest.raises(TypeError):
        _run(fn, CASES[fn](), budget=10**9)


@pytest.mark.parametrize("fn", CASES, ids=lambda fn: fn.__name__)
def test_every_search_returns_with_the_budget_unset(fn):
    _run(fn, CASES[fn]())


@pytest.mark.parametrize("fn", CASES, ids=lambda fn: fn.__name__)
def test_every_search_stops_at_a_zero_budget(monkeypatch, fn):
    args = CASES[fn]()
    monkeypatch.setenv("CYL_NODE_BUDGET", "0")
    with pytest.raises(ResourceLimit, match="exceeded its node budget of 0 nodes; raise CYL_NODE_BUDGET$"):
        _run(fn, args)
