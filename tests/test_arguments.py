"""Every public count argument follows one rule: a non-negative ``int`` that
is not a ``bool``.  Anything else is one :class:`DomainError` naming the
argument; no invalid value may end in a raw Python exception.  A slot
permutation that is not a :class:`Perm` is one :class:`NotAPermutation`
naming the argument."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cylgraph.catalog import (
    complete_graph,
    cycle_graph,
    empty_graph,
    fractional_power,
    kneser_graph,
    path_graph,
    subdivision,
    voltage_lift,
    walk_power,
    walk_power_direct,
)
from cylgraph.cylinder import generalized_loop, identity_cyl, path_cyl, twist
from cylgraph.errors import CylError, DomainError, NotAPermutation
from cylgraph.hom import list_homs
from cylgraph.perm import Perm, PermGroup

C3, P1 = cycle_graph(3), path_graph(1)


def list_limit(v):
    return list_homs(C3, C3, limit=v)


# argument name in the message -> one call per builder that takes it
CALLS = {
    "n=": [complete_graph, cycle_graph, path_graph, empty_graph, lambda v: kneser_graph(v, 2)],
    "k=": [
        lambda v: kneser_graph(5, v),
        identity_cyl,
        lambda v: voltage_lift(C3, {}, v),
        Perm.identity,
        Perm.from_cycles,
        lambda v: PermGroup.generated(v, []),
        PermGroup.symmetric,
        PermGroup.cyclic,
        PermGroup.trivial,
    ],
    "limit=": [list_limit],
    "path length": [
        path_cyl,
        lambda v: walk_power(C3, v),
        lambda v: subdivision(P1, v),
        lambda v: fractional_power(P1, v, 1),
        lambda v: fractional_power(P1, 1, v),
        lambda v: walk_power_direct(C3, v),
    ],
}
CASES = [(what, call) for what, calls in CALLS.items() for call in calls]
NONE_MEANS_DEFAULT = {list_limit}

# invalid counts only: a valid large one (complete_graph(10**9)) would run away
INVALID = st.one_of(
    st.booleans(),
    st.floats(),
    st.just(2.0),
    st.text(max_size=3),
    st.just("2"),
    st.none(),
    st.integers(max_value=-1),
    st.lists(st.integers(0, 3), max_size=3),
)


# ids count within each argument name, so deleting one case renames only its later siblings
@pytest.mark.parametrize("what, call", CASES, ids=[f"{what}{i}" for what, calls in CALLS.items() for i in range(len(calls))])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=INVALID)
def test_an_invalid_count_is_one_domain_error_naming_it(what, call, bad):
    assume(bad is not None or call not in NONE_MEANS_DEFAULT)
    try:
        call(bad)
    except CylError as err:
        assert isinstance(err, DomainError)
        assert str(err) == f"{what} must be a non-negative integer, got {bad!r}"
    else:
        pytest.fail(f"{what} accepted {bad!r}")


# each accepted, coerced or raised something other than a CylError before
# the rule moved into one helper
NOW_REJECTED = {
    "complete_graph(-2)": (lambda: complete_graph(-2), "n=", -2),
    "path_graph(-1)": (lambda: path_graph(-1), "n=", -1),
    "empty_graph(-3)": (lambda: empty_graph(-3), "n=", -3),
    "Perm.identity(-1)": (lambda: Perm.identity(-1), "k=", -1),
    "complete_graph(True)": (lambda: complete_graph(True), "n=", True),
    "identity_cyl(True)": (lambda: identity_cyl(True), "k=", True),
    "path_cyl('2')": (lambda: path_cyl("2"), "path length", "2"),
    "path_cyl(2.7)": (lambda: path_cyl(2.7), "path length", 2.7),
    "identity_cyl(2.9)": (lambda: identity_cyl(2.9), "k=", 2.9),
    "PermGroup.symmetric(-1)": (lambda: PermGroup.symmetric(-1), "k=", -1),
    "PermGroup.trivial(-1)": (lambda: PermGroup.trivial(-1), "k=", -1),
    "PermGroup.cyclic(-1)": (lambda: PermGroup.cyclic(-1), "k=", -1),
    "voltage_lift(C3, {}, -1)": (lambda: voltage_lift(C3, {}, -1), "k=", -1),
    "kneser_graph(5, -1)": (lambda: kneser_graph(5, -1), "k=", -1),
    "PermGroup.symmetric(None)": (lambda: PermGroup.symmetric(None), "k=", None),
    "walk_power_direct(C3, -1)": (lambda: walk_power_direct(C3, -1), "path length", -1),
    "walk_power_direct(C3, True)": (lambda: walk_power_direct(C3, True), "path length", True),
    "walk_power_direct(C3, 2.0)": (lambda: walk_power_direct(C3, 2.0), "path length", 2.0),
}


@pytest.mark.parametrize("name", NOW_REJECTED)
def test_inputs_once_accepted_or_raw_are_domain_errors(name):
    call, what, bad = NOW_REJECTED[name]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == f"{what} must be a non-negative integer, got {bad!r}"


def test_valid_counts_still_build():
    assert len(complete_graph(0).vertices) == 0
    assert len(path_graph(0).vertices) == 1
    assert path_cyl(2).width == 1 and len(path_cyl(2).graph.vertices) == 3
    assert identity_cyl(3).width == 3
    assert len(PermGroup.cyclic(0)) == 1 and len(PermGroup.symmetric(3)) == 6
    assert list_homs(C3, C3, limit=0) == []


@pytest.mark.parametrize("degree", [True, False])
def test_a_json_degree_that_is_a_bool_is_no_integer(degree):
    with pytest.raises(DomainError) as err:
        PermGroup.from_json({"degree": degree, "generators": []})
    assert str(err.value) == f"group 'degree' must be an integer, got {degree!r}"


E0 = sorted(C3.canonical_edges())[0]
# each ended in a raw AttributeError before the check
NOT_A_PERM = {
    "generalized_loop g": (lambda: generalized_loop(path_cyl(1), "x", "y"), "g= must be a Perm, got 'x'"),
    "generalized_loop l": (lambda: generalized_loop(path_cyl(1), Perm.identity(1), "y"), "l= must be a Perm, got 'y'"),
    "twist g": (lambda: twist(identity_cyl(2), [2, 1], [2, 1]), "g= must be a Perm, got [2, 1]"),
    "twist l": (lambda: twist(identity_cyl(2), Perm([2, 1]), [2, 1]), "l= must be a Perm, got [2, 1]"),
    "voltage_lift": (lambda: voltage_lift(C3, {E0: [2, 1]}, 2), f"voltage on {E0!r} must be a Perm, got [2, 1]"),
}


@pytest.mark.parametrize("name", NOT_A_PERM)
def test_a_slot_permutation_that_is_no_perm_is_named(name):
    call, message = NOT_A_PERM[name]
    with pytest.raises(NotAPermutation) as err:
        call()
    assert str(err.value) == message
