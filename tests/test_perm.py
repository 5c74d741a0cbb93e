import copy
import json
import pickle
import random
import sys

import pytest

from cylgraph.errors import NotAPermutation, ResourceLimit
from cylgraph.perm import Perm, PermGroup, compose

from util import act


def test_act_is_slot_lookup():
    x = ("p", "q", "r")
    g = Perm.from_cycles(3, (1, 2, 3))
    assert tuple(g) == (2, 3, 1)
    assert act(x, g) == ("q", "r", "p")


def test_compose_applies_right_factor_first():
    c = Perm.from_cycles(3, (1, 2, 3))
    assert compose(c, c) == Perm.from_cycles(3, (1, 3, 2))
    t = Perm.from_cycles(3, (1, 2))
    # compose(t, c)(1) = t(c(1)) = t(2) = 1
    assert compose(t, c)(1) == 1


def test_act_compose_compatibility():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 6)
        x = tuple(rng.randint(0, 9) for _ in range(k))
        g = Perm(rng.sample(range(1, k + 1), k))
        h = Perm(rng.sample(range(1, k + 1), k))
        assert act(act(x, g), h) == act(x, compose(g, h))


def test_inverse_and_identity():
    g = Perm((3, 1, 4, 2))
    assert compose(g, g.inverse()).is_identity()
    assert compose(g.inverse(), g).is_identity()
    assert tuple(Perm.identity(4)) == (1, 2, 3, 4)
    assert act(("a", "b"), Perm.identity(2)) == ("a", "b")


def test_cycles_roundtrip_and_repr():
    g = Perm.from_cycles(5, (1, 3), (2, 5, 4))
    assert g.cycles() == [(1, 3), (2, 4, 5)] or g.cycles() == [(1, 3), (2, 5, 4)]
    assert Perm.from_cycles(5, *g.cycles()) == g


def test_bad_permutations_rejected():
    with pytest.raises(NotAPermutation):
        Perm((1, 1, 3))
    with pytest.raises(NotAPermutation):
        Perm((0, 1))
    with pytest.raises(NotAPermutation):
        Perm((2, 3))
    g = Perm((2, 1))
    with pytest.raises(NotAPermutation):
        g(3)
    with pytest.raises(NotAPermutation):
        g.act(("x",))


@pytest.mark.parametrize("images", ["21", [1.9, 2], [True, 2], [1.0, 2], [True], 5])
def test_only_integer_images_are_accepted(images):
    with pytest.raises(NotAPermutation):
        Perm(images)


def test_group_closure_and_order():
    s3 = PermGroup.generated(3, [Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 2, 3))])
    assert len(s3) == 6
    assert s3 == PermGroup.symmetric(3)
    assert len(PermGroup.cyclic(5)) == 5
    assert len(PermGroup.trivial(4)) == 1


def test_identity_is_first_element():
    for grp in (PermGroup.symmetric(3), PermGroup.cyclic(4), PermGroup.trivial(2)):
        assert grp.elements[0].is_identity()


def test_closure_limit():
    with pytest.raises(ResourceLimit):
        PermGroup.generated(8, [Perm.from_cycles(8, (1, 2)), Perm.from_cycles(8, tuple(range(1, 9)))], limit=100)


def test_group_json_roundtrip():
    grp = PermGroup.generated(4, [Perm.from_cycles(4, (1, 2, 3, 4))])
    again = PermGroup.from_json(grp.to_json())
    assert again == grp


def test_a_symmetric_group_over_its_limit_is_a_resource_limit_at_any_degree():
    # 2000! has over 5,000 digits, more than int -> str converts by default
    for k in (4, 2000):
        with pytest.raises(ResourceLimit) as err:
            PermGroup.symmetric(k, limit=6)
        assert str(err.value) == f"symmetric group of degree {k} has more than 6 elements"
    assert len(PermGroup.symmetric(3, limit=6)) == 6


@pytest.mark.parametrize("cycle, message", [
    (("a", 1), "cycle point 'a' out of range 1..3"),
    ((1.0, 2), "cycle point 1.0 out of range 1..3"),
    ((True, 2), "cycle point True out of range 1..3"),
    ((1, 4), "cycle point 4 out of range 1..3"),
])
def test_a_cycle_point_that_is_not_an_integer_in_range_is_not_a_permutation(cycle, message):
    with pytest.raises(NotAPermutation) as err:
        Perm.from_cycles(3, cycle)
    assert str(err.value) == message


@pytest.mark.parametrize("cycle", [(), [], 5, None])
def test_an_empty_or_non_sequence_cycle_is_not_a_permutation(cycle):
    with pytest.raises(NotAPermutation) as err:
        Perm.from_cycles(3, cycle)
    assert str(err.value) == f"a cycle must be a non-empty sequence of points, got {cycle!r}"


def test_a_perm_is_the_tuple_of_its_images():
    p = Perm((2, 3, 1))
    assert isinstance(p, tuple) and p == (2, 3, 1) and (2, 3, 1) == p
    assert hash(p) == hash((2, 3, 1))
    assert {(2, 3, 1): "found"}[p] == "found"
    assert {p: "found"}[(2, 3, 1)] == "found"
    assert (len(p), p[0], list(p)) == (3, 2, [2, 3, 1])
    assert json.dumps(p) == "[2, 3, 1]"
    assert sorted([Perm((2, 1)), Perm((1, 2))]) == [(1, 2), (2, 1)]
    assert not hasattr(p, "images")
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p), p.inverse(), p * p):
        assert type(q) is Perm
    assert pickle.loads(pickle.dumps(p)) == p and p.inverse() == (3, 1, 2)


def test_compose_refuses_permutations_of_two_degrees_and_plain_tuples():
    with pytest.raises(NotAPermutation, match=r"^degree mismatch: 2 vs 3$"):
        compose(Perm.identity(2), Perm.identity(3))
    # a tuple equals a Perm, but only a Perm is a checked bijection
    with pytest.raises(NotAPermutation, match=r"^compose takes two Perms, got Perm\[2: \(1 2\)\] and \(1, 1\)$"):
        Perm((2, 1)) * (1, 1)
    with pytest.raises(NotAPermutation, match=r"^compose takes two Perms, got \(1, 2\) and Perm.identity\(2\)$"):
        compose((1, 2), Perm.identity(2))


@pytest.mark.parametrize("elements, message", [
    ([], "group must contain the identity"),
    ([Perm((2, 1))], "group must contain the identity"),
    ([Perm.identity(2), Perm.identity(3)], "element degree 3 != group degree 2"),
])
def test_a_group_built_from_its_elements_checks_them(elements, message):
    with pytest.raises(NotAPermutation) as err:
        PermGroup(2, elements)
    assert str(err.value) == message


@pytest.mark.parametrize("build", [Perm.identity, Perm.from_cycles, PermGroup.trivial, PermGroup.cyclic,
                                   lambda k: PermGroup.generated(k, [])])
def test_a_degree_no_tuple_can_hold_is_a_resource_limit_before_anything_is_allocated(build):
    with pytest.raises(ResourceLimit) as err:
        build(10**30)
    assert str(err.value) == f"degree {10**30} is more points than a permutation can hold (at most {sys.maxsize})"


@pytest.mark.parametrize("k", [3, 10**30])
def test_a_generator_of_another_degree_is_refused_before_the_group_is_built(k):
    # a degree of 10**30 would overflow building the identity, so the degrees are compared first
    with pytest.raises(NotAPermutation) as err:
        PermGroup.generated(k, [Perm((2, 1))])
    assert str(err.value) == f"generator degree 2 != group degree {k}"
    with pytest.raises(NotAPermutation) as err:
        PermGroup.generated(2, [(2, 1)])
    assert str(err.value) == "generator must be a Perm, got (2, 1)"
