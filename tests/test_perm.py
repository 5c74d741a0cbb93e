import copy
import hashlib
import json
import pickle
import random
import sys

import pytest

from cylgraph import perm
from cylgraph.errors import NotAPermutation, ResourceLimit
from cylgraph.perm import MAX_GROUP_ORDER, Perm, PermGroup, compose

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


def test_closure_limit(monkeypatch):
    monkeypatch.setattr(perm, "MAX_GROUP_ORDER", 100)
    with pytest.raises(ResourceLimit) as err:
        PermGroup.generated(8, [Perm.from_cycles(8, (1, 2)), Perm.from_cycles(8, tuple(range(1, 9)))])
    assert str(err.value) == "group closure exceeded 100 elements"


def test_group_json_roundtrip():
    grp = PermGroup.generated(4, [Perm.from_cycles(4, (1, 2, 3, 4))])
    again = PermGroup.from_json(grp.to_json())
    assert again == grp


def test_a_symmetric_group_over_its_limit_is_a_resource_limit_at_any_degree(monkeypatch):
    assert MAX_GROUP_ORDER == 1_000_000
    with pytest.raises(ResourceLimit) as err:
        PermGroup.symmetric(10)  # 10! = 3,628,800
    assert str(err.value) == "symmetric group of degree 10 has more than 1000000 elements"
    monkeypatch.setattr(perm, "MAX_GROUP_ORDER", 6)
    # 2000! has over 5,000 digits, more than int -> str converts by default
    for k in (4, 2000):
        with pytest.raises(ResourceLimit) as err:
            PermGroup.symmetric(k)
        assert str(err.value) == f"symmetric group of degree {k} has more than 6 elements"
    assert len(PermGroup.symmetric(3)) == 6


def test_the_group_builders_take_no_size_option():
    with pytest.raises(TypeError):
        PermGroup.generated(2, [], limit=MAX_GROUP_ORDER)
    with pytest.raises(TypeError):
        PermGroup.symmetric(2, limit=MAX_GROUP_ORDER)


# k -> (order, sha256 of the compact JSON list of the elements' images, generators),
# as the element-list builders of symmetric(k) and trivial(k) made them
SYMMETRIC = {
    0: (1, "cf1cbb66a638b486", []),
    1: (1, "043f347c2cdc0d8c", []),
    2: (2, "328bc989b58fc287", [[2, 1]]),
    3: (6, "e7fcf02522d9ec1f", [[2, 1, 3], [2, 3, 1]]),
    4: (24, "2697e6511750ab80", [[2, 1, 3, 4], [2, 3, 4, 1]]),
    5: (120, "c32569b45fb94834", [[2, 1, 3, 4, 5], [2, 3, 4, 5, 1]]),
    6: (720, "81a29dc7b3d75d99", [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]]),
    7: (5040, "154bf42820b19b0a", [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]]),
}
TRIVIAL = {
    0: "cf1cbb66a638b486", 1: "043f347c2cdc0d8c", 2: "12849a365ef01811", 3: "918c7b1214a69dae",
    4: "b60b3d509fe2effb", 5: "a17cf10e145cfdfd", 6: "3b80163ed979c04f", 7: "6f7d7b71137ab91e",
}


def _digest(group: PermGroup) -> str:
    text = json.dumps([list(g) for g in group.elements], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("k", range(8))
def test_the_named_groups_keep_their_elements_generators_and_json(k):
    order, digest, gens = SYMMETRIC[k]
    sym = PermGroup.symmetric(k)
    assert (len(sym), _digest(sym), [list(g) for g in sym.generators]) == (order, digest, gens)
    assert sym.to_json() == {"degree": k, "generators": gens or [list(range(1, k + 1))]}
    triv = PermGroup.trivial(k)
    assert (len(triv), _digest(triv), triv.generators) == (1, TRIVIAL[k], ())
    assert triv.to_json() == {"degree": k, "generators": [list(range(1, k + 1))]}


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
