import pytest

from cylgraph.core import Graph
from cylgraph.cylinder import (
    Cylinder,
    CylinderSet,
    base_automorphism,
    contraction_cyl,
    cyl_disjoint,
    cyl_sum,
    deletion_cyl,
    generalized_loop,
    identity_cyl,
    make_cylinder,
    path_cyl,
    sqcap_cyl,
    square_cyl,
    twist,
    wedge_cyl,
)
from cylgraph.core import isomorphic
from cylgraph.errors import DomainError, EpsilonError, NotACylinder, NotATwist
from cylgraph.perm import Perm, PermGroup

from util import girth

TIED = "vertex names collide after suffixing: 1 and '1' both become '1\\.a'; rename the source vertices"


def test_identity_cylinder_shape():
    c = identity_cyl(3)
    assert c.width == 3
    assert c.eps() == {}
    assert len(c.graph.vertices) == 6
    # one rung per slot, nothing within a row
    assert len(c.graph.canonical_edges()) == 3
    assert len(c.graph.induced(c.y).edges) == 0
    d = identity_cyl(2, directed=True)
    assert [(e.tail, e.head) for e in d.graph.edges.values()] == [("y1", "z1"), ("y2", "z2")]


def test_path_cylinder_shape():
    c = path_cyl(3)
    assert c.width == 1
    assert c.y != c.z
    assert c.eps() == {}
    assert len(c.graph.edges) == 6  # symmetric: twins
    d = path_cyl(2, labels=[0, 1], directed=True)
    assert [d.graph.edges[e].label for e in sorted(d.graph.edges)] == [0, 1]
    assert path_cyl(0).eps() == {1: 1}


@pytest.mark.parametrize("directed", [False, True])
def test_contraction_cylinder_is_the_empty_path(directed):
    # the cylinder graph_minor glues in for a contracted edge: one vertex on both rows
    assert contraction_cyl(directed) == path_cyl(0, directed=directed)
    assert contraction_cyl(directed).eps() == {1: 1}


def test_sqcap_wedge_square_shapes():
    assert sqcap_cyl().width == 2
    assert len(sqcap_cyl().graph.edges) == 6
    w = wedge_cyl()
    assert w.eps() == {1: 1}
    assert len(w.graph.vertices) == 3
    assert len(square_cyl().graph.edges) == 8
    assert girth(square_cyl().graph) == 4


def test_make_cylinder_rejects_repeated_row():
    g = Graph()
    g.add_vertices("ab")
    with pytest.raises(EpsilonError):
        make_cylinder(g, ["a", "a"], ["a", "b"])


@pytest.mark.parametrize("y, z, message", [
    (["a"], [], "row lengths differ: 1 vs 0"),
    ([], [], "cylinder width must be at least 1"),
])
def test_make_cylinder_rejects_rows_of_no_common_width(y, z, message):
    g = Graph()
    g.add_vertices("ab")
    with pytest.raises(NotACylinder) as err:
        make_cylinder(g, y, z)
    assert str(err.value) == message


def test_path_cylinder_wants_one_label_per_edge():
    with pytest.raises(DomainError, match="^need 2 labels, got 1$"):
        path_cyl(2, labels=["a"])


def test_make_cylinder_rejects_missing_vertex():
    g = Graph()
    g.add_vertex("a")
    with pytest.raises(DomainError):
        make_cylinder(g, ["a"], ["b"])


def test_make_cylinder_rejects_base_mismatch():
    g = Graph()
    g.add_vertices(["y1", "y2", "z1", "z2"])
    g.add_edge("y1", "y2")
    with pytest.raises(NotACylinder):
        make_cylinder(g, ["y1", "y2"], ["z1", "z2"])


def test_twist_moves_rows_and_eps():
    tau = Perm((2, 1))
    c = sqcap_cyl()
    t = twist(c, tau, tau)
    assert t.y == ("y2", "y1")
    assert t.z == ("z2", "z1")
    w = wedge_cyl()
    t2 = twist(w, tau, Perm.identity(2))
    # shared vertex sat in slot (1,1); moving the y row sends it to slot 2
    assert t2.eps() == {2: 1}


def test_twist_rejects_non_automorphism():
    g = Graph(symmetric=True)
    g.add_vertices(["y1", "y2", "z1", "z2"])
    g.add_sym_edge("y1", "y1")
    g.add_sym_edge("z1", "z1")
    c = make_cylinder(g, ["y1", "y2"], ["z1", "z2"])
    with pytest.raises(NotATwist):
        twist(c, Perm((2, 1)), Perm((2, 1)))


def test_cyl_sum_identity_absorbs():
    one = identity_cyl(1)
    s = cyl_sum(one, one)
    assert s.width == 1
    assert len(s.graph.vertices) == 2
    # the two rungs land on the same endpoints and collapse to one
    assert len(s.graph.canonical_edges()) == 1
    assert s.y != s.z


def test_cyl_sum_merges_base_edges():
    s = cyl_sum(sqcap_cyl(), sqcap_cyl())
    # rows identified, base edges merged, both rungs merged into one
    assert len(s.graph.vertices) == 4
    assert len(s.graph.canonical_edges()) == 3
    t = cyl_sum(sqcap_cyl(), square_cyl())
    assert len(t.graph.canonical_edges()) == 4  # gains the second rung


def test_cyl_sum_width_mismatch():
    with pytest.raises(DomainError):
        cyl_sum(identity_cyl(1), identity_cyl(2))


def test_cyl_disjoint_widths_add():
    d = cyl_disjoint(path_cyl(1), identity_cyl(2))
    assert d.width == 3
    assert d.eps() == {}
    d.validate()
    w = cyl_disjoint(path_cyl(0), wedge_cyl())
    assert w.eps() == {1: 1, 2: 2}


def test_generalized_loop_closes_path():
    # closing a 3-path onto one slot gives a 3-cycle
    lp = generalized_loop(path_cyl(3), Perm.identity(1), Perm.identity(1))
    assert lp.width == 1
    assert len(lp.graph.vertices) == 3
    assert len(lp.graph.canonical_edges()) == 3
    assert lp.y == lp.z
    # a 2-path closes onto a doubled edge, which same-label merging collapses
    lp2 = generalized_loop(path_cyl(2), Perm.identity(1), Perm.identity(1))
    assert len(lp2.graph.vertices) == 2
    assert len(lp2.graph.canonical_edges()) == 1
    # a 1-path closes onto an undirected loop (kept as a twin pair)
    lp1 = generalized_loop(path_cyl(1), Perm.identity(1), Perm.identity(1))
    lp1.graph.validate()
    assert len(lp1.graph.edges) == 2
    assert len(lp1.graph.canonical_edges()) == 1


def test_generalized_loop_rejects_slot_collapse():
    with pytest.raises(EpsilonError):
        generalized_loop(wedge_cyl(), Perm.identity(2), Perm((2, 1)))


def test_generalized_loop_checks_both_degrees():
    for g, l in ((Perm.identity(2), Perm.identity(1)), (Perm.identity(1), Perm.identity(2))):
        with pytest.raises(DomainError, match="^slot permutations must match the cylinder width$"):
            generalized_loop(identity_cyl(1), g, l)


def test_generalized_loop_names_its_slots_past_the_cylinder_vertices():
    g = Graph(symmetric=True)
    g.add_vertices(["s1", "s_1", "z"])
    g.add_sym_edge("s1", "s_1")
    g.add_sym_edge("s_1", "z")
    lp = generalized_loop(make_cylinder(g, ["s1"], ["z"]), Perm.identity(1), Perm.identity(1))
    assert lp.y == lp.z == ("s__1",)
    assert sorted(lp.graph.vertices) == ["s_1", "s__1"]


def test_base_automorphism_refuses_a_permutation_of_another_degree():
    assert base_automorphism(identity_cyl(2), Perm((2, 1)))
    assert not base_automorphism(identity_cyl(2), Perm.identity(3))
    assert not base_automorphism(identity_cyl(2), Perm.identity(1), "z")


def test_generalized_loop_identity_merges_rows():
    lp = generalized_loop(identity_cyl(2), Perm.identity(2), Perm.identity(2))
    assert lp.width == 2
    assert len(lp.graph.vertices) == 2
    # each rung closes onto an undirected loop at its slot
    assert len(lp.graph.canonical_edges()) == 2
    assert all(e.tail == e.head for e in lp.graph.edges.values())


def test_cylinder_set_validation():
    s2 = PermGroup.symmetric(2)
    CylinderSet(s2, {0: sqcap_cyl()})
    CylinderSet(PermGroup.trivial(1), {"del": deletion_cyl(), "con": contraction_cyl(), "id": identity_cyl(1)})
    with pytest.raises(NotACylinder):
        CylinderSet(s2, {})
    with pytest.raises(NotACylinder):
        CylinderSet(s2, {0: identity_cyl(3)})
    with pytest.raises(NotACylinder):
        CylinderSet(PermGroup.trivial(2), {0: sqcap_cyl(), 1: identity_cyl(2)})  # bases differ
    with pytest.raises(NotACylinder, match="^cylinders mix symmetric and directed graphs$"):
        CylinderSet(PermGroup.trivial(1), {0: identity_cyl(1), 1: identity_cyl(1, directed=True)})
    with pytest.raises(DomainError, match="^no cylinder with key 1$"):
        CylinderSet(s2, {0: sqcap_cyl()})[1]


def test_cylinder_set_group_must_fix_base():
    g = Graph(symmetric=True)
    g.add_vertices(["y1", "y2", "z1", "z2"])
    g.add_sym_edge("y1", "y1")
    g.add_sym_edge("z1", "z1")
    c = make_cylinder(g, ["y1", "y2"], ["z1", "z2"])
    with pytest.raises(NotATwist):
        CylinderSet(PermGroup.symmetric(2), {0: c})
    CylinderSet(PermGroup.trivial(2), {0: c})


def test_cylinder_json_roundtrip():
    c = sqcap_cyl()
    back = Cylinder.from_json(c.to_json())
    assert back == c
    cs = CylinderSet(PermGroup.symmetric(2), {0: sqcap_cyl()})
    again = CylinderSet.from_json(cs.to_json())
    assert again.group == cs.group
    assert again[0] == cs[0]


@pytest.mark.parametrize("second", [1, 1.0, True])
def test_cylinder_set_rejects_a_repeated_key(second):
    data = CylinderSet(PermGroup.trivial(1), {1: path_cyl(1), 2: path_cyl(2)}).to_json()
    data["cylinders"][1]["key"] = second
    with pytest.raises(DomainError, match=f"cylinder record #1 repeats the key {second!r}"):
        CylinderSet.from_json(data)


def test_det_cyl_bases_trivial():
    d = deletion_cyl()
    assert d.eps() == {}
    i = identity_cyl(1)
    assert isomorphic(d.graph.induced(d.y), i.graph.induced(i.y)) is not None


# -- validation errors: type and message -------------------------------------


def _looped_at_slot_1(k):
    """Width-k cylinder whose rows carry one loop, at slot 1."""
    g = Graph(symmetric=True)
    ys, zs = [f"y{i}" for i in range(1, k + 1)], [f"z{i}" for i in range(1, k + 1)]
    g.add_vertices(ys + zs)
    g.add_sym_edge("y1", "y1")
    g.add_sym_edge("z1", "z1")
    return make_cylinder(g, ys, zs)


def _parallel_rows(y_labels, z_labels):
    """Directed width-2 graph with parallel edges y1 -> y2 and z1 -> z2."""
    g = Graph()
    g.add_vertices(["y1", "y2", "z1", "z2"])
    for label in y_labels:
        g.add_edge("y1", "y2", label)
    for label in z_labels:
        g.add_edge("z1", "z2", label)
    return g


def test_rows_that_are_not_slot_isomorphic_are_named():
    g = Graph()
    g.add_vertices(["y1", "y2", "z1", "z2"])
    g.add_edge("y1", "y2")
    g.add_edge("z2", "z1")
    with pytest.raises(NotACylinder) as err:
        make_cylinder(g, ["y1", "y2"], ["z1", "z2"])
    assert str(err.value) == "slotwise map between the rows is not an isomorphism of the bases"
    assert make_cylinder(g, ["y1", "y2"], ["z2", "z1"]).width == 2


def test_row_bases_compare_parallel_labels_as_multisets():
    with pytest.raises(NotACylinder) as err:
        make_cylinder(_parallel_rows("aa", "ab"), ["y1", "y2"], ["z1", "z2"])
    assert str(err.value) == "slotwise map between the rows is not an isomorphism of the bases"
    with pytest.raises(NotACylinder):
        make_cylinder(_parallel_rows("a", "aa"), ["y1", "y2"], ["z1", "z2"])
    assert make_cylinder(_parallel_rows("ab", "ba"), ["y1", "y2"], ["z1", "z2"]).width == 2


def test_a_cylinder_off_the_common_base_is_named():
    with pytest.raises(NotACylinder) as err:
        CylinderSet(PermGroup.trivial(2), {0: sqcap_cyl(), "rungs": identity_cyl(2, directed=False)})
    assert str(err.value) == "cylinder 'rungs' does not share the common base"
    aa = make_cylinder(_parallel_rows("aa", "aa"), ["y1", "y2"], ["z1", "z2"])
    ab = make_cylinder(_parallel_rows("ab", "ab"), ["y1", "y2"], ["z1", "z2"])
    with pytest.raises(NotACylinder) as err:
        CylinderSet(PermGroup.trivial(2), {1: aa, 2: ab})
    assert str(err.value) == "cylinder 2 does not share the common base"
    ba = make_cylinder(_parallel_rows("ba", "ba"), ["y1", "y2"], ["z1", "z2"])
    assert CylinderSet(PermGroup.trivial(2), {1: ab, 2: ba}).width == 2


def test_the_first_group_element_off_the_base_is_named():
    # S3 in element order: (), (2 3), (1 2), ...; (2 3) fixes the looped slot
    with pytest.raises(NotATwist) as err:
        CylinderSet(PermGroup.symmetric(3), {0: _looped_at_slot_1(3)})
    assert str(err.value) == "group element Perm[3: (1 2)] is not an automorphism of the base"
    assert len(CylinderSet(PermGroup.generated(3, [Perm((1, 3, 2))]), {0: _looped_at_slot_1(3)}).group) == 2


def test_a_failing_generator_names_the_first_failing_element_in_group_order():
    # base: the edge y1 - y2.  The generator (1 2) fixes it and (1 2 3) does
    # not; (2 3), no generator, comes first among the elements that fail.
    g = Graph(symmetric=True)
    g.add_vertices(["y1", "y2", "y3", "z1", "z2", "z3"])
    g.add_sym_edge("y1", "y2")
    g.add_sym_edge("z1", "z2")
    c = make_cylinder(g, ["y1", "y2", "y3"], ["z1", "z2", "z3"])
    s3 = PermGroup.symmetric(3)
    assert s3.generators == (Perm((2, 1, 3)), Perm((2, 3, 1)))
    for group in (s3, PermGroup(3, s3.elements)):  # the second has no generators: every element is tested
        with pytest.raises(NotATwist) as err:
            CylinderSet(group, {0: c})
        assert str(err.value) == "group element Perm[3: (2 3)] is not an automorphism of the base"
    ok = CylinderSet(PermGroup.generated(3, [Perm((2, 1, 3))]), {0: c})
    assert len(ok.group) == 2


def test_a_group_built_from_its_elements_has_no_generators_to_trust():
    # only generated() and symmetric() set generators; a hand-built S2 has
    # none, so every element is tested and (1 2), which moves the loop, fails
    s2 = PermGroup(2, PermGroup.symmetric(2).elements)
    assert s2.generators == ()
    with pytest.raises(TypeError):
        PermGroup(2, s2.elements, [Perm.identity(2)])
    with pytest.raises(NotATwist) as err:
        CylinderSet(s2, {0: _looped_at_slot_1(2)})
    assert str(err.value) == "group element Perm[2: (1 2)] is not an automorphism of the base"


def test_a_cylinder_set_tests_the_group_on_its_generators(monkeypatch):
    import cylgraph.cylinder

    calls = []
    signature = cylgraph.cylinder._row_signature

    def counted(*args):
        calls.append(args)
        return signature(*args)

    c = identity_cyl(8)
    s8 = PermGroup.symmetric(8)
    monkeypatch.setattr(cylgraph.cylinder, "_row_signature", counted)
    CylinderSet(s8, {1: c})
    # the cylinder's two rows, the common base, then the two generators of S8, not its 40,320 elements
    assert len(calls) == 5


def test_twist_names_the_base_it_breaks():
    c, swap, ident = _looped_at_slot_1(2), Perm((2, 1)), Perm.identity(2)
    with pytest.raises(NotATwist) as err:
        twist(c, swap, ident)
    assert str(err.value) == "Perm[2: (1 2)] is not an automorphism of the y-base"
    with pytest.raises(NotATwist) as err:
        twist(c, ident, swap)
    assert str(err.value) == "Perm[2: (1 2)] is not an automorphism of the z-base"
    assert twist(c, ident, ident) == c


def test_sum_and_juxtaposition_refuse_vertex_names_that_collide():
    g = Graph(symmetric=True)
    g.add_vertices([1, "1"])
    g.add_sym_edge(1, "1")
    c = make_cylinder(g, [1], ["1"])
    with pytest.raises(DomainError, match=f"^{TIED}$"):
        cyl_sum(c, c)
    with pytest.raises(DomainError, match=f"^{TIED}$"):
        cyl_disjoint(c, c)
