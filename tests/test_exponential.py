"""The exponential against frozen output: golden CLI files and a copy of its
earlier triple loop, kept as a differential oracle."""

import copy
import gc
import itertools
import json
import pickle
import random
from itertools import combinations
from pathlib import Path

import pytest

import cylgraph.construct
from cylgraph.catalog import complete_graph, cycle_graph, neps_cylinder, path_graph
from cylgraph.cli import main
from cylgraph.construct import cyl_product, exponential, uniform_labels
from cylgraph.core import Edge, GammaLabel, Graph, isomorphic, label_sort_key
from cylgraph.cylinder import (
    CylinderSet,
    contraction_cyl,
    deletion_cyl,
    identity_cyl,
    make_cylinder,
    path_cyl,
    sqcap_cyl,
    square_cyl,
    wedge_cyl,
)
from cylgraph.duality import section
from cylgraph.errors import CylError, DomainError, LabelConflict
from cylgraph.hom import Homomorphism, check_hom, count_homs, iter_homs
from cylgraph.perm import Perm, PermGroup

from util import act, components, hom_key, outputs_under_hash_seeds, random_graph, random_multigraph

GOLDEN = Path(__file__).parent / "golden"


def _digraph():
    """A directed 4-cycle with a chord, a loop and a parallel edge."""
    g = Graph(symmetric=False)
    g.add_vertices("abcd")
    for t, h in ("ab", "bc", "cd", "da", "ac", "bb", "ab"):
        g.add_edge(t, h)
    return g


def golden_instances():
    """name -> (cylinder set, target) for ``tests/golden/expo_<name>.json``."""
    return {
        "walk_power": (CylinderSet(PermGroup.trivial(1), {1: path_cyl(3)}), cycle_graph(7)),
        "tensor_power": (
            CylinderSet(PermGroup.trivial(3), {"tensor": neps_cylinder(path_graph(2), "tensor")}),
            complete_graph(3),
        ),
        "wedge_s2": (CylinderSet(PermGroup.symmetric(2), {1: wedge_cyl()}), cycle_graph(5)),
        "square_s2": (CylinderSet(PermGroup.symmetric(2), {1: square_cyl()}), complete_graph(3)),
        "directed_path": (CylinderSet(PermGroup.trivial(1), {1: path_cyl(2, directed=True)}), _digraph()),
    }


@pytest.mark.parametrize("name", sorted(golden_instances()))
def test_cli_expo_matches_golden_file(tmp_path, name):
    cset, h = golden_instances()[name]
    cyl_path, target_path, out = tmp_path / "c.json", tmp_path / "h.json", tmp_path / "out.json"
    cyl_path.write_text(json.dumps(cset.to_json()))
    target_path.write_text(json.dumps(h.to_json()))
    assert main(["expo", "--cylinders", str(cyl_path), "--target", str(target_path), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"expo_{name}.json").read_bytes()


def _signature(g):
    return sorted(map(str, g.vertices)), sorted(g.edges)


@pytest.mark.parametrize("name", sorted(golden_instances()))
def test_exponential_takes_every_map_of_each_cylinder(monkeypatch, name):
    # a component whose vertices all lie on the rows is searched to the end,
    # one search per component: its maps are its pairs up to edge picks.  A
    # component with a vertex off the rows is projected onto its rows by
    # elimination, and so never enumerated
    cset, h = golden_instances()[name]
    calls, taken = [], []

    def counted(g, *args, **kwargs):
        i = len(calls)
        calls.append(g)
        taken.append(0)
        for hom in iter_homs(g, *args, **kwargs):
            taken[i] += 1
            yield hom

    monkeypatch.setattr(cylgraph.construct, "iter_homs", counted)
    exponential(cset, h)
    want, projected = [], 0
    for key in sorted(cset.keys(), key=str):
        cyl = cset[key]
        cg, rows = cyl.graph, set(cyl.y + cyl.z)
        comps = components(cg)
        if len(comps) == 1 and set(comps[0]) <= rows:  # a connected cylinder is searched as it is
            assert any(g is cg for g in calls)
        want += [_signature(cg.induced(comp)) for comp in comps if set(comp) <= rows]
        projected += sum(not set(comp) <= rows for comp in comps)
    assert sorted(map(_signature, calls)) == sorted(want)
    assert taken == [count_homs(g, h, mode="labeled") for g in calls]
    assert all(taken)
    # path cylinders have interior vertices; the others lie on their rows
    assert bool(projected) == (name in ("directed_path", "walk_power"))
    # the tensor cylinder of a bipartite factor is the disconnected case
    assert (len(calls) > len(cset.keys())) == (name == "tensor_power")


TIED_NAMES_SCRIPT = """
from cylgraph.core import Graph
from cylgraph.construct import exponential
from cylgraph.cylinder import CylinderSet, identity_cyl
from cylgraph.perm import PermGroup

h = Graph(symmetric=True)
h.add_vertices([1, "1"])
h.add_sym_edge(1, "1")
h.add_sym_edge(1, 1)
et = exponential(CylinderSet(PermGroup.symmetric(2), {1: identity_cyl(2)}), h)
print(et.graph.vertices, list(et.edge_by_triple.values()))
"""


def test_representatives_of_tied_names_ignore_the_hash_seed():
    # (1, "1") and ("1", 1) tie under the str key; the orbit's first tuple
    # in group order must win, not the first in set order
    outputs = outputs_under_hash_seeds(TIED_NAMES_SCRIPT)
    assert len(outputs) == 1


def test_rep_and_shift_answer_only_width_long_tuples_over_the_target():
    """``rep`` is None and ``shift`` a DomainError for a vertex outside the
    target, a tuple of the wrong width, unhashable entries and a value that
    is no sequence at all; valid tuples read as before, lists included."""
    et = exponential(CylinderSet(PermGroup.symmetric(2), {1: identity_cyl(2)}), complete_graph(3))
    assert (et.rep((1, 0)), et.shift((1, 0))) == ((0, 1), Perm([2, 1]))
    assert (et.rep([0, 1]), et.shift([0, 1])) == ((0, 1), Perm.identity(2))
    for t in [(0, 9), (0,), (0, 1, 2), [[1], [2]], 5, None]:
        assert et.rep(t) is None
        with pytest.raises(DomainError, match="is not a width-2 tuple over the target's vertices"):
            et.shift(t)


# -- differential oracle ------------------------------------------------------


def expo_oracle(cset, h, rep_choice="min"):
    """The exponential as built before boundary pairs were deduplicated: every
    hom's boundary rows are re-keyed by JSON text.  Returns (graph, tuple_of,
    witnesses, edge_by_triple, homs seen, distinct boundary pairs)."""
    def tuple_key(t):
        return tuple(str(x) for x in t)

    def tuple_name(t):
        return json.dumps(list(t), separators=(",", ":"), default=str)

    group = cset.group
    pick = min if rep_choice == "min" else max
    verts = sorted(h.vertices, key=str)
    reps, rep_of = [], {}
    for t in itertools.product(verts, repeat=cset.width):
        if t in rep_of:
            continue
        orbit = [p.act(t) for p in group]  # names that tie under str go to the first in group order
        r = pick(orbit, key=tuple_key)
        for q in orbit:
            rep_of[q] = r
        reps.append(r)

    triples, order, n_homs, pairs = {}, [], 0, set()
    for key in sorted(cset.keys(), key=str):
        cyl = cset[key]
        for hom in iter_homs(cyl.graph, h, mode="labeled"):
            p = tuple(hom.vmap[v] for v in cyl.y)
            q = tuple(hom.vmap[v] for v in cyl.z)
            n_homs += 1
            pairs.add((key, p, q))
            r1, r2 = rep_of[p], rep_of[q]
            dm = [d for d in group if act(r1, d) == p]
            dp = [d for d in group if act(r2, d) == q]
            for a in dm:
                for b in dp:
                    lab = GammaLabel(a, key, b)
                    tk = (tuple_name(r1), tuple_name(r2), label_sort_key(lab))
                    if tk not in triples:
                        triples[tk] = (r1, r2, lab, hom)
                        order.append(tk)

    g = Graph(symmetric=h.symmetric)
    for r in reps:
        g.add_vertex(tuple_name(r))
    witnesses, edge_by_triple = {}, {}
    if not h.symmetric:
        for n, tk in enumerate(sorted(order)):
            r1, r2, lab, hom = triples[tk]
            g.add_edge(tk[0], tk[1], lab, f"x{n}")
            witnesses[f"x{n}"] = hom
            edge_by_triple[tk] = f"x{n}"
    else:
        def reverse_key(tk):
            return (tk[1], tk[0], label_sort_key(triples[tk][2].reversed()))

        for tk in order:
            if reverse_key(tk) not in triples:
                raise LabelConflict(
                    "exponential edge set is not reversal-closed; the cylinders are not genuinely symmetric"
                )
        n = 0
        for tk in sorted(order):
            rk = reverse_key(tk)
            if rk < tk and rk != tk:
                continue
            r1, r2, lab, hom = triples[tk]
            eid = f"x{n}"
            n += 1
            g.add_edge(tk[0], tk[1], lab, eid)
            witnesses[eid] = hom
            edge_by_triple[tk] = eid
            _, _, rlab, rhom = triples[rk]
            g.add_edge(tk[1], tk[0], rlab, f"{eid}t")
            witnesses[f"{eid}t"] = rhom
            if rk != tk:
                edge_by_triple[rk] = f"{eid}t"
            g.pair_edges(eid, f"{eid}t")

    g = g.reduced()
    tuple_of = {tuple_name(r): r for r in reps if g.has_vertex(tuple_name(r))}
    witnesses = {eid: w for eid, w in witnesses.items() if eid in g.edges}
    edge_by_triple = {tk: eid for tk, eid in edge_by_triple.items() if eid in g.edges}
    return g, tuple_of, witnesses, edge_by_triple, n_homs, len(pairs)


def _random_cylinder(rng, k, symmetric, complete_base, labels):
    """Rows y1..yk and z1..zk with the same base (empty or complete, so every
    slot permutation is a twist), random rungs and up to two inner vertices;
    inner vertices may carry loops."""
    g = Graph(symmetric=symmetric)
    ys = [f"y{i}" for i in range(1, k + 1)]
    zs = [f"z{i}" for i in range(1, k + 1)]
    inner = [f"i{j}" for j in range(rng.randint(0, 2))]
    g.add_vertices(ys + zs + inner)

    def add(u, v, lab=None):
        if symmetric:
            g.add_sym_edge(u, v, lab)
        else:
            g.add_edge(u, v, lab)

    if complete_base:
        for row in (ys, zs):
            for a, b in combinations(row, 2):
                add(a, b)
                if not symmetric:
                    add(b, a)
    for _ in range(rng.randint(1, 2 * k + len(inner))):
        u, v = rng.choice(ys + inner), rng.choice(zs + inner)
        if not symmetric and rng.random() < 0.3:
            u, v = v, u
        add(u, v, rng.choice(labels))
    return make_cylinder(g, ys, zs)


_GROUPS = {
    1: [PermGroup.trivial(1)],
    2: [PermGroup.trivial(2), PermGroup.symmetric(2)],
    3: [PermGroup.trivial(3), PermGroup.cyclic(3), PermGroup.symmetric(3)],
}


def _catalog_set(rng, symmetric):
    directed = not symmetric
    if symmetric and rng.random() < 0.5:
        group = rng.choice(_GROUPS[2])
        picks = rng.sample([sqcap_cyl, square_cyl, wedge_cyl], rng.randint(1, 2))
        return CylinderSet(group, {j + 1: f() for j, f in enumerate(picks)})
    if rng.random() < 0.5:
        k = rng.choice([2, 3])
        return CylinderSet(rng.choice(_GROUPS[k]), {1: identity_cyl(k, directed)})
    picks = rng.sample([1, 2, 3], rng.randint(1, 2))
    return CylinderSet(PermGroup.trivial(1), {j + 1: path_cyl(n, directed=directed) for j, n in enumerate(picks)})


def _random_instance(rng):
    symmetric = rng.random() < 0.6
    labels = (None, "a")
    if rng.random() < 0.4:
        cset = _catalog_set(rng, symmetric)
    else:
        k = rng.choice([1, 2, 2, 3])
        base = rng.random() < 0.3
        cyls = {j: _random_cylinder(rng, k, symmetric, base, labels) for j in range(1, rng.randint(1, 2) + 1)}
        cset = CylinderSet(rng.choice(_GROUPS[k]), cyls)
    n = rng.randint(2, 4 if cset.width == 3 else 5)
    if rng.random() < 0.5:
        # loops and parallel same-label edges: several homs share one boundary pair
        h = random_multigraph(rng, n, rng.randint(n, 3 * n), labels=labels, symmetric=symmetric)
    else:
        h = random_graph(rng, n, p=0.6, symmetric=symmetric, loops=rng.random() < 0.3)
    largest = rng.random() < 0.3  # also compare with the oracle on the largest representatives
    budget = rng.choice([None, None, None, rng.randint(1, 300)])
    return cset, h, largest, budget


def _outcome(build):
    try:
        return build()
    except CylError as exc:
        return type(exc).__name__, str(exc)


def _outcome_at(monkeypatch, budget, build):
    """``_outcome(build)`` with ``CYL_NODE_BUDGET`` set to ``budget``, left unset when None."""
    with monkeypatch.context() as m:
        if budget is not None:
            m.setenv("CYL_NODE_BUDGET", str(budget))
        return _outcome(build)


def _is_error(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], str)


def _assert_matches_oracle(got, want):
    """``got`` is the oracle's ``want`` to the byte: graph, representatives,
    witness keys and order, and the triple index; or the same error."""
    if _is_error(want):
        assert got == want
        return
    g, tuple_of, witnesses, edge_by_triple = want[:4]
    assert json.dumps(got.graph.to_json()) == json.dumps(g.to_json())
    assert list(got.tuple_of.items()) == list(tuple_of.items())
    assert {e: hom_key(w) for e, w in got.witnesses.items()} == {e: hom_key(w) for e, w in witnesses.items()}
    assert list(got.witnesses) == list(witnesses)
    # a witness joined from component maps keeps the whole-graph map's key order
    assert [(list(w.vmap), list(w.emap)) for w in got.witnesses.values()] == [
        (list(w.vmap), list(w.emap)) for w in witnesses.values()
    ]
    by_sort_key = [((t, hd, label_sort_key(lab)), eid) for (t, hd, lab), eid in got.edge_by_triple.items()]
    assert by_sort_key == list(edge_by_triple.items())
    for name, r in tuple_of.items():
        assert got.names[got.rep(r)] == name


def _assert_isomorphic_to_the_largest_representatives(got, cset, h):
    """The exponential is one graph up to isomorphism whichever orbit
    representative each vertex takes: ``got``, built on the smallest, is
    isomorphic to the oracle's graph on the largest once each label is cut
    down to its cylinder key (an edge's twists follow its ends' representatives)."""
    def by_key(g):
        return g.with_labels({eid: e.label.key for eid, e in g.edges.items()})

    assert isomorphic(by_key(got.graph), by_key(expo_oracle(cset, h, "max")[0])) is not None


def test_exponential_matches_the_frozen_triple_loop(monkeypatch):
    # A disconnected cylinder is searched one component at a time, each
    # search under its own budget, where the oracle searches the whole graph
    # once: where the oracle runs out of budget, the exponential either does
    # too or agrees with the oracle run without a budget.
    rng = random.Random(4004)
    skipped = conflicts = limits = twisted = compared = largest_compared = 0
    for _ in range(300):
        cset, h, largest, budget = _random_instance(rng)
        want = _outcome_at(monkeypatch, budget, lambda: expo_oracle(cset, h))
        got = _outcome_at(monkeypatch, budget, lambda: exponential(cset, h))
        if largest and not _is_error(got):
            _assert_isomorphic_to_the_largest_representatives(got, cset, h)
            largest_compared += 1
        if _is_error(want):
            if want[0] == "ResourceLimit" and got != want:
                _assert_matches_oracle(got, _outcome(lambda: expo_oracle(cset, h)))
            else:
                assert got == want
            conflicts += want[0] == "LabelConflict"
            limits += want[0] == "ResourceLimit"
            continue
        _assert_matches_oracle(got, want)
        n_homs, n_pairs = want[4:]
        skipped += n_homs > n_pairs
        twisted += len(cset.group.elements) > 1
        compared += 1
    # the battery reaches the cases the deduplication and the verdicts touch
    assert compared >= 200 and largest_compared >= 50
    assert skipped >= 50
    assert twisted >= 50
    assert conflicts >= 1 and limits >= 5


def _boundary_read_instances():
    """Cylinders whose boundary rows stress the one-read row lookup: y and z
    the same vertex (a repeated name), an isolated boundary with no edges,
    and three slots under the full symmetric group."""
    multigraph = random_multigraph(random.Random(15), 4, 10, labels=(None, "a"), symmetric=True)
    return {
        "contraction": (CylinderSet(PermGroup.trivial(1), {1: contraction_cyl()}), multigraph),
        "contraction_directed": (
            CylinderSet(PermGroup.trivial(1), {1: contraction_cyl(directed=True)}),
            random_multigraph(random.Random(16), 4, 10, labels=(None, "a")),
        ),
        "deletion": (CylinderSet(PermGroup.trivial(1), {1: deletion_cyl()}), multigraph),
        "identity_s3": (CylinderSet(PermGroup.symmetric(3), {1: identity_cyl(3)}), multigraph),
    }


@pytest.mark.parametrize("name", sorted(_boundary_read_instances()))
def test_exponential_matches_the_frozen_triple_loop_at_boundary_edge_cases(name):
    cset, h = _boundary_read_instances()[name]
    got = exponential(cset, h)
    assert got.graph.edges
    _assert_matches_oracle(got, expo_oracle(cset, h))


def _disjoint_union(parts):
    """The parts side by side, vertex ``v`` of part ``j`` renamed ``f"{j}:{v}"``."""
    g = Graph(symmetric=parts[0].symmetric)
    for j, part in enumerate(parts):
        g.add_vertices(f"{j}:{v}" for v in part.vertices)
        for eid in part.canonical_edges():
            t, hd, lab = part.edges[eid]
            (g.add_sym_edge if g.symmetric else g.add_edge)(f"{j}:{t}", f"{j}:{hd}", lab)
    return g


def test_iter_homs_orders_a_disconnected_source_as_the_product_of_its_components():
    # the witness rule rests on this: the whole-graph search lays each
    # component out contiguously, so its vertex maps are the lexicographic
    # product of the components' own orders, and the first map with a given
    # vertex map joins the components' first maps with their vertex maps
    rng = random.Random(1907)
    products = 0
    for _ in range(80):
        symmetric = rng.random() < 0.6
        parts = [random_multigraph(rng, rng.randint(1, 3), rng.randint(0, 3), (None, "a"), symmetric)
                 for _ in range(rng.randint(2, 3))]
        g = _disjoint_union(parts)
        h = random_multigraph(rng, 3, rng.randint(2, 6), (None, "a"), symmetric)
        mode = rng.choice(["plain", "labeled"])
        if count_homs(g, h, mode=mode) > 2000:
            continue

        def firsts(graph):
            """vertex map items -> the first map with that vertex map, in search order"""
            out = {}
            for hom in iter_homs(graph, h, mode=mode):
                out.setdefault(tuple(hom.vmap.items()), hom)
            return out

        whole = firsts(g)
        comps = components(g)
        if whole:
            # components in the order the whole search places them, each contiguous
            order = [v for v, _ in next(iter(whole))]
            comps.sort(key=lambda comp: order.index(comp[0]))
            assert sorted(order.index(v) for v in comps[0]) == list(range(len(comps[0])))
        tables = [firsts(g.induced(comp)) for comp in comps]
        assert list(whole) == [sum(vms, ()) for vms in itertools.product(*tables)]
        for vms, homs in zip(itertools.product(*tables), itertools.product(*(t.values() for t in tables))):
            joined = {e: f for hom in homs for e, f in hom.emap.items()}
            assert whole[sum(vms, ())].emap == joined
        products += len(whole) > 1 and len(comps) > 1
    assert products >= 30


def _interior_without_maps():
    """Width 1: the rung y1 - z1 and, apart from it, a triangle on interior
    vertices, which has no map into a bipartite target."""
    cg = Graph(symmetric=True)
    cg.add_vertices(["y1", "z1", "a", "b", "c"])
    for u, v in (("y1", "z1"), ("a", "b"), ("b", "c"), ("c", "a")):
        cg.add_sym_edge(u, v)
    return make_cylinder(cg, ["y1"], ["z1"])


def _split_instances():
    """name -> (cylinder set, target); every set has a disconnected cylinder."""
    multigraph = random_multigraph(random.Random(19), 4, 9, labels=(None, "a"), symmetric=True)
    small = random_multigraph(random.Random(20), 3, 7, labels=(None, "a"), symmetric=True)
    groups = {
        2: {"trivial": PermGroup.trivial(2), "cyclic": PermGroup.cyclic(2), "symmetric": PermGroup.symmetric(2)},
        3: {"trivial": PermGroup.trivial(3), "cyclic": PermGroup.cyclic(3), "symmetric": PermGroup.symmetric(3)},
    }
    out = {
        f"identity{k}_{name}": (CylinderSet(group, {1: identity_cyl(k)}), multigraph if k == 2 else small)
        for k, named in groups.items()
        for name, group in named.items()
    }
    for name, factor in (("P2", path_graph(2)), ("P3", path_graph(3)), ("C4", cycle_graph(4))):
        width = len(factor.vertices)
        out[f"tensor_{name}"] = (
            CylinderSet(PermGroup.trivial(width), {1: neps_cylinder(factor, "tensor")}),
            complete_graph(3),
        )
    out["deletion"] = (CylinderSet(PermGroup.trivial(1), {1: deletion_cyl()}), multigraph)
    out["interior_without_maps"] = (CylinderSet(PermGroup.trivial(1), {1: _interior_without_maps()}), cycle_graph(4))
    return out


@pytest.mark.parametrize("name", sorted(_split_instances()))
def test_exponential_of_a_disconnected_cylinder_matches_the_frozen_triple_loop(name):
    cset, h = _split_instances()[name]
    assert any(len(components(cset[key].graph)) > 1 for key in cset.keys())
    got = exponential(cset, h)
    _assert_matches_oracle(got, expo_oracle(cset, h))
    assert bool(got.graph.edges) == (name != "interior_without_maps")


@pytest.mark.parametrize("name", ["deletion", "identity2_symmetric", "tensor_P3"])
def test_a_joined_witness_copies_and_pickles_before_it_is_read(name):
    # deletion's cylinder has no edges, so its witnesses hold no edge images
    cset, h = _split_instances()[name]
    got = exponential(cset, h)
    g = cset[1].graph
    # one eid per witness: a pair's triples share their witness
    firsts = {id(w): eid for eid, w in reversed(list(got.witnesses.items()))}
    for eid in list(firsts.values())[:20]:
        for slot in (Homomorphism.vmap, Homomorphism.emap):
            with pytest.raises(AttributeError):  # the slot itself: nothing has built the maps yet
                slot.__get__(got.witnesses[eid], Homomorphism)
        copied = copy.copy(got.witnesses[eid])
        pickled = pickle.loads(pickle.dumps(exponential(cset, h).witnesses[eid]))
        w = got.witnesses[eid]
        assert hom_key(copied) == hom_key(pickled) == hom_key(w)
        assert list(copied.vmap) == list(pickled.vmap) == list(w.vmap)
        assert list(copied.emap) == list(pickled.emap) == list(w.emap)
        assert check_hom(g, h, w) is None


def _homs_alive() -> int:
    gc.collect()
    return sum(type(o) is Homomorphism for o in gc.get_objects())


@pytest.mark.parametrize("name", ["deletion", "identity2_symmetric", "tensor_P3"])
def test_the_build_keeps_no_map_and_witnesses_are_built_on_first_read(name):
    # the exponential keeps per-component records of first maps, not maps:
    # a witness exists only once someone reads it, and then once per pair
    cset, h = _split_instances()[name]
    before = _homs_alive()
    et = exponential(cset, h)
    assert _homs_alive() == before
    assert list(et.witnesses) == list(et.graph.edges)
    assert len(et.witnesses) == len(et.graph.edges)
    fid = next(iter(et.witnesses))
    with pytest.raises(TypeError):
        et.witnesses[fid] = et.witnesses[fid]
    by_pair = {}
    for fid, e in et.graph.edges.items():
        assert type(e) is Edge and (e.tail, e.head, e.label) == tuple(e)
        w = et.witnesses[fid]
        assert et.witnesses[fid] is w
        lab = e.label
        pair = (lab.key, lab.pre.act(et.tuple_of[e.tail]), lab.post.act(et.tuple_of[e.head]))
        assert by_pair.setdefault(pair, w) is w
    assert len(by_pair) < len(et.graph.edges)  # some pair has more than one edge
    assert _homs_alive() == before + len(by_pair)


def _trace_copies(et):
    return {
        "copy": copy.copy(et),
        "deepcopy": copy.deepcopy(et),
        "pickle": pickle.loads(pickle.dumps(et)),
    }


@pytest.mark.parametrize("name", ["deletion", "identity2_symmetric", "tensor_P3"])
def test_a_whole_trace_copies_and_pickles_before_and_after_reads(name):
    cset, h = _split_instances()[name]
    g = uniform_labels(path_graph(3), 1, width=cset.width)
    tr = cyl_product(g, cset)

    def witnesses(et):
        return [(fid, hom_key(w), list(w.vmap), list(w.emap)) for fid, w in et.witnesses.items()]

    for reads in (0, 5):
        et = exponential(cset, h)
        for fid in list(et.witnesses)[:reads]:
            et.witnesses[fid].emap
        want = witnesses(exponential(cset, h))
        sp = next(iter_homs(g, et.graph, mode="gamma", group=cset.group))
        assert witnesses(et) == want
        for how, other in _trace_copies(et).items():
            assert witnesses(other) == want, how
            assert section(tr, other, sp) == section(tr, et, sp), how


@pytest.mark.parametrize("name", ["directed_path", "walk_power"])
def test_a_trace_of_projected_components_copies_and_pickles_before_and_after_reads(name):
    # a projected component keeps its candidate tables and, once read, its
    # search; copies carry both and find the same records
    cset, h = golden_instances()[name]

    def witnesses(et):
        return [(fid, hom_key(w), list(w.vmap), list(w.emap)) for fid, w in et.witnesses.items()]

    read = exponential(cset, h)
    _assert_matches_oracle(read, expo_oracle(cset, h))
    want = witnesses(read)
    for reads in (0, 5):
        et = exponential(cset, h)
        for fid in list(et.witnesses)[:reads]:
            et.witnesses[fid].emap
        for how, other in _trace_copies(et).items():
            assert witnesses(other) == want, how
        assert witnesses(et) == want


def _more_oracle_cases():
    """name -> (cylinder set, target)."""
    tied = Graph(symmetric=True)
    tied.add_vertices([1, "1"])
    tied.add_sym_edge(1, "1")
    tied.add_sym_edge(1, 1)
    return {
        "square_sqcap_s2": (
            CylinderSet(PermGroup.symmetric(2), {1: square_cyl(), 2: sqcap_cyl()}),
            random_multigraph(random.Random(7), 4, 9, symmetric=True),
        ),
        "tied_names": (CylinderSet(PermGroup.symmetric(2), {1: identity_cyl(2)}), tied),
    }


@pytest.mark.parametrize("name", sorted(_more_oracle_cases()))
def test_witnesses_worked_out_from_their_edges_match_the_frozen_triple_loop(name):
    cset, h = _more_oracle_cases()[name]
    got = exponential(cset, h)
    assert got.graph.edges
    _assert_matches_oracle(got, expo_oracle(cset, h))


def _largest_representative_cases():
    """name -> (cylinder set, target), each under a slot group with orbits of two tuples."""
    return {
        "identity2_symmetric": _split_instances()["identity2_symmetric"],
        "wedge_s2_k3": (CylinderSet(PermGroup.symmetric(2), {"w": wedge_cyl()}), complete_graph(3)),
        **_more_oracle_cases(),
    }


@pytest.mark.parametrize("name", sorted(_largest_representative_cases()))
def test_the_largest_representatives_give_an_isomorphic_exponential(name):
    cset, h = _largest_representative_cases()[name]
    got = exponential(cset, h)
    assert got.graph.edges
    _assert_isomorphic_to_the_largest_representatives(got, cset, h)


def _clique_beside_an_unmatched_edge():
    """Width 1: a K5 through y1 and z1 and, apart from it, an interior edge
    labelled "zz", which has no map into a target without that label."""
    cg = Graph(symmetric=True)
    clique = ["y1", "z1", "a", "b", "c"]
    cg.add_vertices(clique + ["p", "q"])
    for u, v in itertools.combinations(clique, 2):
        cg.add_sym_edge(u, v)
    cg.add_sym_edge("p", "q", "zz")
    return make_cylinder(cg, ["y1"], ["z1"])


def test_a_part_without_maps_lets_no_edge_pick_be_charged_at_any_budget(monkeypatch):
    # The whole-graph search finds no vertex map for the "zz" edge and so
    # charges none of the clique's ten edge picks.  The split search must not
    # either: wherever the oracle builds, the exponential builds the same.
    cset = CylinderSet(PermGroup.trivial(1), {1: _clique_beside_an_unmatched_edge()})
    h = Graph(symmetric=True)
    h.add_vertices([0])
    h.add_sym_edge(0, 0)
    unbudgeted = _outcome(lambda: expo_oracle(cset, h))
    assert not unbudgeted[0].edges
    verdicts = set()
    for budget in range(30):
        want = _outcome_at(monkeypatch, budget, lambda: expo_oracle(cset, h))
        got = _outcome_at(monkeypatch, budget, lambda: exponential(cset, h))
        if _is_error(want) and got != want:
            assert want[0] == "ResourceLimit"
            want = unbudgeted
        _assert_matches_oracle(got, want)
        verdicts.add(want[0] if _is_error(want) else "built")
    assert verdicts == {"ResourceLimit", "built"}


def test_the_split_search_builds_at_every_budget_the_whole_graph_search_builds_at(monkeypatch):
    # random rungs beside one or two interior components, some of whose edges
    # carry a label the target lacks, at budgets 0..39: where the oracle
    # builds, so does the exponential, to the byte
    rng = random.Random(4)
    built = edgeless = limits = 0
    for _ in range(100):
        symmetric = rng.random() < 0.6
        k = rng.choice([1, 2])
        cyl = _random_cylinder(rng, k, symmetric, rng.random() < 0.5, (None, "a"))
        g = cyl.graph
        for j in range(rng.randint(1, 2)):
            part = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 8), (None, "a", "zz"), symmetric)
            g.add_vertices(f"c{j}:{v}" for v in part.vertices)
            for eid in part.canonical_edges():
                t, hd, lab = part.edges[eid]
                (g.add_sym_edge if symmetric else g.add_edge)(f"c{j}:{t}", f"c{j}:{hd}", lab)
        cset = CylinderSet(PermGroup.trivial(k), {1: make_cylinder(g, list(cyl.y), list(cyl.z))})
        h = random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 6), (None, "a"), symmetric)
        unbudgeted = _outcome(lambda: expo_oracle(cset, h))
        for budget in range(40):
            want = _outcome_at(monkeypatch, budget, lambda: expo_oracle(cset, h))
            got = _outcome_at(monkeypatch, budget, lambda: exponential(cset, h))
            if _is_error(want) and got != want:
                assert want[0] == "ResourceLimit"
                want = unbudgeted
            _assert_matches_oracle(got, want)
            built += not _is_error(want)
            edgeless += not _is_error(want) and not want[0].edges
            limits += _is_error(got) and got[0] == "ResourceLimit"
    assert built >= 3000 and edgeless >= 3000 and limits >= 400


def test_resource_limit_verdicts_agree_at_every_budget(monkeypatch):
    cset = CylinderSet(PermGroup.symmetric(2), {1: square_cyl(), 2: sqcap_cyl()})
    h = random_multigraph(random.Random(7), 4, 9, symmetric=True)
    verdicts = set()
    for budget in range(200):
        want = _outcome_at(monkeypatch, budget, lambda: expo_oracle(cset, h))
        got = _outcome_at(monkeypatch, budget, lambda: exponential(cset, h))
        if isinstance(want[0], str):
            assert got == want
        else:
            assert json.dumps(got.graph.to_json()) == json.dumps(want[0].to_json())
        verdicts.add(want[0] if isinstance(want[0], str) else "built")
    assert verdicts == {"ResourceLimit", "built"}
