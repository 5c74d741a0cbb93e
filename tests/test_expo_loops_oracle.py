"""The exponential's orbit and pair loops against a frozen copy of the loops
they replaced, kept as a differential oracle: an orbit loop that acts by
``Perm.act`` and takes the least image as representative even in a group of
one element, and a pair loop that runs ``itertools.product`` over the
component tables and builds, slices and hashes each pair's rows.  The library
must build the same graph to the byte, the same names, representatives and
shifts for every tuple, and the same witness for every edge."""

import itertools
import json
import random

import pytest

from cylgraph.construct import (MAX_EXPO_VERTICES, MAX_TUPLE_SPACE, ExpoTrace, _first_maps, _name,
                                exponential)
from cylgraph.core import Edge, GammaLabel, Graph, label_sort_key, node_budget
from cylgraph.cylinder import CylinderSet, make_cylinder
from cylgraph.errors import DomainError, LabelConflict, ResourceLimit
from cylgraph.hom import _tuple_getter
from cylgraph.perm import PermGroup

from util import random_multigraph


def exponential_oracle(cset: CylinderSet, h: Graph) -> ExpoTrace:
    node_budget()
    if h.symmetric != cset.symmetric:
        raise DomainError("target graph and cylinders disagree about being symmetric")
    h.validate()
    group = cset.group
    k = cset.width

    verts = sorted(h.vertices, key=str)
    if verts and len(verts) ** k > MAX_TUPLE_SPACE:
        raise ResourceLimit(f"tuple space {len(verts)}^{k} exceeds {MAX_TUPLE_SPACE}")

    orbits: dict = {}
    names: dict = {}  # representative -> vertex name, in first-seen order
    for t in itertools.product(verts, repeat=k):
        if t in orbits:
            continue
        # ties under ``str`` (names 1 and "1") go to the first in group order
        r = min((p.act(t) for p in group), key=lambda x: tuple(map(str, x)))
        for d in group:
            orbits.setdefault(d.act(r), (r, []))[1].append(d)
        names[r] = _name(r)
        if len(names) > MAX_EXPO_VERTICES:
            raise ResourceLimit(f"more than {MAX_EXPO_VERTICES} orbit representatives, the exponential's vertex cap")

    # triple (tail, head, label) -> the integer (tail rank * N + head rank) * L + label rank: names are
    # ranked by ``str`` and labels by sort key, ties sharing a rank; the first label seen keeps the triple
    by_name = sorted(set(names.values()))
    N, rank = len(by_name), {name: n for n, name in enumerate(by_name)}
    rank = {r: rank[name] for r, name in names.items()}
    keys = sorted(cset.keys(), key=str)
    made = {(key, a, b): GammaLabel(a, key, b) for key in keys for a in group for b in group}
    sort_key = {lk: label_sort_key(lab) for lk, lab in made.items()}
    lrank = {sk: n for n, sk in enumerate(sorted(set(sort_key.values())))}
    L = len(lrank)
    # (key, d-, d+) -> (label, its rank, its reversed label's rank)
    labels = {(key, a, b): (lab, lrank[sort_key[key, a, b]], lrank[sort_key[key, b, a]])
              for (key, a, b), lab in made.items()}
    triples: dict = {}  # triple -> (label, its reversed label's rank)
    tables: dict = {}  # cylinder key -> its _first_maps
    for key in keys:
        maps = tables[key] = _first_maps(cset[key], h)
        if maps is None:
            continue
        order = [j for at in maps[1] for j in at]  # the place in y + z of each value of a product of shares
        rows = _tuple_getter(sorted(range(len(order)), key=order.__getitem__))
        for shares in itertools.product(*maps[2]):
            pq = rows(sum(shares, ()))
            r1, dm = orbits[pq[:k]]
            r2, dp = orbits[pq[k:]]
            base = (rank[r1] * N + rank[r2]) * L
            for a, b in itertools.product(dm, dp):
                lab, lr, rl = labels[key, a, b]
                if base + lr not in triples:
                    triples[base + lr] = (lab, rl)

    # edge x<n> per triple in order, and when symmetric its twin x<n>t carrying the reverse
    symmetric = h.symmetric
    g = Graph(symmetric=symmetric)
    edges, pairing, new = g.edges, g.pairing, tuple.__new__
    ends: set = set()  # ranks of the names edges meet
    ids = itertools.count()
    for tk in sorted(triples):
        lab, rl = triples[tk]
        t, hd = divmod(tk // L, N)
        if symmetric:
            rk = (hd * N + t) * L + rl
            if rk not in triples:
                raise LabelConflict(
                    "exponential edge set is not reversal-closed; the cylinders are not genuinely symmetric"
                )
            if rk < tk:
                continue
        fid = f"x{next(ids)}"
        ends.update((t, hd))
        edges[fid] = new(Edge, (by_name[t], by_name[hd], lab))
        if symmetric:
            tid = fid + "t"
            edges[tid] = new(Edge, (by_name[hd], by_name[t], triples[rk][0]))
            pairing[fid], pairing[tid] = tid, fid

    tuple_of = {name: r for r, name in names.items() if rank[r] in ends}
    g._vertices = dict.fromkeys(tuple_of)
    return ExpoTrace(g, cset, tuple_of, tables, names, orbits)


# -- instances ------------------------------------------------------------------

GROUPS = {
    1: [PermGroup.trivial(1)],
    2: [PermGroup.trivial(2), PermGroup.cyclic(2), PermGroup.symmetric(2)],
    3: [PermGroup.trivial(3), PermGroup.cyclic(3), PermGroup.symmetric(3)],
}
LABELS = (None, "a")


def _cylinder(rng, k, symmetric, complete_base):
    """Rows y1..yk and z1..zk over one base (empty or complete, so every slot
    permutation is a twist), random rungs, and inner vertices: on the rungs,
    apart with a loop, or alone, so a cylinder often has several components
    and some with no row vertex."""
    g = Graph(symmetric=symmetric)
    ys = [f"y{i}" for i in range(1, k + 1)]
    zs = [f"z{i}" for i in range(1, k + 1)]
    inner = [f"i{j}" for j in range(rng.randint(0, 3))]
    g.add_vertices(ys + zs + inner)
    add = g.add_sym_edge if symmetric else g.add_edge
    if complete_base:
        for row in (ys, zs):
            for a, b in itertools.permutations(row, 2) if not symmetric else itertools.combinations(row, 2):
                add(a, b)
    for _ in range(rng.randint(0, 2 * k)):
        u, v = rng.choice(ys + inner), rng.choice(zs + inner)
        add(*((v, u) if not symmetric and rng.random() < 0.3 else (u, v)), rng.choice(LABELS))
    for x in inner:
        if rng.random() < 0.3:
            add(x, x, rng.choice(LABELS))
    return make_cylinder(g, ys, zs)


NAMES = {  # vertex names that tie under ``str`` (1 and "1"), or sort apart from their numbers ("9", "10")
    "ints": lambda i: i,
    "tied": lambda i: i // 2 if i % 2 == 0 else str(i // 2),
    "nine_ten": lambda i: ["9", "10", 9, 10, "1"][i],
}


def random_instance(rng):
    symmetric = rng.random() < 0.6
    k = rng.choice([1, 1, 2, 2, 3])
    group = rng.choice(GROUPS[k])
    base = rng.random() < 0.3
    cset = CylinderSet(group, {j: _cylinder(rng, k, symmetric, base) for j in range(1, rng.randint(1, 2) + 1)})
    n = rng.randint(1, 3 if k == 3 else 5)
    h = random_multigraph(rng, n, rng.randint(n, 3 * n), labels=LABELS, symmetric=symmetric)
    for v in rng.sample(h.vertices, rng.randint(0, n)):  # targets with loops
        (h.add_sym_edge if symmetric else h.add_edge)(v, v, rng.choice(LABELS))
    name = rng.choice(sorted(NAMES))
    return cset, h.relabel({v: NAMES[name](v) for v in h.vertices}), name


def _outcome(build):
    try:
        return build()
    except (LabelConflict, ResourceLimit) as exc:
        return type(exc).__name__, str(exc)


def _witness(hom) -> tuple:
    return list(hom.vmap.items()), list(hom.emap.items()), hom.alphas


def assert_same_trace(got, want, h):
    assert json.dumps(got.graph.to_json()) == json.dumps(want.graph.to_json())
    assert list(got.tuple_of.items()) == list(want.tuple_of.items())
    assert list(got.names.items()) == list(want.names.items())
    for t in itertools.product(h.vertices, repeat=want.cset.width):
        assert got.rep(t) == want.rep(t) and got.shift(t) == want.shift(t)
    assert list(got._reps.items()) == list(want._reps.items())  # every shift, in group order
    for fid in want.graph.edges:
        assert _witness(got.witnesses[fid]) == _witness(want.witnesses[fid])


def test_exponential_matches_the_frozen_orbit_and_pair_loops():
    rng = random.Random(1934)
    seen = set()
    for _ in range(250):
        cset, h, name = random_instance(rng)
        got = _outcome(lambda: exponential(cset, h))
        want = _outcome(lambda: exponential_oracle(cset, h))
        if isinstance(want, tuple):
            assert got == want
            continue
        assert_same_trace(got, want, h)
        parts = max(len(maps[1]) for maps in want.witnesses._tables.values() if maps) \
            if any(want.witnesses._tables.values()) else 0
        seen.add((cset.width, len(cset.group), parts > 1, name, bool(want.graph.edges)))
    for k, group in ((k, g) for k, gs in GROUPS.items() for g in gs):
        assert any(s[:2] == (k, len(group)) and s[4] for s in seen), (k, group)
    assert any(s[2] and s[4] for s in seen)  # cylinders of several components give edges
    assert {s[3] for s in seen if s[4]} == set(NAMES)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_group_of_one_element_takes_each_tuple_as_its_representative(k):
    rng = random.Random(k)
    h = random_multigraph(rng, 3, 6, labels=LABELS).relabel(dict(enumerate(["9", "10", 1])))
    cyls = {1: _cylinder(rng, k, False, False), 2: _cylinder(rng, k, False, False)}
    cset = CylinderSet(PermGroup.trivial(k), cyls)
    got, want = exponential(cset, h), exponential_oracle(cset, h)
    assert_same_trace(got, want, h)
    assert all(got.rep(t) == t for t in itertools.product(h.vertices, repeat=k))
