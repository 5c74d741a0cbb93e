"""The flat record a searched map keeps, ``_picked = (layout, values)``,
against eager maps: a map ``iter_homs`` yields reads, compares, hashes and
serialises as the eager ``Homomorphism`` of its vertex and edge maps, in
plain, labeled and gamma mode, with and without pins, on multigraph targets
whose parallel edges give a vertex map more than one edge pick.  The
exponential's per-component tables of first maps, enumerated or projected
with their records filled on read, are checked against a frozen copy of
their earlier version, which enumerated every component and read each map's
``vmap``.  A search with chosen vertices fixed keeps the enumeration's
order, which is what lets a projected component find its records on read."""

import itertools
import random
from types import SimpleNamespace

import pytest

from cylgraph.construct import _first_maps, _Projected, _tuple_getter
from cylgraph.core import GammaLabel, _Budget
from cylgraph.hom import (
    Homomorphism,
    _emap_keys,
    _first_record,
    _has_vertex_map,
    _Matcher,
    _Search,
    _src_edges,
    _vertex_order,
    iter_homs,
)
from cylgraph.perm import PermGroup

from util import components, random_multigraph, shuffled_relabel

S2 = PermGroup.symmetric(2)
GAMMA_LABELS = tuple(GammaLabel(a, 0, b) for a in S2 for b in S2)


def instances(mode):
    """(source, target, group, pins) draws: small sources, targets with parallel edges."""
    rng = random.Random({"plain": 1, "labeled": 2, "gamma": 3}[mode])
    labels = GAMMA_LABELS if mode == "gamma" else ("a", "b")
    group = S2 if mode == "gamma" else None
    for i in range(30):
        symmetric = i % 2 == 0
        g = random_multigraph(rng, rng.randint(1, 3), rng.randint(1, 3), labels=labels, symmetric=symmetric)
        h = random_multigraph(rng, rng.randint(1, 3), rng.randint(4, 9), labels=labels, symmetric=symmetric)
        pins = {} if i % 3 == 0 else {rng.choice(g.vertices): rng.choice(h.vertices)}
        yield g, h, group, pins


@pytest.mark.parametrize("mode", ["plain", "labeled", "gamma"])
def test_a_searched_map_reads_as_the_eager_map_of_its_record(mode):
    several_picks = 0
    for g, h, group, pins in instances(mode):
        src, order = _src_edges(g), _vertex_order(g, pins)
        # every map read whole, then frozen as an eager map of the same dicts
        eager = [Homomorphism(x.vmap, x.emap, x.alphas) for x in iter_homs(g, h, mode, group, pins)]
        fresh = [list(iter_homs(g, h, mode, group, pins)) for _ in range(4)]
        for want, a, b, c, d in zip(eager, *fresh, strict=True):
            layout, values = a._picked
            # the record: the edge picks in source-edge order, then the vertex images in search order
            assert values == tuple(want.emap[e] for e in src) + tuple(want.vmap[v] for v in order)
            assert layout[:2] == _emap_keys(g, h, src)
            # each first read, in another order, builds what the eager map holds
            assert (a.emap, a.vmap) == (want.emap, want.vmap)
            assert (b.vmap, b.emap) == (want.vmap, want.emap)
            assert list(a.emap) == list(want.emap) and list(b.vmap) == list(want.vmap)
            assert c == want and want == d and hash(Homomorphism(c.vmap, c.emap)) == hash(want)
            assert hash(d) == hash(want) and d.to_json() == want.to_json() and c.to_json() == want.to_json()
            assert a.alphas == want.alphas and (a.alphas is None) == (mode != "gamma")
            a.vmap[object()] = a.emap[object()] = None  # each map owns its dicts
            assert b.vmap == want.vmap and b.emap == want.emap
        by_vertex_map = itertools.groupby(eager, key=lambda x: (tuple(x.vmap.items()), str(x.alphas)))
        several_picks += sum(len(list(maps)) > 1 for _, maps in by_vertex_map)
    assert several_picks >= 10  # leaves with more than one edge pick are covered


def first_maps_reading_vmap(cyl, h):
    """``construct._first_maps`` as it was when it read every map's vertex map:
    a share is read from ``vmap``, a record is its edge picks, then its vertex
    images, and each part's record labels come from the map's dicts."""
    g, ends = cyl.graph, (*cyl.y, *cyl.z)
    comp_of = {v: i for i, comp in enumerate(components(g)) for v in comp}
    parts = [set(vs) for _, vs in itertools.groupby(_vertex_order(g, {}), comp_of.get)] or [set()]
    graphs = [g.induced(part) for part in parts] if len(parts) > 1 else [g]
    if not all(_has_vertex_map(part, h) for part in graphs[:-1]):
        return None
    places = [[j for j, v in enumerate(ends) if v in part] for part in parts]
    tables: list = [{} for _ in parts]
    labels: list = [None] * len(parts)
    for i in range(-1, len(parts) - 1):
        read, first = _tuple_getter([ends[j] for j in places[i]]), tables[i]
        src = _src_edges(graphs[i])
        for hom in iter_homs(graphs[i], h, mode="labeled"):
            share = read(hom.vmap)
            if share not in first:
                first[share] = tuple(hom.emap[e] for e in src) + tuple(hom.vmap.values())
        if not first:
            return None
        labels[i] = [(0, eid) for eid in src] + [(1, v) for v in hom.vmap]
    labels = list(itertools.chain(*labels))
    at, src, names = {label: j for j, label in enumerate(labels)}, _src_edges(g), [v for c, v in labels if c]
    layout = (*_emap_keys(g, h, src), [at[0, e] for e in src], names, [at[1, v] for v in names])
    return layout, places, tables


@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
def test_first_maps_match_the_version_that_read_vmap(symmetric):
    rng = random.Random(28 + symmetric)
    joined = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        g = random_multigraph(rng, n, rng.randint(0, 4), labels=(None, "a"), symmetric=symmetric)
        h = random_multigraph(rng, rng.randint(1, 3), rng.randint(2, 7), labels=(None, "a"), symmetric=symmetric)
        width = rng.randint(1, 2)
        cyl = SimpleNamespace(graph=g, y=tuple(rng.choices(g.vertices, k=width)),
                              z=tuple(rng.choices(g.vertices, k=width)))
        got, want = _first_maps(cyl, h), first_maps_reading_vmap(cyl, h)
        if got is not None:  # every record read, so a projected component's are filled
            got = (*got[:2], [{s: t[s] for s in t} for t in got[2]])
        assert got == want
        if got is not None and len(got[2]) > 1:
            joined += 1
            # a witness joined from the records reads as the first map with its shares
            layout, places, tables = got
            shares = [rng.choice(list(t)) for t in tables]
            rows = dict(zip(itertools.chain(*places), itertools.chain(*shares)))
            hom = object.__new__(Homomorphism)
            hom.alphas, hom._picked = None, (layout, sum((t[s] for s, t in zip(shares, tables)), ()))
            ends = cyl.y + cyl.z
            first = next(x for x in iter_homs(g, h) if all(x.vmap[ends[j]] == w for j, w in rows.items()))
            assert hom == first and hom.to_json() == first.to_json() and list(hom.emap) == list(first.emap)
    assert joined >= 10  # disconnected cylinder graphs are covered


def records_of(search, fixed):
    """Every record ``search`` yields with ``fixed``, position -> value, built as ``_homs`` builds them."""
    out = []
    for vals, lists in search.values(_Budget(), fixed):
        images = tuple(vals[: len(search.order)])
        out += [pick + images for pick in itertools.product(*lists)]
    return out


@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
def test_a_restricted_search_yields_the_enumerations_maps_with_its_values_in_order(symmetric):
    rng = random.Random(32 + symmetric)
    kept = emptied = 0
    for _ in range(80):
        # names in shuffled ``str`` order: fixing vertices as pins would reorder the search
        g = shuffled_relabel(rng, random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 7), (None, "a"), symmetric))
        h = random_multigraph(rng, rng.randint(1, 3), rng.randint(2, 8), labels=(None, "a"), symmetric=symmetric)
        every = [(hom.vmap, hom._picked[1]) for hom in iter_homs(g, h)]
        search = _Search(_Matcher(g, h, "labeled", None), {})  # one search, reused for every restriction
        for _ in range(3):
            fixed = {v: rng.choice(h.vertices) for v in rng.sample(g.vertices, rng.randint(0, len(g.vertices)))}
            want = [record for vmap, record in every if all(vmap[v] == w for v, w in fixed.items())]
            at = {search.order.index(v): w for v, w in fixed.items()}
            assert records_of(search, at) == want
            if want:
                assert _first_record(search, at) == want[0]
            kept += bool(fixed) and len(want) > 1
            emptied += bool(every) and not want
        # a projection onto vertices on edges reads the shares that enumeration reads
        on_edges = [v for v in g.vertices if g.out_edges(v) or g.in_edges(v)]
        if on_edges:
            names = rng.choices(on_edges, k=rng.randint(1, 3))
            order = _vertex_order(g, {})
            table = _Projected(g, h, names, [order.index(v) for v in names])
            firsts: dict = {}
            for vmap, record in every:
                firsts.setdefault(tuple(vmap[v] for v in names), record)
            assert set(table) == set(firsts)
            assert {s: table[s] for s in table} == firsts
    # restrictions that keep several maps, and ones that keep none of a source's maps
    assert kept >= 30 and emptied >= 10
