"""``section``, ``retraction``, ``product_map`` and ``exponential_map``
against frozen copies of their earlier versions, which laid out the slot
rows, the sorted source edges and the identity twist again on every call and
put each product vertex into the map one at a time.  The triples are drawn
as the ``duality`` benchmark draws them: widths 1-3; trivial, cyclic and
symmetric groups; path, identity, square and sqcap cylinders; a loop in some
targets.  Wedge cylinders join them: their shared row vertex welds two
slots, so the slot rows alone can give a vertex two images.  A valid map must come back with the same maps in the same key
order, and an invalid one must raise the same exception with the same
message.  Two more tests pin the cost: the layouts are built once per trace,
and a round trip over a 2,000-edge base stays well under a second."""

import random
import sys
from collections import Counter
from itertools import combinations, cycle, islice
from time import perf_counter

from cylgraph import duality
from cylgraph.catalog import complete_graph, cycle_graph
from cylgraph.construct import ExpoTrace, ProductTrace, _Witnesses, cyl_product, exponential, uniform_labels
from cylgraph.core import GammaLabel, Graph
from cylgraph.cylinder import CylinderSet, identity_cyl, path_cyl, sqcap_cyl, square_cyl, wedge_cyl
from cylgraph.errors import DomainError
from cylgraph.hom import Homomorphism, _src_edges, check_hom, extract_alphas, find_hom, iter_homs
from cylgraph.perm import Perm, PermGroup, compose

CLUSTERS = {
    1: [[lambda: path_cyl(1), lambda: path_cyl(2), lambda: path_cyl(3), lambda: identity_cyl(1)]],
    2: [[sqcap_cyl, square_cyl], [lambda: identity_cyl(2)], [wedge_cyl, square_cyl]],
    3: [[lambda: identity_cyl(3)]],
}
GROUPS = {
    1: [PermGroup.trivial(1)],
    2: [PermGroup.trivial(2), PermGroup.symmetric(2)],
    3: [PermGroup.trivial(3), PermGroup.cyclic(3), PermGroup.symmetric(3)],
}


def random_graph(rng, n: int, loops: int = 0) -> Graph:
    """``n`` vertices named by distinct random integers, edge density 0.6, and ``loops`` loops."""
    g = Graph(symmetric=True)
    g.add_vertices(rng.sample(range(10 * n + 10), n))
    pairs = list(combinations(g.vertices, 2))
    for a, b in rng.sample(pairs, max(1, round(0.6 * len(pairs)))):
        g.add_sym_edge(a, b)
    for v in rng.sample(g.vertices, loops):
        g.add_sym_edge(v, v)
    return g


def gamma_labeled(rng, g: Graph, cset: CylinderSet) -> Graph:
    """``g`` with every edge labeled by a random key and random twists."""
    out = Graph(symmetric=True)
    out.add_vertices(g.vertices)
    keys, elems = sorted(cset.keys(), key=str), list(cset.group)
    for eid in sorted(g.canonical_edges()):
        e = g.edges[eid]
        lab = GammaLabel(rng.choice(elems), rng.choice(keys), rng.choice(elems))
        out.add_sym_edge(e.tail, e.head, lab, eid, g.pairing[eid])
    return out


def triples(seed: int, count: int):
    """``count`` seeded (base, cylinder set, target) triples, widths in turn
    1, 1, 2, 2, 3, a loop in every fourth target."""
    rng = random.Random(seed)
    for i in range(count):
        k = (1, 1, 2, 2, 3)[i % 5]
        cluster = rng.choice(CLUSTERS[k])
        picks = rng.sample(range(len(cluster)), rng.randint(1, min(2, len(cluster))))
        cset = CylinderSet(rng.choice(GROUPS[k]), {n + 1: cluster[p]() for n, p in enumerate(picks)})
        top = 5 if k == 1 else 3
        g = gamma_labeled(rng, random_graph(rng, rng.randint(2, top)), cset)
        h = random_graph(rng, rng.randint(2, top), loops=int(i % 4 == 3))
        yield rng, g, cset, h


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its maps with their key order, or the type and message of what it raised."""
    try:
        hom = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    alphas = None if hom.alphas is None else list(hom.alphas.items())
    return list(hom.vmap.items()), list(hom.emap.items()), alphas


def same(new, old, *args):
    got = outcome(new, *args)
    assert got == outcome(old, *args)
    return got


def test_valid_maps_round_trip_as_before():
    widths, maps, freed = Counter(), 0, Counter()
    for _, g, cset, h in triples(33, 60):
        et, tr = exponential(cset, h), cyl_product(g, cset)
        for sp in islice(iter_homs(g, et.graph, mode="gamma", group=cset.group), 25):
            got = same(duality.section, section, tr, et, sp)
            sigma = Homomorphism(dict(got[0]), dict(got[1]))
            same(duality.retraction, retraction, tr, et, sigma)
            widths[cset.width] += 1
            freed[duality.gamma_acts_freely(et)] += 1
            maps += 1
    assert sorted(widths) == [1, 2, 3] and maps > 300 and len(freed) == 2, (widths, maps, freed)


def test_invalid_maps_raise_as_before(monkeypatch):
    """Also: where the earlier code raised before reading any witness (a
    conflict among the slot rows), so does this one."""
    raised, reads, read = Counter(), [], _Witnesses.__getitem__

    def counted(self, fid):
        reads.append(fid)
        return read(self, fid)

    monkeypatch.setattr(_Witnesses, "__getitem__", counted)
    for rng, g, cset, h in triples(34, 100):
        et, tr = exponential(cset, h), cyl_product(g, cset)
        group = list(cset.group)
        for sp in islice(iter_homs(g, et.graph, mode="gamma", group=cset.group), 8):
            sigma = duality.section(tr, et, sp)
            v = rng.choice(list(sigma.vmap))
            moved = rng.choice([x for x in h.vertices if x != sigma.vmap[v]])
            bad = [
                (retraction, Homomorphism({**sigma.vmap, v: moved}, sigma.emap)),
                (retraction, Homomorphism({x: y for x, y in sigma.vmap.items() if x != v}, sigma.emap)),
                (section, Homomorphism(sp.vmap, sp.emap)),
            ]
            if len(et.graph.edges) > 1:
                eid = rng.choice(list(sp.emap))
                other = rng.choice([f for f in et.graph.edges if f != sp.emap[eid]])
                bad.append((section, Homomorphism(sp.vmap, {**sp.emap, eid: other}, sp.alphas)))
            if sp.alphas and len(group) > 1:
                v = rng.choice(list(sp.alphas))
                twist = rng.choice([p for p in group if p != sp.alphas[v]])
                bad.append((section, Homomorphism(sp.vmap, sp.emap, {**sp.alphas, v: twist})))
            for old, hom in bad:
                reads.clear()
                want = outcome(old, tr, et, hom)
                early = not reads
                reads.clear()
                assert outcome(getattr(duality, old.__name__), tr, et, hom) == want
                if early:
                    assert not reads
                    raised["before any witness"] += old is section and isinstance(want[0], type)
                raised[want[0].__name__ if isinstance(want[0], type) else "none"] += 1
    assert min(raised.values()) > 10 and len(raised) == 4, raised


def test_induced_maps_match_the_earlier_code():
    checked = Counter()
    for rng, g, cset, h in triples(35, 40):
        g2 = gamma_labeled(rng, random_graph(rng, rng.randint(2, 4)), cset)
        tr, tr2 = cyl_product(g, cset), cyl_product(g2, cset)
        for g_to, tr_to in ((g2, tr2), (g, tr)):
            for f in islice(iter_homs(g, g_to, mode="gamma", group=cset.group), 4):
                same(duality.product_map, product_map, f, tr, tr_to)
                same(duality.product_map, product_map, Homomorphism(f.vmap, f.emap), tr, tr_to)
                checked["product"] += 1
        h2 = random_graph(rng, rng.randint(2, 3), loops=rng.randint(0, 1))
        et, et2 = exponential(cset, h), exponential(cset, h2)
        for h_to, et_to in ((h2, et2), (h, et)):
            for q in islice(iter_homs(h, h_to, mode="labeled"), 4):
                same(duality.exponential_map, exponential_map, q, et, et_to)
                checked["exponential"] += 1
    assert checked["product"] > 50 and checked["exponential"] > 50, checked


def test_the_layouts_are_built_once_per_trace(monkeypatch):
    """After the first round trip, ``section`` and ``retraction`` sort no
    source edges, ask the trace for no slot row and build no identity twist."""
    rng = random.Random(7)
    cset = CylinderSet(PermGroup.trivial(2), {1: square_cyl()})
    g = gamma_labeled(rng, random_graph(rng, 4), cset)
    et, tr = exponential(cset, complete_graph(3)), cyl_product(g, cset)
    trips = islice(cycle(iter_homs(g, et.graph, mode="gamma", group=cset.group)), 50)
    first = next(trips)
    assert duality.retraction(tr, et, duality.section(tr, et, first)) == first

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    sort = counted("_src_edges", _src_edges)
    for mod in [m for name, m in sys.modules.items() if name.startswith("cylgraph.")]:
        if getattr(mod, "_src_edges", None) is _src_edges:
            monkeypatch.setattr(mod, "_src_edges", sort)
    monkeypatch.setattr(ProductTrace, "blowup", counted("blowup", ProductTrace.blowup))
    monkeypatch.setattr(Perm, "identity", classmethod(counted("identity", Perm.identity.__func__)))
    n = 1
    for sp in trips:
        assert duality.retraction(tr, et, duality.section(tr, et, sp)) == sp
        n += 1
    assert n == 50 and not calls, calls


def test_a_round_trip_over_a_two_thousand_edge_cycle_takes_under_half_a_second():
    cset = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)})
    g, h = uniform_labels(cycle_graph(2000), 1), complete_graph(3)
    et, tr = exponential(cset, h), cyl_product(g, cset)
    sp = find_hom(g, et.graph, mode="gamma", group=cset.group)
    t0 = perf_counter()
    sigma = duality.section(tr, et, sp)
    back = duality.retraction(tr, et, sigma)
    elapsed = perf_counter() - t0
    assert back == sp
    assert check_hom(tr.graph, h, sigma, mode="labeled") is None
    assert elapsed < 0.5, elapsed


# -- the earlier code, verbatim --------------------------------------------------


def _lift(g: Graph, et: ExpoTrace, rows, no_vertex: str, no_edge: str) -> Homomorphism:
    """The structured map from ``g`` into the exponential graph that sends
    each vertex ``v`` of the ``(v, tuple)`` pairs in ``rows`` to the
    surviving vertex of its tuple's orbit, and each edge to the exponential
    edge carrying its label shifted the way its ends' tuples were.
    ``no_vertex`` (with ``{v!r}``) and ``no_edge`` (with ``{eid!r}``) are
    the messages for a tuple whose orbit has no surviving vertex and for an
    edge no exponential edge realizes."""
    vmap: dict = {}
    shift: dict = {}  # v -> the slot permutation carrying its representative to its tuple
    twist: dict = {}  # v -> its inverse, the twist at v
    for v, row in rows:
        name = et.names.get(et.rep(row))
        if name is None or not et.graph.has_vertex(name):
            raise DomainError(no_vertex.format(v=v))
        vmap[v] = name
        shift[v] = et.shift(row)
        twist[v] = shift[v].inverse()
    emap: dict = {}
    alphas: dict = {}
    by_triple = et.edge_by_triple
    for eid in _src_edges(g):
        e = g.edges[eid]
        want = GammaLabel(
            compose(shift[e.tail], e.label.pre),
            e.label.key,
            compose(shift[e.head], e.label.post),
        )
        x = by_triple.get((vmap[e.tail], vmap[e.head], want))
        if x is None:
            raise DomainError(no_edge.format(eid=eid))
        emap.update(zip(g.with_twin(eid), et.graph.with_twin(x)))
        alphas[e.tail] = twist[e.tail]
        alphas[e.head] = twist[e.head]
    return Homomorphism(vmap, emap, alphas)


def _put(vmap: dict, name, value) -> None:
    """Send product vertex ``name`` to ``value`` unless it already has
    another image, which means the map being expanded is not consistent."""
    if vmap.setdefault(name, value) != value:
        raise DomainError(
            f"product vertex {name!r} receives two different images; "
            "the map is not a valid structured map"
        )


def _expand_rows(f: Homomorphism, tr: ProductTrace, target: Graph, row_of) -> dict:
    """The product vertices of ``tr``'s slot rows mapped along the structured
    map ``f`` from ``tr.source`` into ``target``: slot ``alpha(b)`` of each
    base vertex ``v`` takes entry ``b`` of ``row_of(f.vmap[v])``, ``alpha``
    the twist of ``f`` at ``v`` (read off the two graphs when ``f`` keeps
    none)."""
    g = tr.source
    alphas = f.alphas
    if alphas is None:
        alphas = extract_alphas(g, target, f, tr.cset.group)
    ident = Perm.identity(tr.cset.width)
    vmap: dict = {}
    image = f.vmap
    for v in g.vertices:
        for name, x in zip(alphas.get(v, ident).act(tr.blowup(v)), row_of(image[v])):
            _put(vmap, name, x)
    return vmap


def retraction(tr: ProductTrace, et: ExpoTrace, sigma: Homomorphism) -> Homomorphism:
    """Fold a map off the product down to a structured map on the base.

    ``sigma`` maps the product graph into the exponential's target; the
    result maps the labeled base graph into the exponential graph, twist
    group and all.  Only the vertex part of ``sigma`` is consulted.
    """
    g = tr.source
    at = sigma.vmap.__getitem__
    rows = ((v, tuple(map(at, tr.blowup(v)))) for v in g.vertices)
    return _lift(g, et, rows,
                 "the slot row of {v!r} lands on a tuple with no surviving "
                 "representative in the exponential graph",
                 "no exponential edge realizes the image of {eid!r}; "
                 "the given map does not respect the product structure")


def section(tr: ProductTrace, et: ExpoTrace, sp: Homomorphism) -> Homomorphism:
    """Expand a structured map on the base to a map off the whole product.

    Slot rows are filled from the image tuples, cylinder interiors from the
    witness map stored with each exponential edge.  The two necessarily
    agree where rows overlap; a disagreement means ``sp`` was not a valid
    structured map and raises :class:`DomainError`.
    """
    vmap = _expand_rows(sp, tr, et.graph, et.tuple_of.__getitem__)
    sp_emap, edge_src, witnesses = sp.emap, tr.edge_src, et.witnesses
    wmaps, at = {}, None  # source edge -> witness edge map; copies come grouped by source edge
    for (eid, x), name in tr.copy.items():
        if eid != at:
            witness = witnesses[sp_emap[eid]]
            at, wv, wmaps[eid] = eid, witness.vmap, witness.emap
        _put(vmap, name, wv[x])

    emap: dict = {}
    for fid in tr.graph.edges:
        src_eid, ce = edge_src[fid][0]
        emap[fid] = wmaps[src_eid][ce]
    return Homomorphism(vmap, emap)


def product_map(f: Homomorphism, tr1: ProductTrace, tr2: ProductTrace) -> Homomorphism:
    """The induced map between two products over the same cylinder set.

    ``f`` must be a structured map between the two labeled base graphs.
    Slot rows follow the base vertices (reindexed by the per-vertex twist),
    cylinder copies follow the base edges.
    """
    g1, g2 = tr1.source, tr2.source
    cset = tr1.cset
    if tr2.cset.width != cset.width or tr2.cset.group != cset.group:
        raise DomainError("the two products use different cylinder sets")
    vmap = _expand_rows(f, tr1, g2, tr2.blowup)
    canon2 = set(_src_edges(g2))
    reversals: dict = {}

    def reversal(key) -> Homomorphism:
        if key not in reversals:
            cyl = cset[key]
            swaps = [p for yb, zb in zip(cyl.y, cyl.z) for p in ((yb, zb), (zb, yb))]
            pins = dict(swaps)
            rho = None
            if len(pins) == len(set(swaps)):  # else a vertex on both rows at different slots needs two images
                rho = find_hom(cyl.graph, cyl.graph, mode="labeled", pins=pins)
            if rho is None:
                raise DomainError(
                    f"cylinder {key!r} has no end-for-end reversal; "
                    "cannot carry a pair-reversing base map across the product"
                )
            reversals[key] = rho
        return reversals[key]

    emap: dict = {}
    at = None  # copies come grouped by source edge, in source edge order
    for (eid, x), name in tr1.copy.items():
        if eid != at:
            at, img = eid, f.emap[eid]
            key = g1.edges[eid].label.key
            rho = None if img in canon2 else reversal(key)
            target = img if rho is None else g2.pairing[img]
            for ce in cset[key].graph.edges:
                fid = tr1.src_edge[(eid, ce)]
                if fid not in emap:  # the first copy to reach a merged edge names its image
                    emap[fid] = tr2.src_edge[(target, ce if rho is None else rho.emap[ce])]
        _put(vmap, name, tr2.copy[(target, x if rho is None else rho.vmap[x])])
    return Homomorphism(vmap, emap)


def exponential_map(f: Homomorphism, et1: ExpoTrace, et2: ExpoTrace) -> Homomorphism:
    """The induced structured map between two exponential graphs.

    ``f`` maps target to target; tuples are pushed through it entrywise and
    snapped to their orbit representative, with the snapping twist recorded
    so edge labels stay aligned.
    """
    cset = et1.cset
    if et2.cset.width != cset.width or et2.cset.group != cset.group:
        raise DomainError("the two exponential graphs use different cylinder sets")
    rows = ((name, tuple(f.vmap[t] for t in row)) for name, row in et1.tuple_of.items())
    return _lift(et1.graph, et2, rows,
                 "the image tuple of {v!r} has no surviving representative; "
                 "the target map does not carry this exponential graph over",
                 "no edge of the image exponential graph realizes the image of {eid!r}")


