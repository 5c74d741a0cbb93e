"""The two directions of the product/exponential correspondence.

A map out of a glued product ``G (x) C -> H`` can be folded down to a
structured map ``G -> [C, H]``: each base vertex reads off the tuple of
values its slot row takes, and the orbit representative of that tuple is
the image vertex (``retraction``).  Conversely a structured map can be
expanded back over the product, filling cylinder interiors with the
stored witness maps (``section``).  On instances where the slot group
moves every realized tuple freely, retraction undoes section exactly and
the two hom counts agree; without freeness only existence transfers.

Both constructions are functorial, and ``product_map`` / ``exponential_map``
give the induced maps on products and exponential graphs.  ``check_duality``
bundles the whole story for one (base, cylinders, target) triple into a
small report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .construct import ExpoTrace, ProductTrace, _uniform, cyl_product, exponential
from .core import GammaLabel, Graph
from .cylinder import CylinderSet
from .errors import DomainError
from .hom import (
    Homomorphism,
    _src_edges,
    check_hom,
    count_homs,
    extract_alphas,
    find_hom,
    identity_hom,
    iter_homs,
)
from .perm import Perm, compose


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


def unit_map(g: Graph, cset: CylinderSet, *, budget: int | None = None):
    """The canonical structured map from a labeled base graph into the
    exponential of its own product.  Returns (map, product trace, expo trace)."""
    tr = cyl_product(g, cset)
    et = exponential(cset, tr.graph, budget=budget)
    return retraction(tr, et, identity_hom(tr.graph)), tr, et


def counit_map(cset: CylinderSet, h: Graph, *, budget: int | None = None):
    """The canonical evaluation map from the product of an exponential graph
    back onto the original target.  Returns (map, product trace, expo trace)."""
    et = exponential(cset, h, budget=budget)
    tr = cyl_product(et.graph, cset)
    return section(tr, et, identity_hom(et.graph)), tr, et


def gamma_acts_freely(et: ExpoTrace) -> bool:
    """Does every tuple realized in the exponential graph have a trivial
    stabilizer inside the slot group?"""
    # a representative's own shift list is its stabilizer
    return all(len(et._reps[row][1]) == 1 for row in et.tuple_of.values())


@dataclass
class DualityReport:
    """Outcome of one product-versus-exponential comparison."""

    count_product_side: int
    count_exponential_side: int
    exists_equiv: bool
    retraction_section_identity: bool
    tight_on_G: bool
    gamma_action_free: bool
    maps_checked: int

    def to_json(self) -> dict:
        return asdict(self)


def check_duality(g: Graph, cset: CylinderSet, h: Graph, *,
                  budget: int | None = None) -> DualityReport:
    """Compare the two sides of the correspondence for one triple.

    Counts maps out of the product against structured maps into the
    exponential graph, and round-trips every structured map through
    section and retraction.  Where the slot group fails to act freely the
    round-trip and the count comparison are reported as observed — they
    are only promised under freeness.
    """
    tr = cyl_product(g, cset)
    et = exponential(cset, h, budget=budget)
    n_product = count_homs(tr.graph, h, mode="labeled", budget=budget)
    n_expo = count_homs(g, et.graph, mode="gamma", group=cset.group, budget=budget)

    roundtrip_ok = True
    checked = 0
    for sp in iter_homs(g, et.graph, mode="gamma", group=cset.group, budget=budget):
        sigma = section(tr, et, sp)
        if check_hom(tr.graph, h, sigma, mode="labeled") is not None:
            roundtrip_ok = False
            break
        if retraction(tr, et, sigma) != sp:
            roundtrip_ok = False
            break
        checked += 1

    return DualityReport(
        count_product_side=n_product,
        count_exponential_side=n_expo,
        exists_equiv=(n_product > 0) == (n_expo > 0),
        retraction_section_identity=roundtrip_ok,
        tight_on_G=n_product == n_expo,
        gamma_action_free=gamma_acts_freely(et),
        maps_checked=checked,
    )


def _single_key(cset: CylinderSet):
    keys = list(cset.keys())
    if len(keys) != 1:
        raise DomainError("closedness checks need a single-cylinder set")
    return keys[0]


def is_lower_closed(cset: CylinderSet, h: Graph, *, budget: int | None = None) -> bool:
    """Can the exponential of the target's own product be mapped back onto
    the target (as structured maps over the uniform labeling)?"""
    key = _single_key(cset)
    hl = _uniform(h, key, cset.width)
    tr = cyl_product(hl, cset)  # validates ``hl``, as ``uniform_labels`` would
    et = exponential(cset, tr.graph, budget=budget)
    return find_hom(et.graph, hl, mode="gamma", group=cset.group, budget=budget) is not None


def is_upper_closed(cset: CylinderSet, g: Graph, *, budget: int | None = None) -> bool:
    """Can the base graph be mapped into the product of its own exponential?"""
    _single_key(cset)
    et = exponential(cset, g, budget=budget)
    tr = cyl_product(et.graph, cset)
    return find_hom(g, tr.graph, mode="labeled", budget=budget) is not None
