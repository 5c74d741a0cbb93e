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

from .construct import ExpoTrace, ProductTrace, _lift_edges, _uniform, cyl_product, exponential
from .core import Graph
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
from .perm import Perm, _compose


def _lift(edges: list, et: ExpoTrace, rows, no_vertex: str, no_edge: str) -> Homomorphism:
    """The structured map that sends each vertex ``v`` of the ``(v, tuple)``
    pairs in ``rows`` to the surviving vertex of its tuple's orbit in ``et``,
    and each source edge of ``edges`` (laid out by
    :func:`~cylgraph.construct._lift_edges`) to the exponential edge carrying
    its label shifted the way its ends' tuples were.  ``no_vertex`` (with
    ``{v!r}``) and ``no_edge`` (with ``{eid!r}``) are the messages for a
    tuple whose orbit has no surviving vertex and for an edge no exponential
    edge realizes."""
    vmap: dict = {}
    at: dict = {}  # v -> (its image, the shift carrying the image's tuple to v's row, the shift's inverse)
    lifts = et._lifts
    for v, row in rows:
        try:
            hit = lifts[row]
        except (KeyError, TypeError):  # a row not looked up before, or an unhashable one
            hit = et._lifted(row)
        if hit is None:
            raise DomainError(no_vertex.format(v=v))
        vmap[v] = hit[0]
        at[v] = hit
    emap: dict = {}
    alphas: dict = {}
    by_ends = et._edge_by_ends
    for ids, tail, head, pre, key, post in edges:
        t, h = at[tail], at[head]
        x = by_ends.get((t[0], h[0], _compose(t[1], pre), key, _compose(h[1], post)))
        if x is None:
            raise DomainError(no_edge.format(eid=ids[0]))
        emap.update(zip(ids, x))
        alphas[tail] = t[2]
        alphas[head] = h[2]
    return Homomorphism._owning(vmap, emap, alphas)


def _put(vmap: dict, name, value) -> None:
    """Send product vertex ``name`` to ``value`` unless it already has
    another image, which means the map being expanded is not consistent."""
    if vmap.setdefault(name, value) != value:
        raise DomainError(
            f"product vertex {name!r} receives two different images; "
            "the map is not a valid structured map"
        )


def _replay(pairs: list) -> None:
    """:func:`_put` the ``(product vertex, image)`` pairs in turn: raises at
    the first vertex they give two images, as filling the map one pair at a
    time would have."""
    vmap: dict = {}
    for name, value in pairs:
        _put(vmap, name, value)


def _expand_rows(f: Homomorphism, tr: ProductTrace, target: Graph, row_of) -> list:
    """The (product vertex, image) pairs of ``tr``'s slot rows mapped along
    the structured map ``f`` from ``tr.source`` into ``target``: slot
    ``alpha(b)`` of each base vertex ``v`` takes entry ``b`` of
    ``row_of(f.vmap[v])``, ``alpha`` the twist of ``f`` at ``v`` (read off
    the two graphs when ``f`` keeps none)."""
    lay = tr._layout
    alphas = f.alphas
    if alphas is None:
        alphas = extract_alphas(tr.source, target, f, tr.cset.group)
    image, pairs, ident = f.vmap, [], lay.ident
    for v, slots in lay.rows.items():
        alpha = alphas.get(v, ident)
        if alpha != ident or not isinstance(alpha, Perm):  # the identity twist leaves the row as it is
            slots = alpha.act(slots)
        pairs += zip(slots, row_of(image[v]))
    return pairs


def _row_map(pairs: list) -> dict:
    """The vertex map of the slot-row ``pairs``, raising for the first vertex
    they give two images."""
    vmap = dict(pairs)
    if len(set(pairs)) != len(vmap):  # some vertex is paired with two images
        _replay(pairs)
    return vmap


def retraction(tr: ProductTrace, et: ExpoTrace, sigma: Homomorphism) -> Homomorphism:
    """Fold a map off the product down to a structured map on the base.

    ``sigma`` maps the product graph into the exponential's target; the
    result maps the labeled base graph into the exponential graph, twist
    group and all.  Only the vertex part of ``sigma`` is consulted, row by
    row, so the first bad row raises before later ones are read.  The slot
    rows and source edges are the product's as it was made (laid out once
    per trace), and each distinct row is lifted once per ``et``.
    """
    lay = tr._layout
    at = sigma.vmap.__getitem__
    return _lift(lay.lifts, et, ((v, tuple(map(at, slots))) for v, slots in lay.rows.items()),
                 "the slot row of {v!r} lands on a tuple with no surviving "
                 "representative in the exponential graph",
                 "no exponential edge realizes the image of {eid!r}; "
                 "the given map does not respect the product structure")


def section(tr: ProductTrace, et: ExpoTrace, sp: Homomorphism) -> Homomorphism:
    """Expand a structured map on the base to a map off the whole product.

    Slot rows are filled from the image tuples, cylinder interiors from the
    witness map stored with each exponential edge.  The two necessarily
    agree where rows overlap; a disagreement means ``sp`` was not a valid
    structured map and raises :class:`DomainError`, naming the first vertex
    in row-then-copy order that gets two images.  A conflict among the rows
    raises before any witness is read.  The rows, copies and edge groups are
    the product's as it was made, laid out once per trace; a call only
    reads the images and fills the two maps.
    """
    lay = tr._layout
    pairs = _expand_rows(sp, tr, et.graph, et.tuple_of.__getitem__)
    vmap = _row_map(pairs)
    sp_emap, witnesses = sp.emap, et.witnesses
    wmaps: dict = {}  # source edge -> its witness's edge map
    more: list = []  # the copies' pairs, source edge by source edge
    try:
        for eid, xs, names in lay.copies:
            witness = witnesses[sp_emap[eid]]
            wmaps[eid] = witness.emap
            more += zip(names, map(witness.vmap.__getitem__, xs))
    except Exception:  # ``more`` keeps the pairs read before the failure; a conflict among them came first
        _replay(pairs + more)
        raise
    seen = set(pairs)
    seen.update(more)
    vmap.update(more)
    if len(seen) != len(vmap):
        _replay(pairs + more)
    emap: dict = {}
    for eid, (fids, ces) in lay.runs.items():
        emap.update(zip(fids, map(wmaps[eid].__getitem__, ces)))
    return Homomorphism._owning(vmap, emap)


def product_map(f: Homomorphism, tr1: ProductTrace, tr2: ProductTrace) -> Homomorphism:
    """The induced map between two products over the same cylinder set.

    ``f`` must be a structured map between the two labeled base graphs.
    Slot rows follow the base vertices (reindexed by the per-vertex twist),
    cylinder copies follow the base edges.
    """
    g1 = tr1.source
    cset = tr1.cset
    if tr2.cset.width != cset.width or tr2.cset.group != cset.group:
        raise DomainError("the two products use different cylinder sets")
    vmap = _row_map(_expand_rows(f, tr1, tr2.source, tr2.blowup))
    canon2 = {ids[0] for ids, *_ in tr2._layout.lifts}
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
    for eid, xs, names in tr1._layout.copies:
        img = f.emap[eid]
        key = g1.edges[eid].label.key
        rho = None if img in canon2 else reversal(key)
        target = img if rho is None else tr2.source.pairing[img]
        for ce in cset[key].graph.edges:
            fid = tr1.src_edge[(eid, ce)]
            if fid not in emap:  # the first copy to reach a merged edge names its image
                emap[fid] = tr2.src_edge[(target, ce if rho is None else rho.emap[ce])]
        for x, name in zip(xs, names):
            _put(vmap, name, tr2.copy[(target, x if rho is None else rho.vmap[x])])
    return Homomorphism._owning(vmap, emap)


def exponential_map(f: Homomorphism, et1: ExpoTrace, et2: ExpoTrace) -> Homomorphism:
    """The induced structured map between two exponential graphs.

    ``f`` maps target to target; tuples are pushed through it entrywise and
    snapped to their orbit representative, with the snapping twist recorded
    so edge labels stay aligned.
    """
    cset = et1.cset
    if et2.cset.width != cset.width or et2.cset.group != cset.group:
        raise DomainError("the two exponential graphs use different cylinder sets")
    g = et1.graph
    src = _src_edges(g)
    rows = ((name, tuple(f.vmap[t] for t in row)) for name, row in et1.tuple_of.items())
    return _lift(_lift_edges(src, map(g.edges.__getitem__, src), map(g.pairing.get, src)), et2, rows,
                 "the image tuple of {v!r} has no surviving representative; "
                 "the target map does not carry this exponential graph over",
                 "no edge of the image exponential graph realizes the image of {eid!r}")


def unit_map(g: Graph, cset: CylinderSet):
    """The canonical structured map from a labeled base graph into the
    exponential of its own product.  Returns (map, product trace, expo trace)."""
    tr = cyl_product(g, cset)
    et = exponential(cset, tr.graph)
    return retraction(tr, et, identity_hom(tr.graph)), tr, et


def counit_map(cset: CylinderSet, h: Graph):
    """The canonical evaluation map from the product of an exponential graph
    back onto the original target.  Returns (map, product trace, expo trace)."""
    et = exponential(cset, h)
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


def check_duality(g: Graph, cset: CylinderSet, h: Graph) -> DualityReport:
    """Compare the two sides of the correspondence for one triple.

    Counts maps out of the product against structured maps into the
    exponential graph, and round-trips every structured map through
    section and retraction.  Where the slot group fails to act freely the
    round-trip and the count comparison are reported as observed — they
    are only promised under freeness.
    """
    tr = cyl_product(g, cset)
    et = exponential(cset, h)
    n_product = count_homs(tr.graph, h, mode="labeled")
    n_expo = count_homs(g, et.graph, mode="gamma", group=cset.group)

    roundtrip_ok = True
    checked = 0
    for sp in iter_homs(g, et.graph, mode="gamma", group=cset.group):
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


def is_lower_closed(cset: CylinderSet, h: Graph) -> bool:
    """Can the exponential of the target's own product be mapped back onto
    the target (as structured maps over the uniform labeling)?"""
    key = _single_key(cset)
    hl = _uniform(h, key, cset.width)
    tr = cyl_product(hl, cset)  # validates ``hl``, as ``uniform_labels`` would
    et = exponential(cset, tr.graph)
    return find_hom(et.graph, hl, mode="gamma", group=cset.group) is not None


def is_upper_closed(cset: CylinderSet, g: Graph) -> bool:
    """Can the base graph be mapped into the product of its own exponential?"""
    _single_key(cset)
    et = exponential(cset, g)
    tr = cyl_product(et.graph, cset)
    return find_hom(g, tr.graph, mode="labeled") is not None
