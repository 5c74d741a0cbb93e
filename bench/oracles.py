"""Independent checks on the library's outputs.

Every function returns ``None`` when the output is right and a one-line
reason when it is not.  They read graphs only through their public fields
(``vertices``, ``edges``, ``pairing``, ``symmetric``) and never call the
search or construction code they check.
"""

from __future__ import annotations

import json
from collections import Counter


def decode_tuple(name: str) -> tuple:
    """An exponential vertex name is the JSON list of its tuple."""
    return tuple(json.loads(name))


def decode_single(name: str):
    (v,) = json.loads(name)
    return v


def _edge_multiset(g, rename) -> Counter:
    """Edges as endpoint pairs, one per twin pair in a symmetric graph."""
    out: Counter = Counter()
    for eid, e in g.edges.items():
        a, b = rename(e.tail), rename(e.head)
        if g.symmetric:
            if eid > g.pairing[eid]:
                continue
            a, b = sorted((a, b), key=repr)
        out[(a, b)] += 1
    return out


def same_graph(out, expected, rename=lambda v: v) -> str | None:
    """``out`` equals ``expected`` once its vertices are renamed; parallel
    edges in ``out`` count once, as in the direct constructions."""
    if out.symmetric != expected.symmetric:
        return "symmetric flag differs"
    got_v = {rename(v) for v in out.vertices}
    want_v = set(expected.vertices)
    if got_v != want_v:
        return f"vertex sets differ ({len(got_v)} vs {len(want_v)})"
    got = set(_edge_multiset(out, rename))
    want = set(_edge_multiset(expected, lambda v: v))
    if got != want:
        return f"edge sets differ ({len(got - want)} extra, {len(want - got)} missing)"
    return None


def with_loops(g):
    """A copy of ``g`` with one loop added at every vertex."""
    out = g.copy()
    for v in list(out.vertices):
        out.add_sym_edge(v, v)
    return out


def hom_error(g, h, hom) -> str | None:
    """Is ``hom`` a plain homomorphism (labels ignored) from ``g`` to ``h``?"""
    vmap, emap = hom.vmap, hom.emap
    if set(vmap) != set(g.vertices):
        return "vertex map is not total"
    for eid, e in g.edges.items():
        image = h.edges.get(emap.get(eid))
        if image is None:
            return f"edge {eid!r} has no image edge"
        if (image.tail, image.head) != (vmap[e.tail], vmap[e.head]):
            return f"edge {eid!r} image has the wrong endpoints"
    if g.symmetric and any(h.pairing[emap[eid]] != emap[tw] for eid, tw in g.pairing.items()):
        return "edge map breaks the twin pairing"
    return None


def iso_error(g, h, vmap: dict) -> str | None:
    """Is ``vmap`` a bijection V(g) -> V(h) carrying edges onto edges?"""
    if set(vmap) != set(g.vertices) or set(vmap.values()) != set(h.vertices):
        return "vertex map is not a bijection"
    if len(set(vmap.values())) != len(vmap):
        return "vertex map is not injective"
    if _edge_multiset(g, vmap.__getitem__) != _edge_multiset(h, lambda v: v):
        return "edges are not carried onto edges"
    return None


def cycle_colourings(n: int) -> int:
    """Homomorphisms C_n -> K3: the chromatic polynomial of C_n at 3."""
    return 2 ** n + 2 * (-1) ** n


def subdivided_cycle_error(g, n: int, k: int) -> str | None:
    """``g`` should be a single cycle of length n * k."""
    m = n * k
    if len(g.vertices) != m:
        return f"{len(g.vertices)} vertices, want {m}"
    edges = _edge_multiset(g, lambda v: v)
    if sum(edges.values()) != m:
        return f"{sum(edges.values())} edges, want {m}"
    nbrs: dict = {v: [] for v in g.vertices}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    if any(len(ws) != 2 for ws in nbrs.values()):
        return "not 2-regular"
    start = next(iter(nbrs))
    seen, todo = {start}, [start]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return None if len(seen) == m else "more than one cycle"
