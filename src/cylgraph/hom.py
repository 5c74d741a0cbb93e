"""Homomorphism search, listing, and counting.

Three matching modes:

- ``plain``    — incidence only; edge labels are ignored.
- ``labeled``  — edge labels must be preserved exactly.
- ``gamma``    — labels are attachment triples (:class:`~cylgraph.core.GammaLabel`);
  a map is valid when a per-vertex twist from the given group reconciles the
  source labels with the target labels: the edge u->v labeled (pre, j, post)
  must land on an edge labeled (d_pre, j, d_post) with
  ``pre == alpha[u] * d_pre`` and ``post == alpha[v] * d_post``.
  The twists are uniquely determined on every edge-incident vertex.

Between symmetric graphs a homomorphism is a map of twin *pairs*: the edge map
commutes with the pairing, and two directed images of one pair count once.

Counting, in every mode, does not enumerate maps — the count is a
sum-product over per-edge weight tables, contracted by variable elimination —
so hom counts far beyond enumeration range stay exact.  In gamma mode each
edge-incident source vertex takes (target vertex, twist) values, and an edge
weighs each pair of such values by how many of its candidate images induce
that pair of twists.  The next variable summed out is always the remaining
source vertex with the fewest neighbours in the current factors (ties broken
by ``str`` of its name), found from a heap that each step updates only around
the eliminated vertex.  The cost therefore grows with the source's width
along that order (the size of the largest joined table, at most ``|V(h)|``,
times the group order in gamma mode, to the power of the largest
neighbourhood plus one), times the source's size, not with its size cubed.
The same elimination, with chosen source vertices kept out of the heap,
projects the maps onto those vertices' images: the exponential's realized
boundary rows, with no map enumerated.

Vertex-map search maps pinned vertices first, then the others by falling
degree (ties broken by ``str`` of the name), except that each next vertex is
the first in that ranking adjacent to an already-mapped one whenever such a
vertex remains, so every edge check can fail early.  The order comes from
:func:`~cylgraph.core.connected_order` in O((V + E) log V).  A vertex is
checked only against its edges to itself and to vertices placed before it,
a list fixed by the order.  Candidates come from the target neighbours of
an earlier neighbour's image when there is one, but nodes are charged as if
every target vertex had been tried, one budget node each.

Enumeration order is nested: vertex maps, lexicographic over that vertex
order with target vertices sorted by ``str``; in gamma mode, for each vertex
map, twist vectors, lexicographic over the edge-incident source vertices
sorted by ``str``, each running through the group's elements in order; then
edge images, lexicographic over the source edges (one per twin pair, sorted
by id), each over its candidate target edges sorted by id, one per twin pair.
A search with chosen vertices fixed to one value each keeps that order, so
it yields exactly the maps with those values, in the same order.

One search fills the vertex images and the twists: its positions are the
vertex order followed, in gamma mode, by the edge-incident vertices sorted
by ``str``, and one explicit stack holds a candidate iterator per position,
so sources of any size are searched without hitting the interpreter's
recursion limit.  Twists are read off per-edge candidate tables rather than
searched for edge by edge.  Each table, for one source edge and one pair of
target vertices, holds the key-matching target edges grouped by the tail and
head twists they induce (``pre * inverse(d_pre)`` and ``post *
inverse(d_post)``), keeping those whose twists both lie in the group.  A
twist position's candidates are the group elements that every incident
edge's table allows given the twists already fixed.  Every position charges
by rank, one budget node per candidate it could have tried: a target vertex
at a vertex position, a group element, allowed or not, at a twist position.

Edge images are then emitted as ``itertools.product`` of the candidate lists
the search leaves, one per source edge, the last edge turning fastest.  They
charge what depth-first search over the edges would: a leaf's first pick
``m`` nodes, ``m`` the number of source edges, and each later pick ``m - k``,
``k`` the index of the leftmost edge whose image moved, one node per image
taken from edge ``k`` on.  A yielded map keeps one flat record, its edge
picks then its vertex images, and builds its edge map, twins included, from
it on first read; outside gamma mode its vertex map too.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import count, islice, product
from typing import Iterator, Mapping

from .core import GammaLabel, Graph, _Budget, connected_order
from .errors import DomainError, count_checked
from .perm import Perm, PermGroup, compose

MODES = ("plain", "labeled", "gamma")


class Homomorphism:
    """A vertex map plus an edge map; gamma-mode maps also carry the per-vertex twists on edge-incident
    vertices.  A map that :func:`iter_homs` yields, or that the exponential joins from one per component,
    builds ``emap``, and ``vmap`` when unset, on first read from one flat record ``_picked = (layout,
    values)``.  The layout holds the ``emap`` keys, the target's pairing (the twin images; None without
    twins), the places in ``values`` of the edge images, the vertex names and their images' places.  A
    searched map's values are its edge picks, then its vertex images; a joined map's, its parts' in turn."""

    __slots__ = ("vmap", "emap", "alphas", "_picked")

    def __init__(self, vmap: Mapping, emap: Mapping, alphas: Mapping | None = None):
        self.vmap = dict(vmap)
        self.emap = dict(emap)
        self.alphas = dict(alphas) if alphas is not None else None

    @classmethod
    def _owning(cls, vmap: dict | None = None, emap: dict | None = None,
                alphas: dict | None = None) -> Homomorphism:
        """A map that keeps the dicts it is given, not copies of them.  Without ``vmap`` and ``emap``
        the caller sets the record ``_picked`` they are built from on first read."""
        hom = object.__new__(cls)
        if vmap is not None:
            hom.vmap, hom.emap = vmap, emap
        hom.alphas = alphas
        return hom

    def __getattr__(self, name):
        # reached only when a slot is unset: a built map reads as fast as an eager one
        if name not in ("vmap", "emap"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        (keys, twins, edges, names, verts), values = self._picked
        if name == "vmap":
            self.vmap = dict(zip(names, map(values.__getitem__, verts)))
            return self.vmap
        pick = tuple(map(values.__getitem__, edges))
        if twins is not None:
            pick += tuple(map(twins.__getitem__, pick))
        self.emap = dict(zip(keys, pick))
        return self.emap

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Homomorphism)
            and self.vmap == other.vmap
            and self.emap == other.emap
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.vmap.items()), frozenset(self.emap.items())))

    def __repr__(self) -> str:
        return f"Homomorphism({len(self.vmap)} vertices, {len(self.emap)} edges)"

    def to_json(self) -> dict:
        data = {
            "vertices": {str(v): self.vmap[v] for v in sorted(self.vmap, key=str)},
            "edges": {eid: self.emap[eid] for eid in sorted(self.emap)},
        }
        if self.alphas is not None:
            data["twists"] = {
                str(v): list(self.alphas[v]) for v in sorted(self.alphas, key=str)
            }
        return data


def compose_homs(first: Homomorphism, second: Homomorphism) -> Homomorphism:
    vmap = {v: second.vmap[w] for v, w in first.vmap.items()}
    emap = {e: second.emap[f] for e, f in first.emap.items()}
    alphas = None
    if first.alphas is not None and second.alphas is not None:
        alphas = {
            u: compose(a, second.alphas[first.vmap[u]])
            for u, a in first.alphas.items()
            if first.vmap[u] in second.alphas
        }
    return Homomorphism(vmap, emap, alphas)


def identity_hom(g: Graph) -> Homomorphism:
    alphas = None
    if g.has_gamma_labels() and g.edges:
        k = next(iter(g.edges.values())).label.pre.degree
        alphas = dict.fromkeys(_alpha_vertices(g), Perm.identity(k))
    return Homomorphism({v: v for v in g.vertices}, {e: e for e in g.edges}, alphas)


# -- shared machinery ---------------------------------------------------------


def _require_comparable(g: Graph, h: Graph, mode: str, group: PermGroup | None):
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if g.symmetric != h.symmetric:
        raise DomainError("source and target must both be symmetric or both directed")
    if mode == "gamma":
        if group is None:
            raise DomainError("gamma mode needs the slot group")
        for graph, side in ((g, "source"), (h, "target")):
            for eid, e in graph.edges.items():
                if not isinstance(e.label, GammaLabel):
                    raise DomainError(f"{side} edge {eid!r} lacks an attachment label")
                if (d := e.label.pre.degree) != group.degree or (d := e.label.post.degree) != group.degree:
                    raise DomainError(f"{side} edge {eid!r} twists {d} slots, the group acts on {group.degree}")


def _checked_pins(g: Graph, h: Graph, pins: Mapping | None) -> dict:
    pins = dict(pins or {})
    for v, w in pins.items():
        if not g.has_vertex(v):
            raise DomainError(f"pinned vertex {v!r} not in source")
        if not h.has_vertex(w):
            raise DomainError(f"pin target {w!r} of {v!r} not in target")
    return pins


def _src_edges(g: Graph) -> list[str]:
    return sorted(g.canonical_edges())


def _dedupe_classes(h: Graph, eids: list[str]) -> list[str]:
    """One directed representative per twin pair of ``h.pairing``: ``eids`` less each edge whose twin comes earlier."""
    kept: dict = {}  # an ordered set
    for f in eids:
        if h.pairing.get(f) not in kept:
            kept[f] = None
    return list(kept)


def _emap_keys(g: Graph, h: Graph, src: list[str]) -> tuple:
    """A map's ``emap`` keys (``src``, then their twins in ``g``) and the pairing its twin images come from."""
    return (src + [g.pairing[eid] for eid in src], h.pairing) if g.pairing else (src, None)


def _vertex_order(g: Graph, pins: Mapping) -> list:
    def key(v):
        return v not in pins, -len(g.out_edges(v)) - len(g.in_edges(v)), str(v)

    return connected_order(sorted(g.vertices, key=key), g.neighbour_sets(), pins)


def _alpha_vertices(g: Graph) -> list:
    """Edge endpoints sorted by ``str``; names that tie (``1`` and ``"1"``)
    keep the order of the edges they first appear on, not hash order."""
    incident: dict = {}
    for e in g.edges.values():
        incident[e.tail] = incident[e.head] = None
    return sorted(incident, key=str)


_MISSING = object()


class _Matcher:
    """Candidate tables for one (g, h, mode, group) query.  ``table(eid, a,
    b)``, keyed by a source edge and a pair of target vertices, is built on
    first use and kept for the whole search; it is empty exactly when
    ``eid`` has no candidate a->b.

    In plain and labeled mode the table lists the target edges a->b that
    ``eid`` may map to, one per twin pair.  In gamma mode a key-matching
    target edge ``f`` induces the tail twist ``pre * inverse(f.pre)`` and
    the head twist ``post * inverse(f.post)``, and is a candidate when both
    lie in the group; the table groups the candidates by that pair of
    twists, one per twin pair within each group.  Each distinct (source,
    target) permutation pair is composed and its twist tested for
    membership once."""

    def __init__(self, g: Graph, h: Graph, mode: str, group: PermGroup | None):
        self.g = g
        self.h = h
        self.mode = mode
        self.group = group
        self.idx: dict = defaultdict(list)  # (tail, head) -> target edge ids, sorted
        for eid in sorted(h.edges):
            self.idx[h.edges[eid][:2]].append(eid)
        self._tables: dict = {}
        self._induced: dict = {}  # (source perm, target perm) -> twist, or None

    def table(self, eid: str, a, b) -> list[str] | dict:
        hit = self._tables.get((eid, a, b))
        if hit is None:
            hit = self._tables[(eid, a, b)] = self._build(eid, a, b)
        return hit

    def _twist(self, src: Perm, tgt: Perm):
        """``src * inverse(tgt)``, or None outside the group."""
        key = (src, tgt)
        t = self._induced.get(key, _MISSING)
        if t is _MISSING:
            p = compose(src, tgt.inverse())
            t = self._induced[key] = p if p in self.group else None
        return t

    def _build(self, eid: str, a, b) -> list[str] | dict:
        label = self.g.edges[eid].label
        targets = self.idx.get((a, b), ())
        # the twin of an a->b edge runs b->a, so only loops (a == b) can
        # bring both edges of a twin pair into one list
        if self.mode == "plain":
            out = list(targets)
        elif self.mode == "labeled":
            out = [f for f in targets if self.h.edges[f].label == label]
        else:
            by_twists: dict = {}
            for f in targets:
                lab = self.h.edges[f].label
                if lab.key != label.key:
                    continue
                t = self._twist(label.pre, lab.pre)
                if t is None:
                    continue
                s = self._twist(label.post, lab.post)
                if s is None:
                    continue
                by_twists.setdefault((t, s), []).append(f)
            if a == b:
                return {ts: _dedupe_classes(self.h, fs) for ts, fs in by_twists.items()}
            return by_twists
        return _dedupe_classes(self.h, out) if a == b else out


_LOOP = 2  # in a twist check: the edge is a loop at the vertex


class _Search:
    """One ``iter_homs`` query: the candidate tables plus all that the
    search reads from the source, worked out once.

    The search fills *positions* in a fixed order: the vertex order, whose
    values are target vertices, then in gamma mode ``verts``, the
    edge-incident vertices sorted by ``str``, whose values are their twists.

    - ``src``: the source edges, one per twin pair, sorted;
    - ``top[i]``: the highest rank a candidate at position ``i`` can have:
      the number of target vertices (1 when pinned), or of group elements,
      less one;
    - ``back[i]``: the edge checks at vertex position ``i``, one ``(k, eid,
      tail, head)`` per edge ``src[k]`` to itself or to an earlier vertex, in
      source-edge order, with the positions of its ends;
    - ``draw[i]``: for a vertex with an edge to an earlier one and no pin,
      ``(j, nbrs)`` for the first such edge: ``j`` the position of its
      earlier end, ``nbrs`` each target vertex's out- (that end is the tail)
      or in-neighbours as ``(rank, vertex)`` by ``str`` rank; else empty, and
      ``cands[i]`` holds;
    - gamma mode: ``twist_checks[i]`` at twist position ``i``, one ``(k,
      side, j)`` per edge ``src[k]`` at the vertex, where ``side`` is 0 when
      the vertex is the tail, 1 when it is the head, ``_LOOP`` for a loop,
      and ``j`` the position of the other end when it comes earlier (else
      None); ``ends_at[k]``, the positions of the twists at the ends of
      ``src[k]``."""

    def __init__(self, matcher: _Matcher, pins: Mapping):
        g, h, mode, group = matcher.g, matcher.h, matcher.mode, matcher.group
        self.matcher = matcher
        self.src = _src_edges(g)
        ends = [g.edges[eid][:2] for eid in self.src]
        ranked = list(enumerate(sorted(h.vertices, key=str)))
        rank = {w: r for r, w in ranked}
        outs, ins = defaultdict(list), defaultdict(list)  # filled in rank order of both ends
        for a, b in sorted(self.matcher.idx, key=lambda ab: (rank[ab[0]], rank[ab[1]])):
            outs[a].append((rank[b], b))
            ins[b].append((rank[a], a))
        self.order = _vertex_order(g, pins)
        self.verts = _alpha_vertices(g) if mode == "gamma" else []
        self.elements = list(enumerate(group)) if mode == "gamma" else []
        self.cands = [[(0, pins[u])] if u in pins else ranked for u in self.order]
        self.top = [len(c) - 1 for c in self.cands] + [len(self.elements) - 1] * len(self.verts)
        placed = {u: i for i, u in enumerate(self.order)}
        self.back = [[] for _ in self.top]
        self.draw = [() if u in pins else None for u in self.order]  # () is never drawn
        for k, (eid, (tail, head)) in enumerate(zip(self.src, ends)):
            i, j = placed[tail], placed[head]
            self.back[max(i, j)].append((k, eid, i, j))
            if i != j and self.draw[max(i, j)] is None:
                self.draw[max(i, j)] = (j, ins) if i > j else (i, outs)
        self.ends_at = None
        if mode == "gamma":
            at = {v: i for i, v in enumerate(self.verts, len(self.order))}
            self.ends_at = [(at[tail], at[head]) for tail, head in ends]
            self.twist_checks = [[] for _ in self.top]
            for k, (i, j) in enumerate(self.ends_at):
                if i == j:
                    self.twist_checks[i].append((k, _LOOP, None))
                else:
                    self.twist_checks[i].append((k, 0, j if j < i else None))
                    self.twist_checks[j].append((k, 1, i if i < j else None))

    def values(self, budget: _Budget, fixed: Mapping | None = None) -> Iterator[tuple[list, list]]:
        """Every assignment of the positions in search order, as one list of
        values by position updated in place, with the candidate list it
        leaves each source edge: the edge's table, or in gamma mode the
        table's entry for the twists at its ends.

        ``fixed`` restricts vertex positions to one value each, tried as a
        pin's is; the order stays as it is, so the assignments yielded are
        exactly those of the unrestricted search that hold those values, in
        the same order.

        A position tries its candidates as ``(rank, value)`` pairs and
        charges by rank: taking rank ``r`` charges the ranks since the last
        one taken there, and running out charges the rest up to ``top``, so
        it costs one node per candidate it could have tried.  A vertex ranks
        the target vertices by ``str`` and tries only an earlier image's
        neighbours when it has one; a twist ranks the group's elements in
        order and tries only those its edges allow.  The stack is explicit,
        so depth is not bounded by the recursion limit."""
        cands, draw, back, top, ends_at = self.cands, self.draw, self.back, self.top, self.ends_at
        if fixed:
            cands, draw, top = cands[:], draw[:], top[:]
            for i, w in fixed.items():
                cands[i], draw[i], top[i] = [(0, w)], (), 0
        tables, build = self.matcher._tables, self.matcher._build  # ``_Matcher.table``, inlined
        n = len(self.order)
        vals: list = [None] * len(top)
        tabs: list = [None] * len(self.src)
        if not top:
            yield vals, tabs
            return
        last = len(top) - 1
        taken = [-1] * len(top)
        stack = [iter(cands[0])]
        while stack:
            i = len(stack) - 1
            for r, w in stack[i]:
                vals[i] = w
                for k, eid, tail, head in back[i]:
                    tab = tables.get(key := (eid, vals[tail], vals[head]))
                    if tab is None:
                        tab = tables[key] = build(*key)
                    if not tab:
                        break
                    tabs[k] = tab
                else:  # ``budget.spend(r - taken[i])`` inlined, as below; ``spend(0)`` raises when overdrawn
                    budget.left -= r - taken[i]
                    if budget.left < 0:
                        budget.spend(0)
                    taken[i] = r
                    break
            else:
                budget.left -= top[i] - taken[i]
                if budget.left < 0:
                    budget.spend(0)
                stack.pop()
                continue
            if i < last:
                i += 1
                if i < n:
                    d = draw[i]
                    stack.append(iter(d[1].get(vals[d[0]], ()) if d else cands[i]))
                else:
                    stack.append(iter(self._twists(i, tabs, vals)))
                taken[i] = -1
            elif ends_at is None:
                yield vals, tabs
            else:
                yield vals, [tab[vals[t], vals[hd]] for tab, (t, hd) in zip(tabs, ends_at)]

    def _twists(self, i: int, tabs: list, vals: list) -> list:
        """The candidates at twist position ``i``: the group's elements, as
        ``(rank, element)`` in order, that every incident edge's table has an
        entry for given the twists at the earlier positions."""
        acc = None
        for k, side, j in self.twist_checks[i]:
            tab = tabs[k]
            if side == _LOOP:
                got = {t for t, s in tab if t == s}
            elif j is None:
                got = {ts[side] for ts in tab}
            else:
                want, other = vals[j], 1 - side
                got = {ts[side] for ts in tab if ts[other] == want}
            acc = got if acc is None else acc & got
            if not acc:
                return []
        return [(r, a) for r, a in self.elements if a in acc]


# -- public API ----------------------------------------------------------------


def iter_homs(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
              pins: Mapping | None = None) -> Iterator[Homomorphism]:
    """All homomorphisms, deterministically ordered.  ``pins`` fixes chosen
    source vertices to chosen target vertices.  The arguments are checked at
    the call; the search starts at the first ``next()``."""
    _require_comparable(g, h, mode, group)
    return _homs(g, h, mode, group, _checked_pins(g, h, pins), _Budget())


def _homs(g: Graph, h: Graph, mode: str, group: PermGroup | None, pins: dict,
          b: _Budget) -> Iterator[Homomorphism]:
    search = _Search(_Matcher(g, h, mode, group), pins)
    src, order, verts = search.src, search.order, search.verts
    m, nv = len(src), len(order)
    layout = (*_emap_keys(g, h, src), range(m), order, range(m, m + nv))
    gamma, new = mode == "gamma", object.__new__
    for vals, lists in search.values(b):
        images = tuple(islice(vals, nv))  # ``vals`` changes only once the picks below are all taken
        moved = False
        for pick in product(*lists):
            if moved:  # product moved edge k: the last edge not at its first candidate
                k = m - 1
                while pick[k] == lists[k][0]:
                    k -= 1
            else:
                k, moved = 0, True
            b.left -= m - k  # ``b.spend(m - k)`` inlined, as in ``_Search.values``
            if b.left < 0:
                b.spend(0)
            hom = new(Homomorphism)  # leaves ``emap`` unset, and ``vmap`` but in gamma mode
            hom._picked, hom.alphas = (layout, pick + images), None
            if gamma:  # every reader of a gamma map reads it whole: eager is faster there
                hom.vmap, hom.alphas = dict(zip(order, images)), dict(zip(verts, islice(vals, nv, None)))
            yield hom


def _first_record(search: _Search, fixed: Mapping) -> tuple:
    """The record of the first map ``search`` yields with the vertex positions
    ``fixed`` holding their values, which must be realized: its first edge
    picks, then its vertex images.  One budget, charged as :func:`_homs`
    charges a first map."""
    b = _Budget()
    vals, lists = next(search.values(b, fixed))
    b.spend(len(lists))
    return next(product(*lists)) + tuple(islice(vals, len(search.order)))


def _has_vertex_map(g: Graph, h: Graph) -> bool:
    """Whether the labeled search of ``g`` into ``h`` reaches a vertex map, charging no edge pick."""
    return next(_Search(_Matcher(g, h, "labeled", None), {}).values(_Budget()), None) is not None


def find_hom(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
             pins: Mapping | None = None) -> Homomorphism | None:
    return next(iter_homs(g, h, mode, group, pins), None)


def list_homs(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
              pins: Mapping | None = None, limit: int | None = None) -> list[Homomorphism]:
    """The first ``limit`` homomorphisms of ``iter_homs``, all when None;
    ``limit=0`` starts no search but still checks the arguments."""
    if limit is not None:
        count_checked(limit, "limit=")
    return list(islice(iter_homs(g, h, mode, group, pins), limit))


def count_homs(g: Graph, h: Graph, mode: str = "labeled", group: PermGroup | None = None,
               pins: Mapping | None = None) -> int:
    """Exact number of homomorphisms (pair-level between symmetric graphs),
    by variable elimination in every mode: one factor per source edge (one
    per twin pair) weighing its ends' values by their candidate images, one
    per pin.  In gamma mode an edge-incident source vertex takes (target
    vertex, twist) values."""
    _require_comparable(g, h, mode, group)
    pins = _checked_pins(g, h, pins)
    b = _Budget("homomorphism count")
    return _count_by_elimination(g, h, _Matcher(g, h, mode, group), pins, b)


def _count_by_elimination(g: Graph, h: Graph, matcher: _Matcher, pins: Mapping, budget: _Budget) -> int:
    if not g.vertices:
        return 1
    if not h.vertices:
        return 0
    domains = dict.fromkeys(g.vertices, len(h.vertices))
    return _eliminate(domains, _factors(g, matcher, pins), budget)[1].get((), 0)


def _project(matcher: _Matcher, keep: set) -> tuple[tuple, dict]:
    """The homs of ``matcher``'s query by their images of ``keep``: (the
    kept vertices, a table from their images to the number of homs with
    them), every other vertex eliminated under one budget.  Each kept vertex
    must lie on an edge.  Every candidate table gets built."""
    g, n = matcher.g, len(matcher.h.vertices)
    return _eliminate(dict.fromkeys(g.vertices, n), _factors(g, matcher, {}), _Budget(), keep)


def _factors(g: Graph, matcher: _Matcher, pins: Mapping) -> list[tuple[tuple, dict]]:
    """One factor per source edge (one per twin pair), weighing its ends'
    values by their candidate images, and one per pin."""
    gamma = matcher.mode == "gamma"
    factors: list[tuple[tuple, dict]] = []
    for eid in _src_edges(g):
        tail, head = g.edges[eid][:2]
        table: dict = {}
        for a, b in matcher.idx:
            if tail == head and a != b:
                continue
            hit = matcher.table(eid, a, b)
            if gamma:  # values are (target vertex, twist)
                cells = [((a, t), (b, s), len(fs)) for (t, s), fs in hit.items()]
            else:
                cells = [(a, b, len(hit))]
            for x, y, c in cells:
                if c and tail != head:
                    table[(x, y)] = c
                elif c and x == y:  # a loop keeps equal twists at its one end
                    table[(x,)] = c
        factors.append(((tail,) if tail == head else (tail, head), table))
    for v, w in pins.items():
        if gamma and (g.out_edges(v) or g.in_edges(v)):
            factors.append(((v,), {((w, a),): 1 for a in matcher.group}))
        else:
            factors.append(((v,), {(w,): 1}))
    return factors


def _join(f1: tuple[tuple, dict], f2: tuple[tuple, dict], budget: _Budget) -> tuple[tuple, dict]:
    v1, t1 = f1
    v2, t2 = f2
    shared = [v for v in v1 if v in v2]
    extra = [i for i, v in enumerate(v2) if v not in v1]
    out_vars = v1 + tuple(v2[i] for i in extra)
    pos1 = [v1.index(s) for s in shared]
    pos2 = [v2.index(s) for s in shared]
    index2: dict = defaultdict(list)
    for a2, w2 in t2.items():
        index2[tuple(a2[i] for i in pos2)].append((a2, w2))
    out: dict = {}
    for a1, w1 in t1.items():
        key = tuple(a1[i] for i in pos1)
        for a2, w2 in index2.get(key, ()):
            budget.spend()
            out[a1 + tuple(a2[i] for i in extra)] = w1 * w2
    return out_vars, out


def _eliminate(domains: dict, factors: list[tuple[tuple, dict]], budget: _Budget,
               keep: set = frozenset()) -> tuple[tuple, dict]:
    """Sum out every variable but those in ``keep``, always the remaining one
    of least ``(degree, str(name))``, where the degree counts the other
    variables that share a factor with it; then join the factors left into
    one table over the kept variables, each of which must be in some factor.
    Returns (its variables, the table), which holds only nonzero weights:
    with nothing kept, ``{(): total}`` or empty.  Factors are numbered in
    creation order; each variable indexes its factors by number and counts
    the factors it shares with each neighbour, so one step touches only the
    eliminated neighbourhood.  Heap entries go stale lazily: an entry counts
    only while its variable is uneliminated and its degree is current."""
    var_factors: dict = defaultdict(dict)  # variable -> {factor number: factor}, in creation order
    nbrs: dict = defaultdict(lambda: defaultdict(int))  # variable -> {neighbour: shared factors}
    heap: list = []
    seq = count()

    def push(v) -> None:
        if v not in keep:
            heapq.heappush(heap, (len(nbrs[v]), str(v), next(seq), v))

    def add(f: tuple[tuple, dict]) -> None:
        i = next(seq)
        for u in f[0]:
            var_factors[u][i] = f
            for w in f[0]:
                if w != u:
                    nbrs[u][w] += 1

    def remove(i: int, f: tuple[tuple, dict]) -> tuple[tuple, dict]:
        for u in f[0]:
            del var_factors[u][i]
            for w in f[0]:
                if w != u:
                    nbrs[u][w] -= 1
                    if not nbrs[u][w]:
                        del nbrs[u][w]
        return f

    def joined(touching: list) -> tuple[tuple, dict]:
        out = touching[0]
        for f in touching[1:]:
            out = _join(f, out, budget)
        return out

    for f in factors:
        add(f)
    for v in domains:
        push(v)
    done: set = set()
    result = 1
    while heap:
        deg, _, _, v = heapq.heappop(heap)
        if v in done or deg != len(nbrs[v]):
            continue
        done.add(v)
        touching = [remove(i, f) for i, f in list(var_factors[v].items())]
        if not touching:
            result *= domains[v]
            continue
        jvars, jtable = joined(touching)
        idx = jvars.index(v)
        out_vars = jvars[:idx] + jvars[idx + 1 :]
        summed: dict = defaultdict(int)
        for assign, w in jtable.items():
            summed[assign[:idx] + assign[idx + 1 :]] += w
        budget.spend(len(summed) + 1)
        if out_vars:
            add((out_vars, dict(summed)))
        else:
            result *= summed.get((), 0)
        for u in out_vars:  # only v's neighbours changed degree
            push(u)
    left = sorted({i: f for u in keep for i, f in var_factors[u].items()}.items())
    jvars, jtable = joined([f for _, f in left]) if left else ((), {(): 1})
    return jvars, {assign: w * result for assign, w in jtable.items() if result}


# -- validation ----------------------------------------------------------------


def extract_alphas(g: Graph, h: Graph, hom: Homomorphism, group: PermGroup) -> dict:
    """Recover the per-vertex twists of a gamma-mode map from its edge map.
    Raises :class:`DomainError` if no consistent twists inside the group exist."""
    alphas: dict = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        f = h.edges[hom.emap[eid]]
        for v, src, tgt in ((e.tail, e.label.pre, f.label.pre), (e.head, e.label.post, f.label.post)):
            a = compose(src, tgt.inverse())
            if v in alphas:
                if alphas[v] != a:
                    raise DomainError(f"inconsistent twists at vertex {v!r}")
            else:
                if a not in group:
                    raise DomainError(f"twist at vertex {v!r} falls outside the group")
                alphas[v] = a
    return alphas


def check_hom(g: Graph, h: Graph, hom: Homomorphism, mode: str = "labeled",
              group: PermGroup | None = None) -> str | None:
    """Why is this not a valid homomorphism?  None when it is valid."""
    _require_comparable(g, h, mode, group)
    vmap, emap = hom.vmap, hom.emap
    for v in g.vertices:
        if v not in vmap:
            return f"vertex {v!r} unmapped"
        if not h.has_vertex(vmap[v]):
            return f"vertex {v!r} maps outside the target"
    for eid, e in g.edges.items():
        if eid not in emap:
            return f"edge {eid!r} unmapped"
        f = emap[eid]
        if f not in h.edges:
            return f"edge {eid!r} maps to unknown edge {f!r}"
        te = h.edges[f]
        if te.tail != vmap[e.tail] or te.head != vmap[e.head]:
            return f"edge {eid!r} image has wrong endpoints"
        if mode == "labeled" and te.label != e.label:
            return f"edge {eid!r} image changes the label"
        if mode == "gamma" and te.label.key != e.label.key:
            return f"edge {eid!r} image changes the cylinder key"
    for eid, tw in g.pairing.items():
        if emap[tw] != h.pairing.get(emap[eid]):
            return f"edge map does not respect the twin pairing at {eid!r}"
    if mode == "gamma":
        try:
            alphas = extract_alphas(g, h, hom, group)
        except DomainError as err:
            return str(err)
        if hom.alphas is not None:
            for v, a in alphas.items():
                if hom.alphas.get(v) != a:
                    return f"stored twist at {v!r} disagrees with the edge map"
    return None
