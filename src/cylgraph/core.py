"""Directed labeled multigraphs, optionally with a symmetric edge pairing.

A graph holds named vertices and a dict of edges ``id -> (tail, head, label)``.
Labels are arbitrary hashable values; the gluing constructions use
:class:`GammaLabel` triples.  A *symmetric* graph is a directed graph together
with a fixed-point-free involution pairing every edge with a reverse twin —
an undirected edge is such a pair, and an undirected loop is a pair of twin
directed loops.  The pairing alone decides twins: an edge has one exactly
when it is a key of ``pairing`` (every edge of a symmetric graph, none of a directed one).

Graphs are built by mutation and then treated as immutable.
"""

from __future__ import annotations

import heapq
import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import JSON_SCALAR, DomainError, LabelConflict, ResourceLimit, json_checked
from .perm import Perm


@dataclass(frozen=True)
class GammaLabel:
    """Edge label ``(pre, key, post)``: which cylinder a gluing construction
    hangs on the edge, and the two attachment permutations for its ends."""

    pre: Perm
    key: object
    post: Perm

    def reversed(self) -> GammaLabel:
        return GammaLabel(self.post, self.key, self.pre)

    def __str__(self) -> str:
        return f"({_perm_str(self.pre)}|{self.key}|{_perm_str(self.post)})"

    def to_json(self) -> dict:
        return {"pre": list(self.pre), "cyl": self.key, "post": list(self.post)}

    @classmethod
    def from_json(cls, data: dict) -> GammaLabel:
        return cls(Perm(data["pre"]), json_checked(data["cyl"], JSON_SCALAR, "label 'cyl'"), Perm(data["post"]))


def _reversed(label):
    """The label a twin carries: a :class:`GammaLabel` reversed, anything
    else as it is."""
    return label.reversed() if isinstance(label, GammaLabel) else label


def _perm_str(p: Perm) -> str:
    cycs = p.cycles()
    if not cycs:
        return "id"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


class Edge(NamedTuple):
    tail: object
    head: object
    label: object


def label_to_json(label) -> object:
    if isinstance(label, GammaLabel):
        return label.to_json()
    return label


def label_from_json(data) -> object:
    if isinstance(data, dict) and set(data) == {"pre", "cyl", "post"}:
        return GammaLabel.from_json(data)
    return json_checked(data, JSON_SCALAR, "edge label")


def label_sort_key(label) -> str:
    """A deterministic (not semantic) ordering key for arbitrary labels.  It
    orders labels; it is not an identity key, since labels that compare
    equal (``1`` and ``1.0``) can serialise differently."""
    return json.dumps(label_to_json(label), sort_keys=True, default=str)


class Graph:
    def __init__(self, symmetric: bool = False):
        self.symmetric = symmetric
        self._vertices: dict = {}          # insertion-ordered set
        self.edges: dict[str, Edge] = {}
        self.pairing: dict[str, str] = {}  # edge id -> twin id (symmetric mode)
        self._auto = 0
        self._adj: tuple | None = None     # cached (out, in) adjacency

    # -- construction ------------------------------------------------------

    def add_vertex(self, v) -> None:
        self._vertices.setdefault(v, None)
        self._adj = None

    def add_vertices(self, vs: Iterable) -> None:
        for v in vs:
            self.add_vertex(v)

    def _fresh_eid(self) -> str:
        while True:
            eid = f"e{self._auto}"
            self._auto += 1
            if eid not in self.edges:
                return eid

    def add_edge(self, tail, head, label=None, eid: str | None = None) -> str:
        if tail not in self._vertices:
            raise DomainError(f"unknown tail vertex {tail!r}")
        if head not in self._vertices:
            raise DomainError(f"unknown head vertex {head!r}")
        if eid is None:
            eid = self._fresh_eid()
        else:
            eid = str(eid)
            if eid in self.edges:
                raise DomainError(f"duplicate edge id {eid!r}")
        self.edges[eid] = tuple.__new__(Edge, (tail, head, label))  # skips NamedTuple's Python-level __new__
        self._adj = None
        return eid

    def add_sym_edge(self, u, v, label=None, eid: str | None = None, twin_eid: str | None = None) -> tuple[str, str]:
        """Add an undirected edge as a pair of reverse twins.

        The twin's label is the reverse of a :class:`GammaLabel`, otherwise
        the same value.  Works for loops too (two paired directed loops).
        """
        if not self.symmetric:
            raise DomainError("add_sym_edge on a non-symmetric graph")
        e1 = self.add_edge(u, v, label, eid)
        e2 = self.add_edge(v, u, _reversed(label), twin_eid)
        self.pair_edges(e1, e2)
        return e1, e2

    def pair_edges(self, e1: str, e2: str) -> None:
        a, b = self.edges.get(e1), self.edges.get(e2)
        if a is None or b is None:
            raise DomainError(f"cannot pair {e1!r} with {e2!r}: no such edge")
        if (a.tail, a.head) != (b.head, b.tail):
            raise DomainError(f"edges {e1!r}, {e2!r} are not mutual reverses")
        if e1 == e2:
            raise DomainError("an edge cannot be its own twin")
        self.pairing[e1] = e2
        self.pairing[e2] = e1

    # -- views -------------------------------------------------------------

    @property
    def vertices(self) -> list:
        return list(self._vertices)

    def has_vertex(self, v) -> bool:
        try:
            return v in self._vertices
        except TypeError:  # an unhashable value names no vertex
            return False

    def _adjacency(self):
        if self._adj is None:
            out: dict = {v: [] for v in self._vertices}
            inn: dict = {v: [] for v in self._vertices}
            for eid, e in self.edges.items():
                out[e.tail].append(eid)
                inn[e.head].append(eid)
            self._adj = (out, inn)
        return self._adj

    def out_edges(self, v) -> list[str]:
        return self._adjacency()[0][v]

    def in_edges(self, v) -> list[str]:
        return self._adjacency()[1][v]

    def neighbour_sets(self) -> dict:
        """vertex -> set of vertices sharing an edge with it, in either
        direction (a loop makes a vertex its own neighbour)."""
        nbrs: dict = {v: set() for v in self._vertices}
        for e in self.edges.values():
            nbrs[e.tail].add(e.head)
            nbrs[e.head].add(e.tail)
        return nbrs

    def isolated_vertices(self) -> list:
        return [v for v in self._vertices if not self.out_edges(v) and not self.in_edges(v)]

    def canonical_edges(self) -> list[str]:
        """All edge ids, one per twin pair (the pair's smaller id)."""
        return [eid for eid in self.edges if eid <= self.pairing.get(eid, eid)]

    def with_twin(self, eid: str) -> tuple:
        """``(eid, its twin)``, or ``(eid,)`` when it has none."""
        return (eid, self.pairing[eid]) if eid in self.pairing else (eid,)

    def _linker(self):
        """How a builder joins two vertices: ``add_sym_edge``, or ``add_edge`` on a directed graph."""
        return self.add_sym_edge if self.symmetric else self.add_edge

    def has_gamma_labels(self) -> bool:
        return all(isinstance(e.label, GammaLabel) for e in self.edges.values())

    def validate(self) -> None:
        verts, edges, pairing = self._vertices, self.edges, self.pairing
        for eid, (tail, head, _) in edges.items():
            if tail not in verts or head not in verts:
                raise DomainError(f"edge {eid!r} has a missing endpoint")
        if self.symmetric:
            if pairing.keys() != edges.keys():
                missing = set(edges) - set(pairing)
                raise DomainError(f"symmetric graph with unpaired edges: {sorted(missing)[:5]}")
            for eid, tw in pairing.items():
                if pairing.get(tw) != eid or tw == eid:
                    raise DomainError(f"pairing is not a fixed-point-free involution at {eid!r}")
                (at, ah, al), (bt, bh, bl) = edges[eid], edges[tw]
                if (at, ah) != (bh, bt):
                    raise DomainError(f"paired edges {eid!r}/{tw!r} are not mutual reverses")
                if isinstance(al, GammaLabel):  # bl == al.reversed(), field by field
                    twin = type(bl) is GammaLabel and (bl.pre, bl.key, bl.post) == (al.post, al.key, al.pre)
                else:
                    twin = bl == al
                if not twin:
                    raise LabelConflict(f"paired edges {eid!r}/{tw!r} carry incompatible labels")
        elif pairing:
            raise DomainError("non-symmetric graph must not carry a pairing")

    # -- equality and copying ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.symmetric == other.symmetric
            and set(self._vertices) == set(other._vertices)
            and self.edges == other.edges
            and self.pairing == other.pairing
        )

    def __hash__(self):
        raise TypeError("graphs are not hashable")

    def __repr__(self) -> str:
        kind = "sym" if self.symmetric else "dir"
        return f"Graph({kind}, {len(self._vertices)} vertices, {len(self.edges)} edges)"

    def copy(self) -> Graph:
        g = Graph(self.symmetric)
        g._vertices = dict(self._vertices)
        g.edges = dict(self.edges)
        g.pairing = dict(self.pairing)
        g._auto = self._auto
        return g

    # -- structural operations ----------------------------------------------

    def induced(self, keep: Iterable) -> Graph:
        keep = set(keep)
        unknown = keep - set(self._vertices)
        if unknown:
            raise DomainError(f"unknown vertices {sorted(map(str, unknown))[:5]}")
        g = Graph(self.symmetric)
        g._vertices = dict.fromkeys(v for v in self._vertices if v in keep)
        g.edges = {eid: e for eid, e in self.edges.items() if e.tail in keep and e.head in keep}
        g.pairing = {eid: tw for eid, tw in self.pairing.items() if eid in g.edges and tw in g.edges}
        return g

    def reduced(self) -> Graph:
        """Drop isolated vertices."""
        iso = set(self.isolated_vertices())
        return self.induced(v for v in self._vertices if v not in iso)

    def with_labels(self, labels: Mapping) -> Graph:
        """Copy with edge ``eid`` labeled ``labels[eid]``; vertices, edge ids
        and pairing (and their insertion order) stay.  An edge missing from
        ``labels`` takes its twin's label, reversed as in
        :meth:`add_sym_edge`; with neither present it raises
        :class:`DomainError`."""

        def from_twin(eid: str):
            tw = self.pairing.get(eid, eid)
            if tw not in labels:
                raise DomainError(f"no label for edge {eid!r} or its twin")
            return _reversed(labels[tw])

        g = Graph(self.symmetric)
        g._vertices = dict(self._vertices)
        g.edges = {
            eid: tuple.__new__(Edge, (tail, head, labels[eid] if eid in labels else from_twin(eid)))
            for eid, (tail, head, _) in self.edges.items()
        }
        g.pairing = dict(self.pairing)
        return g

    def stripped(self) -> Graph:
        """Forget all edge labels (same vertices, edges, and pairing)."""
        return self.with_labels(dict.fromkeys(self.edges))

    def relabel(self, mapping: Mapping) -> Graph:
        """Rename vertices injectively (vertices not in the mapping keep their name)."""
        tr = {v: mapping.get(v, v) for v in self._vertices}
        if len(set(tr.values())) != len(tr):
            raise DomainError("relabel mapping is not injective")
        return identify_vertices(self, tr)

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> dict:
        data = {
            "symmetric": self.symmetric,
            "vertices": sorted(self._vertices, key=str),
            "edges": [
                {"id": eid, "tail": e.tail, "head": e.head, "label": label_to_json(e.label)}
                for eid, e in sorted(self.edges.items())
            ],
        }
        if self.symmetric:
            data["pairing"] = {eid: self.pairing[eid] for eid in sorted(self.pairing)}
        return data

    @classmethod
    def from_json(cls, data: dict) -> Graph:
        g = cls(bool(json_checked(data, dict, "graph").get("symmetric", False)))
        vertices = json_checked(data.get("vertices"), list, "'vertices'")
        g.add_vertices(json_checked(v, JSON_SCALAR, "vertex name") for v in vertices)
        # one object per distinct GammaLabel, which label audits memoise by; keys that compare equal but
        # write other JSON (1 and 1.0, 0.0 and -0.0) differ under ``str`` and stay apart
        interned: dict = {}
        for i, rec in enumerate(json_checked(data.get("edges"), list, "'edges'")):
            if not isinstance(rec, dict) or "tail" not in rec or "head" not in rec:
                raise DomainError(f"edge #{i} needs 'tail' and 'head'")
            tail, head = (json_checked(rec[end], JSON_SCALAR, f"edge #{i} {end!r}") for end in ("tail", "head"))
            label = label_from_json(rec.get("label"))
            if isinstance(label, GammaLabel):
                label = interned.setdefault((label, str(label.key)), label)
            g.add_edge(tail, head, label, rec.get("id"))
        for eid, tw in json_checked(data.get("pairing", {}), dict, "'pairing'").items():
            g.pair_edges(eid, json_checked(tw, JSON_SCALAR, "'pairing' twin"))
        g.validate()
        return g

    def to_dot(self) -> str:
        def q(x) -> str:
            return '"' + str(x).replace('"', r"\"") + '"'

        kind, arrow = ("graph", "--") if self.symmetric else ("digraph", "->")
        lines = [f'{kind} "G" {{']
        for v in sorted(self._vertices, key=str):
            lines.append(f"  {q(v)};")
        for eid in sorted(self.canonical_edges()):
            e = self.edges[eid]
            attr = "" if e.label is None else f" [label={q(e.label)}]"
            lines.append(f"  {q(e.tail)} {arrow} {q(e.head)}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- quotients and gluing ----------------------------------------------------


def _root(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]  # path halving
    return x


def _union(parent: list, a: int, b: int) -> None:
    """Weld the classes of ids ``a`` and ``b``; the smaller root stays root."""
    ra, rb = _root(parent, a), _root(parent, b)
    parent[max(ra, rb)] = min(ra, rb)


def _class_names(parent: list, names: list) -> tuple[list, list]:
    """The root and the class name of every id in ``parent``: its smallest
    member name in ``str`` order, the earliest of names that tie."""
    root = [_root(parent, x) for x in range(len(parent))]
    best: dict = {}
    for x, r in enumerate(root):
        if r not in best or str(names[x]) < str(names[best[r]]):
            best[r] = x
    return root, [names[best[r]] for r in root]


def _weld(names: list, pairs: Iterable) -> dict:
    """name -> class name (see :func:`_class_names`) once each pair is welded."""
    ids = {v: i for i, v in enumerate(names)}
    parent = list(range(len(names)))
    for a, b in pairs:
        _union(parent, ids[a], ids[b])
    return dict(zip(names, _class_names(parent, names)[1]))


def identify_vertices(g: Graph, mapping: Mapping) -> Graph:
    """Quotient: send each vertex through ``mapping`` (vertices absent from the
    mapping keep their name).  Parallel edges and loops created by the
    identification are kept; edge ids survive."""
    tr = {v: mapping.get(v, v) for v in g.vertices}
    out = Graph(g.symmetric)
    for v in g.vertices:
        out.add_vertex(tr[v])
    for eid, e in g.edges.items():
        out.add_edge(tr[e.tail], tr[e.head], e.label, eid)
    out.pairing = dict(g.pairing)
    return out


def merge_parallel(g: Graph) -> Graph:
    """Collapse same-label parallel edges, keeping the lowest edge id of each
    bundle.  The merge works on twin pairs, so a loop keeps its twin (one
    undirected loop survives as two paired directed loops)."""
    out = Graph(g.symmetric)
    out.add_vertices(g.vertices)
    seen: set = set()
    for eid in sorted(g.canonical_edges()):
        ids = g.with_twin(eid)
        edges = [g.edges[x] for x in ids]
        key = frozenset(edges)
        if key not in seen:
            seen.add(key)
            for x, e in zip(ids, edges):
                out.add_edge(e.tail, e.head, e.label, x)
            if len(ids) == 2:
                out.pair_edges(*ids)
    return out


def disjoint_union(a: Graph, b: Graph, suffixes: tuple[str, str] = (".0", ".1")) -> Graph:
    """Disjoint union; every vertex and edge id gets the side's suffix.  Two
    source vertices that would get one name (``1`` and ``"1"``, or ``"ax"``
    and ``"a"`` under suffixes ``("", "x")``) raise :class:`DomainError`."""
    if a.symmetric != b.symmetric:
        raise DomainError("cannot union a symmetric with a non-symmetric graph")
    out = Graph(a.symmetric)
    source: dict = {}  # new vertex name -> the source vertex that took it
    for g, sfx in ((a, suffixes[0]), (b, suffixes[1])):
        for v in g.vertices:
            name = f"{v}{sfx}"
            if name in source:
                raise DomainError(f"vertex names collide after suffixing: {source[name]!r} and {v!r} both become "
                                  f"{name!r}; rename the source vertices")
            source[name] = v
            out.add_vertex(name)
        for eid, e in g.edges.items():
            out.add_edge(f"{e.tail}{sfx}", f"{e.head}{sfx}", e.label, f"{eid}{sfx}")
        for eid, tw in g.pairing.items():
            out.pairing[f"{eid}{sfx}"] = f"{tw}{sfx}"
    return out


# -- search order and isomorphism ---------------------------------------------


def node_budget() -> int:
    """A search's node budget, read from ``CYL_NODE_BUDGET`` (default
    20,000,000) when the search starts.  It must be a non-negative integer;
    anything else raises :class:`DomainError` naming the variable."""
    raw = os.environ.get("CYL_NODE_BUDGET", "20000000")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise DomainError(f"CYL_NODE_BUDGET must be a non-negative integer, got {raw!r}")
    return n


class _Budget:
    """One search's or count's nodes: ``spend`` raises :class:`ResourceLimit`,
    naming ``what``, once more than ``node_budget()`` have gone."""

    __slots__ = ("left", "limit", "what")

    def __init__(self, what: str = "homomorphism search"):
        self.left = self.limit = node_budget()
        self.what = what

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise ResourceLimit(f"{self.what} exceeded its node budget of {self.limit} nodes; "
                                "raise CYL_NODE_BUDGET")


def connected_order(ranked: list, nbrs: Mapping, eligible: Iterable = ()) -> list:
    """Repeatedly take the first remaining vertex of ``ranked`` that is
    ``eligible`` or adjacent (by ``nbrs``) to a placed one, else the first
    remaining vertex.  With none ``eligible``, each weakly connected component
    is one run, starting exactly at a vertex with no earlier neighbour.
    Qualifying ranks wait on a heap and go stale lazily once placed:
    O((V + E) log V), and names are never compared."""
    rank = {v: i for i, v in enumerate(ranked)}
    ready = sorted({rank[v] for v in eligible if v in rank})
    placed = [False] * len(ranked)
    first = 0
    order: list = []
    while len(order) < len(ranked):
        while ready and placed[ready[0]]:
            heapq.heappop(ready)
        if ready:
            i = heapq.heappop(ready)
        else:
            while placed[first]:
                first += 1
            i = first
        placed[i] = True
        v = ranked[i]
        order.append(v)
        for x in nbrs[v]:
            if not placed[rank[x]]:
                heapq.heappush(ready, rank[x])
    return order


def _invariants(g: Graph) -> dict:
    inv: dict = {}
    for v in g.vertices:
        outs = Counter(g.edges[eid].label for eid in g.out_edges(v))
        ins = Counter(g.edges[eid].label for eid in g.in_edges(v))
        loops = sum(1 for eid in g.out_edges(v) if g.edges[eid].head == v)
        inv[v] = (frozenset(outs.items()), frozenset(ins.items()), loops)
    for _ in range(2):  # rounds of neighbourhood refinement
        nxt = {}
        for v in g.vertices:
            around = Counter()
            for eid in g.out_edges(v):
                e = g.edges[eid]
                around[("o", e.label, inv[e.head])] += 1
            for eid in g.in_edges(v):
                e = g.edges[eid]
                around[("i", e.label, inv[e.tail])] += 1
            nxt[v] = (inv[v], frozenset(around.items()))
        inv = nxt
    return inv


def _label_table(g: Graph) -> dict:
    """vertex -> {(direction, other end): Counter of labels} over its edges;
    direction ``"o"`` for out-edges, ``"i"`` for in-edges.  A loop at ``v``
    is kept once, under ``("o", v)``."""
    table: dict = {v: defaultdict(Counter) for v in g.vertices}
    for e in g.edges.values():
        table[e.tail][("o", e.head)][e.label] += 1
        if e.tail != e.head:
            table[e.head][("i", e.tail)][e.label] += 1
    return table


def isomorphic(g: Graph, h: Graph) -> dict | None:
    """Search for a label-preserving digraph isomorphism.

    Returns ``{"vertices": vmap, "edges": emap}`` or None.  Refined
    degree/label invariants give the candidate classes; source vertices are
    mapped rarest class first, in :func:`connected_order`.  Acceptance reads
    only neighbourhoods (the VF2 feasibility rule): ``w`` fits ``u`` when
    their loops carry the same labels, each mapped neighbour ``x`` of ``u``
    is joined to ``u`` by the same labels, both ways, as ``vmap[x]`` is to
    ``w``, and ``w`` has no other neighbours among the used images.  The
    search keeps an explicit stack, so any size avoids the recursion limit.
    Each candidate tried (used images skipped) costs one node; past
    ``CYL_NODE_BUDGET`` nodes it raises :class:`ResourceLimit`.
    """
    spend = _Budget("isomorphism search").spend
    if g.symmetric != h.symmetric:
        return None
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    gi = _invariants(g)
    hi = _invariants(h)
    if Counter(gi.values()) != Counter(hi.values()):
        return None

    by_inv: dict = defaultdict(list)
    for v in h.vertices:
        by_inv[hi[v]].append(v)
    ranked = sorted(g.vertices, key=lambda v: (len(by_inv[gi[v]]), str(v)))
    order = connected_order(ranked, g.neighbour_sets())
    gtab, htab = _label_table(g), _label_table(h)

    vmap: dict = {}
    used: set = set()

    def fits(u, w) -> bool:
        tu, tw = gtab[u], htab[w]
        if tu.get(("o", u)) != tw.get(("o", w)):
            return False
        mapped = 0
        for (d, x), labels in tu.items():
            if x in vmap:
                if tw.get((d, vmap[x])) != labels:
                    return False
                mapped += 1
        return mapped == sum(1 for _, y in tw if y in used)

    stack = [iter(by_inv[gi[order[0]]])] if order else []
    while len(vmap) < len(order):
        if not stack:
            return None
        i = len(stack) - 1
        u = order[i]
        for w in stack[i]:
            if w in used:
                continue
            spend()
            if fits(u, w):
                vmap[u] = w
                used.add(w)
                break
        else:
            stack.pop()
            if i:
                used.remove(vmap.pop(order[i - 1]))
            continue
        if i + 1 < len(order):
            stack.append(iter(by_inv[gi[order[i + 1]]]))

    emap: dict = {}
    buckets: dict = defaultdict(list)
    for eid in sorted(h.edges):
        e = h.edges[eid]
        buckets[(e.tail, e.head, e.label)].append(eid)
    for eid in sorted(g.edges):
        e = g.edges[eid]
        emap[eid] = buckets[(vmap[e.tail], vmap[e.head], e.label)].pop(0)
    return {"vertices": vmap, "edges": emap}
