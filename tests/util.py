"""Small graph builders shared by the test modules."""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

from cylgraph.core import GammaLabel, Graph

SRC = str(Path(__file__).resolve().parents[1] / "src")


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle in the undirected view without loops or
    parallel edges (None if acyclic), by BFS from every root."""
    adj: dict = {v: set() for v in g.vertices}
    for e in g.edges.values():
        if e.tail != e.head:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
    best = None
    for root in g.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def components(g: Graph) -> list[list]:
    """Weakly connected components, each sorted by ``str``, in the order of
    their first vertex, by depth-first search."""
    nbrs = g.neighbour_sets()
    seen: set = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        comp, stack = [], [v]
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in nbrs[x] - seen:
                seen.add(y)
                stack.append(y)
        comps.append(sorted(comp, key=str))
    return comps


def without_loops(g: Graph) -> Graph:
    """A copy of ``g`` without its loops; every other edge keeps its id,
    label and twin."""
    out = Graph(g.symmetric)
    out.add_vertices(g.vertices)
    for eid, e in g.edges.items():
        if e.tail != e.head:
            out.add_edge(e.tail, e.head, e.label, eid)
    out.pairing = {eid: tw for eid, tw in g.pairing.items() if eid in out.edges}
    return out


def degree(g: Graph, v) -> int:
    """Out-degree; for symmetric graphs this is the undirected degree (a twin
    loop pair contributes 2)."""
    return len(g.out_edges(v))


def pair_class(g: Graph, eid: str) -> frozenset:
    """The edge ``eid`` with its twin, if it has one."""
    return frozenset({eid, g.pairing.get(eid, eid)})


def hom_key(h) -> tuple:
    """A homomorphism's vertex and edge maps as sorted item tuples, for
    comparing maps whatever order their dicts were filled in."""
    return (
        tuple(sorted(h.vmap.items(), key=str)),
        tuple(sorted(h.emap.items(), key=str)),
    )


def act(x, g):
    """The right action of permutation ``g`` on the length-k sequence ``x``:
    ``act(x, g)[i] == x[g(i)]``."""
    return g.act(x)


def cycle(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n):
        g.add_sym_edge(i, (i + 1) % n)
    return g


def complete(n):
    g = Graph(symmetric=True)
    g.add_vertices(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_sym_edge(i, j)
    return g


def path_graph(n):
    """Path with n edges on vertices 0..n."""
    g = Graph(symmetric=True)
    g.add_vertices(range(n + 1))
    for i in range(n):
        g.add_sym_edge(i, i + 1)
    return g


def random_graph(rng, n, p=0.5, symmetric=True, loops=False, keep_isolated=True):
    g = Graph(symmetric=symmetric)
    g.add_vertices(range(n))
    for i in range(n):
        for j in range(i if loops else i + 1, n):
            if rng.random() < p:
                if symmetric:
                    g.add_sym_edge(i, j)
                elif rng.random() < 0.5:
                    g.add_edge(i, j)
                else:
                    g.add_edge(j, i)
    if not keep_isolated:
        lonely = g.isolated_vertices()
        vs = [v for v in g.vertices if v not in set(lonely)]
        g = g.induced(vs)
    return g


def random_gamma_labels(rng, g, cset):
    """Relabel every edge of ``g`` with a random cylinder key and random
    twists drawn from the set's group."""
    out = Graph(symmetric=g.symmetric)
    out.add_vertices(g.vertices)
    keys = sorted(cset.keys(), key=str)
    elems = list(cset.group)
    for eid in sorted(g.canonical_edges()):
        e = g.edges[eid]
        lab = GammaLabel(rng.choice(elems), rng.choice(keys), rng.choice(elems))
        if g.symmetric:
            out.add_sym_edge(e.tail, e.head, lab, eid, g.pairing[eid])
        else:
            out.add_edge(e.tail, e.head, lab, eid)
    return out


def tied_names(g):
    """Rename vertex i to i // 2 or str(i // 2), so that pairs such as 1 and
    "1" tie under ``str``."""
    return g.relabel({v: v // 2 if v % 2 == 0 else str(v // 2) for v in g.vertices})


def pool_scan(ranked, nbrs, eligible=()):
    """The quadratic order ``connected_order`` replaced, kept as its oracle:
    take the first pool vertex that is eligible or touches a placed one,
    else the first pool vertex."""
    pool = list(ranked)
    placed: set = set()
    order = []
    while pool:
        pick = next((v for v in pool if v in eligible or nbrs[v] & placed), pool[0])
        pool.remove(pick)
        placed.add(pick)
        order.append(pick)
    return order


def random_multigraph(rng, n, m, labels=(None, "a", "b"), symmetric=False):
    """n vertices and m random edges (or twin pairs), loops and parallels
    allowed, labels drawn from ``labels``."""
    g = Graph(symmetric=symmetric)
    g.add_vertices(range(n))
    for _ in range(m if n else 0):
        u, v, lab = rng.randrange(n), rng.randrange(n), rng.choice(labels)
        if symmetric:
            g.add_sym_edge(u, v, lab)
        else:
            g.add_edge(u, v, lab)
    return g


def shuffled_relabel(rng, g):
    """An isomorphic copy of ``g`` with fresh vertex names, vertices and
    edges inserted in a shuffled order."""
    names = {v: f"w{i}" for i, v in enumerate(rng.sample(g.vertices, len(g.vertices)))}
    out = Graph(symmetric=g.symmetric)
    out.add_vertices(rng.sample(list(names.values()), len(names)))
    eids = list(g.edges)
    rng.shuffle(eids)
    for eid in eids:
        e = g.edges[eid]
        out.add_edge(names[e.tail], names[e.head], e.label, eid)
    out.pairing = dict(g.pairing)
    return out


def iso_error(g, h, found):
    """Why ``found`` is not a label-preserving isomorphism g -> h (None if it is)."""
    vmap, emap = found["vertices"], found["edges"]
    if set(vmap) != set(g.vertices) or set(vmap.values()) != set(h.vertices) or len(vmap) != len(h.vertices):
        return "vertex map is not a bijection"
    if set(emap) != set(g.edges) or set(emap.values()) != set(h.edges) or len(emap) != len(h.edges):
        return "edge map is not a bijection"
    for eid, e in g.edges.items():
        img = h.edges[emap[eid]]
        if (vmap[e.tail], vmap[e.head], e.label) != (img.tail, img.head, img.label):
            return f"edge {eid!r} is not preserved"
    return None


def outputs_under_hash_seeds(script, seeds=range(13)):
    """The distinct standard outputs of ``python -c script`` run once under
    each ``PYTHONHASHSEED`` in ``seeds``."""
    outputs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        outputs.add(run.stdout)
    return outputs
