"""``Graph.canonical_edges``, ``Graph.with_twin``, ``hom._dedupe_classes``
and the ``emap`` key layout against frozen copies of their earlier versions,
which branched on ``Graph.symmetric`` where the library now asks the pairing
whether an edge has a twin.  The draws cover both kinds of graph, twin loops
and parallel twin pairs."""

import random
from collections import Counter

from cylgraph.core import GammaLabel
from cylgraph.hom import Homomorphism, _dedupe_classes, _emap_keys, _src_edges
from cylgraph.perm import Perm

from util import random_multigraph


def canonical_edges_oracle(g):
    if not g.symmetric:
        return list(g.edges)
    return [eid for eid in g.edges if eid <= g.pairing.get(eid, eid)]


def with_twin_oracle(g, eid):
    return (eid, g.pairing[eid]) if g.symmetric else (eid,)


def dedupe_oracle(h, eids):
    if not h.symmetric:
        return eids
    seen = set()
    out = []
    for f in eids:
        cls = frozenset({f, h.pairing.get(f, f)})
        if cls not in seen:
            seen.add(cls)
            out.append(f)
    return out


def emap_layout_oracle(g, h, src):
    return src + [g.pairing[eid] for eid in src] if g.symmetric else src, h.pairing if g.symmetric else None


def built_emap(keys_and_twins, pick) -> list:
    """The edge map, in insertion order, that a searched map with edge picks
    ``pick`` builds from this layout on first read.  Its vertex images, which
    follow the picks in its record, play no part in the edge map, so the
    record here holds the picks alone."""
    hom = object.__new__(Homomorphism)
    hom._picked = ((*keys_and_twins, range(len(pick)), [], []), pick)
    return list(hom.emap.items())


S2 = Perm([2, 1])
LABELS = (None, "a", GammaLabel(S2, "r", Perm.identity(2)), GammaLabel(S2, "s", S2))


def test_the_pairing_decides_twins_as_the_kind_did():
    rng = random.Random(2626)
    seen = Counter()
    for i in range(400):
        symmetric = i % 2 == 0
        n = rng.randint(1, 4)
        g = random_multigraph(rng, n, rng.randint(0, 3 * n), labels=LABELS, symmetric=symmetric)
        h = random_multigraph(rng, n, rng.randint(0, 3 * n), labels=LABELS, symmetric=symmetric)

        assert g.canonical_edges() == canonical_edges_oracle(g)
        for eid in g.edges:
            assert g.with_twin(eid) == with_twin_oracle(g, eid)

        # the matcher dedupes the loops at one target vertex; any list of distinct ids must agree too
        lists = [[f for f in sorted(h.edges) if h.edges[f].tail == h.edges[f].head == v] for v in h.vertices]
        lists.append(rng.sample(sorted(h.edges), rng.randint(0, len(h.edges))))
        for eids in lists:
            assert _dedupe_classes(h, eids) == dedupe_oracle(h, eids)

        src = _src_edges(g)
        if h.edges or not src:
            pick = tuple(rng.choice(sorted(h.edges)) for _ in src)
            assert built_emap(_emap_keys(g, h, src), pick) == built_emap(emap_layout_oracle(g, h, src), pick)

        ends = Counter(frozenset(g.edges[eid][:2]) for eid in canonical_edges_oracle(g))
        seen["symmetric" if symmetric else "directed"] += 1
        if symmetric:
            seen["twin loops"] += sum(len(e) == 1 for e in ends.elements())
            seen["parallel pairs"] += sum(c - 1 for c in ends.values())
    assert seen["symmetric"] == seen["directed"] == 200
    assert seen["twin loops"] >= 100 and seen["parallel pairs"] >= 100, seen
