"""``iter_homs`` against a frozen copy of its earlier enumeration kernel, kept
as a differential oracle: a vertex search that tries every target vertex at
every unpinned position, the twist search, and an emission loop that looks up
each source edge's candidate table again and walks the edge choices with a
generator.  The library must yield the same maps in the same order (vertex
map, edge map and twists, insertion order included), spend the same nodes,
and give the same ``find_hom`` verdict at every small budget."""

import random
from collections import Counter

import pytest

from cylgraph import hom
from cylgraph.catalog import complete_graph, cycle_graph, path_graph, petersen
from cylgraph.construct import exponential, uniform_labels
from cylgraph.core import GammaLabel, Graph
from cylgraph.cylinder import CylinderSet, path_cyl, wedge_cyl
from cylgraph.errors import ResourceLimit
from cylgraph.hom import _alpha_vertices, _Matcher, _src_edges, _vertex_order, find_hom, iter_homs
from cylgraph.perm import PermGroup

from util import random_multigraph, tied_names

_SELF = object()
_LOOP = 2


class Nodes:
    """The node counter the oracle spends: raises once more than its
    budget has gone."""

    def __init__(self, n):
        self.left = n

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceLimit("oracle search exceeded its node budget")


class OracleSearch:
    """The vertex-map and twist search as it stood before candidates were
    drawn from target neighbours."""

    def __init__(self, g, h, mode, group, pins):
        self.matcher = _Matcher(g, h, mode, group)
        self.src = _src_edges(g)
        self.ends = [g.edges[eid][:2] for eid in self.src]
        hverts = sorted(h.vertices, key=str)
        self.order = _vertex_order(g, pins)
        self.cands = [[pins[u]] if u in pins else hverts for u in self.order]
        placed = {u: i for i, u in enumerate(self.order)}
        self.back = [[] for _ in self.order]
        for eid, (tail, head) in zip(self.src, self.ends):
            i, j = placed[tail], placed[head]
            if i >= j:
                self.back[i].append((eid, _SELF, _SELF if i == j else head))
            else:
                self.back[j].append((eid, tail, _SELF))
        self.verts = None
        if mode == "gamma":
            self.elements = list(group)
            self.verts = _alpha_vertices(g)
            at = {v: i for i, v in enumerate(self.verts)}
            self.ends_at = [(at[tail], at[head]) for tail, head in self.ends]
            self.twist_checks = [[] for _ in self.verts]
            for k, (i, j) in enumerate(self.ends_at):
                if i == j:
                    self.twist_checks[i].append((k, _LOOP, None))
                else:
                    self.twist_checks[i].append((k, 0, j if j < i else None))
                    self.twist_checks[j].append((k, 1, i if i < j else None))

    def vmaps(self, budget):
        order, cands, back = self.order, self.cands, self.back
        table = self.matcher.table
        vmap = {}
        if not order:
            yield vmap
            return
        last = len(order) - 1
        stack = [iter(cands[0])]
        while stack:
            i = len(stack) - 1
            for w in stack[i]:
                budget.spend()
                for eid, tail, head in back[i]:
                    if not table(eid, w if tail is _SELF else vmap[tail], w if head is _SELF else vmap[head]):
                        break
                else:
                    vmap[order[i]] = w
                    break
            else:
                stack.pop()
                if i:
                    del vmap[order[i - 1]]
                continue
            if i < last:
                stack.append(iter(cands[i + 1]))
            else:
                yield vmap
                del vmap[order[i]]

    def _allowed(self, i, tabs, imgs):
        acc = None
        for k, side, j in self.twist_checks[i]:
            tab = tabs[k]
            if side == _LOOP:
                got = {t for t, s in tab if t == s}
            elif j is None:
                got = {ts[side] for ts in tab}
            else:
                want, other = imgs[j], 1 - side
                got = {ts[side] for ts in tab if ts[other] == want}
            acc = got if acc is None else acc & got
            if not acc:
                break
        return {tuple(a) for a in self.elements} if acc is None else acc

    def twist_vectors(self, tabs, budget):
        n = len(self.verts)
        chosen = [None] * n
        imgs = [None] * n
        if not n:
            yield chosen, []
            return
        stack = [iter(self.elements)]
        allowed = [self._allowed(0, tabs, imgs)]
        while stack:
            i = len(stack) - 1
            for a in stack[i]:
                budget.spend()
                if tuple(a) in allowed[i]:
                    chosen[i], imgs[i] = a, tuple(a)
                    break
            else:
                stack.pop()
                allowed.pop()
                continue
            if i + 1 < n:
                allowed.append(self._allowed(i + 1, tabs, imgs))
                stack.append(iter(self.elements))
            else:
                yield chosen, [tab[imgs[t], imgs[hd]] for tab, (t, hd) in zip(tabs, self.ends_at)]


def oracle_edge_choices(lists, budget):
    n = len(lists)
    free = [i for i, c in enumerate(lists) if len(c) > 1]
    at = [0] * len(free)
    pick = [c[0] for c in lists]
    if n:
        budget.spend(n)
    while True:
        yield pick
        k = len(free) - 1
        while k >= 0 and at[k] + 1 == len(lists[free[k]]):
            at[k] = 0
            pick[free[k]] = lists[free[k]][0]
            k -= 1
        if k < 0:
            return
        i = free[k]
        at[k] += 1
        pick[i] = lists[i][at[k]]
        budget.spend(n - i)


def oracle_homs(g, h, mode, group, pins, budget):
    """(vmap items, emap items, twist items or None) per map, in order."""
    search = OracleSearch(g, h, mode, group, pins)
    src, verts = search.src, search.verts
    table = search.matcher.table
    twins = [g.pairing[eid] for eid in src] if g.symmetric else ()
    for vmap in search.vmaps(budget):
        tabs = [table(eid, vmap[t], vmap[hd]) for eid, (t, hd) in zip(src, search.ends)]
        for chosen, lists in [(None, tabs)] if verts is None else search.twist_vectors(tabs, budget):
            for pick in oracle_edge_choices(lists, budget):
                emap = dict(zip(src, pick))
                for tw, f in zip(twins, pick):
                    emap[tw] = h.pairing[f]
                alphas = None if chosen is None else [(v, tuple(a)) for v, a in zip(verts, chosen)]
                yield list(vmap.items()), list(emap.items()), alphas


def fingerprint(x):
    alphas = None if x.alphas is None else [(v, tuple(a)) for v, a in x.alphas.items()]
    return list(x.vmap.items()), list(x.emap.items()), alphas


def library_run(monkeypatch, g, h, mode, group, pins, budget):
    """The library's maps and the nodes it had left after the last one."""
    made = []

    class Recording(hom._Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(hom, "_Budget", Recording)
        m.setenv("CYL_NODE_BUDGET", str(budget))
        maps = [fingerprint(x) for x in iter_homs(g, h, mode=mode, group=group, pins=pins)]
    (spent,) = made
    return maps, spent.left


def first_or_limit(run):
    try:
        return next(run, None)
    except ResourceLimit:
        return "ResourceLimit"


def gamma_graph(rng, n, m, symmetric, perms):
    """n vertices and m random edges (twin pairs when symmetric), loops and
    parallels allowed, each labelled with a random key and random twists."""
    g = Graph(symmetric=symmetric)
    g.add_vertices(range(n))
    for _ in range(m if n else 0):
        lab = GammaLabel(rng.choice(perms), rng.choice((0, 1)), rng.choice(perms))
        (g.add_sym_edge if symmetric else g.add_edge)(rng.randrange(n), rng.randrange(n), lab)
    return g


def random_instance(rng):
    mode = rng.choice(("plain", "labeled", "gamma"))
    symmetric = rng.random() < 0.5
    group = None
    if mode == "gamma":
        group = rng.choice([PermGroup.trivial(2), PermGroup.symmetric(2), PermGroup.cyclic(3)])
        # labels drawn partly from outside the group, so some twists fail
        perms = list(PermGroup.symmetric(group.degree)) if rng.random() < 0.5 else list(group)
        g = gamma_graph(rng, rng.randint(0, 4), rng.randint(0, 5), symmetric, perms)
        h = gamma_graph(rng, rng.randint(1, 3), rng.randint(2, 8), symmetric, perms)
    else:
        n = rng.randint(0, 5)
        g = random_multigraph(rng, n, rng.randint(0, n + 3), symmetric=symmetric)
        k = rng.randint(1, 4)
        h = random_multigraph(rng, k, rng.randint(k, 3 * k + 2), symmetric=symmetric)
    pins = {}
    if g.vertices and rng.random() < 0.4:
        pins = {v: rng.choice(h.vertices) for v in rng.sample(g.vertices, min(2, len(g.vertices)))}
    return g, h, mode, group, pins


def catalog_instances():
    """Sources and targets the catalog builders and the CLI search."""
    s2 = PermGroup.symmetric(2)
    wedge = uniform_labels(cycle_graph(4), 1, width=2)
    twisted = uniform_labels(path_graph(3), 1, width=2)
    expo_c5 = exponential(CylinderSet(s2, {1: wedge_cyl()}), cycle_graph(5)).graph
    return {
        "petersen_k3_plain": (petersen(), complete_graph(3), "plain", None, {}),
        "path_cyl3_k4": (path_cyl(3).graph, complete_graph(4), "labeled", None, {}),
        "directed_path_cyl2_k3": (path_cyl(2, directed=True).graph, directed_k3(), "labeled", None, {}),
        "c6_k3_pinned": (cycle_graph(6), complete_graph(3), "plain", None, {0: 1, 3: 2}),
        "tied_names": (tied_names(cycle_graph(6)), tied_names(complete_graph(4)), "plain", None, {}),
        "wedge_c4_gamma": (wedge, expo_c5, "gamma", s2, {}),
        "wedge_p3_gamma_pinned": (twisted, expo_c5, "gamma", s2, {0: expo_c5.vertices[0]}),
        # the labeled_multigraph pair of tests/test_hom_search.py
        "labeled_multigraph": (random_multigraph(random.Random(4), 6, 7, labels=("a", "b"), symmetric=True),
                               random_multigraph(random.Random(104), 4, 10, labels=("a", "b"), symmetric=True),
                               "labeled", None, {}),
    }


def directed_k3():
    """Every ordered pair of distinct vertices of three, as a directed edge."""
    g = Graph(symmetric=False)
    g.add_vertices(range(3))
    for a in range(3):
        for b in range(3):
            if a != b:
                g.add_edge(a, b)
    return g


BIG = 10**9


def test_random_instances_match_the_frozen_kernel(monkeypatch):
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(400):
        g, h, mode, group, pins = random_instance(rng)
        if hom.count_homs(g, h, mode=mode, group=group, pins=pins) > 3000:
            continue  # keeps the battery quick; the small ones reach every case
        oracle_budget = Nodes(BIG)
        want = list(oracle_homs(g, h, mode, group, pins, oracle_budget))
        got, left = library_run(monkeypatch, g, h, mode, group, pins, BIG)
        assert got == want
        assert left == oracle_budget.left
        for budget in range(14):
            with monkeypatch.context() as m:
                m.setenv("CYL_NODE_BUDGET", str(budget))
                mine = first_or_limit(iter(fingerprint(x) for x in iter_homs(g, h, mode, group, pins)))
            assert mine == first_or_limit(oracle_homs(g, h, mode, group, pins, Nodes(budget)))
        ends = [frozenset(g.edges[eid][:2]) for eid in g.canonical_edges()]
        seen.update([mode, "symmetric" if g.symmetric else "directed"])
        seen.update(nonzero=bool(want), pinned=bool(pins), loops=any(len(e) == 1 for e in ends),
                    parallel=len(set(ends)) < len(ends), multi_pick=len(want) > len({str(w[0]) for w in want}))
    for case in ("plain", "labeled", "gamma", "symmetric", "directed", "pinned", "loops", "parallel", "multi_pick"):
        assert seen[case] >= 10, case
    assert seen["nonzero"] >= 100


@pytest.mark.parametrize("name", sorted(catalog_instances()))
def test_catalog_instances_match_the_frozen_kernel(monkeypatch, name):
    g, h, mode, group, pins = catalog_instances()[name]
    oracle_budget = Nodes(BIG)
    want = list(oracle_homs(g, h, mode, group, pins, oracle_budget))
    got, left = library_run(monkeypatch, g, h, mode, group, pins, BIG)
    assert want and got == want
    assert left == oracle_budget.left
    for budget in range(14):
        monkeypatch.setenv("CYL_NODE_BUDGET", str(budget))
        try:
            mine = find_hom(g, h, mode=mode, group=group, pins=pins)
            mine = None if mine is None else fingerprint(mine)
        except ResourceLimit:
            mine = "ResourceLimit"
        assert mine == first_or_limit(oracle_homs(g, h, mode, group, pins, Nodes(budget)))


def test_a_catalog_instance_moves_edge_picks():
    # more maps than vertex maps: some maps differ only in their edge images,
    # so the checks here reach the charge for a moved pick
    g, h, mode, group, pins = catalog_instances()["labeled_multigraph"]
    maps = list(iter_homs(g, h, mode=mode, group=group, pins=pins))
    assert len(maps) == 1320
    assert len({tuple(x.vmap.items()) for x in maps}) == 24


def prefix_before_limit(run):
    """The maps a run yields, and whether it then ran out of nodes."""
    out = []
    try:
        for x in run:
            out.append(x)
    except ResourceLimit:
        return out, True
    return out, False


@pytest.mark.parametrize("name", sorted(catalog_instances()))
def test_maps_before_a_resource_limit_match_the_frozen_kernel(monkeypatch, name):
    g, h, mode, group, pins = catalog_instances()[name]
    full = Nodes(BIG)
    for _ in oracle_homs(g, h, mode, group, pins, full):
        pass
    total = BIG - full.left
    for k in range(1, 12):
        budget = total * k // 12
        monkeypatch.setenv("CYL_NODE_BUDGET", str(budget))
        mine = prefix_before_limit(fingerprint(x) for x in iter_homs(g, h, mode, group, pins))
        want = prefix_before_limit(oracle_homs(g, h, mode, group, pins, Nodes(budget)))
        assert mine == want, (name, budget)
        assert mine[1], (name, budget)
