"""The (+,×) contraction against a frozen copy of the kernel it replaced,
kept as a differential oracle: ``_factors`` built one table per source edge,
``_join`` spent one node per joined tuple and built keys and tuples by
comprehension, and ``_eliminate`` summed a variable out by slicing.  The
library must count the same homs, project the same tables in the same order,
leave the same nodes in the budget, and raise ``ResourceLimit`` at exactly
the budgets the oracle raises at, in plain, labeled and gamma mode."""

import heapq
import random
from collections import defaultdict
from itertools import count
from typing import Mapping

from cylgraph import hom
from cylgraph.core import GammaLabel, Graph, _Budget
from cylgraph.errors import ResourceLimit
from cylgraph.hom import _Matcher, _src_edges
from cylgraph.perm import PermGroup

from util import tied_names

# -- the frozen kernel ----------------------------------------------------------


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


def oracle_count(g, h, matcher, pins, budget):
    if not g.vertices:
        return 1
    if not h.vertices:
        return 0
    domains = dict.fromkeys(g.vertices, len(h.vertices))
    return _eliminate(domains, _factors(g, matcher, pins), budget)[1].get((), 0)


def oracle_project(g, h, matcher, keep, budget):
    return _eliminate(dict.fromkeys(g.vertices, len(h.vertices)), _factors(g, matcher, {}), budget, keep)


# -- instances ------------------------------------------------------------------


def _budget(n=None) -> _Budget:
    b = _Budget("homomorphism count")
    if n is not None:
        b.left = b.limit = n
    return b


def _label_pool(rng, mode, group):
    """A draw of edge labels: a few label objects shared by several edges, and
    fresh objects equal to them (so sharing goes by object, not by value)."""
    if mode == "gamma":
        perms = list(PermGroup.symmetric(group.degree)) if rng.random() < 0.5 else list(group)

        def fresh():
            return GammaLabel(rng.choice(perms), rng.choice((0, 1)), rng.choice(perms))
    else:
        def fresh():
            return rng.choice([None, "a", tuple(["b", 1])])  # a tuple built at run time is a new object
    shared = [fresh() for _ in range(2)]
    return lambda: rng.choice(shared) if rng.random() < 0.6 else fresh()


def _multigraph(rng, n, m, symmetric, label):
    """n vertices, m edges (twin pairs when symmetric): loops, parallels of
    one edge, and names that tie under ``str`` half the time."""
    g = Graph(symmetric=symmetric)
    g.add_vertices(range(n))
    add = g.add_sym_edge if symmetric else g.add_edge
    for _ in range(m if n else 0):
        u = rng.randrange(n)
        v = u if rng.random() < 0.25 else rng.randrange(n)
        lab = label()
        for _ in range(2 if rng.random() < 0.2 else 1):
            add(u, v, lab)
    return tied_names(g) if rng.random() < 0.5 else g


def random_instance(rng, most=5):
    mode = rng.choice(("plain", "labeled", "gamma"))
    group = rng.choice([PermGroup.trivial(2), PermGroup.symmetric(2), PermGroup.cyclic(3)]) if mode == "gamma" \
        else None
    symmetric = rng.random() < 0.5
    label = _label_pool(rng, mode, group)
    n = rng.randint(0, most)
    g = _multigraph(rng, n, rng.randint(0, n + 3), symmetric, label)
    k = rng.randint(1, 3)
    h = _multigraph(rng, k, rng.randint(k, 3 * k + 2), symmetric, label)
    pins = {}
    if g.vertices and rng.random() < 0.3:
        pins = {v: rng.choice(h.vertices) for v in rng.sample(g.vertices, min(2, len(g.vertices)))}
    on_edges = list(dict.fromkeys(v for e in g.edges.values() for v in e[:2]))
    keep = set(rng.sample(on_edges, rng.randint(0, len(on_edges)))) if on_edges else set()
    return g, h, mode, group, pins, keep


def _run(fn, *args):
    try:
        return fn(*args)
    except ResourceLimit:
        return "ResourceLimit"


def _as_items(projected):
    return projected[0], list(projected[1].items())


# -- comparisons ----------------------------------------------------------------


def test_counts_projections_and_budgets_match_the_frozen_kernel():
    rng = random.Random(20260)
    modes = set()
    for _ in range(400):
        g, h, mode, group, pins, keep = random_instance(rng)
        modes.add(mode)
        want_b, got_b = _budget(), _budget()
        want = oracle_count(g, h, _Matcher(g, h, mode, group), pins, want_b)
        got = hom._count_by_elimination(g, h, _Matcher(g, h, mode, group), pins, got_b)
        assert got == want == hom.count_homs(g, h, mode, group, pins)
        assert got_b.left == want_b.left
        if not h.vertices:
            continue
        want_b, got_b = _budget(), _budget()
        want = oracle_project(g, h, _Matcher(g, h, mode, group), keep, want_b)
        matcher = _Matcher(g, h, mode, group)
        got = hom._eliminate(dict.fromkeys(g.vertices, len(h.vertices)), hom._factors(g, matcher, {}), got_b, keep)
        assert _as_items(got) == _as_items(want)
        assert got_b.left == want_b.left
        assert _as_items(hom._project(_Matcher(g, h, mode, group), keep)) == _as_items(want)
    assert modes == {"plain", "labeled", "gamma"}


def test_resource_limit_verdicts_match_the_frozen_kernel_at_every_budget():
    rng = random.Random(4711)
    checked = 0
    while checked < 40:
        g, h, mode, group, pins, keep = random_instance(rng, most=4)
        if not h.vertices:
            continue
        by_count, by_projection = _budget(), _budget()
        oracle_count(g, h, _Matcher(g, h, mode, group), pins, by_count)
        oracle_project(g, h, _Matcher(g, h, mode, group), keep, by_projection)
        spent = max(b.limit - b.left for b in (by_count, by_projection))
        if spent > 150:
            continue
        checked += 1
        for n in range(spent + 2):
            want = (_run(oracle_count, g, h, _Matcher(g, h, mode, group), pins, _budget(n)),
                    _run(oracle_project, g, h, _Matcher(g, h, mode, group), keep, _budget(n)))
            matcher = _Matcher(g, h, mode, group)
            got = (_run(hom._count_by_elimination, g, h, _Matcher(g, h, mode, group), pins, _budget(n)),
                   _run(lambda b: hom._eliminate(dict.fromkeys(g.vertices, len(h.vertices)),
                                                 hom._factors(g, matcher, {}), b, keep), _budget(n)))
            assert got == want, (n, spent)
            # the budgets run from too few nodes for one of the two to enough for both
            assert ("ResourceLimit" in want) == (n < spent), (n, spent)


def test_edges_with_one_label_object_share_one_table():
    lab, equal = tuple(["a"]), tuple(["a"])
    g = Graph()
    g.add_vertices(range(3))
    for u, v, label in ((0, 1, lab), (1, 2, lab), (2, 0, equal), (1, 1, lab)):
        g.add_edge(u, v, label)
    h = Graph()
    h.add_vertices("xy")
    for u, v in ("xy", "yx", "xx"):
        h.add_edge(u, v, tuple(["a"]))
    factors = hom._factors(g, _Matcher(g, h, "labeled", None), {})
    tables = [t for _, t in factors]
    assert tables[0] is tables[1]  # one object, both edges not loops
    assert tables[2] is not tables[0] and tables[2] == tables[0]  # an equal label, another object
    assert tables[3] is not tables[0]  # the loop builds its own
    assert _factors(g, _Matcher(g, h, "labeled", None), {}) == factors
