"""Seeded operation lists for the three workloads.

An operation ("op") is a call into the library whose result is checked by an
oracle afterwards, outside the timed region.  ``build(name, seed, api,
workdir)`` makes the whole list; the same seed gives the same inputs.  The
library only sees the graphs generated here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable

import oracles

WHY = {
    "duality": "many small (g, cylinder set, h) triples through the whole correspondence; "
               "per-call overhead, exponential and gamma search dominate",
    "powers": "catalog builders whose cost is the cylinder-to-target enumeration inside exponential; "
              "no large products, isomorphism or CLI",
    "large": "single big sources: gluing, JSON load and emit, elimination, vertex-map search and "
             "isomorphism at n, 2n and 4n; exponential does no work",
}

# Structured maps enumerated per duality triple, as in the acceptance battery.
CAP = 150


@dataclass
class Op:
    id: int
    family: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def lazy(make):
    """An oracle value computed on first use and kept for later passes."""
    box: list = []

    def get():
        if not box:
            box.append(make())
        return box[0]
    return get


class Api:
    """The library functions the ops call.  A traced pass overwrites these
    attributes with wrapped versions and restores them afterwards."""

    NAMES = ("exponential", "cyl_product", "iter_homs", "count_homs", "find_hom", "check_hom",
             "isomorphic", "section", "retraction", "gamma_acts_freely", "is_lower_closed",
             "is_upper_closed", "walk_power", "function_power", "looped_line_graph",
             "fractional_power", "subdivision", "neps_product")

    def __init__(self):
        import cylgraph
        import cylgraph.catalog
        import cylgraph.cli

        self.lib = cylgraph
        self.cat = cylgraph.catalog
        self.originals = {n: getattr(cylgraph, n, None) or getattr(cylgraph.catalog, n)
                          for n in self.NAMES}
        self.originals["cli_main"] = cylgraph.cli.main
        self.use({})

    def use(self, wrapped: dict) -> None:
        for name, fn in self.originals.items():
            setattr(self, name, wrapped.get(name, fn))


# -- graph generators ---------------------------------------------------------


def random_graph(api, rng, n: int, m: int, loops: int = 0, drop_isolated: bool = False):
    """``m`` distinct non-loop edges and ``loops`` loops on ``n`` vertices."""
    g = api.lib.Graph(symmetric=True)
    g.add_vertices(range(n))
    for a, b in rng.sample(list(combinations(range(n), 2)), min(m, n * (n - 1) // 2)):
        g.add_sym_edge(a, b)
    for v in rng.sample(range(n), loops):
        g.add_sym_edge(v, v)
    if drop_isolated:
        g = g.reduced()
    return g


def relabeled(g, rng):
    """``g`` with its vertices renamed to distinct random integers."""
    names = rng.sample(range(10 * len(g.vertices) + 10), len(g.vertices))
    return g.relabel(dict(zip(g.vertices, names)))


def gamma_labeled(api, rng, g, cset):
    """``g`` with every edge labeled by a random key and random twists."""
    out = api.lib.Graph(symmetric=True)
    out.add_vertices(g.vertices)
    keys = sorted(cset.keys(), key=str)
    elems = list(cset.group)
    for eid in sorted(g.canonical_edges()):
        e = g.edges[eid]
        lab = api.lib.GammaLabel(rng.choice(elems), rng.choice(keys), rng.choice(elems))
        out.add_sym_edge(e.tail, e.head, lab, eid, g.pairing[eid])
    return out


def _dense(n: int) -> int:
    return max(1, round(0.6 * n * (n - 1) / 2))


# -- duality ------------------------------------------------------------------


def duality_ops(api, pool, rng) -> list[Op]:
    """A stratified version of the acceptance battery's distribution: widths
    1-3 (as 1,1,2,2,3), every group and cylinder cluster of each width in
    turn, 2-5-vertex graphs at edge density 0.6 and a loop in one target of
    ten.  Graphs of width-2 and width-3 triples stop at 4 vertices: with five
    vertices on both sides a single gamma search took up to 12 s."""
    lib = api.lib
    P = lib.PermGroup
    clusters = {
        1: [[lambda: lib.path_cyl(1), lambda: lib.path_cyl(2), lambda: lib.path_cyl(3),
             lambda: lib.identity_cyl(1)]],
        2: [[lib.sqcap_cyl, lib.square_cyl], [lambda: lib.identity_cyl(2)]],
        3: [[lambda: lib.identity_cyl(3)]],
    }
    groups = {1: [P.trivial(1)], 2: [P.trivial(2), P.symmetric(2)],
              3: [P.trivial(3), P.cyclic(3), P.symmetric(3)]}
    ops = []
    for i in range(240):
        k = (1, 1, 2, 2, 3)[i % 5]
        j = i // 5
        group = groups[k][j % len(groups[k])]
        cluster = clusters[k][(j // len(groups[k])) % len(clusters[k])]
        picks = pool.sample(range(len(cluster)), pool.randint(1, min(2, len(cluster))))
        cset = lib.CylinderSet(group, {n + 1: cluster[p]() for n, p in enumerate(picks)})
        ng, nh = 2 + i % 4, 2 + (i // 4) % 4
        if k > 1:
            ng, nh = min(ng, 4), min(nh, 4)
        base = random_graph(api, pool, ng, _dense(ng), drop_isolated=True)
        g = relabeled(gamma_labeled(api, pool, base, cset), rng)
        h = relabeled(random_graph(api, pool, nh, _dense(nh), loops=1 if i % 10 == 9 else 0), rng)
        ops.append(Op(len(ops), f"triple_w{k}", 0, _triple(api, g, cset, h), _check_triple))
    return ops


@dataclass
class TripleResult:
    maps: int
    n_product: int
    n_expo: int | None
    free: bool
    trips: list


def _triple(api, g, cset, h):
    def run():
        et = api.exponential(cset, h)
        homs = list(islice(api.iter_homs(g, et.graph, mode="gamma", group=cset.group), CAP + 1))
        tr = api.cyl_product(g, cset)
        n_product = api.count_homs(tr.graph, h, mode="labeled")
        n_expo = None
        if len(homs) <= CAP:
            n_expo = api.count_homs(g, et.graph, mode="gamma", group=cset.group)
        free = api.gamma_acts_freely(et)
        trips = []
        if free:
            for sp in homs:
                sigma = api.section(tr, et, sp)
                trips.append((api.check_hom(tr.graph, h, sigma, mode="labeled"),
                              api.retraction(tr, et, sigma) == sp))
        return TripleResult(len(homs), n_product, n_expo, free, trips)
    return run


def _check_triple(r: TripleResult) -> str | None:
    if r.n_expo is not None and r.n_expo != r.maps:
        return f"gamma count {r.n_expo} != {r.maps} enumerated maps"
    if not r.free:
        return None
    if (r.n_product > 0) != (r.maps > 0):
        return f"existence differs: {r.n_product} product maps, {r.maps} structured maps"
    if r.n_product < r.maps:
        return f"fewer product maps ({r.n_product}) than structured maps ({r.maps})"
    for bad, same in r.trips:
        if bad is not None:
            return f"section is not a map: {bad}"
        if not same:
            return "retraction(section(f)) != f"
    return None


# -- powers -------------------------------------------------------------------

# Closure verdicts on the acceptance suite's targets, frozen when the
# benchmark was defined; relabeling a target cannot change them.
LOWER_SQUARE_S2 = dict.fromkeys(("K2", "K3", "K4", "C4", "C5", "C6", "P2", "P3", "S3", "K5"), False)
UPPER_PATH = {  # target -> verdict for path cylinders of length 1, 2, 3
    "K2": (True, True, True), "K3": (True, False, True), "K4": (True, False, False),
    "C4": (True, True, True), "C5": (True, False, False), "C6": (True, True, True),
    "P2": (True, True, True), "P3": (True, True, True), "S3": (True, True, True),
    "K5": (True, False, False),
}


def _targets(api) -> dict:
    c = api.cat
    star = api.lib.Graph(symmetric=True)
    star.add_vertices(range(4))
    for leaf in (1, 2, 3):
        star.add_sym_edge(0, leaf)
    return {"K2": c.complete_graph(2), "K3": c.complete_graph(3), "K4": c.complete_graph(4),
            "C4": c.cycle_graph(4), "C5": c.cycle_graph(5), "C6": c.cycle_graph(6),
            "P2": c.path_graph(2), "P3": c.path_graph(3), "S3": star, "K5": c.complete_graph(5)}


def powers_ops(api, pool, rng) -> list[Op]:
    c, lib = api.cat, api.lib
    ops: list[Op] = []

    def add(family, size, run, check):
        ops.append(Op(len(ops), family, size, run, check))

    for nv in range(4, 9):
        for rep in range(2):
            g = relabeled(random_graph(api, pool, nv, nv, loops=1 + rep), rng)
            for n in range(2, 7):
                want = lazy(lambda g=g, n=n: c.walk_power_direct(g, n))
                add("walk_power", nv, lambda g=g, n=n: api.walk_power(g, n),
                    lambda out, want=want: oracles.same_graph(out, want(), oracles.decode_single))

    for src in (c.path_graph(2), c.path_graph(3), c.cycle_graph(4), c.complete_graph(3)):
        for tgt in (c.complete_graph(3), c.complete_graph(4), c.cycle_graph(5)):
            g, h = relabeled(src, rng), relabeled(tgt, rng)
            want = lazy(lambda g=g, h=h: c.function_power_direct(g, h))
            add("function_power", len(h.vertices) ** len(g.vertices),
                lambda g=g, h=h: api.function_power(g, h),
                lambda out, want=want: oracles.same_graph(out, want(), oracles.decode_tuple))

    for nv in range(4, 9):
        for _ in range(2):
            h = relabeled(random_graph(api, pool, nv, nv + 1), rng)
            want = lazy(lambda h=h: oracles.with_loops(c.line_graph_direct(h)))
            add("looped_line_graph", nv, lambda h=h: api.looped_line_graph(h),
                lambda out, h=h, want=want: _check_line_graph(out, h, want()))

    for nv, m in ((4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (4, 3), (5, 3), (6, 3)):
        g = relabeled(random_graph(api, pool, nv, nv + 1), rng)
        want = lazy(lambda g=g, m=m: c.walk_power_direct(c.subdivision(g, 2), m))
        add("fractional_power", nv, lambda g=g, m=m: api.fractional_power(g, m, 2),
            lambda out, want=want: oracles.same_graph(out, want(), oracles.decode_single))

    square = lib.CylinderSet(lib.PermGroup.symmetric(2), {1: lib.square_cyl()})
    paths = [lib.CylinderSet(lib.PermGroup.trivial(1), {1: lib.path_cyl(n)}) for n in (1, 2, 3)]
    for name, tgt in _targets(api).items():
        h = relabeled(tgt, rng)
        add("is_lower_closed", len(h.vertices), lambda h=h: api.is_lower_closed(square, h),
            lambda out, name=name: _verdict(out, LOWER_SQUARE_S2[name]))
        for n, cset in enumerate(paths):
            add("is_upper_closed", len(h.vertices), lambda h=h, cset=cset: api.is_upper_closed(cset, h),
                lambda out, name=name, n=n: _verdict(out, UPPER_PATH[name][n]))
    return ops


def _check_line_graph(out, h, want) -> str | None:
    by_ends = {tuple(sorted((h.edges[e].tail, h.edges[e].head))): e for e in want.vertices}
    return oracles.same_graph(out, want, lambda name: by_ends.get(tuple(sorted(oracles.decode_tuple(name)))))


def _verdict(out, want: bool) -> str | None:
    return None if out is want else f"verdict {out!r}, frozen verdict {want!r}"


# -- large --------------------------------------------------------------------

# Base sizes n of each series; every family also runs at 2n and 4n.
SERIES = {"count_cycle_k3": 100, "find_cycle_k3": 200, "iso_cycle": 12, "subdivide_cycle": 250,
          "neps": 25, "cli_product": 100, "cli_subdivision": 100, "cli_count": 25, "cli_iso": 8,
          "cli_export": 100}
DEEP = 2001  # deeper than the interpreter's default recursion limit
REPLICAS = 3  # seeded relabelings per family and size (count_cycle_k3: one)


def large_ops(api, rng, workdir: str) -> list[Op]:
    c, lib = api.cat, api.lib
    k3, k4 = c.complete_graph(3), c.complete_graph(4)
    ops: list[Op] = []

    def add(family, size, run, check):
        ops.append(Op(len(ops), family, size, run, check))

    def write(name: str, data) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def cli(op_name: str, argv: list, check):
        out = os.path.join(workdir, f"out-{op_name}.json")

        def run():
            code = api.cli_main(argv + ["-o", out])
            with open(out, encoding="utf-8") as fh:
                return code, fh.read()
        return run, check

    k3_file = write("k3.json", k3.to_json())
    path3 = lib.CylinderSet(lib.PermGroup.trivial(1), {1: lib.path_cyl(3)})
    path3_file = write("path3.json", path3.to_json())

    def cli_op(family: str, tag: str, g):
        src = write(f"{tag}.json", g.to_json())
        if family == "cli_product":
            want = lazy(lambda: _plain_json(lib.cyl_product(lib.uniform_labels(g, 1), path3).graph.to_json()))
            return cli(tag, ["product", "--graph", src, "--cylinders", path3_file, "--uniform", "1"],
                       lambda out: _cli_json(out, want()))
        if family == "cli_subdivision":
            want = lazy(lambda: _plain_json(c.subdivision(g, 5).to_json()))
            return cli(tag, ["catalog", "subdivision", "--graph", src, "-n", "5"],
                       lambda out: _cli_json(out, want()))
        if family == "cli_count":
            n = len(g.vertices)
            return cli(tag, ["hom", "count", "--source", src, "--target", k3_file, "--mode", "plain"],
                       lambda out: _cli_json(out, {"count": oracles.cycle_colourings(n)}))
        if family == "cli_iso":
            h = relabeled(g, rng)
            right = write(f"{tag}-right.json", h.to_json())
            return cli(tag, ["iso", "--left", src, "--right", right], lambda out: _check_cli_iso(out, g, h))
        want = lazy(g.to_dot)  # cli_export
        return cli(tag, ["export-dot", "--graph", src],
                   lambda out: None if out == (0, want()) else "DOT output differs from Graph.to_dot")

    for family, base in SERIES.items():
        for size in (base, 2 * base, 4 * base):
            for rep in range(1 if family == "count_cycle_k3" else REPLICAS):
                g = relabeled(c.cycle_graph(size), rng)
                tag = f"{family}-{size}-{rep}"
                if family == "count_cycle_k3":
                    add(family, size, lambda g=g: api.count_homs(g, k3, mode="plain"),
                        lambda out, n=size: None if out == oracles.cycle_colourings(n)
                        else f"{out} maps C_{n} -> K3, want {oracles.cycle_colourings(n)}")
                elif family == "find_cycle_k3":
                    add(family, size, lambda g=g: api.find_hom(g, k3, mode="plain"),
                        lambda out, g=g: "no map found" if out is None else oracles.hom_error(g, k3, out))
                elif family == "iso_cycle":
                    h = relabeled(g, rng)
                    add(family, size, lambda g=g, h=h: api.isomorphic(g, h),
                        lambda out, g=g, h=h: "no isomorphism found" if out is None
                        else oracles.iso_error(g, h, out["vertices"]))
                elif family == "subdivide_cycle":
                    add(family, size, lambda g=g: api.subdivision(g, 5),
                        lambda out, n=size: oracles.subdivided_cycle_error(out, n, 5))
                elif family == "neps":
                    for kind in c.NEPS_KINDS:
                        want = lazy(lambda g=g, kind=kind: c.neps_direct(g, k4, kind))
                        add(f"neps_{kind}", size, lambda g=g, kind=kind: api.neps_product(g, k4, kind),
                            lambda out, g=g, want=want: _check_neps(out, g, k4, want()))
                else:
                    add(family, size, *cli_op(family, tag, g))

    deep = relabeled(c.cycle_graph(DEEP), rng)
    add("deep_find", DEEP, lambda: api.find_hom(deep, k3, mode="plain"),
        lambda out: "no map found" if out is None else oracles.hom_error(deep, k3, out))
    deep_file = write("deep.json", deep.to_json())
    add("deep_cli_exists", DEEP, *cli("deep", ["hom", "exists", "--source", deep_file, "--target", k3_file,
                                               "--mode", "plain"],
                                      lambda out: _cli_json(out, {"exists": True})))
    return ops


def _plain_json(data):
    return json.loads(json.dumps(data, sort_keys=True, default=str))


def _cli_output(out):
    """The JSON a CLI op wrote, or the reason there is none."""
    code, text = out
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _cli_json(out, want) -> str | None:
    got, err = _cli_output(out)
    return err or (None if got == want else "output differs from the library result")


def _check_cli_iso(out, g, h) -> str | None:
    data, err = _cli_output(out)
    if err:
        return err
    if data.get("isomorphic") is not True:
        return "reported not isomorphic"
    names = {str(v): v for v in g.vertices}
    return oracles.iso_error(g, h, {names[k]: w for k, w in data["vertices"].items()})


def _check_neps(out, h, g, want) -> str | None:
    """Slot ``u#i`` of the glued product is the pair (u, i-th vertex of g)."""
    gv = sorted(g.vertices, key=str)
    pair = {f"{u}#{i}": (u, a) for u in h.vertices for i, a in enumerate(gv, start=1)}
    return oracles.same_graph(out, want, lambda v: pair.get(v, v))


def build(name: str, seed: int, api: Api, workdir: str) -> list[Op]:
    """The op list of one workload.  The graphs' shapes, cylinder picks and
    labels are drawn from a pool fixed per workload; ``seed`` renames every
    vertex.  Drawing the shapes from the seed made the cost of a list swing
    by a third between seeds, which would hide any change smaller than that."""
    pool = random.Random(f"{name}:pool")
    rng = random.Random(f"{name}:{seed}")
    if name == "duality":
        return duality_ops(api, pool, rng)
    if name == "powers":
        return powers_ops(api, pool, rng)
    return large_ops(api, rng, workdir)
