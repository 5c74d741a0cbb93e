"""Benchmark for cylgraph: seeded workloads, checked outputs, named metrics.

    python3 bench/run.py --workload {duality,powers,large,all} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.  One
client, one thread, one operation at a time (a closed loop).  Each run sets
up (imports, instance generation, input files) several times and reports the
median, then repeats the seeded operation list in passes until ``--seconds``
have gone by.  Each operation's time is the median over passes; its output is
checked by an oracle after every pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics, writing the spans to
``bench/out/``.  ``--workload all`` runs each workload in its own interpreter.
Every run uses the same hash seed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("duality", "powers", "large")
SETUP_REPEATS = 5
# The host is shared: its speed drifts by a fifth within a minute, the same
# for every pure-Python loop.  A fixed reference kernel timed between ops
# tracks that drift; each pass's op times are rescaled to a host on which the
# kernel takes REFERENCE_MS (its typical time on the 2-vCPU Xeon this
# benchmark was defined on, Python 3.11).  Span self times stay unscaled.
REFERENCE_MS = 2.4
KERNEL_EVERY = 10  # ops between two kernel samples
HASH_SEED = "0"

END_TO_END = {  # name -> unit
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
SERIES = ("count_cycle_k3", "find_cycle_k3", "iso_cycle", "subdivide_cycle")
SPAN_SELF = ("construct.exponential", "hom.iter_homs", "hom.count_homs", "hom.count_homs.gamma",
             "hom.find_hom", "core.isomorphic", "construct.cyl_product", "core.Graph.validate",
             "core.Graph.to_json", "core.Graph.from_json", "cylinder.CylinderSet.from_json",
             "cli.main", "duality.section", "duality.retraction", "hom.check_hom",
             "duality.gamma_acts_freely")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    "catalog.self_s": "s",
    "construct.exponential.share": "ratio",
    "construct.exponential.calls": "count",
    "construct.exponential.homs_enumerated": "count",
    "construct.exponential.edges_out": "count",
    "construct.exponential.reps_out": "count",
    "construct.exponential.edges_per_hom": "ratio",
    "hom.iter_homs.yielded": "count",
    "core.isomorphic.calls": "count",
    "construct.cyl_product.edges_out": "count",
    "duality.roundtrips": "count",
    "perm.act.calls": "count",
    "perm.compose.calls": "count",
    "perm.group_contains.calls": "count",
    "fail.RecursionError": "count",
    "fail.ResourceLimit": "count",
    "fail.other": "count",
    **{f"series.{s}.{p}": "ms" for s in SERIES for p in ("n1_ms", "n2_ms", "n4_ms")},
    **{f"series.{s}.exponent": "power" for s in SERIES},
    "trace.overhead_ratio": "ratio",
    "host.reference_ms": "ms",
}


def load_library():
    """Put ``src/`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "cylgraph", "__init__.py")):
        sys.exit(f"bench: no cylgraph sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of dict, tuple, str and sort work, with
    the collector off so that the size of the op list's heap does not leak
    into the host's speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(3000):
            key = (i % 97, str(i & 31))
            acc[key] = acc.get(key, 0) + len(key[1])
        sorted(acc.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_scale(samples: list) -> float:
    return REFERENCE_MS / 1e3 / statistics.median(samples)


def fresh_setup(workload: str, seed: int, workdir: str):
    """Import the library from scratch and build the op list and its files."""
    import workloads

    for name in [m for m in sys.modules if m == "cylgraph" or m.startswith("cylgraph.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    api = workloads.Api()
    ops = workloads.build(workload, seed, api, workdir)
    return time.perf_counter() - t0, api, ops


def run_pass(ops, tracer=None):
    """Run every op once; return its rescaled times, failure tally and check
    errors."""
    gc.collect()
    times, kernel, fails, wrong = [], [], Counter(), []
    failed_ids = set()
    for i, op in enumerate(ops):
        if i % KERNEL_EVERY == 0:
            kernel.append(reference_kernel())
        if tracer is not None:
            tracer.op = op.id
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # every failure is tallied, none stops the run
            out = exc
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        if isinstance(out, Exception):
            fails[type(out).__name__] += 1
            failed_ids.add(op.id)
            continue
        try:
            msg = op.check(out)
        except Exception as exc:
            msg = f"oracle raised {exc!r}"
        if msg is not None:
            wrong.append(f"op {op.id} ({op.family}, n={op.size}): {msg}")
    scale = host_scale(kernel)
    return {"times": [t * scale for t in times], "raw_s": sum(times), "kernel": kernel,
            "fails": fails, "failed": failed_ids, "wrong": wrong}


def per_op(passes) -> list[float]:
    return [statistics.median(p["times"][i] for p in passes) for i in range(len(passes[0]["times"]))]


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(ops, passes, setup_s: float) -> dict:
    times = per_op(passes)
    failed = set().union(*(p["failed"] for p in passes))
    ok = sorted(t for op, t in zip(ops, times) if op.id not in failed)
    attempted = len(ops) * len(passes)
    n_failed = sum(sum(p["fails"].values()) for p in passes)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / sum(times),
        "op_p50_ms": statistics.median(ok) * 1e3,
        "op_p90_ms": nearest_rank(ok, 0.9) * 1e3,
        "ok_ratio": 1 - n_failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"samples": len(ok), "beyond_p90": len(ok) - math.ceil(0.9 * len(ok))}


def series(ops, passes) -> dict:
    times = per_op(passes)
    out = {}
    for family in SERIES:
        sizes = sorted({op.size for op in ops if op.family == family})
        if len(sizes) != 3:
            out.update({f"series.{family}.{p}": 0.0 for p in ("n1_ms", "n2_ms", "n4_ms", "exponent")})
            continue
        ms = [statistics.median(t for op, t in zip(ops, times) if op.family == family and op.size == n) * 1e3
              for n in sizes]
        out.update({f"series.{family}.n1_ms": ms[0], f"series.{family}.n2_ms": ms[1],
                    f"series.{family}.n4_ms": ms[2], f"series.{family}.exponent": math.log2(ms[2] / ms[0]) / 2})
    return out


def per_layer(tracer, ops, plain, traced) -> dict:
    n = len(traced)
    tot = tracer.totals()
    self_s, calls, counts = tot["self_s"], tot["calls"], tot["counts"]
    out = {f"{name}.self_s": self_s.get(name, 0.0) / n for name in SPAN_SELF}
    out["catalog.self_s"] = sum(v for k, v in self_s.items() if k.startswith("catalog.")) / n
    homs = counts.get("construct.exponential.homs_enumerated", 0)
    out.update({
        "construct.exponential.share": tot["busy_s"].get("construct.exponential", 0.0)
                                       / sum(p["raw_s"] for p in traced),
        "construct.exponential.calls": calls.get("construct.exponential", 0) / n,
        "construct.exponential.homs_enumerated": homs / n,
        "construct.exponential.edges_out": counts.get("construct.exponential.edges_out", 0) / n,
        "construct.exponential.reps_out": counts.get("construct.exponential.reps_out", 0) / n,
        "construct.exponential.edges_per_hom":
            counts.get("construct.exponential.edges_out", 0) / homs if homs else 0.0,
        "hom.iter_homs.yielded": counts.get("hom.iter_homs.yielded", 0) / n,
        "core.isomorphic.calls": calls.get("core.isomorphic", 0) / n,
        "construct.cyl_product.edges_out": counts.get("construct.cyl_product.edges_out", 0) / n,
        "duality.roundtrips": calls.get("duality.retraction", 0) / n,
        "perm.act.calls": counts.get("perm.act.calls", 0) / n,
        "perm.compose.calls": counts.get("perm.compose.calls", 0) / n,
        "perm.group_contains.calls": counts.get("perm.group_contains.calls", 0) / n,
    })
    fails = sum((p["fails"] for p in plain + traced), Counter())
    runs = len(plain) + n
    out["fail.RecursionError"] = fails.pop("RecursionError", 0) / runs
    out["fail.ResourceLimit"] = fails.pop("ResourceLimit", 0) / runs
    out["fail.other"] = sum(fails.values()) / runs
    out.update(series(ops, plain))
    out["trace.overhead_ratio"] = (sum(sum(p["times"]) for p in traced)
                                   / sum(sum(p["times"]) for p in plain))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            api = ops = None  # let the previous instances go before building anew
            scale = host_scale([reference_kernel() for _ in range(5)])
            t, api, ops = fresh_setup(workload, seed, workdir)
            setup_times.append(t * scale)
        setup_s = statistics.median(setup_times)
        start = time.perf_counter()
        if not trace:
            passes = []
            while not passes or time.perf_counter() - start < seconds:
                passes.append(run_pass(ops))
            metrics, notes = end_to_end(ops, passes, setup_s)
            units = END_TO_END
            everything = passes
        else:
            from tracer import Tracer

            tracer = Tracer()
            warm_up = run_pass(ops)  # checked, but left out of the metrics
            plain, traced = [], []
            while not traced or time.perf_counter() - start < seconds:
                plain.append(run_pass(ops))
                api.use(tracer.install())
                try:
                    traced.append(run_pass(ops, tracer))
                finally:
                    tracer.uninstall()
                    api.use({})
            metrics = per_layer(tracer, ops, plain, traced)
            notes = {"plain_passes": len(plain), "traced_passes": len(traced), "spans": len(tracer.spans)}
            units = PER_LAYER
            everything = [warm_up] + plain + traced
            tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrong = [w for p in everything for w in p["wrong"]]
    fails = sum((p["fails"] for p in everything), Counter())
    kernel = [k for p in everything for k in p["kernel"]]
    metrics["host.reference_ms"] = statistics.median(kernel) * 1e3
    notes["reference_ms"] = metrics["host.reference_ms"]
    notes.update({"passes": len(everything), "ops": len(ops), "fail": dict(fails),
                  "unscaled_ops_per_s": len(ops) * len(everything) / sum(p["raw_s"] for p in everything),
                  "wrong": wrong[:5], "cpus": os.cpu_count(), "python": sys.version.split()[0],
                  "hash_seed": os.environ.get("PYTHONHASHSEED")})
    return {
        "correct": not wrong,
        "attempted": len(ops) * len(everything),
        "failed": sum(fails.values()),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "notes": notes,
    }


def report(workload: str, result: dict) -> None:
    notes = result.pop("notes")
    print(f"== {workload}: {notes['ops']} ops x {notes['passes']} passes, "
          f"{result['failed']} of {result['attempted']} attempts failed {notes['fail']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for k in sorted(set(notes) - {"ops", "passes", "fail", "wrong"}):
        print(f"  [{k}] {notes[k]}")
    for w in notes["wrong"]:
        print(f"  WRONG {w}")


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict orders of str keys steer the library's searches; with a
        # random hash seed per process they added a few points of spread.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    load_library()
    if args.workload == "all":
        results, code = {}, 0
        for w in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines(keepends=True)
            finished = proc.returncode in (0, 1) and lines
            sys.stdout.write("".join(lines[:-1] if finished else lines))
            sys.stderr.write(proc.stderr)
            results[w] = json.loads(lines[-1]) if finished else None
            code = code or proc.returncode
        print(json.dumps(results))
        return code
    os.makedirs(OUT, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
