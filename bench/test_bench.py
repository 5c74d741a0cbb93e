"""The benchmark's own tests: its oracles catch corrupted outputs, failures
are tallied, tracing leaves the library as it found it, and the metric
names agree with BENCHMARK.json and PROVENANCE.json.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
from dataclasses import replace

import pytest

import run

run.load_library()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return workloads.Api()


@pytest.fixture(scope="module")
def ops(api, tmp_path_factory):
    work = str(tmp_path_factory.mktemp("bench"))
    return {w: workloads.build(w, 7, api, work) for w in run.WORKLOADS}


def first(ops, family, pred=lambda out: True):
    for op in ops:
        if op.family == family:
            out = op.run()
            if pred(out):
                return op, out
    raise AssertionError(f"no {family} op")


def drop_vertex(g):
    return g.induced(list(g.vertices)[1:])


def test_same_seed_same_inputs(api, ops, tmp_path):
    again = workloads.build("powers", 7, api, str(tmp_path))
    assert [op.run().to_json() for op in again[:5]] == [op.run().to_json() for op in ops["powers"][:5]]


@pytest.mark.parametrize("family", ["walk_power", "function_power", "looped_line_graph", "fractional_power"])
def test_powers_oracles_catch_a_missing_vertex(ops, family):
    op, out = first(ops["powers"], family)
    assert op.check(out) is None
    assert op.check(drop_vertex(out)) is not None


def test_closure_verdict_flip_is_caught(ops):
    op, out = first(ops["powers"], "is_upper_closed")
    assert op.check(out) is None
    assert op.check(not out) is not None


def test_duality_oracle_catches_broken_round_trip_and_count(ops):
    op, out = first(ops["duality"], "triple_w1", lambda r: r.free and r.trips)
    assert op.check(out) is None
    assert op.check(replace(out, trips=[(None, False)] + out.trips[1:])) is not None
    assert op.check(replace(out, trips=[("edge e0 unmapped", True)])) is not None
    assert op.check(replace(out, n_product=out.maps - 1)) is not None
    if out.n_expo is not None:
        assert op.check(replace(out, n_expo=out.n_expo + 1)) is not None


def test_large_oracles_catch_corruption(ops):
    large = ops["large"]
    op, out = first(large, "count_cycle_k3")
    assert op.check(out) is None and op.check(out + 1) is not None

    op, out = first(large, "find_cycle_k3")
    assert op.check(out) is None
    v = next(iter(out.vmap))
    out.vmap[v] = next(w for w in out.vmap.values() if w != out.vmap[v])
    assert op.check(out) is not None

    op, out = first(large, "iso_cycle")
    assert op.check(out) is None
    a, b = list(out["vertices"])[:2]
    out["vertices"][a], out["vertices"][b] = out["vertices"][b], out["vertices"][a]
    assert op.check(out) is not None

    for family in ("subdivide_cycle", "neps_strong"):
        op, out = first(large, family)
        assert op.check(out) is None and op.check(drop_vertex(out)) is not None


@pytest.mark.parametrize("family", ["cli_product", "cli_subdivision", "cli_count", "cli_iso", "cli_export"])
def test_cli_oracles_catch_corruption(ops, family):
    op, (code, text) = first(ops["large"], family)
    assert code == 0 and op.check((code, text)) is None
    assert op.check((1, text)) is not None
    assert op.check((code, text[: len(text) // 2])) is not None


def test_run_pass_reports_wrong_outputs_and_tallies_failures(ops):
    good = ops["powers"][:3]

    def boom():
        raise RecursionError("deep")

    wrong = workloads.Op(90, "walk_power", 4, lambda: drop_vertex(good[0].run()), good[0].check)
    failing = workloads.Op(91, "walk_power", 4, boom, good[0].check)
    result = run.run_pass(good + [wrong, failing])
    assert len(result["times"]) == 5
    assert result["fails"] == {"RecursionError": 1}
    assert result["failed"] == {91}
    assert len(result["wrong"]) == 1 and result["wrong"][0].startswith("op 90")


def test_tracing_restores_the_library(api, ops):
    import cylgraph.construct
    import cylgraph.core
    import cylgraph.duality

    before = (cylgraph.duality.exponential, cylgraph.core.Graph.__dict__["validate"],
              cylgraph.core.Graph.__dict__["from_json"])
    tracer = Tracer()
    api.use(tracer.install())
    try:
        assert cylgraph.duality.exponential is not before[0]
        result = run.run_pass(ops["duality"][:10], tracer)
    finally:
        tracer.uninstall()
        api.use({})
    assert (cylgraph.duality.exponential, cylgraph.core.Graph.__dict__["validate"],
            cylgraph.core.Graph.__dict__["from_json"]) == before
    assert api.exponential is cylgraph.construct.exponential
    assert not result["wrong"]
    totals = tracer.totals()
    assert totals["calls"]["construct.exponential"] == 10
    assert totals["counts"]["construct.exponential.homs_enumerated"] > 0
    assert all(s >= -1e-9 for s in totals["self_s"].values())
    assert all(s[1] in range(10) for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    with open(os.path.join(run.HERE, "PROVENANCE.json"), encoding="utf-8") as fh:
        provenance = json.load(fh)
    assert set(provenance["per_layer_moves"]) == set(run.PER_LAYER)
    assert list(provenance["workloads"]) == list(run.WORKLOADS)
