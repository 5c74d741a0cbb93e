"""End-to-end runs of the command-line surface against temp JSON files."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

from cylgraph import cli
from cylgraph.catalog import complete_graph, cycle_graph, kneser_graph, path_graph, petersen
from cylgraph.cli import main
from cylgraph.construct import MAX_PRODUCT_EDGES, cyl_product, uniform_labels
from cylgraph.core import Graph, isomorphic
from cylgraph.cylinder import CylinderSet, identity_cyl, path_cyl
from cylgraph.perm import PermGroup

from util import SRC, random_graph


def dump(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def fixtures(tmp_path):
    return {
        "c5": dump(tmp_path, "c5.json", cycle_graph(5).to_json()),
        "k3": dump(tmp_path, "k3.json", complete_graph(3).to_json()),
        "c5lab": dump(tmp_path, "c5lab.json", uniform_labels(cycle_graph(5), key=1).to_json()),
        "p2": dump(tmp_path, "p2.json", CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)}).to_json()),
        "ident": dump(tmp_path, "ident.json", CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1)}).to_json()),
    }


def test_catalog_petersen_round_trips(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["catalog", "petersen", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    g = Graph.from_json(data)
    assert isomorphic(g, kneser_graph(5, 2)) is not None
    assert g.to_json() == data  # import then export changes nothing


def test_output_file_is_rewritten_whole(tmp_path, capsys):
    """``-o`` writes over an existing file in place; a longer old file
    keeps none of its tail, a shorter one grows, and a device takes the
    text without being truncated."""
    assert main(["catalog", "petersen"]) == 0
    want = capsys.readouterr().out
    out = tmp_path / "p.json"
    for old in ("x" * (3 * len(want)), "{}", want):
        out.write_text(old)
        assert main(["catalog", "petersen", "-o", str(out)]) == 0
        assert out.read_text() == want
    assert main(["catalog", "petersen", "-o", os.devnull]) == 0
    assert main(["catalog", "petersen", "-o", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "io"


def test_hom_exists_exit_codes(tmp_path, capsys):
    fx = fixtures(tmp_path)
    assert main(["hom", "exists", "--source", fx["c5"], "--target", fx["k3"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"exists": True}
    # a triangle cannot land in a triangle-free graph
    assert main(["hom", "exists", "--source", fx["k3"], "--target", fx["c5"]]) == 2
    assert json.loads(capsys.readouterr().out) == {"exists": False}


def test_hom_count_and_list(tmp_path, capsys):
    fx = fixtures(tmp_path)
    assert main(["hom", "count", "--source", fx["c5"], "--target", fx["k3"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 30}
    assert main(["hom", "list", "--source", fx["c5"], "--target", fx["k3"], "--limit", "4"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["count"] == 4
    assert all(set(m) == {"vertices", "edges"} for m in got["homs"])


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_hom_list_rejects_a_limit_below_one(tmp_path, capsys, limit):
    fx = fixtures(tmp_path)
    assert main(["hom", "list", "--source", fx["c5"], "--target", fx["k3"], "--limit", limit]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


def test_gamma_mode_wants_a_group(tmp_path, capsys):
    fx = fixtures(tmp_path)
    rc = main(["hom", "count", "--source", fx["c5lab"], "--target", fx["k3"], "--mode", "gamma"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


def test_reduce_agrees_with_duality_report(tmp_path, capsys):
    fx = fixtures(tmp_path)
    inst = tmp_path / "inst.json"
    assert main(["reduce", "--graph", fx["c5lab"], "--cylinders", fx["p2"],
                 "--target", fx["k3"], "-o", str(inst)]) == 0
    assert main(["hom", "count", "--source", str(inst), "--target", fx["k3"]]) == 0
    instance_count = json.loads(capsys.readouterr().out)["count"]

    report = tmp_path / "report.json"
    assert main(["duality", "check", "--graph", fx["c5lab"], "--cylinders", fx["p2"],
                 "--target", fx["k3"], "-o", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["count_product_side"] == instance_count
    assert rep["exists_equiv"] is True
    assert rep["retraction_section_identity"] is True

    expo = tmp_path / "walk2.json"
    assert main(["expo", "--cylinders", fx["p2"], "--target", fx["k3"], "-o", str(expo)]) == 0
    assert main(["hom", "count", "--source", fx["c5lab"], "--target", str(expo),
                 "--mode", "gamma", "--group", fx["p2"]]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == rep["count_exponential_side"]


def test_uniform_flag_labels_plain_graphs(tmp_path, capsys):
    fx = fixtures(tmp_path)
    # same instance as above, but labeled on the way in instead of on disk
    report = tmp_path / "report.json"
    assert main(["duality", "check", "--graph", fx["c5"], "--cylinders", fx["p2"],
                 "--target", fx["k3"], "--uniform", "1", "-o", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["count_product_side"] == 1026
    assert rep["count_exponential_side"] == 243

    assert main(["product", "--graph", fx["c5"], "--cylinders", fx["p2"],
                 "--uniform", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["vertices"]) == 10  # every pentagon edge stretched in two

    # a key the set does not carry is a usage error
    assert main(["product", "--graph", fx["c5"], "--cylinders", fx["p2"],
                 "--uniform", "7"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


@pytest.mark.parametrize("argv, message", [
    (["closed", "upper", "--cylinders", "p2"], "closed upper needs --graph"),
    (["closed", "tight", "--cylinders", "p2", "--graph", "c5"], "closed tight needs --graph and --target"),
    (["hom", "count", "--mode", "bogus", "--source", "c5", "--target", "k3"],
     "--mode must be one of plain, labeled, gamma"),
], ids=["closed upper", "closed tight", "hom mode"])
def test_missing_or_bad_flags_are_usage_errors(tmp_path, capsys, argv, message):
    fx = fixtures(tmp_path)
    assert main([fx.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "usage", "message": message}


def test_uniform_key_that_is_not_json_is_a_string(tmp_path, capsys):
    c5 = dump(tmp_path, "c5.json", cycle_graph(5).to_json())
    cset = CylinderSet(PermGroup.trivial(1), {"a": path_cyl(2)})
    cyls = dump(tmp_path, "a.json", cset.to_json())
    assert main(["product", "--graph", c5, "--cylinders", cyls, "--uniform", "a"]) == 0
    want = cyl_product(uniform_labels(cycle_graph(5), "a"), cset).graph.to_json()
    assert json.loads(capsys.readouterr().out) == want


def test_closed_and_tight_exit_codes(tmp_path, capsys):
    fx = fixtures(tmp_path)
    # two-step walks create loops that a clique cannot absorb
    assert main(["closed", "lower", "--cylinders", fx["p2"], "--target", fx["k3"]]) == 2
    assert json.loads(capsys.readouterr().out)["holds"] is False
    # the identity set changes nothing, so both counts agree exactly
    assert main(["closed", "tight", "--cylinders", fx["ident"], "--graph", fx["c5lab"],
                 "--target", fx["k3"]]) == 0
    assert json.loads(capsys.readouterr().out)["tight_on_G"] is True
    assert main(["closed", "tight", "--cylinders", fx["p2"], "--graph", fx["c5lab"],
                 "--target", fx["k3"]]) == 2
    capsys.readouterr()
    assert main(["closed", "lower", "--cylinders", fx["p2"]]) == 1  # no target
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_iso_exit_codes(tmp_path, capsys):
    fx = fixtures(tmp_path)
    pet = tmp_path / "p.json"
    kn = dump(tmp_path, "kn.json", kneser_graph(5, 2).to_json())
    main(["catalog", "petersen", "-o", str(pet)])
    assert main(["iso", "--left", str(pet), "--right", kn]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["isomorphic"] is True and len(got["vertices"]) == 10
    assert main(["iso", "--left", fx["c5"], "--right", fx["k3"]]) == 2


def test_export_dot(tmp_path, capsys):
    fx = fixtures(tmp_path)
    assert main(["export-dot", "--graph", fx["c5"]]) == 0
    text = capsys.readouterr().out
    assert text.startswith("graph") and "--" in text


def test_catalog_builders_run(tmp_path, capsys):
    fx = fixtures(tmp_path)
    k4 = dump(tmp_path, "k4.json", complete_graph(4).to_json())
    c3 = dump(tmp_path, "c3.json", cycle_graph(3).to_json())
    volts = dump(tmp_path, "v.json", {eid: [2, 3, 1] for eid in cycle_graph(5).canonical_edges()})
    runs = [
        ["catalog", "power", "--graph", fx["c5"], "-n", "2"],
        ["catalog", "subdivision", "--graph", fx["c5"], "-n", "2"],
        ["catalog", "fracpower", "--graph", fx["c5"], "-m", "2", "-n", "2"],
        ["catalog", "neps", "--left", fx["k3"], "--right", fx["k3"], "--kind", "cartesian"],
        ["catalog", "voltage", "--base", fx["c5"], "--voltages", volts, "-k", "3"],
        ["catalog", "zigzag", "--outer", k4, "--inner", c3],
        ["catalog", "replacement", "--outer", k4, "--inner", c3],
        ["catalog", "linegraph", "--graph", fx["c5"]],
        ["catalog", "join", "--left", fx["c5"], "--right", fx["k3"]],
        ["catalog", "universal", "--graph", fx["c5"]],
        ["catalog", "minor", "--graph", fx["c5"], "--contract", "e0", "--delete", "e2"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        data = json.loads(capsys.readouterr().out)
        assert Graph.from_json(data).to_json() == data


def test_error_paths_emit_json(tmp_path, capsys):
    fx = fixtures(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    truncated = dump(tmp_path, "trunc.json", {"vertices": [1, 2]})

    assert main(["hom", "exists", "--source", "missing.json", "--target", fx["k3"]]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert main(["hom", "exists", "--source", str(bad), "--target", fx["k3"]]) == 1
    assert "not valid JSON" in json.loads(capsys.readouterr().err)["message"]
    assert main(["hom", "exists", "--source", truncated, "--target", fx["k3"]]) == 1
    assert "edges" in json.loads(capsys.readouterr().err)["message"]
    assert main(["hom", "exists", "--source", fx["c5"], "--target", fx["k3"], "--bogus"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert main(["catalog", "neps", "--left", fx["k3"], "--right", fx["k3"], "--kind", "conormal"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"



def _graph(**change):
    data = {"symmetric": False, "vertices": [0, 1], "edges": [{"id": "e0", "tail": 0, "head": 1, "label": None}]}
    return {**data, **change}


def _cylinders(group=None, record=None):
    data = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)}).to_json()
    if group is not None:
        data["group"] = group
    if record is not None:
        data["cylinders"] = [record(data["cylinders"][0])]
    return data


def _edge(**change):
    return [{"id": "e0", "tail": 0, "head": 1, "label": None, **change}]


def _in_cyl(field, value):
    return lambda rec: {**rec, "cyl": {**rec["cyl"], field: value}}


# name -> (the malformed document, the command it is handed to)
MALFORMED = {
    "list label": (_graph(edges=_edge(label=["a"])), "iso"),
    "object label": (_graph(edges=_edge(label={"a": 1})), "count"),
    "list label key": (_graph(edges=_edge(label={"pre": [1], "cyl": [1], "post": [1]})), "count"),
    "label twist of strings": (_graph(edges=_edge(label={"pre": ["x"], "cyl": 1, "post": [1]})), "count"),
    "list vertex name": (_graph(vertices=[[0], 1], edges=[]), "export-dot"),
    "list edge end": (_graph(edges=_edge(head=[1])), "export-dot"),
    "graph is a list": ([1], "export-dot"),
    "edge is a number": (_graph(edges=[5]), "export-dot"),
    "pairing is a list": (_graph(symmetric=True, pairing=[1]), "export-dot"),
    "pairing names no edge": (_graph(symmetric=True, pairing={"e0": "zz"}), "export-dot"),
    "record without cyl": (_cylinders(record=lambda rec: {"key": rec["key"]}), "product"),
    "record without key": (_cylinders(record=lambda rec: {"cyl": rec["cyl"]}), "product"),
    "list cylinder key": (_cylinders(record=lambda rec: {**rec, "key": [1]}), "product"),
    "record is a number": (_cylinders(record=lambda rec: 1), "product"),
    "row is a number": (_cylinders(record=_in_cyl("y", 5)), "product"),
    "list row vertex": (_cylinders(record=_in_cyl("z", [[1]])), "product"),
    "cylinder graph is a number": (_cylinders(record=_in_cyl("graph", 5)), "product"),
    "string degree": ({"degree": "x"}, "gamma"),
    "missing degree": (_cylinders(group={"generators": []}), "gamma"),
    "generators a number": ({"degree": 1, "generators": 5}, "gamma"),
    "voltage a number": ({"e0": 5}, "voltage"),
    "voltage a string": ({"e0": "ab"}, "voltage"),
    "voltages a list": ([[2, 1]], "voltage"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_are_domain_errors(tmp_path, capsys, name):
    payload, command = MALFORMED[name]
    bad = dump(tmp_path, "bad.json", payload)
    good = dump(tmp_path, "good.json", _graph())
    argv = {
        "iso": ["iso", "--left", bad, "--right", bad],
        "count": ["hom", "count", "--source", bad, "--target", bad],
        "export-dot": ["export-dot", "--graph", bad],
        "product": ["product", "--graph", good, "--cylinders", bad],
        "gamma": ["hom", "count", "--mode", "gamma", "--group", bad, "--source", good, "--target", good],
        "voltage": ["catalog", "voltage", "--base", good, "--voltages", bad, "-k", "2"],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] in ("DomainError", "NotAPermutation"), err


def test_repeated_cylinder_key_is_a_json_error(tmp_path, capsys):
    data = CylinderSet(PermGroup.trivial(1), {1: path_cyl(1)}).to_json()
    data["cylinders"].append({**data["cylinders"][0], "key": True})
    bad = dump(tmp_path, "twice.json", data)
    good = dump(tmp_path, "good.json", _graph())
    assert main(["product", "--graph", good, "--cylinders", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "DomainError",
        "message": f"{bad}: cylinder record #1 repeats the key True of an earlier record",
    }


def test_non_integer_twist_images_are_rejected(tmp_path, capsys):
    bad = dump(tmp_path, "bad.json", _graph(edges=_edge(label={"pre": "21", "cyl": 1, "post": [1.9, 2]})))
    assert main(["export-dot", "--graph", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NotAPermutation"


def test_bad_node_budget_is_a_json_error(tmp_path, capsys, monkeypatch):
    fx = fixtures(tmp_path)
    for raw in ("abc", "-5", "1.5"):
        monkeypatch.setenv("CYL_NODE_BUDGET", raw)
        assert main(["hom", "count", "--source", fx["c5"], "--target", fx["k3"]]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "CYL_NODE_BUDGET must be a non-negative integer" in err["message"]
    monkeypatch.setenv("CYL_NODE_BUDGET", "0")
    assert main(["hom", "count", "--source", fx["c5"], "--target", fx["k3"]]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceLimit"


def test_node_budget_caps_isomorphism(tmp_path, capsys, monkeypatch):
    c6 = dump(tmp_path, "c6.json", cycle_graph(6).to_json())
    monkeypatch.setenv("CYL_NODE_BUDGET", "0")
    assert main(["iso", "--left", c6, "--right", c6]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ResourceLimit"
    monkeypatch.setenv("CYL_NODE_BUDGET", "abc")
    assert main(["iso", "--left", c6, "--right", c6]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    monkeypatch.setenv("CYL_NODE_BUDGET", "6")
    assert main(["iso", "--left", c6, "--right", c6]) == 0
    assert json.loads(capsys.readouterr().out)["isomorphic"] is True


def test_hom_exists_on_a_deep_source(tmp_path, capsys):
    fx = fixtures(tmp_path)
    src = dump(tmp_path, "c2001.json", cycle_graph(2001).to_json())
    assert main(["hom", "exists", "--source", src, "--target", fx["k3"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"exists": True}


def test_gamma_hom_exists_on_a_deep_source(tmp_path, capsys):
    src = dump(tmp_path, "p1500.json", uniform_labels(path_graph(1500), key=1).to_json())
    k2 = dump(tmp_path, "k2.json", uniform_labels(complete_graph(2), key=1).to_json())
    group = dump(tmp_path, "trivial.json", PermGroup.trivial(1).to_json())
    start = time.perf_counter()
    assert main(["hom", "exists", "--mode", "gamma", "--source", src, "--target", k2, "--group", group]) == 0
    assert time.perf_counter() - start <= 2.0
    assert json.loads(capsys.readouterr().out) == {"exists": True}


def test_unexpected_faults_still_emit_one_json_line(tmp_path, capsys, monkeypatch):
    fx = fixtures(tmp_path)

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_hom", broken)
    assert main(["hom", "exists", "--source", fx["c5"], "--target", fx["k3"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "internal", "message": "RuntimeError: boom"}
    ]


def test_seed_flag_is_accepted(tmp_path, capsys):
    assert main(["--seed", "7", "catalog", "petersen"]) == 0
    capsys.readouterr()


def test_main_leaves_the_global_rng_alone(capsys):
    random.seed(12345)
    state = random.getstate()
    assert main(["--seed", "7", "catalog", "petersen"]) == 0
    assert main(["catalog", "petersen"]) == 0
    assert random.getstate() == state
    capsys.readouterr()


def test_catalog_power_over_the_orbit_cap_is_one_resource_limit_naming_the_cap(tmp_path, capsys):
    ring = dump(tmp_path, "c10001.json", cycle_graph(10_001).to_json())
    assert main(["catalog", "power", "--graph", ring, "-n", "1"]) == 1
    err = _one_line_error(capsys)
    assert err == {"error": "ResourceLimit",
                   "message": "more than 10000 orbit representatives, the exponential's vertex cap"}
    assert "max_vertices" not in err["message"]


def test_json_round_trip_structural_identity():
    rng = random.Random(99)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 6), p=0.5,
                         symmetric=rng.random() < 0.5, loops=True)
        assert Graph.from_json(g.to_json()).to_json() == g.to_json()


def _one_line_error(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return json.loads(captured.err)


def test_catalog_voltage_rejects_a_key_that_is_no_canonical_edge_id(tmp_path, capsys):
    base = dump(tmp_path, "c3.json", cycle_graph(3).to_json())
    for key in ("nope", "e1"):  # e1 is the twin of e0
        volts = dump(tmp_path, "v.json", {key: [2, 1]})
        assert main(["catalog", "voltage", "--base", base, "--voltages", volts, "-k", "2"]) == 1
        assert _one_line_error(capsys) == {
            "error": "DomainError",
            "message": f"voltage key {key!r} is not an edge id of the base (a twin pair goes by its smaller id)",
        }


@pytest.mark.parametrize("action", ["count", "list", "exists"])
def test_gamma_hom_verbs_reject_labels_of_another_degree_than_the_group(tmp_path, capsys, action):
    group = dump(tmp_path, "s2.json", PermGroup.symmetric(2).to_json())
    width2 = dump(tmp_path, "c5w2.json", uniform_labels(cycle_graph(5), key=1, width=2).to_json())
    width3 = dump(tmp_path, "k3w3.json", uniform_labels(complete_graph(3), key=1, width=3).to_json())
    for source, target, side in ((width3, width3, "source"), (width2, width3, "target")):
        argv = ["hom", action, "--mode", "gamma", "--group", group, "--source", source, "--target", target]
        assert main(argv) == 1
        assert _one_line_error(capsys) == {
            "error": "DomainError",
            "message": f"{side} edge 'e0' twists 3 slots, the group acts on 2",
        }


def test_a_group_degree_of_true_is_one_json_error(tmp_path, capsys):
    bad = dump(tmp_path, "bad.json", {"degree": True, "generators": []})
    good = dump(tmp_path, "good.json", _graph())
    assert main(["hom", "count", "--mode", "gamma", "--group", bad, "--source", good, "--target", good]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "DomainError",
        "message": f"{bad}: group 'degree' must be an integer, got True",
    }


def test_minor_names_the_first_unknown_edge_given(tmp_path, capsys):
    fx = fixtures(tmp_path)
    assert main(["catalog", "minor", "--graph", fx["c5"], "--contract", "zz,aa,mm,qq,bb", "--delete", "yy"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DomainError",
        "message": "edge 'zz' is not a canonical edge of the graph",
    }


def test_every_verb_rejects_a_directed_graph_that_carries_a_pairing(tmp_path, capsys):
    bad = dump(tmp_path, "paired.json", {
        "symmetric": False,
        "vertices": [0, 1],
        "edges": [{"id": "e0", "tail": 0, "head": 1}, {"id": "e1", "tail": 1, "head": 0}],
        "pairing": {"e0": "e1", "e1": "e0"},
    })
    directed = CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1, directed=True)})
    cylinders = dump(tmp_path, "ident.json", directed.to_json())
    for argv in (
        ["hom", "count", "--source", bad, "--target", bad],
        ["iso", "--left", bad, "--right", bad],
        ["export-dot", "--graph", bad],
        ["product", "--graph", bad, "--cylinders", cylinders],
        ["expo", "--cylinders", cylinders, "--target", bad],
    ):
        assert main(argv) == 1, argv
        assert _one_line_error(capsys) == {
            "error": "DomainError",
            "message": f"{bad}: non-symmetric graph must not carry a pairing",
        }


def test_a_huge_group_degree_with_a_small_generator_is_a_typed_error(tmp_path, capsys):
    fx = fixtures(tmp_path)
    cylinders = dump(tmp_path, "huge.json", _cylinders(group={"degree": 10**30, "generators": [[2, 1]]}))
    assert main(["product", "--graph", fx["c5lab"], "--cylinders", cylinders]) == 1
    assert _one_line_error(capsys) == {
        "error": "NotAPermutation",
        "message": f"{cylinders}: generator degree 2 != group degree {10**30}",
    }


def test_a_group_degree_no_tuple_can_hold_is_a_resource_limit_naming_the_file(tmp_path, capsys):
    fx = fixtures(tmp_path)
    cylinders = dump(tmp_path, "huge.json", _cylinders(group={"degree": 10**30, "generators": []}))
    assert main(["product", "--graph", fx["c5lab"], "--cylinders", cylinders]) == 1
    assert _one_line_error(capsys) == {
        "error": "ResourceLimit",
        "message": f"{cylinders}: degree {10**30} is more points than a permutation can hold (at most {sys.maxsize})",
    }


def test_a_label_conflict_in_a_graph_file_names_the_file(tmp_path, capsys):
    fx = fixtures(tmp_path)
    bad = dump(tmp_path, "twins.json", {
        "symmetric": True,
        "vertices": [0, 1],
        "edges": [{"id": "e0", "tail": 0, "head": 1, "label": 1}, {"id": "e1", "tail": 1, "head": 0, "label": 2}],
        "pairing": {"e0": "e1", "e1": "e0"},
    })
    assert main(["product", "--graph", bad, "--cylinders", fx["p2"]]) == 1
    assert _one_line_error(capsys) == {
        "error": "LabelConflict",
        "message": f"{bad}: paired edges 'e0'/'e1' carry incompatible labels",
    }


GOOD_LABEL = {"pre": [1], "cyl": 1, "post": [1]}
# a malformed attachment label after a well-formed one -> (error type, message after the file name)
MALFORMED_LABELS = {
    "cyl list": ({"pre": [1], "cyl": [1], "post": [1]}, "DomainError", "label 'cyl' must be a JSON scalar, got [1]"),
    "cyl object": ({"pre": [1], "cyl": {"k": 1}, "post": [1]}, "DomainError",
                   "label 'cyl' must be a JSON scalar, got {'k': 1}"),
    "pre nested": ({"pre": [[1]], "cyl": 1, "post": [1]}, "NotAPermutation",
                   "images must be a list of integers, got [[1]]"),
    "post number": ({"pre": [1], "cyl": 1, "post": 5}, "NotAPermutation", "images must be a list of integers, got 5"),
    "pre repeats": ({"pre": [1, 1], "cyl": 1, "post": [1, 2]}, "NotAPermutation", "not a bijection on 1..2: (1, 1)"),
}


@pytest.mark.parametrize("name", MALFORMED_LABELS)
def test_a_malformed_attachment_label_is_one_typed_error(tmp_path, capsys, name):
    # labels are interned once validated, so a malformed one never reaches a dict as a key
    label, error, message = MALFORMED_LABELS[name]
    edges = [{"id": "e0", "tail": 0, "head": 1, "label": GOOD_LABEL}, {"id": "e1", "tail": 1, "head": 0, "label": label}]
    bad = dump(tmp_path, "bad.json", _graph(edges=edges))
    assert main(["hom", "count", "--source", bad, "--target", bad]) == 1
    assert _one_line_error(capsys) == {"error": error, "message": f"{bad}: {message}"}


# ``cyl`` in a child process whose address space is capped at 600 MB, so that
# a path built before its length is checked fails there, not in the test run
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))
from cylgraph.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("lengths", [["power", "-n", "{big}"], ["subdivision", "-n", "{big}"],
                                     ["fracpower", "-m", "{big}", "-n", "1"], ["fracpower", "-m", "1", "-n", "{big}"]],
                         ids=" ".join)
def test_a_path_length_past_the_cap_is_refused_before_the_path_is_built(tmp_path, lengths):
    pytest.importorskip("resource")
    src = dump(tmp_path, "petersen.json", petersen().to_json())
    big = 10**9
    argv = ["catalog", *(a.format(big=big) for a in lengths), "--graph", src]
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == json.dumps({"error": "ResourceLimit",
                                     "message": f"path length {big} exceeds {MAX_PRODUCT_EDGES}, the product edge cap"}) + "\n"


def test_a_sheet_count_past_the_cap_is_refused_before_the_lift_is_built(tmp_path):
    """A width-k identity cylinder has k rungs: ``voltage -k`` is held to the product edge cap before the
    identity permutation of degree k is asked for."""
    pytest.importorskip("resource")
    base = dump(tmp_path, "petersen.json", petersen().to_json())
    volts = dump(tmp_path, "volts.json", {})
    big = 10**9
    argv = ["catalog", "voltage", "--base", base, "--voltages", volts, "-k", str(big)]
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == json.dumps({"error": "ResourceLimit",
                                     "message": f"sheet count {big} exceeds {MAX_PRODUCT_EDGES}, the product edge cap"}) + "\n"
