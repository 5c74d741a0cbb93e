"""CLI output frozen in golden files: ``cyl hom list`` in gamma and labeled
mode and ``cyl product`` on catalog instances, compared byte for byte with
``tests/golden/<verb>_<name>.json``."""

import json
import random
from pathlib import Path

import pytest

from cylgraph.catalog import complete_graph, cycle_graph, neps_cylinder, path_graph, petersen
from cylgraph.cli import main
from cylgraph.construct import cyl_product, exponential, uniform_labels
from cylgraph.core import Graph
from cylgraph.cylinder import CylinderSet, path_cyl, square_cyl, wedge_cyl
from cylgraph.perm import PermGroup

from util import random_gamma_labels

GOLDEN = Path(__file__).parent / "golden"


def _digraph():
    """A directed 4-cycle with a chord, a loop and a parallel edge."""
    g = Graph(symmetric=False)
    g.add_vertices("abcd")
    for t, h in ("ab", "bc", "cd", "da", "ac", "bb", "ab"):
        g.add_edge(t, h)
    return g


def _directed_source():
    """A directed path a->b->c with a loop at c."""
    g = Graph(symmetric=False)
    g.add_vertices("abc")
    for t, h in ("ab", "bc", "cc"):
        g.add_edge(t, h)
    return g


def golden_cases():
    """name -> (verb words, {flag: JSON payload written to a file}, extra flags)."""
    s2 = PermGroup.symmetric(2)
    wedge = CylinderSet(s2, {1: wedge_cyl()})
    mixed = CylinderSet(s2, {1: wedge_cyl(), 2: square_cyl()})
    walk = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)})
    directed = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2, directed=True)})
    tensor = CylinderSet(PermGroup.trivial(3), {"tensor": neps_cylinder(path_graph(2), "tensor")})
    hom_list = ["hom", "list"]
    return {
        "hom_list_gamma_wedge_c5": (hom_list, {
            "--source": uniform_labels(path_graph(2), 1, width=2),
            "--target": exponential(wedge, cycle_graph(5)).graph,
            "--group": wedge,
        }, ["--mode", "gamma"]),
        "hom_list_gamma_twisted_k3": (hom_list, {
            "--source": random_gamma_labels(random.Random(7), path_graph(2), mixed),
            "--target": exponential(mixed, complete_graph(3)).graph,
            "--group": mixed,
        }, ["--mode", "gamma"]),
        "hom_list_gamma_directed": (hom_list, {
            "--source": uniform_labels(_directed_source(), 1),
            "--target": exponential(directed, _digraph()).graph,
            "--group": directed,
        }, ["--mode", "gamma"]),
        "hom_list_labeled_petersen": (hom_list, {
            "--source": petersen(),
            "--target": complete_graph(3),
        }, ["--mode", "labeled", "--limit", "5"]),
        "hom_list_labeled_product": (hom_list, {
            "--source": cyl_product(uniform_labels(cycle_graph(5), 1), walk).graph,
            "--target": complete_graph(3),
        }, ["--mode", "labeled", "--limit", "4"]),
        "hom_list_labeled_directed": (hom_list, {
            "--source": _directed_source(),
            "--target": _digraph(),
        }, ["--mode", "labeled", "--limit", "6"]),
        "product_walk_c7": (["product"], {
            "--graph": cycle_graph(7),
            "--cylinders": CylinderSet(PermGroup.trivial(1), {1: path_cyl(3)}),
        }, ["--uniform", "1"]),
        "product_wedge_k3": (["product"], {
            "--graph": uniform_labels(complete_graph(3), 1, width=2),
            "--cylinders": wedge,
        }, []),
        "product_twisted_c4": (["product"], {
            "--graph": random_gamma_labels(random.Random(3), cycle_graph(4), mixed),
            "--cylinders": mixed,
        }, []),
        "product_directed": (["product"], {
            "--graph": _digraph(),
            "--cylinders": directed,
        }, ["--uniform", "1"]),
        "product_tensor_p3": (["product"], {
            "--graph": uniform_labels(path_graph(3), "tensor", width=3),
            "--cylinders": tensor,
        }, []),
    }


def run_case(name, workdir, out):
    """Write the case's input files under ``workdir`` and run the CLI,
    sending its output to ``out``; returns the exit code."""
    words, files, extra = golden_cases()[name]
    argv = list(words)
    for flag, payload in files.items():
        path = Path(workdir) / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(payload.to_json()))
        argv += [flag, str(path)]
    return main(argv + extra + ["-o", str(out)])


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_cli_output_matches_golden_file(tmp_path, name):
    out = tmp_path / "out.json"
    assert run_case(name, tmp_path, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
