"""CLI output frozen in golden files, compared byte for byte with
``tests/golden/<name>.json`` (``.dot`` for ``export-dot``): ``hom list`` in
gamma and labeled mode, ``product``, ``duality check``, ``closed``,
``reduce``, every catalog builder, ``iso`` and ``export-dot``.  The shape
of the argument parser itself is frozen in ``tests/golden/parser_tree.json``."""

import argparse
import json
import random
from pathlib import Path

import pytest

from cylgraph.catalog import complete_graph, cycle_graph, neps_cylinder, path_graph, petersen
from cylgraph.cli import build_parser, main
from cylgraph.construct import cyl_product, exponential, uniform_labels
from cylgraph.core import Graph
from cylgraph.cylinder import CylinderSet, identity_cyl, path_cyl, square_cyl, wedge_cyl
from cylgraph.perm import Perm, PermGroup

from util import random_gamma_labels, random_multigraph, shuffled_relabel

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


def _dumbbell():
    """Two looped vertices joined by a bar, and voltages turning the loops by
    a 5-cycle and its square."""
    g = Graph(symmetric=True)
    g.add_vertices("uw")
    e1, _ = g.add_sym_edge("u", "u")
    e2, _ = g.add_sym_edge("w", "w")
    g.add_sym_edge("u", "w")
    rho = Perm.from_cycles(5, (1, 2, 3, 4, 5))
    return g, {e1: list(rho), e2: list(rho * rho)}


# cases whose verb answers "no" (exit code 2)
ANSWERS_NO = {"closed_lower_square_k3"}


def golden_cases():
    """name -> (verb words, {flag: payload written to a JSON file}, extra
    flags).  A payload is a graph or cylinder set, or plain JSON data."""
    s2 = PermGroup.symmetric(2)
    wedge = CylinderSet(s2, {1: wedge_cyl()})
    square = CylinderSet(s2, {1: square_cyl()})
    mixed = CylinderSet(s2, {1: wedge_cyl(), 2: square_cyl()})
    walk = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2)})
    directed = CylinderSet(PermGroup.trivial(1), {1: path_cyl(2, directed=True)})
    tensor = CylinderSet(PermGroup.trivial(3), {"tensor": neps_cylinder(path_graph(2), "tensor")})
    hom_list = ["hom", "list"]
    dumbbell, voltages = _dumbbell()
    twisted_c4 = random_gamma_labels(random.Random(3), cycle_graph(4), mixed)
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
            "--graph": twisted_c4,
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
        "duality_check_wedge_c5": (["duality", "check"], {
            "--graph": cycle_graph(4),
            "--cylinders": wedge,
            "--target": cycle_graph(5),
        }, ["--uniform", "1"]),
        "duality_check_twisted_k3": (["duality", "check"], {
            "--graph": random_gamma_labels(random.Random(7), path_graph(2), mixed),
            "--cylinders": mixed,
            "--target": complete_graph(3),
        }, []),
        "duality_check_not_free": (["duality", "check"], {
            "--graph": cycle_graph(4),
            "--cylinders": CylinderSet(s2, {1: identity_cyl(2)}),
            "--target": complete_graph(3),
        }, ["--uniform", "1"]),
        "duality_check_directed": (["duality", "check"], {
            "--graph": _directed_source(),
            "--cylinders": directed,
            "--target": _digraph(),
        }, ["--uniform", "1"]),
        "closed_lower_identity_c5": (["closed", "lower"], {
            "--cylinders": CylinderSet(PermGroup.trivial(1), {1: identity_cyl(1)}),
            "--target": cycle_graph(5),
        }, []),
        "closed_lower_square_k3": (["closed", "lower"], {
            "--cylinders": square,
            "--target": complete_graph(3),
        }, []),
        "closed_upper_square_k3": (["closed", "upper"], {
            "--cylinders": square,
            "--graph": complete_graph(3),
        }, []),
        "closed_tight_square_c4": (["closed", "tight"], {
            "--cylinders": square,
            "--graph": uniform_labels(cycle_graph(4), 1, width=2),
            "--target": complete_graph(3),
        }, []),
        "reduce_twisted_c4": (["reduce"], {
            "--graph": twisted_c4,
            "--cylinders": mixed,
            "--target": complete_graph(3),
        }, []),
        "catalog_petersen": (["catalog", "petersen"], {}, []),
        "catalog_power_c5": (["catalog", "power"], {"--graph": cycle_graph(5)}, ["-n", "2"]),
        "catalog_fracpower_c4": (["catalog", "fracpower"], {"--graph": cycle_graph(4)}, ["-m", "3", "-n", "2"]),
        "catalog_linegraph_multigraph": (["catalog", "linegraph"], {
            "--graph": random_multigraph(random.Random(5), 4, 6, labels=(None,), symmetric=True),
        }, []),
        "catalog_subdivision_c5": (["catalog", "subdivision"], {"--graph": cycle_graph(5)}, ["-n", "3"]),
        "catalog_subdivision_directed": (["catalog", "subdivision"], {"--graph": _digraph()}, ["-n", "2"]),
        "catalog_voltage_dumbbell": (["catalog", "voltage"], {
            "--base": dumbbell,
            "--voltages": voltages,
        }, ["-k", "5"]),
        "catalog_zigzag_k4_c3": (["catalog", "zigzag"], {
            "--outer": complete_graph(4),
            "--inner": cycle_graph(3),
        }, []),
        "catalog_replacement_k4_c3": (["catalog", "replacement"], {
            "--outer": complete_graph(4),
            "--inner": cycle_graph(3),
        }, []),
        "catalog_minor_multigraph": (["catalog", "minor"], {
            "--graph": random_multigraph(random.Random(5), 4, 6, labels=(None,), symmetric=True),
        }, ["--contract", "e2", "--delete", "e6,e8"]),
        "catalog_minor_directed": (["catalog", "minor"], {"--graph": _digraph()},
                                   ["--contract", "e0", "--delete", "e4,e5"]),
        "catalog_neps_strong_p2_k3": (["catalog", "neps"], {
            "--left": path_graph(2),
            "--right": complete_graph(3),
        }, ["--kind", "strong"]),
        "catalog_join_c4_p1": (["catalog", "join"], {"--left": cycle_graph(4), "--right": path_graph(1)}, []),
        "catalog_universal_c5": (["catalog", "universal"], {"--graph": cycle_graph(5)}, []),
        "iso_petersen": (["iso"], {
            "--left": petersen(),
            "--right": shuffled_relabel(random.Random(1), petersen()),
        }, []),
        "export_dot_twisted_product": (["export-dot"], {"--graph": cyl_product(twisted_c4, mixed).graph}, []),
        "export_dot_directed": (["export-dot"], {"--graph": uniform_labels(_digraph(), 1)}, []),
    }


def golden_path(name):
    return GOLDEN / (f"{name}.dot" if name.startswith("export_dot") else f"{name}.json")


def run_case(name, workdir, out):
    """Write the case's input files under ``workdir`` and run the CLI,
    sending its output to ``out``; returns the exit code."""
    words, files, extra = golden_cases()[name]
    argv = list(words)
    for flag, payload in files.items():
        path = Path(workdir) / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(payload.to_json() if hasattr(payload, "to_json") else payload))
        argv += [flag, str(path)]
    return main(argv + extra + ["-o", str(out)])


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_cli_output_matches_golden_file(tmp_path, name):
    out = tmp_path / "out.json"
    assert run_case(name, tmp_path, out) == (2 if name in ANSWERS_NO else 0)
    assert out.read_bytes() == golden_path(name).read_bytes()


def parser_tree(p: argparse.ArgumentParser) -> dict:
    """A parser as plain data, in declaration order: its defaults and, per
    action, the fields that decide parsing and help, with every subparser
    nested under its name.  Unlike ``format_help()`` this does not depend on
    the terminal width or on the Python version's help layout."""
    actions = []
    for a in p._actions:
        row = {
            "options": a.option_strings,
            "dest": a.dest,
            "required": a.required,
            "nargs": a.nargs,
            "type": getattr(a.type, "__name__", a.type),
            "choices": None if a.choices is None else list(a.choices),
            "default": a.default,
            "metavar": a.metavar,
            "help": a.help,
        }
        if isinstance(a, argparse._SubParsersAction):
            helps = {c.dest: c.help for c in a._choices_actions}
            row["parsers"] = {name: {"help": helps.get(name), **parser_tree(sp)} for name, sp in a.choices.items()}
        actions.append(row)
    return {"prog": p.prog, "description": p.description, "defaults": p._defaults, "actions": actions}


def test_parser_tree_matches_golden_file():
    text = json.dumps(parser_tree(build_parser()), indent=2) + "\n"
    assert text == (GOLDEN / "parser_tree.json").read_text()
