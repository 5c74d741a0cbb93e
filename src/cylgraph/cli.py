"""Command-line front end.

Everything speaks canonical JSON: graphs and cylinder sets are read from
files, results are written to ``-o`` (or stdout) with sorted keys so diffs
stay readable.  Decision verbs exit 0 for yes, 2 for no; any failure exits 1
with a one-line error object on stderr.  The env var ``CYL_NODE_BUDGET``
caps every search.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections.abc import Sequence

from .catalog import (
    NEPS_KINDS,
    cone,
    fractional_power,
    graph_minor,
    join_with,
    looped_line_graph,
    neps_product,
    petersen,
    replacement_product,
    subdivision,
    voltage_lift,
    walk_power,
    zigzag_product,
)
from .construct import _uniform, cyl_product, exponential
from .core import Graph, isomorphic
from .cylinder import CylinderSet
from .duality import check_duality, is_lower_closed, is_upper_closed
from .errors import CylError, DomainError, json_checked
from .hom import MODES, count_homs, find_hom, list_homs
from .perm import Perm, PermGroup

_SCALARS, _STR, _DICT = frozenset((str, int, float, bool, type(None))), frozenset((str,)), frozenset((dict,))


class UsageError(CylError):
    """Bad flags or a malformed invocation."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on its own; route through our error
    # channel instead so every failure looks the same on stderr.
    def error(self, message: str):
        raise UsageError(message)


# -- input plumbing -------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from None


def _read(path: str, build):
    """``build`` applied to a JSON file's content; an error it raises keeps its type and names the file."""
    data = _load_json(path)
    try:
        return build(data)
    except CylError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_graph(path: str) -> Graph:
    return _read(path, Graph.from_json)


def load_cylinders(path: str) -> CylinderSet:
    return _read(path, CylinderSet.from_json)


def load_group(path: str) -> PermGroup:
    """A slot group, either standalone or pulled out of a cylinder set."""
    def build(data):
        if isinstance(data, dict) and "cylinders" in data:
            return CylinderSet.from_json(data).group
        return PermGroup.from_json(data)

    return _read(path, build)


def _emit(data: dict, out: str | None) -> None:
    _emit_text(_dumps(data) + "\n", out)


@functools.cache
def _flat(depth: int) -> tuple:  # (C encoder putting each item but the first on a new line depth levels in, that break)
    ind = "\n" + "  " * depth
    return json.encoder.c_make_encoder(None, str, json.encoder.encode_basestring_ascii, None, ": ", "," + ind,
                                       True, False, True), ind


def _dumps(x, depth: int = 0) -> str:
    """``json.dumps(x, indent=2, sort_keys=True, default=str)`` indented ``depth`` levels more.  Stdlib's ``indent=``
    runs in Python; here C writes scalars, lists and objects of them and lists of such objects, stdlib the rest."""
    t = type(x)
    if json.encoder.c_make_encoder is not None and (t in _SCALARS or (t is list or t is dict) and x):
        enc, ind = _flat(depth + 1)
        if t in _SCALARS or _SCALARS.issuperset(map(type, x.values() if t is dict else x)):
            s = "".join(enc(x, 0))
            return s if t in _SCALARS else f"{s[0]}{ind}{s[1:-1]}{ind[:-2]}{s[-1]}"
        if t is list and _DICT.issuperset(map(type, x)) and all(x) and \
                _SCALARS.issuperset({type(v) for d in x for v in d.values()}):
            # one call at depth + 2; "}," ends objects only (no scalar ends in "}"): those breaks move out
            s = "".join(_flat(depth + 2)[0](x, 0))[2:-2].replace(f"}},{ind}  {{", f"{ind}}},{ind}{{{ind}  ")
            return f"[{ind}{{{ind}  {s}{ind}}}{ind[:-2]}]"
        if t is list:
            return f"[{ind}" + f",{ind}".join([_dumps(v, depth + 1) for v in x]) + f"{ind[:-2]}]"
        if _STR.issuperset(map(type, x)):
            items = [f"{json.encoder.encode_basestring_ascii(k)}: {_dumps(x[k], depth + 1)}" for k in sorted(x)]
            return f"{{{ind}" + f",{ind}".join(items) + f"{ind[:-2]}}}"
    return json.dumps(x, indent=2, sort_keys=True, default=str).replace("\n", "\n" + "  " * depth)


def _emit_text(text: str, out: str | None) -> None:
    """Write to stdout, or over the file ``out`` in place and then cut
    its old tail.  Truncating on open instead makes ext4 flush the rewritten
    file to disk at close, about 55 ms per write on a virtual disk."""
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


# -- commands -------------------------------------------------------------------


def _maybe_uniform(g: Graph, cset: CylinderSet, flag: str | None) -> Graph:
    """Resolve --uniform: label every edge of a plain graph at the named
    cylinder key (the value is read as JSON so numeric keys stay numeric)."""
    if flag is None:
        return g
    try:
        key = json.loads(flag)
    except json.JSONDecodeError:
        key = flag
    if key not in cset.keys():
        raise UsageError(f"--uniform {flag!r} is not a key of the cylinder set")
    return _uniform(g, key, cset.width)  # load_graph validated g; one label on every edge keeps it valid


def cmd_product(args) -> int:
    cset = load_cylinders(args.cylinders)
    g = _maybe_uniform(load_graph(args.graph), cset, args.uniform)
    tr = cyl_product(g, cset)
    _emit(tr.graph.to_json(), args.output)
    return 0


def cmd_expo(args) -> int:
    cset = load_cylinders(args.cylinders)
    h = load_graph(args.target)
    et = exponential(cset, h)
    _emit(et.graph.to_json(), args.output)
    return 0


def cmd_reduce(args) -> int:
    """Turn a structured-map question into a plain target-map question.

    The emitted instance is the inflated source graph; a labeled
    homomorphism from it into the (unchanged) target exists exactly when
    the original structured map into the exponential does.
    """
    load_graph(args.target)  # validated; the instance leaves it untouched
    return cmd_product(args)


def cmd_hom(args) -> int:
    if args.mode not in MODES:
        raise UsageError(f"--mode must be one of {', '.join(MODES)}")
    g = load_graph(args.source)
    h = load_graph(args.target)
    group = None
    if args.mode == "gamma":
        if not args.group:
            raise UsageError("--mode gamma needs --group")
        group = load_group(args.group)
    if args.limit is not None and args.limit < 1:
        raise UsageError(f"--limit must be at least 1, got {args.limit}")
    if args.action == "exists":
        found = find_hom(g, h, mode=args.mode, group=group)
        _emit({"exists": found is not None}, args.output)
        return 0 if found is not None else 2
    if args.action == "count":
        n = count_homs(g, h, mode=args.mode, group=group)
        _emit({"count": n}, args.output)
        return 0 if n else 2
    homs = list_homs(g, h, mode=args.mode, group=group, limit=args.limit)
    _emit({"count": len(homs), "homs": [m.to_json() for m in homs]}, args.output)
    return 0 if homs else 2


def cmd_duality(args) -> int:
    cset = load_cylinders(args.cylinders)
    g = _maybe_uniform(load_graph(args.graph), cset, args.uniform)
    h = load_graph(args.target)
    report = check_duality(g, cset, h)
    _emit(report.to_json(), args.output)
    return 0


def cmd_closed(args) -> int:
    cset = load_cylinders(args.cylinders)
    if args.direction == "lower":
        if not args.target:
            raise UsageError("closed lower needs --target")
        holds = is_lower_closed(cset, load_graph(args.target))
        _emit({"closed": "lower", "holds": holds}, args.output)
    elif args.direction == "upper":
        if not args.graph:
            raise UsageError("closed upper needs --graph")
        holds = is_upper_closed(cset, load_graph(args.graph))
        _emit({"closed": "upper", "holds": holds}, args.output)
    else:  # tight: do both counts agree on this triple?
        if not args.graph or not args.target:
            raise UsageError("closed tight needs --graph and --target")
        report = check_duality(load_graph(args.graph), cset, load_graph(args.target))
        holds = report.tight_on_G
        _emit(report.to_json(), args.output)
    return 0 if holds else 2


def cmd_catalog(args) -> int:
    _emit(_BUILDERS[args.builder][1](args).to_json(), args.output)
    return 0


def cmd_iso(args) -> int:
    a = load_graph(args.left)
    b = load_graph(args.right)
    found = isomorphic(a, b)
    if found is None:
        _emit({"isomorphic": False}, args.output)
        return 2
    _emit({"isomorphic": True, "vertices": {str(v): w for v, w in sorted(found["vertices"].items(), key=lambda kv: str(kv[0]))}}, args.output)
    return 0


def cmd_export(args) -> int:
    g = load_graph(args.graph)
    _emit_text(g.to_dot(), args.output)
    return 0


# -- parser ---------------------------------------------------------------------


def _arg(*names, **kw) -> tuple:
    """One ``add_argument`` call, kept as data."""
    return names, kw


def _ids(text: str | None) -> tuple:
    return tuple(text.split(",")) if text else ()


def _voltage_lift(args) -> Graph:
    base = load_graph(args.base)
    raw = json_checked(_load_json(args.voltages), dict, args.voltages)
    volts = {eid: Perm(json_checked(ims, list, f"{args.voltages}: voltage of {eid!r}")) for eid, ims in raw.items()}
    return voltage_lift(base, volts, args.k)


_GRAPH = _arg("--graph", required=True)
_CYLINDERS = _arg("--cylinders", required=True)
_TARGET = _arg("--target", required=True)
_UNIFORM = _arg("--uniform", metavar="KEY", help="label every edge of a plain graph at this cylinder key first")
_LEFT_RIGHT = (_arg("--left", required=True), _arg("--right", required=True))
_OUTER_INNER = (_arg("--outer", required=True), _arg("--inner", required=True))

# catalog builder -> (its flags, the graph it builds from the parsed arguments)
_BUILDERS = {
    "petersen": ((), lambda a: petersen()),
    "power": ((_GRAPH, _arg("-n", type=int, required=True, help="walk length")),
              lambda a: walk_power(load_graph(a.graph), a.n)),
    "subdivision": ((_GRAPH, _arg("-n", type=int, required=True, help="edges per stretched edge")),
                    lambda a: subdivision(load_graph(a.graph), a.n)),
    "fracpower": ((_GRAPH, _arg("-m", type=int, required=True, help="walk length"),
                   _arg("-n", type=int, required=True, help="subdivision first")),
                  lambda a: fractional_power(load_graph(a.graph), a.m, a.n)),
    "neps": ((*_LEFT_RIGHT, _arg("--kind", required=True, choices=NEPS_KINDS)),
             lambda a: neps_product(load_graph(a.left), load_graph(a.right), a.kind)),
    "voltage": ((_arg("--base", required=True),
                 _arg("--voltages", required=True, help="JSON object: edge id -> permutation images"),
                 _arg("-k", type=int, required=True, help="sheets")), _voltage_lift),
    "zigzag": (_OUTER_INNER, lambda a: zigzag_product(load_graph(a.outer), load_graph(a.inner))),
    "replacement": (_OUTER_INNER, lambda a: replacement_product(load_graph(a.outer), load_graph(a.inner))[0]),
    "linegraph": ((_GRAPH,), lambda a: looped_line_graph(load_graph(a.graph))),
    "join": (_LEFT_RIGHT, lambda a: join_with(load_graph(a.left), load_graph(a.right))),
    "universal": ((_GRAPH,), lambda a: cone(load_graph(a.graph))),
    "minor": ((_GRAPH, _arg("--contract", help="comma-separated edge ids"),
               _arg("--delete", help="comma-separated edge ids")),
              lambda a: graph_minor(load_graph(a.graph), contract=_ids(a.contract), delete=_ids(a.delete))),
}

# verb -> (help, its flags, the name of its cmd_* function); catalog's flags
# are its builders
_VERBS = {
    "product": ("inflate a labeled graph by a cylinder set", (_GRAPH, _CYLINDERS, _UNIFORM), "cmd_product"),
    "expo": ("exponential of a target by a cylinder set", (_CYLINDERS, _TARGET), "cmd_expo"),
    "hom": ("query maps between two graphs", (
        _arg("action", choices=("exists", "count", "list")),
        _arg("--source", required=True),
        _TARGET,
        _arg("--mode", default="labeled", help="plain, labeled or gamma"),
        _arg("--group", help="slot group (or cylinder set) for gamma mode"),
        _arg("--limit", type=int, help="cap for 'list'"),
    ), "cmd_hom"),
    "duality": ("two-sided correspondence report",
                (_arg("check", choices=("check",)), _GRAPH, _CYLINDERS, _TARGET, _UNIFORM), "cmd_duality"),
    "closed": ("closedness / tightness checks", (
        _arg("direction", choices=("lower", "upper", "tight")),
        _CYLINDERS,
        _arg("--graph", help="source graph (upper, tight)"),
        _arg("--target", help="target graph (lower, tight)"),
    ), "cmd_closed"),
    "catalog": ("named constructions", _BUILDERS, "cmd_catalog"),
    "reduce": ("emit the inflated instance whose target-maps decide the structured question",
               (_GRAPH, _CYLINDERS, _TARGET, _UNIFORM), "cmd_reduce"),
    "iso": ("are two graphs isomorphic?", _LEFT_RIGHT, "cmd_iso"),
    "export-dot": ("graph JSON to DOT", (_GRAPH,), "cmd_export"),
}


def _add_flags(p, flags) -> None:
    for names, kw in flags:
        p.add_argument(*names, **kw)
    p.add_argument("-o", "--output", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    """The ``cyl`` argument parser, built from ``_VERBS`` and ``_BUILDERS``.
    Each verb stores the name of its ``cmd_*`` function as ``func``;
    :func:`main` looks it up in this module when it runs, so a parser built
    once serves every call."""
    p = _Parser(prog="cyl", description="Cylinder products, exponentials and map queries over JSON graph files.")
    p.add_argument("--seed", type=int, default=0, help="accepted and has no effect: every command is deterministic")
    sub = p.add_subparsers(dest="command", required=True)
    for verb, (help_text, flags, func) in _VERBS.items():
        sp = sub.add_parser(verb, help=help_text)
        if flags is _BUILDERS:
            cat = sp.add_subparsers(dest="builder", required=True)
            for builder, (builder_flags, _) in _BUILDERS.items():
                _add_flags(cat.add_parser(builder), builder_flags)
        else:
            _add_flags(sp, flags)
        sp.set_defaults(func=func)
    return p


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")
    return 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[args.func](args)
    except UsageError as exc:
        return _fail("usage", str(exc))
    except CylError as exc:
        return _fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail("io", str(exc))
    except Exception as exc:  # a fault of the program; still one line of JSON
        return _fail("internal", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
