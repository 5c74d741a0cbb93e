"""``Graph.from_json`` against a frozen copy of its record-by-record reader.

The reader checks a well-formed document a column at a time and reads any
other one record by record; on every document drawn here it must give the
oracle's graph (vertex order, edge order and labels, pairing order, and
which edges share one label object) or the oracle's error, type and
message alike."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cylgraph.core import GammaLabel, Graph, label_from_json
from cylgraph.errors import JSON_SCALAR, DomainError, json_checked


def reader_oracle(data) -> Graph:
    """``Graph.from_json`` as it read every document record by record."""
    g = Graph(bool(json_checked(data, dict, "graph").get("symmetric", False)))
    vertices = json_checked(data.get("vertices"), list, "'vertices'")
    g.add_vertices(json_checked(v, JSON_SCALAR, "vertex name") for v in vertices)
    interned: dict = {}
    for i, rec in enumerate(json_checked(data.get("edges"), list, "'edges'")):
        if not isinstance(rec, dict) or "tail" not in rec or "head" not in rec:
            raise DomainError(f"edge #{i} needs 'tail' and 'head'")
        tail, head = (json_checked(rec[end], JSON_SCALAR, f"edge #{i} {end!r}") for end in ("tail", "head"))
        label = label_from_json(rec.get("label"))
        if isinstance(label, GammaLabel):
            label = interned.setdefault((label, str(label.key)), label)
        g.add_edge(tail, head, label, rec.get("id"))
    for eid, tw in json_checked(data.get("pairing", {}), dict, "'pairing'").items():
        g.pair_edges(eid, json_checked(tw, JSON_SCALAR, "'pairing' twin"))
    g.validate()
    return g


def _typed(x):
    """``x`` with its type, so that 1, 1.0 and True stay apart."""
    if isinstance(x, GammaLabel):
        return "gamma", tuple(x.pre), _typed(x.key), tuple(x.post)
    return type(x).__name__, x


def outcome(read, data):
    try:
        g = read(data)
    except Exception as exc:  # a huge integer's ValueError as well as the library's errors
        return type(exc).__name__, str(exc)
    first: dict = {}  # label object -> the first edge carrying it
    return (
        g.symmetric,
        [_typed(v) for v in g.vertices],
        [(eid, _typed(t), _typed(h), _typed(lab)) for eid, (t, h, lab) in g.edges.items()],
        list(g.pairing.items()),
        [first.setdefault(id(lab), i) for i, (_, _, lab) in enumerate(g.edges.values())],
    )


# -- documents ------------------------------------------------------------------

NAMES = st.sampled_from(["a", "b", "0", "x#1", 0, 1, 2, 1.0, True, None])
PERMS = st.sampled_from([[1, 2], [2, 1]])
LABELS = st.one_of(
    st.sampled_from([None, "a", 1, 1.0, True]),
    st.builds(lambda pre, key, post: {"pre": pre, "cyl": key, "post": post},
              PERMS, st.sampled_from([1, 1.0, "1", "k"]), PERMS),
)
HUGE = 10**5000  # str() of it raises ValueError


def _reverse(label):
    return {"pre": label["post"], "cyl": label["cyl"], "post": label["pre"]} if isinstance(label, dict) else label


@st.composite
def documents(draw, ids: str = "any"):
    """A graph document, directed or symmetric, with loops, parallel edges,
    repeated names (1, 1.0 and True collapse into one vertex) and shared
    label objects.  ``ids``: ``"all"`` gives every edge an id; ``"any"``
    also draws documents whose edges lack some ids (or lack all, named as
    the reader would name them) and symmetric ones whose pairing lists one
    edge of a pair only."""
    symmetric = draw(st.booleans())
    vertices = draw(st.lists(NAMES, min_size=1, max_size=5))
    edges, pairing = [], {}
    for n in range(draw(st.integers(0, 6))):
        u, v = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
        label = draw(LABELS)
        if symmetric:
            edges.append({"id": f"a{n}", "tail": u, "head": v, "label": label})
            edges.append({"id": f"b{n}", "tail": v, "head": u, "label": _reverse(label)})
        else:
            edges.append({"id": f"a{n}", "tail": u, "head": v, "label": label})
    edges = draw(st.permutations(edges))
    names = {rec["id"]: rec["id"] for rec in edges}
    missing = draw(st.sampled_from(["none", "some", "all"])) if ids == "any" else "none"
    if missing == "all":  # named e0, e1, ... in record order, as the reader names them
        names = {rec["id"]: f"e{i}" for i, rec in enumerate(edges)}
    for rec in edges:
        rec["id"] = names[rec["id"]]
        if missing == "all" or missing == "some" and draw(st.booleans()):
            del rec["id"]
    if symmetric:
        for n in range(len(edges) // 2):
            a, b = names[f"a{n}"], names[f"b{n}"]
            pairing[a] = b
            if ids == "all" or draw(st.booleans()):  # one-sided otherwise
                pairing[b] = a
        pairing = dict(draw(st.permutations(list(pairing.items()))))
    doc = {"vertices": vertices, "edges": edges}
    if symmetric or draw(st.booleans()):
        doc["symmetric"] = symmetric
    if symmetric or draw(st.booleans()):
        doc["pairing"] = pairing
    return doc


# -- mutations --------------------------------------------------------------------
# Each takes ``draw`` and a document and changes the document in place; a
# spot an earlier mutation took away (no edge list left, say) is passed over.


def _records(doc) -> list:
    recs = doc.get("edges")
    return [rec for rec in recs if isinstance(rec, dict)] if isinstance(recs, list) else []


def _edge(draw, doc):
    recs = _records(doc)
    return draw(st.sampled_from(recs)) if recs else None


def _gamma(rec) -> dict | None:
    return rec["label"] if rec is not None and isinstance(rec.get("label"), dict) else None


def drop_a_key(draw, doc):
    rec = _edge(draw, doc)
    where = doc if rec is None or draw(st.booleans()) else _gamma(rec) if draw(st.booleans()) else rec
    if where:
        del where[draw(st.sampled_from(sorted(where)))]


WRONG = st.sampled_from([["x"], {"x": 1}, {"pre": [1, 2], "cyl": [1], "post": [1, 2]}, ("a",), 7, 2.5, None])
SPOTS = ["symmetric", "vertices", "vertex", "edges", "record", "end", "id", "label", "perm", "twin"]


def wrong_type(draw, doc):
    bad, spot, rec = draw(WRONG), draw(st.sampled_from(SPOTS)), _edge(draw, doc)
    vertices, pairing = doc.get("vertices"), doc.get("pairing")
    if spot in ("symmetric", "vertices", "edges"):
        doc[spot] = bad
    elif spot == "vertex" and isinstance(vertices, list) and vertices:
        vertices[draw(st.integers(0, len(vertices) - 1))] = bad
    elif spot == "twin" and isinstance(pairing, dict) and pairing:
        pairing[draw(st.sampled_from(sorted(pairing)))] = bad
    elif spot == "twin":
        doc["pairing"] = bad
    elif rec is None:
        pass
    elif spot == "record":
        doc["edges"][doc["edges"].index(rec)] = bad
    elif spot == "end":
        rec[draw(st.sampled_from(["tail", "head"]))] = bad
    elif spot in ("id", "label"):
        rec[spot] = bad
    elif _gamma(rec) is not None:
        rec["label"][draw(st.sampled_from(["pre", "post"]))] = draw(st.sampled_from([[1, 1], [1, 2, 3], "12", [1, 2.0]]))


def duplicate_id(draw, doc):
    recs = _records(doc)
    if len(recs) >= 2:
        a, b = draw(st.lists(st.sampled_from(recs), min_size=2, max_size=2, unique_by=id))
        a["id"] = b.get("id", "e0")


def unknown_end(draw, doc):
    rec = _edge(draw, doc)
    if rec is not None:
        rec[draw(st.sampled_from(["tail", "head"]))] = draw(st.sampled_from(["nowhere", 3, 0.5, False]))


def bad_twin(draw, doc):
    pairing = doc.setdefault("pairing", {})
    if not isinstance(pairing, dict):
        return
    ids = [rec["id"] for rec in _records(doc) if "id" in rec] or ["e0"]
    eid = draw(st.sampled_from(sorted(pairing, key=str) + ids))
    kind = draw(st.sampled_from(["unknown", "self", "other", "unknown key"]))
    if kind == "unknown":
        pairing[eid] = draw(st.sampled_from(["nowhere", 5, None]))
    elif kind == "self":
        pairing[eid] = eid
    elif kind == "other":  # mostly no reverse of the edge
        pairing[eid] = draw(st.sampled_from(ids))
    else:
        pairing["nowhere"] = eid


def huge_integer(draw, doc):
    rec = _edge(draw, doc)
    spot = draw(st.sampled_from(["vertex", "id", "label", "cyl", "perm", "twin"]))
    vertices, pairing = doc.get("vertices"), doc.get("pairing")
    if spot == "vertex" and isinstance(vertices, list):
        vertices.append(HUGE)
        if rec is not None:
            rec[draw(st.sampled_from(["tail", "head"]))] = HUGE
    elif spot == "twin" and isinstance(pairing, dict) and pairing:
        pairing[draw(st.sampled_from(sorted(pairing, key=str)))] = HUGE
    elif rec is None:
        pass
    elif spot in ("id", "label"):
        rec[spot] = HUGE
    elif _gamma(rec) is not None:
        rec["label"] = dict(rec["label"], **{"cyl" if spot == "cyl" else "pre": HUGE if spot == "cyl" else [HUGE, 1]})


MUTATIONS = {f.__name__: f for f in (drop_a_key, wrong_type, duplicate_id, unknown_end, bad_twin, huge_integer)}


# -- tests --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(documents(ids="all"))
def test_a_document_with_every_id_is_read_a_column_at_a_time_to_the_oracles_graph(doc):
    assert Graph._from_columns(doc) is not None  # the column reader, not its fallback, reads these
    assert outcome(Graph.from_json, doc) == outcome(reader_oracle, doc)


@settings(max_examples=300, deadline=None)
@given(documents())
def test_any_well_typed_document_reads_as_the_oracle_reads_it(doc):
    assert outcome(Graph.from_json, doc) == outcome(reader_oracle, doc)


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_document_reads_as_the_oracle_reads_it(mutation, data):
    doc = data.draw(documents())
    for _ in range(data.draw(st.integers(1, 2))):
        MUTATIONS[mutation](data.draw, doc)
    assert outcome(Graph.from_json, doc) == outcome(reader_oracle, doc)


@pytest.mark.parametrize("doc", [None, [], "graph", 1, {}, {"vertices": []}, {"vertices": [], "edges": []}])
def test_a_document_of_another_shape_reads_as_the_oracle_reads_it(doc):
    assert outcome(Graph.from_json, doc) == outcome(reader_oracle, doc)
