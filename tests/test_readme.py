"""The examples in README.md run as written, and its list of size caps
gives each cap's value."""

import contextlib
import io
import json
import re
from pathlib import Path

from cylgraph import construct, perm
from cylgraph.core import Graph

README = (Path(__file__).parent.parent / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def test_python_examples_run_and_print_what_their_comments_say():
    code = blocks("python")
    assert len(code) == 2
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in code:
            exec(compile(block, "README.md", "exec"), namespace)
    said = re.findall(r"^print\(.*?\)[ \t]+# (.+)$", "".join(code), re.M)
    assert said == ["Graph(sym, 3 vertices, 12 edges)"]
    assert set(said) <= set(out.getvalue().splitlines())


def test_the_graph_file_example_loads():
    g = Graph.from_json(json.loads(blocks("json")[0]))
    assert g.symmetric and list(g.vertices) == [0, 1, 2]
    assert g.pairing == {"e0": "e1", "e1": "e0"}


def test_every_size_cap_is_listed_with_its_value():
    knobs = README[README.index("### Knobs"):README.index("## Layout")]
    for value in (construct.MAX_PRODUCT_EDGES, construct.MAX_TUPLE_SPACE,
                  construct.MAX_EXPO_VERTICES, perm.MAX_GROUP_ORDER):
        assert f"{value:,}" in knobs and str(value) in knobs  # the value, then its error message
    assert "permutation degree, `sys.maxsize`" in knobs
    assert f"path length, the same {construct.MAX_PRODUCT_EDGES:,}" in knobs
    assert f"sheet count, the same {construct.MAX_PRODUCT_EDGES:,}" in knobs
