"""The Python surface frozen in ``tests/golden/api_signatures.json``, as
``tests/golden/parser_tree.json`` freezes the CLI's: the signature of every
callable in ``cylgraph.__all__`` (a class by its constructor; the exception
classes take ``Exception``'s arguments and have no signature) and of every
public function defined in ``cylgraph.catalog`` and ``cylgraph.cylinder``.
An option added or dropped shows up as a diff of that file."""

import inspect
import json
from pathlib import Path

import cylgraph
from cylgraph import catalog, cylinder

GOLDEN = Path(__file__).parent / "golden"


def api_signatures() -> dict:
    """Qualified name -> ``str(inspect.signature(...))``, sorted by name."""
    found = {
        f"cylgraph.{name}": obj
        for name, obj in ((name, getattr(cylgraph, name)) for name in cylgraph.__all__)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    for module in (catalog, cylinder):
        found.update(
            (f"{module.__name__}.{name}", obj)
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
        )
    return {name: str(inspect.signature(obj)) for name, obj in sorted(found.items())}


def test_api_signatures_match_golden_file():
    text = json.dumps(api_signatures(), indent=2) + "\n"
    assert text == (GOLDEN / "api_signatures.json").read_text()
