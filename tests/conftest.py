import functools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# tests/ for the shared helpers, src/ so a bare `python -m pytest` from the
# repository root imports the package without PYTHONPATH or an install
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest

import _criteria
from cylgraph.construct import ExpoTrace, ProductTrace


@pytest.fixture(autouse=True)
def _validate_built_graphs(monkeypatch):
    """Validate the graph of every product and exponential a test builds, at
    teardown and so outside its timed regions: the constructions do not
    re-check their own output."""
    built = []
    for cls in (ProductTrace, ExpoTrace):
        @functools.wraps(cls.__init__)
        def record(self, graph, *rest, _init=cls.__init__):
            _init(self, graph, *rest)
            built.append(graph)

        monkeypatch.setattr(cls, "__init__", record)
    yield
    for graph in built:
        graph.validate()


def pytest_terminal_summary(terminalreporter):
    if _criteria.lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance scoreboard")
        for line in _criteria.lines:
            terminalreporter.write_line("  " + line)
