import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# tests/ for the shared helpers, src/ so a bare `python -m pytest` from the
# repository root imports the package without PYTHONPATH or an install
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import _criteria


def pytest_terminal_summary(terminalreporter):
    if _criteria.lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance scoreboard")
        for line in _criteria.lines:
            terminalreporter.write_line("  " + line)
