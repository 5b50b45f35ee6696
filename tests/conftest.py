"""Shared pytest glue.

The acceptance module records one line per criterion; echo them in the
terminal summary so a plain `pytest -v` run shows the pass/fail table.
"""

import os
import sys
from pathlib import Path

# pyproject's `pythonpath` puts src/ on the test process's path; the tests
# that start a child process (`python -m ffspectra`) find it through this.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
