"""Shared pytest glue.

The acceptance module records one line per criterion; echo them in the
terminal summary so a plain `pytest -v` run shows the pass/fail table.
The modulus enumeration serves the suites that run over every modulus of
a small extension field, and `two_digit_groups` the suites that check each
consumer of the carry-free code words when they split into two groups.
"""

import contextlib
import itertools
import os
import sys
from pathlib import Path

# pyproject's `pythonpath` puts src/ on the test process's path; the tests
# that start a child process (`python -m ffspectra`) find it through this.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def _moduli(p, ell):
    """Every monic irreducible of degree ell <= 3 over F_p: a polynomial of
    degree 2 or 3 is irreducible exactly when it has no root in F_p."""
    for low in itertools.product(range(p), repeat=ell):
        m = (*low, 1)
        if all(sum(c * x**j for j, c in enumerate(m)) % p for x in range(p)):
            yield m


SMALL_EXTENSIONS = ((3, 2), (5, 2), (3, 3), (7, 2))


@contextlib.contextmanager
def two_digit_groups(monkeypatch):
    """Within the block, F_27's code words take two digit groups: a bound of
    (2p - 1)**2 = 25 entries per group table holds two of its three digits."""
    import numpy as np

    from ffspectra import _modp

    with monkeypatch.context() as m:
        m.setattr(_modp, "GROUP_TABLE_BOUND", 25)
        _modp.difference_codes.cache_clear()
        try:
            # the second group fills the bit field above the first
            assert int(_modp.difference_codes(3, 3).plus(np.arange(27)).max()) >> _modp.GROUP_BITS
            yield
        finally:
            _modp.difference_codes.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
