"""Memory budgets: the fast bent path at the 2**20-point cap, the exhaustive
decomposition certificate and the graph spectrum report at desk scale, and
a finite bound on every lru_cache in the package."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ffspectra
from ffspectra import field, spectrum

SRC = Path(ffspectra.__file__).resolve().parents[1]

# Runs one CLI command and reports the peak RSS of its own process image
# (kB) on the last line of stderr.  ru_maxrss is not used: Linux carries it
# across exec, so a child of the test process would report the test
# process's peak.
_PEAK_RSS_SCRIPT = """
import sys
from ffspectra.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
sys.stderr.write("\\npeak_rss_kb=%s\\n" % hwm)
sys.exit(code)
"""

FAST_RSS_BUDGET_MB = 300
DECOMP_RSS_BUDGET_MB = 64
SALEM_RSS_BUDGET_MB = 80


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "argv,expected,budget_mb",
    [
        (
            ["test", "bent", "--catalog", "bool_quadratic", "--p", "2", "--d", "20", "--fast"],
            '"verdict": "bent"',
            FAST_RSS_BUDGET_MB,
        ),
        # the decomposition certificate holds digit arrays linear in q**d,
        # never a q**d x q**d addition table
        (
            ["decomp", "verify", "--catalog", "square", "--p", "5", "--ell", "5"],
            '"pass": true',
            DECOMP_RSS_BUDGET_MB,
        ),
        (
            ["decomp", "verify", "--catalog", "random", "--p", "2", "--d", "12", "--seed", "1"],
            '"pass": true',
            DECOMP_RSS_BUDGET_MB,
        ),
        # the 117,649-frequency graph report is held by column, not per row,
        # and its CSV is not rendered for a JSON run
        (
            ["salem", "verify-thm1", "--catalog", "square", "--p", "7", "--ell", "3"],
            '"theorem1_pass": true',
            SALEM_RSS_BUDGET_MB,
        ),
    ],
    ids=["bent-fast-2pow20", "decomp-square-q3125", "decomp-random-p2-d12", "salem-thm1-q343"],
)
def test_command_stays_in_memory_budget(argv, expected, budget_mb):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("peak_rss_kb=")
    assert int(last.split("=")[1]) / 1024 <= budget_mb


def _package_caches():
    caches = {}
    for info in pkgutil.iter_modules(ffspectra.__path__):
        if info.name.startswith("__"):
            continue
        mod = importlib.import_module(f"ffspectra.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == mod.__name__:
                caches[f"{mod.__name__}.{name}"] = obj
    return caches


def test_every_cache_is_bounded():
    caches = _package_caches()
    for cache in (
        spectrum._gram,
        field.trace_weights,
        field.mul_matrix,
        spectrum._orbit_reps,
        field._overflow_matrix,
        field.default_modulus,
    ):
        assert cache in caches.values()
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name
    # every u of a field with q - 1 <= 4096 stays warm in the per-u caches
    for cache in (spectrum._gram, field.trace_weights, field.mul_matrix):
        assert cache.cache_info().maxsize >= 4096
