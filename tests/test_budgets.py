"""Memory budgets: the fast and exact bent paths and a failing PN scan at
the 2**20-point cap, a random table past the cap refused before its work
arrays are allocated, a table file past the cap refused from its header,
the point-sized buffers of the fast path, the exhaustive decomposition
certificate, a full PN scan and the graph spectrum report at desk scale, a
power map whose exponent is far larger than the field, the distance-1
sweep at q = 625 and q = 1009, every size-taking entry point refused past
its cap before it builds anything, a finite bound on every lru_cache in the
package, and its single per-(f, u) slot."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ffspectra
from ffspectra import (
    FnSpec,
    FnTable,
    PointSet,
    PointVector,
    build_function,
    field,
    get_function,
    graph_of,
    is_bent_exact,
    is_bent_fast,
    load_table,
    make_field,
    pairwise_min_distance,
    perturbation_sweep,
    random_function,
    spectrum,
    standard_basis,
    verify_decomposition,
)
from ffspectra.cli import main
from ffspectra.errors import BadTableFile, UnsupportedSize
from ffspectra.funcs import parse_table
from ffspectra.salem import salem_report

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

EXACT_2POW20_RSS_BUDGET_MB = 100
FAST_2POW20_RSS_BUDGET_MB = 70
DECOMP_RSS_BUDGET_MB = 64
SALEM_RSS_BUDGET_MB = 80
PN_RSS_BUDGET_MB = 128
PN_DESK_RSS_BUDGET_MB = 64
SWEEP_RSS_BUDGET_MB = 100


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize(
    "argv,expected,code,budget_mb",
    [
        # the table is built on q-entry coordinate views that meet only by
        # broadcasting, and the fast path holds about two point-sized buffers
        (
            ["test", "bent", "--catalog", "bool_quadratic", "--p", "2", "--d", "20", "--fast"],
            '"verdict": "bent"',
            0,
            FAST_2POW20_RSS_BUDGET_MB,
        ),
        (
            ["test", "bent", "--catalog", "bool_quadratic", "--p", "2", "--d", "20", "--exact"],
            '"verdict": "bent"',
            0,
            EXACT_2POW20_RSS_BUDGET_MB,
        ),
        # the decomposition certificate holds digit arrays linear in q**d,
        # never a q**d x q**d addition table
        (
            ["decomp", "verify", "--catalog", "square", "--p", "5", "--ell", "5"],
            '"pass": true',
            0,
            DECOMP_RSS_BUDGET_MB,
        ),
        (
            ["decomp", "verify", "--catalog", "random", "--p", "2", "--d", "12", "--seed", "1"],
            '"pass": true',
            0,
            DECOMP_RSS_BUDGET_MB,
        ),
        # the 117,649-frequency graph report is held by column, not per row,
        # and its CSV is not rendered for a JSON run
        (
            ["salem", "verify-thm1", "--catalog", "square", "--p", "7", "--ell", "3"],
            '"theorem1_pass": true',
            0,
            SALEM_RSS_BUDGET_MB,
        ),
        # the PN scan builds each unit translation on first use, so a scan
        # that fails at the first shift builds one of the 20
        (
            ["test", "pn", "--catalog", "random", "--p", "2", "--d", "20"],
            '"verdict": "not_pn"',
            1,
            PN_RSS_BUDGET_MB,
        ),
        (
            ["test", "pn", "--catalog", "square", "--p", "5", "--ell", "5"],
            '"verdict": "pn"',
            0,
            PN_DESK_RSS_BUDGET_MB,
        ),
        # x**e is built by squaring, never from a list of e + 1 coefficients;
        # 4 | e, so x**e is 1 off zero and not PN
        (
            ["test", "pn", "--catalog", "power", "--p", "5", "--params", "e=1000000000"],
            '"verdict": "not_pn"',
            1,
            PN_DESK_RSS_BUDGET_MB,
        ),
        # the sweep holds its q*(q-1) rows in one-byte or two-byte columns
        # and scans only the base table
        (
            ["mindist", "sweep", "--catalog", "square", "--p", "1009"],
            '"planar_found": 0',
            0,
            SWEEP_RSS_BUDGET_MB,
        ),
        (
            ["mindist", "sweep", "--catalog", "square", "--p", "5", "--ell", "4"],
            '"planar_found": 0',
            0,
            PN_DESK_RSS_BUDGET_MB,
        ),
    ],
    ids=["bent-fast-2pow20", "bent-exact-2pow20", "decomp-square-q3125", "decomp-random-p2-d12",
         "salem-thm1-q343", "pn-random-p2-d20", "pn-square-q3125", "pn-power-e1e9",
         "sweep-square-q1009", "sweep-square-q625"],
)
def test_command_stays_in_memory_budget(argv, expected, code, budget_mb):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert expected in proc.stdout
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("peak_rss_kb=")
    assert int(last.split("=")[1]) / 1024 <= budget_mb


def test_fast_path_holds_few_point_sized_buffers():
    # tracemalloc counts the arrays themselves, whatever the allocator keeps
    f2, d = make_field(2), 16
    buffer = 8 * 2**d  # one float64 or int64 per point
    is_bent_fast(get_function("bool_quadratic", f2, d=4))  # warm the per-field tables
    tracemalloc.start()
    try:
        f = get_function("bool_quadratic", f2, d=d)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]  # the table
        verdict = is_bent_fast(f)
        bent_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert verdict.certified
    assert build_peak <= 2.5 * buffer
    assert bent_peak <= 3 * buffer


def test_exact_coeff_rows_hold_few_point_sized_buffers():
    # the one-hot and the two pass buffers, each p = 2 float64s per point
    f2, d = make_field(2), 16
    buffer = 8 * 2**d
    f = get_function("bool_quadratic", f2, d=d)
    spectrum._exact_coeff_rows(f2, 4, 1, np.zeros(16, dtype=np.int64))  # warm the pass matrix
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        rows = spectrum._exact_coeff_rows(f2, d, 1, spectrum._trace_exponents(f, 1))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert rows.shape == (2**d, 2)
    assert peak <= 4.5 * buffer


def test_abs_sq_table_holds_few_point_sized_buffers():
    # the int64 table (p = 2 columns) and the two einsum columns of one slot
    # pair; no rolled copy of the rows
    f2, d = make_field(2), 16
    buffer = 8 * 2**d
    f = get_function("bool_quadratic", f2, d=d)
    rows = spectrum._exact_coeff_rows(f2, d, 1, spectrum._trace_exponents(f, 1))
    spectrum._abs_sq_table(rows[:4])  # warm einsum
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        table = spectrum._abs_sq_table(rows)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.all(table[:, 0] - table[:, 1] == 2**d)  # bent: |S|^2 = q**d at every m
    assert peak <= 4.25 * buffer


def test_flat_exact_verdict_builds_no_float_values():
    # a flat verdict reads the table's exact columns only: at its peak it holds
    # the coefficient rows, the int64 table and two einsum columns, never the
    # float values that a witness or a report computes from the table
    f2, d = make_field(2), 16
    buffer = 8 * 2**d
    is_bent_exact(get_function("bool_quadratic", f2, d=4))  # warm the per-field tables
    f = get_function("bool_quadratic", f2, d=d)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        verdict = is_bent_exact(f)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert verdict.is_bent
    assert peak <= 6.5 * buffer


def test_random_table_past_the_cap_is_refused_before_allocating():
    f2 = make_field(2)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedSize):
            get_function("random", f2, d=22)  # its four work arrays would take 128 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_table_file_past_the_cap_is_refused_from_its_header(tmp_path, capsys):
    path = tmp_path / "big.tbl"
    path.write_text("2 1 21\n0 1\n" + "0 " * 2**21 + "\n", encoding="ascii")  # 4 MB of values
    tracemalloc.start()
    try:
        with pytest.raises(BadTableFile, match="2097152 points exceeds the supported 1048576"):
            load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert main(["test", "pn", "--input", str(path)]) == 2
    assert "invalid table file: 2097152 points exceeds the supported 1048576" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Every entry point that takes a size, just past its cap and at a huge d.

HUGE_D = 100_000  # q**d would have 30,103 digits or more
F2, F3, F1031 = make_field(2), make_field(3), make_field(1031)  # 1031**2 > 2**20


def _table_file(tmp_path, d, name="a.tbl", header="2 1"):
    path = tmp_path / name
    path.write_text(f"{header} {d}\n0 1\n0 1\n", encoding="ascii")
    return str(path)


def _catalog_case(name, params, d):
    argv = ["test", "pn", "--catalog", name, "--p", str(params.p), "--d", str(d)]
    return lambda tmp: partial(get_function, name, params, d=d), UnsupportedSize, argv


def _pairwise(*paths):
    return pairwise_min_distance([load_table(path) for path in paths])


def _pairwise_case(d):
    def files(tmp):
        return _table_file(tmp, d), _table_file(tmp, d, "b.tbl")

    def argv(tmp):
        a, b = files(tmp)
        return ["mindist", "pairwise", "--input", a, "--input", b]

    return lambda tmp: partial(_pairwise, *files(tmp)), BadTableFile, argv


def _graph_report(f):
    return salem_report(graph_of(f))


HUGE_P = 2**61 - 1  # prime; trial division to its square root would not return


def _field_case(p, ell, modulus, argv):
    return lambda tmp: partial(make_field, p, ell, modulus), UnsupportedSize, ["field", "info", *argv]


# name: (the call, built from its inputs before tracing; the refusal; the
# CLI argv that reaches the same entry point, or None)
REFUSALS = {
    "field-huge-p": _field_case(HUGE_P, 1, None, ["--p", str(HUGE_P)]),
    # computing 2**ell before the refusal took 6.1 s and 442 MB
    "field-huge-ell-modulus": _field_case(2, 10**9, (0, 1), ["--p", "2", "--ell", str(10**9), "--modulus", "0,1"]),
    "field-huge-ell": _field_case(3, 3 * 10**8, None, ["--p", "3", "--ell", str(3 * 10**8)]),
    "FieldParams-huge-p": (
        lambda tmp: partial(field.FieldParams, HUGE_P, 1, (0, 1)), UnsupportedSize, None,
    ),
    "catalog-square-huge-p": (
        lambda tmp: partial(make_field, HUGE_P),  # the field of the catalog table
        UnsupportedSize,
        ["test", "pn", "--catalog", "square", "--p", str(HUGE_P)],
    ),
    "input-huge-p": (
        lambda tmp: partial(parse_table, f"{HUGE_P} 1 1\n0 1\n0\n"),
        BadTableFile,
        lambda tmp: ["test", "pn", "--input", _table_file(tmp, 1, header=f"{HUGE_P} 1")],
    ),
    **{
        f"catalog-{name}-{label}": _catalog_case(name, params, d)
        for name in ("affine", "bilinear", "power", "square")
        for label, params, d in (("past", F1031, 2), ("huge", F3, HUGE_D))
    },
    "catalog-bool_quadratic-past": _catalog_case("bool_quadratic", F2, 22),
    # 1,000 terms of 2,000 exponents: the parent built them first (32 MB)
    "catalog-bool_quadratic-huge": _catalog_case("bool_quadratic", F2, 2000),
    "catalog-random-past": _catalog_case("random", F2, 21),
    "catalog-random-huge": _catalog_case("random", F2, HUGE_D),
    "random_function-huge": (
        lambda tmp: partial(random_function, F2, HUGE_D, 0), UnsupportedSize, None,
    ),
    "input-past": (
        lambda tmp: partial(load_table, _table_file(tmp, 21)),
        BadTableFile,
        lambda tmp: ["test", "pn", "--input", _table_file(tmp, 21)],
    ),
    "input-huge": (
        lambda tmp: partial(load_table, _table_file(tmp, HUGE_D)),
        BadTableFile,
        lambda tmp: ["test", "pn", "--input", _table_file(tmp, HUGE_D)],
    ),
    "parse_table-huge": (
        lambda tmp: partial(parse_table, f"2 1 {HUGE_D}\n0 1\n0\n"), BadTableFile, None,
    ),
    "raw-spec-past": (
        lambda tmp: partial(build_function, FnSpec.raw([0] * 2**21), F2, 21), UnsupportedSize, None,
    ),
    "raw-spec-huge": (
        lambda tmp: partial(build_function, FnSpec.raw([0, 1]), F2, HUGE_D), UnsupportedSize, None,
    ),
    "FnTable-past": (
        lambda tmp: partial(FnTable, F2, 21, np.zeros(2**21, dtype=np.int64)), UnsupportedSize, None,
    ),
    "FnTable-huge": (
        lambda tmp: partial(FnTable, F2, HUGE_D, np.zeros(2, dtype=np.int64)), UnsupportedSize, None,
    ),
    "point-index-huge": (
        lambda tmp: partial(PointVector.from_index, F2, HUGE_D, -1), UnsupportedSize, None,
    ),
    "salem-graph-past": (
        lambda tmp: partial(_graph_report, random_function(F2, 20, 1)),
        UnsupportedSize,
        ["salem", "report", "--catalog", "random", "--p", "2", "--d", "20"],
    ),
    "salem-graph-huge": (
        lambda tmp: partial(PointSet.from_indices, F2, HUGE_D, [0]),
        UnsupportedSize,
        ["salem", "report", "--catalog", "random", "--p", "2", "--d", str(HUGE_D)],
    ),
    "sweep-past": (
        lambda tmp: partial(perturbation_sweep, get_function("square", F1031)),
        UnsupportedSize,
        ["mindist", "sweep", "--catalog", "square", "--p", "1031"],
    ),
    "sweep-huge": (
        lambda tmp: partial(get_function, "square", F3, d=HUGE_D),  # the sweep's table
        UnsupportedSize,
        ["mindist", "sweep", "--catalog", "square", "--p", "3", "--d", str(HUGE_D)],
    ),
    "pairwise-past": _pairwise_case(21),
    "pairwise-huge": _pairwise_case(HUGE_D),
    "decomp-past": (  # 8,192 points: past the 4,096-point certificate
        lambda tmp: partial(verify_decomposition, random_function(F2, 13, 0), standard_basis(F2, 13)),
        UnsupportedSize,
        ["decomp", "verify", "--catalog", "random", "--p", "2", "--d", "13"],
    ),
    "decomp-huge": (
        lambda tmp: partial(random_function, F2, HUGE_D, 0),  # the certificate's table
        UnsupportedSize,
        ["decomp", "verify", "--catalog", "random", "--p", "2", "--d", str(HUGE_D)],
    ),
    "standard-basis-past": (  # d*ell vectors of d coordinates each
        lambda tmp: partial(standard_basis, F2, 21), UnsupportedSize, None,
    ),
    "exact-past-p31": (
        lambda tmp: partial(is_bent_exact, get_function("square", make_field(37))),
        UnsupportedSize,
        ["test", "bent", "--catalog", "square", "--p", "37", "--exact"],
    ),
    "exact-huge": (
        lambda tmp: partial(spectrum._exact_coeff_rows, F2, HUGE_D, 1, np.zeros(1, dtype=np.int64)),
        UnsupportedSize,
        ["test", "bent", "--catalog", "random", "--p", "2", "--d", str(HUGE_D), "--exact"],
    ),
    "fast-past-p1021": (  # the float pass matrix has p**2 entries: 17 MB at p = 1031
        lambda tmp: partial(is_bent_fast, get_function("square", F1031)),
        UnsupportedSize,
        ["test", "bent", "--catalog", "square", "--p", "1031", "--fast"],
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_size_taking_entry_point_refuses_before_building(name, tmp_path, capsys):
    make_call, error, argv = REFUSALS[name]
    call = make_call(tmp_path)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        with pytest.raises(error):
            call()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    if argv is not None:
        assert main(argv(tmp_path) if callable(argv) else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("ffspectra: error: ")


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
        spectrum._trace_rows,
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
    # one entry is ell * q float64s, about 168 MB at F_2**20
    assert spectrum._trace_rows.cache_info().maxsize == 1


def test_the_only_global_statement_is_the_exponent_slot():
    found = []
    for path in sorted((SRC / "ffspectra").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    (path.stem, fn.name, tuple(node.names))
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Global)
                ]
    assert found == [("spectrum", "_trace_exponents", ("_exponents",))]
