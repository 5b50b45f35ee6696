"""Acceptance gate: ten numbered end-to-end criteria, one test each.

Every test appends a [PASS]/[FAIL] line to CRITERION_LINES (echoed by the
conftest terminal-summary hook) so a plain pytest run prints the table.
A failed criterion is a failed test; scales and tolerances are stated
inline next to the checks that enforce them.
"""

import contextlib
import functools
import io
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ffspectra import FnSpec, build_function, make_field
from ffspectra.catalog import get_function, random_function
from ffspectra.cli import main as cli_main
from ffspectra.decomp import identity_suite, verify_decomposition
from ffspectra.errors import EvenCharacteristic, SpecDimensionMismatch
from ffspectra.funcs import MAX_POINTS, image_size, is_pn, translate
from ffspectra.mindist import perturb, perturbation_sweep, planarity_witness
from ffspectra.salem import verify_theorem1
from ffspectra.space import PointVector, SpaceBasis, standard_basis
from ffspectra.spectrum import (
    crosscheck_pn_bent,
    parseval_total,
    spectrum_report,
    walsh_fast_all,
)

CRITERION_LINES: list[str] = []

REL_TOL = 1e-9


def criterion(label):
    """Record one summary line per criterion, pass or fail, then let the
    assert propagate so the criterion is also a red/green test."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                reason = f"{exc.__class__.__name__}: {exc}"
                CRITERION_LINES.append(f"[FAIL] {label}: {reason[:150]}")
                raise
            elapsed = time.perf_counter() - started
            suffix = f": {detail}" if detail else ""
            CRITERION_LINES.append(f"[PASS] {label}{suffix} [{elapsed:.1f}s]")

        return run

    return deco


def spaces(max_points, odd_only=False):
    """All (p, ell, d) with built-in moduli and q**d <= max_points."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        if odd_only and p == 2:
            continue
        for ell in range(1, 7):
            q = p**ell
            if q > max_points:
                break
            d = 1
            while q**d <= max_points:
                out.append((p, ell, d))
                d += 1
    return out


_DETERMINISTIC_ENTRIES = ("affine", "bilinear", "bool_quadratic", "power", "square")


def deterministic_entries(params, d):
    """Catalog entries that exist at this (field, dimension), built fresh."""
    out = []
    for name in _DETERMINISTIC_ENTRIES:
        try:
            out.append((name, get_function(name, params, d=d)))
        except (EvenCharacteristic, SpecDimensionMismatch):
            continue
    return out


def _case_values(report):
    by_tag = {}
    for row in report.rows:
        by_tag.setdefault(row.case_tag, set()).add(row.abs_sq_int)
    return by_tag


@criterion("criterion 1: x**2 graphs over q in {5,7,9,25,27,49} are Salem sets, constant exactly 1")
def test_criterion_01_square_graphs_salem_constant_one():
    worst = 0.0
    for p, ell in ((5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)):
        params = make_field(p, ell)
        q = params.q
        f = get_function("square", params)
        started = time.perf_counter()
        report = verify_theorem1(f)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"q={q} took {elapsed:.2f}s, bound 10s"
        worst = max(worst, elapsed)
        assert report.theorem1_pass is True
        assert report.salem_constant == 1.0  # exact float equality, no tolerance
        assert report.cardinality == q
        assert report.max_abs_sq_int == q
        values = _case_values(report)
        assert values["zero"] == {q * q}
        assert values["case1"] == {0}  # frequencies orthogonal to the value coordinate vanish
        assert values["case2"] == {q}  # the rest sit exactly at |E|
        counts = Counter(r.case_tag for r in report.rows)
        assert counts == {"zero": 1, "case1": q - 1, "case2": q * (q - 1)}
    return f"6 fields certified, worst wall time {worst:.2f}s (bound 10s/field)"


@criterion("criterion 2: multivariate bent graphs (x1x2+x3x4 on F_2**4, xy on F_5**2) are flat")
def test_criterion_02_multivariate_bent_graphs_flat():
    cases = [
        ("bool_quadratic", make_field(2), 4),
        ("bilinear", make_field(5), 2),
    ]
    worst = 0.0
    for name, params, d in cases:
        f = get_function(name, params, d=d)
        n = f.n_points
        started = time.perf_counter()
        report = verify_theorem1(f)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"{name} took {elapsed:.2f}s, bound 10s"
        worst = max(worst, elapsed)
        assert report.theorem1_pass is True
        assert report.salem_constant == 1.0
        assert report.cardinality == n
        values = _case_values(report)
        assert values["zero"] == {n * n}
        assert values["case1"] == {0}
        assert values["case2"] == {n}  # 2**4 = 16 and 5**2 = 25 exactly
    return f"case-2 levels 16 and 25 exact, worst wall time {worst:.2f}s (bound 10s)"


@criterion("criterion 3: PN and bent verdicts agree for every function tried (odd p, q**d <= 625)")
def test_criterion_03_pn_bent_equivalence_odd_p():
    combos = spaces(625, odd_only=True)
    assert len(combos) == 29
    checked = 0
    for ci, (p, ell, d) in enumerate(combos):
        params = make_field(p, ell)
        fns = [f for _, f in deterministic_entries(params, d)]
        fns += [random_function(params, d, seed=1000 * ci + i) for i in range(50)]
        for f in fns:
            result = crosscheck_pn_bent(f)
            assert result.agree, f"PN/bent disagreement at p={p} ell={ell} d={d}"
            assert result.pn.is_pn == result.bent.is_bent
            checked += 1
    return f"{checked} functions over 29 spaces (50 seeded randoms each plus catalog)"


@criterion("criterion 4: every difference operator rebuilds from the d*ell basis operators (q**d <= 4096)")
def test_criterion_04_difference_operator_reconstruction():
    combos = spaces(4096)
    assert len(combos) == 72
    verified = 0

    # catalog entries on every combo they exist at
    for p, ell, d in combos:
        params = make_field(p, ell)
        for _, f in deterministic_entries(params, d):
            v = verify_decomposition(f, standard_basis(params, d))
            assert v.passed and v.failing_a is None
            assert v.shifts_checked == f.n_points - 1
            verified += 1

    # 100 seeded random tables, round-robin over the combos
    for i in range(100):
        p, ell, d = combos[i % len(combos)]
        params = make_field(p, ell)
        f = random_function(params, d, seed=5000 + i)
        v = verify_decomposition(f, standard_basis(params, d))
        assert v.passed and v.shifts_checked == f.n_points - 1
        verified += 1

    # one non-standard basis per field: add the last vector onto the first
    fields = sorted({(p, ell) for p, ell, d in combos})
    assert len(fields) == 27
    for p, ell in fields:
        params = make_field(p, ell)
        d = 1 if ell >= 2 else 2  # smallest dimension with at least two basis vectors
        std = standard_basis(params, d)
        vectors = list(std.vectors)
        vectors[0] = vectors[0] + vectors[-1]
        skewed = SpaceBasis(params, d, tuple(vectors))
        assert [v.index for v in skewed.vectors] != [v.index for v in std.vectors]
        if p != 2 and d == 1:
            f = get_function("square", params)
        else:
            f = random_function(params, d, seed=77)
        v = verify_decomposition(f, skewed)
        assert v.passed, f"non-standard basis failed at p={p} ell={ell}"
        verified += 1

    # negative control: the inner shifts must run j = 0..k-1; starting at
    # j = 1 breaks already at k = 1
    sq5 = get_function("square", make_field(5))
    b = PointVector.from_index(make_field(5), 1, 1)
    printed = identity_suite(sq5, (b,), start=b)
    assert not printed.passed and printed.counterexample is not None
    for k in range(1, 5):
        corrected = identity_suite(sq5, (b,) * k)
        assert corrected.passed
    return (
        f"{verified} certificates over 72 combos, 27 non-standard bases; "
        "shifted-start convention refuted at k=1"
    )


def _sub_table(params):
    """Independent q x q subtraction table built from scalar element ops."""
    q = params.q
    elems = [params.from_index(i) for i in range(q)]
    tbl = np.empty((q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            tbl[i, j] = (elems[i] - elems[j]).index
    return tbl


@criterion("criterion 5: all q(q-1) distance-1 neighbors of x**2 are non-planar, q in {5,7,25,49}")
def test_criterion_05_planar_neighborhoods_all_nonplanar():
    started = time.perf_counter()
    pairs_total = 0
    for p, ell in ((5, 1), (7, 1), (5, 2), (7, 2)):
        params = make_field(p, ell)
        q = params.q
        base = get_function("square", params)
        report = perturbation_sweep(base)
        assert report.scope == "theorem"
        assert report.pairs_tested == q * (q - 1)
        assert report.planar_found == 0
        seen = set()
        sub = _sub_table(params)
        add = np.empty((q, q), dtype=np.int64)
        for i in range(q):  # addition from the same scalar-op route
            for j in range(q):
                add[i, j] = (params.from_index(i) + params.from_index(j)).index
        idx = np.arange(q)
        for e in report.entries:
            assert e.v_index != int(base.values[e.w_index])
            seen.add((e.w_index, e.v_index))
            w = e.witness
            assert w is not None and w.count != 1
            gvals = base.values.copy()
            gvals[e.w_index] = e.v_index
            # recount the witness with nothing but the scalar field tables
            diffs = sub[gvals[add[idx, w.a.index]], gvals]
            assert int(np.count_nonzero(diffs == w.value.index)) == w.count
        assert len(seen) == q * (q - 1)
        pairs_total += q * (q - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sweep suite took {elapsed:.1f}s, bound 60s"
    return f"{pairs_total} neighbors refuted with independently recounted witnesses in {elapsed:.1f}s (bound 60s)"


@criterion("criterion 6: floating transform matches the exact one to 1e-9 relative, all 72 combos, every u")
def test_criterion_06_fast_transform_matches_exact():
    combos = spaces(4096)
    assert len(combos) == 72
    cells = 0
    for ci, (p, ell, d) in enumerate(combos):
        params = make_field(p, ell)
        fns = [random_function(params, d, seed=7000 + ci)]
        if params.q**d <= 625:
            fns += [f for _, f in deterministic_entries(params, d)]
        for f in fns:
            for u_index in range(1, params.q):
                u = params.from_index(u_index)
                mags = walsh_fast_all(f, u)
                exact = spectrum_report(f, u).magnitudes  # the column .rows reads
                err = np.abs(mags - exact) / np.maximum(exact, 1.0)
                assert float(err.max()) <= REL_TOL
                if p == 2:
                    # the integer transform must come back bit-exact
                    assert np.array_equal(mags, np.rint(mags))
                cells += mags.size
    return f"{cells} spectrum cells compared at 1e-9 relative; p=2 magnitudes exactly integral"


@criterion("criterion 7: Parseval mass is exactly q**(2d) for every u != 0 (q**d <= 625)")
def test_criterion_07_parseval_exact():
    combos = spaces(625)
    assert len(combos) == 49
    sums = 0
    for ci, (p, ell, d) in enumerate(combos):
        params = make_field(p, ell)
        fns = [random_function(params, d, seed=9000 + ci)]
        det = deterministic_entries(params, d)
        if det:
            fns.append(det[0][1])
        target = params.q ** (2 * d)
        for f in fns:
            for u_index in range(1, params.q):
                assert parseval_total(f, params.from_index(u_index)) == target
                sums += 1
    return f"{sums} exact integer Parseval sums over 49 combos, zero tolerance"


@criterion("criterion 8: planar functions hit at least (q+1)/2 values, q <= 49")
def test_criterion_08_planar_image_size_bound():
    checked = 0
    for p, ell in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2)):
        params = make_field(p, ell)
        q = params.q
        f = get_function("square", params)
        assert is_pn(f).is_pn
        size = image_size(f)
        assert size == len(set(f.values.tolist()))  # independent recount
        assert size >= (q + 1) // 2
        assert size == (q + 1) // 2  # squares meet the bound exactly
        checked += 1
        # translates stay planar and stay above the bound
        shifted = translate(f, PointVector.from_index(params, 1, 1), params.from_index(1))
        assert is_pn(shifted).is_pn
        assert image_size(shifted) >= (q + 1) // 2
        checked += 1
    # the three planar distance-1 neighbors of x**2 over F_3 obey it too
    f3 = make_field(3)
    base3 = get_function("square", f3)
    for w_index, v_index in ((0, 2), (1, 0), (2, 0)):
        g = perturb(base3, PointVector.from_index(f3, 1, w_index), f3.from_index(v_index))
        assert planarity_witness(g) is None  # planar
        assert image_size(g) >= 2  # (3+1)/2
        checked += 1
    # a perfect nonlinear map in two variables
    xy = get_function("bilinear", make_field(5), d=2)
    assert is_pn(xy).is_pn
    assert image_size(xy) == 5  # surjective, comfortably above (5+1)/2
    checked += 1
    return f"{checked} planar functions, image bound (q+1)/2 verified and met exactly by x**2"


@criterion("criterion 9: the 2**20-point integer transform finishes under 5s")
def test_criterion_09_million_point_transform():
    params = make_field(2)
    f = get_function("bool_quadratic", params, d=20)
    assert f.n_points == 1 << 20
    assert f.n_points == MAX_POINTS  # largest supported table
    started = time.perf_counter()
    mags = walsh_fast_all(f, params.one())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"transform took {elapsed:.2f}s, bound 5s"
    assert mags.shape == (1 << 20,)
    # the quadratic form is bent, so every magnitude is exactly 2**10
    assert np.all(mags == 1024.0)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "out of desk scale" in readme  # the naive exact path is documented as such
    return f"2**20 points transformed in {elapsed:.2f}s (bound 5s), all magnitudes exactly 1024"


def _cli_capture(argv, emit_dir):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv) + ["--emit", str(emit_dir)])
    files = {
        path.name: path.read_bytes()
        for path in sorted(Path(emit_dir).rglob("*"))
        if path.is_file()
    }
    return code, out.getvalue(), files


@criterion("criterion 10: reports are byte-identical at 1, 4, and 8 workers")
def test_criterion_10_reports_independent_of_worker_count(tmp_path):
    commands = [
        ["test", "pn", "--catalog", "bilinear", "--p", "3", "--d", "2"],
        ["test", "bent", "--catalog", "square", "--p", "3", "--ell", "2", "--exact"],
        ["salem", "verify-thm1", "--catalog", "square", "--p", "7"],
        ["decomp", "verify", "--catalog", "random", "--p", "5", "--d", "2", "--seed", "11"],
        ["mindist", "sweep", "--catalog", "square", "--p", "5"],
    ]
    compared = 0
    for ci, base in enumerate(commands):
        runs = []
        for threads in (1, 4, 8):
            emit = tmp_path / f"cmd{ci}_threads{threads}"
            runs.append(_cli_capture(base + ["--threads", str(threads)], emit))
        codes = {code for code, _, _ in runs}
        stdouts = {text for _, text, _ in runs}
        assert len(codes) == 1 and len(stdouts) == 1
        first_files = runs[0][2]
        assert first_files  # every command emits at least one report file
        assert all(files == first_files for _, _, files in runs)
        compared += len(first_files) + 1
    return f"5 commands, {compared} stdout/report artifacts identical across 1/4/8 workers"
