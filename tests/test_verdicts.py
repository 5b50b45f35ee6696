"""The library verdicts behind the CLI exit codes: the `passed` properties of
sweep reports and distance matrices, refusals that carry their witness, the
graph-size refusal before any bent scan, and the distance-1 sweep of x**2
over every modulus of the small extension fields."""

import ast
from pathlib import Path

import numpy as np
import pytest

import ffspectra
from ffspectra import FnSpec, PointVector, build_function, make_field, salem
from ffspectra.cli import main
from ffspectra.errors import HypothesisFailed, NotPlanarBase, NotPlanarEntry, UnsupportedSize
from ffspectra.funcs import FnTable, delta_table
from ffspectra.mindist import (
    SCOPE_OUTSIDE,
    SCOPE_THEOREM,
    DistanceMatrix,
    PerturbationReport,
    PerturbEntry,
    pairwise_min_distance,
    perturb,
    perturbation_sweep,
)
from ffspectra.salem import verify_theorem1

from conftest import SMALL_EXTENSIONS, _moduli

SRC = Path(ffspectra.__file__).resolve().parent
F5 = make_field(5)


def _univariate(coeffs, params=F5):
    return build_function(FnSpec.univariate(coeffs), params, 1)


def _report(scope, entries):
    """The report whose rows are these entries; a planar one has a = value = count = 0."""
    rows = []
    for e in entries:
        w = e.witness
        rows.append((e.w_index, e.v_index, *((0, 0, 0) if w is None else (w.a.index, w.value.index, w.count))))
    return PerturbationReport(F5, scope, *np.array(rows, dtype=np.int64).reshape(-1, 5).T)


def test_sweep_passes_unless_a_theorem_scope_sweep_finds_a_planar_neighbor():
    refuted = PerturbEntry(0, 1, perturbation_sweep(_univariate([0, 0, 1])).entries[0].witness)
    planar = PerturbEntry(0, 2, None)
    for scope in (SCOPE_THEOREM, SCOPE_OUTSIDE):
        assert _report(scope, (refuted,)).passed
        assert _report(scope, ()).passed
    assert not _report(SCOPE_THEOREM, (refuted, planar)).passed
    assert _report(SCOPE_OUTSIDE, (refuted, planar)).passed
    # x**2 on F_3 has planar neighbors, but p = 3 is outside the theorem
    assert perturbation_sweep(_univariate([0, 0, 1], make_field(3))).passed


def test_distance_matrix_passes_unless_distinct_tables_are_at_distance_below_two():
    for best, passed in ((None, True), (0, False), (1, False), (2, True), (4, True)):
        assert DistanceMatrix(("a", "b"), ((0, 0), (0, 0)), best, ()).passed is passed
    sq, two_sq = _univariate([0, 0, 1]), _univariate([0, 0, 2])
    assert pairwise_min_distance([sq, two_sq, sq]).passed  # a duplicate says nothing
    assert pairwise_min_distance([sq, sq]).passed


def test_refusals_are_failed_hypotheses_that_carry_their_witness():
    assert HypothesisFailed("no witness").witness is None
    assert issubclass(NotPlanarBase, HypothesisFailed)
    assert issubclass(NotPlanarEntry, HypothesisFailed)
    sq, cube = _univariate([0, 0, 1]), _univariate([0, 0, 0, 1])
    with pytest.raises(NotPlanarBase) as base:
        perturbation_sweep(cube)
    with pytest.raises(NotPlanarEntry) as entry:
        pairwise_min_distance([sq, cube])
    for err in (base, entry):
        w = err.value.witness
        assert (w.a.index, w.value.index, w.count) == (1, 1, 2)
    with pytest.raises(HypothesisFailed) as bent:
        verify_theorem1(_univariate([0, 1]))
    assert (bent.value.witness.u.index, bent.value.witness.m.index) == (1, 1)


def test_no_module_patches_a_witness_onto_an_exception():
    patched = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                patched += [
                    (path.name, node.lineno)
                    for target in node.targets
                    if isinstance(target, ast.Attribute) and target.attr == "witness"
                    and not (isinstance(target.value, ast.Name) and target.value.id == "self")
                ]
    assert patched == []


def test_every_handler_returns_through_the_shared_renderers():
    # the exit code is the library verdict handed to _finish, never a CLI condition
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = [
        fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
    ]
    assert len(handlers) == 10
    for fn in handlers:
        for ret in (node for node in ast.walk(fn) if isinstance(node, ast.Return)):
            assert isinstance(ret.value, ast.Call), fn.name
            assert ret.value.func.id in ("_finish", "_refuse", "_salem_finish"), fn.name


def test_oversized_graph_is_refused_before_the_bent_scan(monkeypatch, capsys):
    def scan(f):
        raise AssertionError("the bent scan ran before the size check")

    monkeypatch.setattr(salem, "is_bent_exact", scan)
    f2 = make_field(2)
    with pytest.raises(UnsupportedSize):
        verify_theorem1(FnTable(f2, 20, np.zeros(2**20, dtype=np.int64)))
    # a non-bent table at the cap exits 2, not 1 with hypothesis_failed
    argv = ["salem", "verify-thm1", "--catalog", "random", "--p", "2", "--d", "20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact transforms take <= 1048576 points" in captured.err


@pytest.mark.parametrize("p,ell", SMALL_EXTENSIONS, ids=[f"q{p**ell}" for p, ell in SMALL_EXTENSIONS])
def test_sweep_of_the_square_map_on_every_modulus(p, ell):
    # The least shift and value of each witness follow element indexing, so
    # only the totals are compared across moduli.
    q = p**ell
    summaries = set()
    for modulus in _moduli(p, ell):
        params = make_field(p, ell, modulus)
        f = _univariate([0, 0, 1], params)
        report = perturbation_sweep(f)
        assert report.pairs_tested == q * (q - 1)
        summaries.add((report.scope, report.planar_found))
        for e in report.entries:
            w = e.witness
            w_point = PointVector.from_index(params, 1, e.w_index)
            g = perturb(f, w_point, params.from_index(e.v_index))
            delta = delta_table(g, w.a).values
            assert int(np.count_nonzero(delta == w.value.index)) == w.count > 1
    assert summaries == {(SCOPE_THEOREM if p > 3 else SCOPE_OUTSIDE, 0)}
