"""Distance-1 perturbations of planar tables, the neighbor sweep (every
witness against a PN scan of the neighbor), and the pairwise distance
matrix."""

import numpy as np
import pytest

from ffspectra import FnSpec, PointVector, build_function, funcs, make_field, mindist
from ffspectra.cli import main
from ffspectra.errors import (
    FieldMismatch,
    NoOpPerturbation,
    NotPlanarBase,
    NotPlanarEntry,
    UnsupportedSize,
)
from ffspectra.funcs import _pn_scan, translate
from ffspectra.mindist import (
    SCOPE_OUTSIDE,
    SCOPE_THEOREM,
    pairwise_min_distance,
    perturb,
    perturbation_sweep,
    planarity_witness,
)

from conftest import two_digit_groups

F5 = make_field(5)
SQ5 = build_function(FnSpec.univariate([0, 0, 1]), F5, 1)


def _pt(i, params=F5):
    return PointVector.from_index(params, 1, i)


def test_perturb_frozen():
    g = perturb(SQ5, _pt(0), F5.one())
    assert g.values.tolist() == [1, 1, 4, 4, 1]
    with pytest.raises(NoOpPerturbation):
        perturb(SQ5, _pt(1), F5.one())  # f(1) is already 1
    f7 = make_field(7)
    sq7 = build_function(FnSpec.univariate([0, 0, 1]), f7, 1)
    h = perturb(sq7, _pt(3, f7), f7.zero())
    assert h.values.tolist() == [0, 1, 4, 0, 2, 4, 1]
    with pytest.raises(FieldMismatch):
        perturb(SQ5, _pt(0, f7), F5.one())


def test_planarity_witness_frozen():
    g = perturb(SQ5, _pt(0), F5.one())  # [1,1,4,4,1]
    w = planarity_witness(g)
    assert (w.a.index, w.value.index, w.count) == (1, 0, 3)
    # the witness recounts: delta_{g,1} = [0,3,0,2,0]
    assert planarity_witness(SQ5) is None
    cube = build_function(FnSpec.univariate([0, 0, 0, 1]), F5, 1)
    w3 = planarity_witness(cube)
    assert (w3.a.index, w3.value.index, w3.count) == (1, 1, 2)


def test_sweep_square_f5():
    rep = perturbation_sweep(SQ5)
    assert rep.scope == SCOPE_THEOREM
    assert rep.pairs_tested == 20  # q(q-1)
    assert rep.planar_found == 0
    seen = set()
    for e in rep.entries:
        assert e.witness is not None
        assert e.v_index != SQ5.values[e.w_index]  # a genuine neighbor
        seen.add((e.w_index, e.v_index))
        # independent recount of the reported witness
        g = SQ5.values.copy()
        g[e.w_index] = e.v_index
        a = e.witness.a.index
        delta = (g[(np.arange(5) + a) % 5] - g) % 5
        assert int(np.count_nonzero(delta == e.witness.value.index)) == e.witness.count
        assert e.witness.count > 1
    assert len(seen) == 20


def test_sweep_scope_p3_with_planar_neighbors():
    # p = 3 sits outside the distance theorem, and genuinely violates it:
    # x^2 on F_3 has planar neighbors at Hamming distance 1
    p3 = make_field(3)
    sq3 = build_function(FnSpec.univariate([0, 0, 1]), p3, 1)
    rep = perturbation_sweep(sq3)
    assert rep.scope == SCOPE_OUTSIDE
    assert rep.pairs_tested == 6
    assert rep.planar_found == 3
    planar = sorted((e.w_index, e.v_index) for e in rep.entries if e.planar)
    assert planar == [(0, 2), (1, 0), (2, 0)]


def test_sweep_requires_planar_base():
    cube = build_function(FnSpec.univariate([0, 0, 0, 1]), F5, 1)
    with pytest.raises(NotPlanarBase) as err:
        perturbation_sweep(cube)
    w = err.value.witness
    assert (w.a.index, w.value.index, w.count) == (1, 1, 2)


def test_pairwise_frozen():
    two_sq = build_function(FnSpec.univariate([0, 0, 2]), F5, 1)
    m = pairwise_min_distance([SQ5, two_sq])
    assert m.min_distance == 4
    assert m.matrix[0][1] == 4 and m.matrix[1][0] == 4
    assert m.duplicates == ()
    fam = [
        SQ5,
        build_function(FnSpec.univariate([0, 1, 1]), F5, 1),
        build_function(FnSpec.univariate([0, 2, 1]), F5, 1),
    ]
    m3 = pairwise_min_distance(fam, labels=("sq", "sq+x", "sq+2x"))
    assert m3.labels == ("sq", "sq+x", "sq+2x")
    assert m3.min_distance == 4
    # distances: translates of x^2 by linear terms differ off a single root
    for i in range(3):
        assert m3.matrix[i][i] == 0


def test_pairwise_duplicates_and_guards():
    two_sq = build_function(FnSpec.univariate([0, 0, 2]), F5, 1)
    m = pairwise_min_distance([SQ5, two_sq, SQ5])
    assert m.duplicates == ((0, 2),)
    assert m.min_distance == 4  # minimum over distinct pairs only
    only_dupes = pairwise_min_distance([SQ5, SQ5])
    assert only_dupes.min_distance is None
    cube = build_function(FnSpec.univariate([0, 0, 0, 1]), F5, 1)
    with pytest.raises(NotPlanarEntry):
        pairwise_min_distance([SQ5, cube])
    with pytest.raises(ValueError):
        pairwise_min_distance([])
    with pytest.raises(ValueError):
        pairwise_min_distance([SQ5], labels=("a", "b"))
    f7sq = build_function(FnSpec.univariate([0, 0, 1]), make_field(7), 1)
    with pytest.raises(FieldMismatch):
        pairwise_min_distance([SQ5, f7sq])


def test_translation_closure_distances():
    # every translate of x^2 stays planar, and distinct translates keep
    # distance >= 2 on fields inside the theorem scope (q <= 25)
    for params in (F5, make_field(5, 2)):
        f = build_function(FnSpec.univariate([0, 0, 1]), params, 1)
        translates = []
        for s_idx in range(min(params.q, 5)):
            for t_idx in range(min(params.q, 5)):
                g = translate(
                    f,
                    PointVector.from_index(params, 1, s_idx),
                    params.from_index(t_idx),
                )
                translates.append(g)
        uniq = {tuple(g.values.tolist()): g for g in translates}
        m = pairwise_min_distance(list(uniq.values()))
        if m.min_distance is not None:
            assert m.min_distance >= 2


def test_sweep_refuses_more_than_max_points_neighbors(monkeypatch, capsys):
    # square over F_3125 has 3125 * 3124 neighbors, about 7.8 GB of entries
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep scanned a table before its size check")

    monkeypatch.setattr(mindist, "is_pn", refuse)
    monkeypatch.setattr(mindist, "_pn_scan", refuse)
    f = build_function(FnSpec.univariate([0, 0, 1]), make_field(5, 5), 1)
    with pytest.raises(UnsupportedSize):
        perturbation_sweep(f)
    assert main(["mindist", "sweep", "--catalog", "square", "--p", "5", "--ell", "5"]) == 2
    assert "q*(q-1) <= 1048576" in capsys.readouterr().err


def _power(params, e):
    return build_function(FnSpec.from_monomials([(1, (e,))]), params, 1)


def _assert_sweep_matches_pn_scan(f, monkeypatch):
    scans = []

    def counted(*args):
        scans.append(args)
        return _pn_scan(*args)

    with monkeypatch.context() as m:
        m.setattr(funcs, "_pn_scan", counted)
        m.setattr(mindist, "_pn_scan", counted)
        report = perturbation_sweep(f)
    assert len(scans) == 1 and scans[0][2] is f.values  # the base check only
    params, q = f.params, f.params.q
    assert report.pairs_tested == len(report.entries) == q * (q - 1)
    values = f.values.copy()
    planar = 0
    for e in report.entries:
        original = values[e.w_index]
        values[e.w_index] = e.v_index
        want = _pn_scan(params, 1, values)
        values[e.w_index] = original
        got = e.witness
        if want is None:
            assert got is None
            planar += 1
        else:
            assert got.a.index == want.a.index
            assert (got.value.index, got.count) == (want.value.index, want.count)
    assert report.planar_found == planar
    return report


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_sweep_matches_a_pn_scan_of_every_neighbor(p, ell, monkeypatch):
    report = _assert_sweep_matches_pn_scan(_power(make_field(p, ell), 2), monkeypatch)
    assert report.planar_found == (3 if p**ell == 3 else 0)


@pytest.mark.parametrize(
    "p,ell,e",
    [(5, 3, 6), (3, 5, 14)],  # Dembowski-Ostrom x**6 = x**(5 + 1); Coulter-Matthews x**((3**3 + 1) / 2)
    ids=["x6-q125", "x14-q243"],
)
def test_sweep_matches_a_pn_scan_off_the_square_map(p, ell, e, monkeypatch):
    f = _power(make_field(p, ell), e)
    assert _assert_sweep_matches_pn_scan(f, monkeypatch).planar_found == 0
    assert np.any(f.values != _power(f.params, 2).values)


def test_sweep_matches_a_pn_scan_across_digit_groups(monkeypatch):
    with two_digit_groups(monkeypatch):
        _assert_sweep_matches_pn_scan(_power(make_field(3, 3), 2), monkeypatch)


def test_sweep_entries_are_built_on_access(monkeypatch):
    params = make_field(11, 2)
    report = perturbation_sweep(_power(params, 2))
    columns = (report.w_index, report.v_index, report.a_index, report.value_index, report.count)
    assert all(col.dtype == np.uint8 for col in columns)
    built = []

    class Counted(mindist.PerturbEntry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(mindist, "PerturbEntry", Counted)
    head = report.entries[:10]
    last = report.entries[-1]
    assert len(head) == 10 and len(built) == 11
    assert [(e.w_index, e.v_index) for e in head] == [(0, v) for v in range(1, 11)]
    assert (last.w_index, last.v_index) == (params.q - 1, params.q - 1)
    with pytest.raises(IndexError):
        report.entries[params.q * (params.q - 1)]
