"""Difference-operator reconstruction from basis deltas, the identity chain,
and the exhaustive decomposition certificate."""

import numpy as np
import pytest

from ffspectra import FnSpec, FnTable, PointVector, SpaceBasis, build_function, decomp, make_field, standard_basis
from ffspectra.catalog import random_function
from ffspectra.decomp import (
    BaseDeltaSet,
    IdentityTrial,
    base_deltas,
    identity_suite,
    reconstruct_delta,
    verify_decomposition,
)
from ffspectra.errors import UnsupportedSize
from ffspectra.funcs import delta_table

from conftest import SMALL_EXTENSIONS, _moduli, two_digit_groups

F5 = make_field(5)
SQ5 = build_function(FnSpec.univariate([0, 0, 1]), F5, 1)


def test_base_deltas_frozen():
    b = base_deltas(SQ5, standard_basis(F5, 1))
    assert len(b.tables) == 1
    assert b.tables[0].values.tolist() == [1, 3, 0, 2, 4]  # 2x+1
    f9 = make_field(3, 2)
    sq9 = build_function(FnSpec.univariate([0, 0, 1]), f9, 1)
    b9 = base_deltas(sq9, standard_basis(f9, 1))
    assert len(b9.tables) == 2
    assert b9.tables[0] == delta_table(sq9, PointVector.from_index(f9, 1, 1))
    assert b9.tables[1] == delta_table(sq9, PointVector.from_index(f9, 1, 3))
    const = build_function(FnSpec.univariate([2]), F5, 1)
    bc = base_deltas(const, standard_basis(F5, 1))
    assert not bc.tables[0].values.any()


def test_reconstruct_frozen_example():
    b = base_deltas(SQ5, standard_basis(F5, 1))
    a2 = PointVector.from_index(F5, 1, 2)
    got = reconstruct_delta(b, a2)
    assert got.values.tolist() == [4, 3, 2, 1, 0]  # 4x+4
    assert got == delta_table(SQ5, a2)
    # single-digit shifts return the base table itself
    a1 = PointVector.from_index(F5, 1, 1)
    assert reconstruct_delta(b, a1) == b.tables[0]
    # zero shift: empty sum
    assert not reconstruct_delta(b, PointVector.zero(F5, 1)).values.any()


def test_reconstruct_equals_delta_everywhere():
    # pointwise oracle across several spaces, all shifts
    cases = [
        (F5, 1, FnSpec.univariate([0, 0, 1])),
        (F5, 2, FnSpec.from_monomials([(1, (1, 1))])),
        (make_field(3, 2), 1, FnSpec.univariate([1, 2, 1])),
        (make_field(2, 2), 2, FnSpec.from_monomials([(1, (1, 1)), (1, (2, 0))])),
        (make_field(7), 1, FnSpec.univariate([0, 0, 0, 1])),
    ]
    for params, d, spec in cases:
        f = build_function(spec, params, d)
        b = base_deltas(f, standard_basis(params, d))
        for a_idx in range(params.q**d):
            a = PointVector.from_index(params, d, a_idx)
            assert reconstruct_delta(b, a) == delta_table(f, a)


def test_identity_combine():
    # combine: delta_{b+c}(x) = delta_c(x+b) + delta_b(x), frozen instance
    b1 = PointVector.from_index(F5, 1, 1)
    c2 = PointVector.from_index(F5, 1, 2)
    res = identity_suite(SQ5, IdentityTrial(kind="combine", b=b1, c=c2))
    assert res.passed
    assert delta_table(SQ5, b1 + c2).values.tolist() == [4, 0, 1, 2, 3]  # x+4
    # all nonzero pairs
    for bi in range(1, 5):
        for ci in range(1, 5):
            trial = IdentityTrial(
                kind="combine",
                b=PointVector.from_index(F5, 1, bi),
                c=PointVector.from_index(F5, 1, ci),
            )
            assert identity_suite(SQ5, trial).passed


def test_identity_kbeq_conventions():
    b1 = PointVector.from_index(F5, 1, 1)
    # corrected inner index (0..k-1) passes, printed (1..k) fails at k=1
    ok = identity_suite(SQ5, IdentityTrial(kind="kbeq", b=b1, k=1, convention="corrected"))
    assert ok.passed
    bad = identity_suite(SQ5, IdentityTrial(kind="kbeq", b=b1, k=1, convention="printed"))
    assert not bad.passed
    assert bad.counterexample is not None
    assert bad.lhs_value != bad.rhs_value
    # the corrected form holds for every k in [1, p)
    for k in range(1, 5):
        assert identity_suite(
            SQ5, IdentityTrial(kind="kbeq", b=b1, k=k, convention="corrected")
        ).passed
    f9 = make_field(3, 2)
    sq9 = build_function(FnSpec.univariate([0, 0, 1]), f9, 1)
    t = PointVector.from_index(f9, 1, 3)
    assert identity_suite(sq9, IdentityTrial(kind="kbeq", b=t, k=2)).passed
    assert not identity_suite(
        sq9, IdentityTrial(kind="kbeq", b=t, k=1, convention="printed")
    ).passed


def test_identity_allbut():
    parts = tuple(PointVector.from_index(F5, 1, i) for i in (1, 2, 1))
    res = identity_suite(SQ5, IdentityTrial(kind="allbut", parts=parts))
    assert res.passed
    single = identity_suite(
        SQ5, IdentityTrial(kind="allbut", parts=(PointVector.from_index(F5, 1, 3),))
    )
    assert single.passed


def test_identity_suite_rejects_malformed_trials():
    b1 = PointVector.from_index(F5, 1, 1)
    bad = [
        IdentityTrial(kind="kbeq", b=b1, k=1, convention="corected"),
        IdentityTrial(kind="kbeq", b=b1, k=5),
        IdentityTrial(kind="combine", b=b1),
        IdentityTrial(kind="combine", c=b1),
        IdentityTrial(kind="kbeq", k=1),
        IdentityTrial(kind="kbeq", b=b1),
        IdentityTrial(kind="allbut"),
        IdentityTrial(kind="shift", b=b1),
    ]
    for trial in bad:
        with pytest.raises(ValueError):
            identity_suite(SQ5, trial)


def test_verify_decomposition_pass():
    f9 = make_field(3, 2)
    sq9 = build_function(FnSpec.univariate([0, 0, 1]), f9, 1)
    v = verify_decomposition(sq9, standard_basis(f9, 1))
    assert v.passed and v.failing_a is None
    assert v.shifts_checked == 8
    # works for arbitrary tables, planar or not
    rnd = random_function(F5, 2, 11)
    v2 = verify_decomposition(rnd, standard_basis(F5, 2))
    assert v2.passed and v2.shifts_checked == 24
    cube7 = build_function(FnSpec.univariate([0, 0, 0, 1]), make_field(7), 1)
    assert verify_decomposition(cube7, standard_basis(make_field(7), 1)).passed


def test_verify_decomposition_non_standard_basis():
    f9 = make_field(3, 2)
    sq9 = build_function(FnSpec.univariate([0, 0, 1]), f9, 1)
    one_plus_t = PointVector(f9, (f9.from_index(4),))
    t = PointVector(f9, (f9.from_index(3),))
    basis = SpaceBasis(f9, 1, (one_plus_t, t))
    assert verify_decomposition(sq9, basis).passed
    # and reconstruction against that basis still matches the direct delta
    b = base_deltas(sq9, basis)
    for a_idx in range(9):
        a = PointVector.from_index(f9, 1, a_idx)
        assert reconstruct_delta(b, a) == delta_table(sq9, a)


def test_verify_matches_single_shift_oracle():
    # the batched certificate and the per-shift reconstruction agree
    params = make_field(2, 2)
    f = random_function(params, 2, 3)
    basis = standard_basis(params, 2)
    assert verify_decomposition(f, basis).passed
    b = base_deltas(f, basis)
    for a_idx in range(16):
        a = PointVector.from_index(params, 2, a_idx)
        assert reconstruct_delta(b, a) == delta_table(f, a)


@pytest.mark.parametrize("p", [401, 1009, 4093])
def test_verify_decomposition_large_prime_fields(p):
    # one chain of p - 1 shifts per digit: no recursion per step, and digit
    # sums of about p**2 must not wrap before the mod-p comparison
    params = make_field(p, 1, (0, 1))
    f = random_function(params, 1, 1)
    v = verify_decomposition(f, standard_basis(params, 1))
    assert v.passed and v.failing_a is None
    assert v.shifts_checked == p - 1


def test_verify_decomposition_size_guard():
    big = build_function(FnSpec.univariate([0, 0, 1]), F5, 1)
    f = random_function(F5, 6, 0)  # 15625 points: table ok, certificate not
    with pytest.raises(UnsupportedSize):
        verify_decomposition(f, standard_basis(F5, 6))
    assert big.n_points <= 4096  # sanity: the small case stays in scope


def test_base_delta_set_construction_checks():
    basis = standard_basis(F5, 1)
    b = base_deltas(SQ5, basis)
    assert isinstance(b, BaseDeltaSet)
    assert b.basis is basis


MODULI = [(p, ell, m) for p, ell in SMALL_EXTENSIONS for m in _moduli(p, ell)]


def _modulus_id(p, ell, m):
    return f"q{p**ell}-m{''.join(map(str, m))}"


def test_moduli_enumeration_is_complete():
    # there are (p**ell - p) / ell monic irreducibles of prime degree ell
    assert [len(list(_moduli(p, ell))) for p, ell in SMALL_EXTENSIONS] == [3, 10, 8, 21]


@pytest.mark.parametrize("p,ell,modulus", [pytest.param(*c, id=_modulus_id(*c)) for c in MODULI])
def test_verify_decomposition_every_modulus(p, ell, modulus):
    params = make_field(p, ell, modulus)
    basis = standard_basis(params, 1)
    square = build_function(FnSpec.univariate([0, 0, 1]), params, 1)
    for f in (square, random_function(params, 1, 13)):
        v = verify_decomposition(f, basis)
        assert v.passed and v.failing_a is None
        assert v.shifts_checked == params.q - 1


def _corrupted_cases():
    f9 = make_field(3, 2)
    skewed9 = (PointVector.from_index(f9, 1, 4), PointVector.from_index(f9, 1, 3))
    spaces = [
        (make_field(2), 6, None),
        (F5, 2, None),
        (make_field(2, 2), 2, None),
        (f9, 1, skewed9),
        (make_field(1009, 1, (0, 1)), 1, None),
    ]
    for params, d, vectors in spaces:
        for which in ("first", "last"):
            for where in ("low", "high"):
                yield pytest.param(
                    params, d, vectors, which, where, id=f"q{params.q}-d{d}-{which}-{where}"
                )
    # every modulus of F_9, F_25, F_27 and F_49, the built-in one included
    for p, ell, m in MODULI:
        yield pytest.param(make_field(p, ell, m), 1, None, "last", "high", id=_modulus_id(p, ell, m))


@pytest.mark.parametrize("params,d,vectors,which,where", _corrupted_cases())
def test_verify_decomposition_reports_least_failing_shift(monkeypatch, params, d, vectors, which, where):
    # negative control: one wrong entry in one base table must surface as
    # the least shift whose per-shift reconstruction disagrees with f
    f = random_function(params, d, 5)
    basis = standard_basis(params, d) if vectors is None else SpaceBasis(params, d, vectors)
    good = base_deltas(f, basis)
    i = 0 if which == "first" else len(good.tables) - 1
    x = 1 if where == "low" else f.n_points - 2
    values = good.tables[i].values.copy()
    values[x] = (values[x] + 1) % params.q
    tables = list(good.tables)
    tables[i] = FnTable(params, d, values)
    bad = BaseDeltaSet(basis, tuple(tables))
    expected = next(
        a_idx
        for a_idx in range(1, f.n_points)
        if reconstruct_delta(bad, PointVector.from_index(params, d, a_idx))
        != delta_table(f, PointVector.from_index(params, d, a_idx))
    )
    monkeypatch.setattr(decomp, "base_deltas", lambda f, basis: bad)
    v = verify_decomposition(f, basis)
    assert not v.passed
    assert v.shifts_checked == f.n_points - 1
    assert v.failing_a.index == expected


def test_verify_decomposition_across_digit_groups(monkeypatch):
    # x**2 passes and a corrupted base table fails over F_27, with the same
    # verdicts and least failing shift from one group and from two
    params = make_field(3, 3)
    basis = standard_basis(params, 1)
    square = build_function(FnSpec.univariate([0, 0, 1]), params, 1)
    f = random_function(params, 1, 5)
    good = base_deltas(f, basis)
    values = good.tables[-1].values.copy()
    values[-2] = (values[-2] + 1) % params.q
    bad = BaseDeltaSet(basis, good.tables[:-1] + (FnTable(params, 1, values),))

    def verdicts():
        passing = verify_decomposition(square, basis)
        with monkeypatch.context() as m:
            m.setattr(decomp, "base_deltas", lambda f, basis: bad)
            return passing, verify_decomposition(f, basis)

    want = verdicts()
    with two_digit_groups(monkeypatch):
        assert verdicts() == want
    assert want[0].passed and not want[1].passed
