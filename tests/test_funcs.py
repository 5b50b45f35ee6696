"""Dense function tables: construction, difference operators, PN verdicts,
distance/image helpers, and the text file format."""

import numpy as np
import pytest

from ffspectra import FnSpec, FnTable, PointVector, build_function, make_field
from ffspectra.catalog import random_function
from ffspectra.errors import (
    BadTableFile,
    FieldMismatch,
    SpecDimensionMismatch,
    UnsupportedSize,
)
from ffspectra.funcs import (
    delta_table,
    dump_table,
    hamming_distance,
    image_size,
    is_pn,
    load_table,
    parse_table,
    save_table,
    translate,
)

F5 = make_field(5)


def _sq(params=F5):
    return build_function(FnSpec.univariate([0, 0, 1]), params, 1)


def _cube(params=F5):
    return build_function(FnSpec.univariate([0, 0, 0, 1]), params, 1)


def test_build_function_frozen_tables():
    assert _sq().values.tolist() == [0, 1, 4, 4, 1]
    assert _cube().values.tolist() == [0, 1, 3, 2, 4]
    zero = build_function(FnSpec.univariate([0]), F5, 1)
    assert zero.values.tolist() == [0] * 5
    # monomial route gives the same table as the univariate route
    mono = build_function(FnSpec.from_monomials([(1, (2,))]), F5, 1)
    assert mono == _sq()


def test_build_function_monomials_multivariate():
    xy = build_function(FnSpec.from_monomials([(1, (1, 1))]), F5, 2)
    for i in range(25):
        x, y = i % 5, i // 5
        assert xy.values[i] == (x * y) % 5
    with pytest.raises(SpecDimensionMismatch):
        build_function(FnSpec.univariate([0, 1]), F5, 2)
    with pytest.raises(SpecDimensionMismatch):
        build_function(FnSpec.from_monomials([(1, (1, 1))]), F5, 3)


def test_raw_spec_and_table_guards():
    f = build_function(FnSpec.raw([4, 3, 2, 1, 0]), F5, 1)
    assert f.values.tolist() == [4, 3, 2, 1, 0]
    with pytest.raises(ValueError):
        build_function(FnSpec.raw([1, 2, 3]), F5, 1)  # wrong length
    with pytest.raises(ValueError):
        FnTable(F5, 1, np.array([0, 1, 2, 3, 5]))  # value out of range
    with pytest.raises(UnsupportedSize):
        FnTable(make_field(2), 21, np.zeros(2**21, dtype=np.int64))


def test_delta_table_frozen():
    one = PointVector.from_index(F5, 1, 1)
    two = PointVector.from_index(F5, 1, 2)
    assert delta_table(_sq(), one).values.tolist() == [1, 3, 0, 2, 4]  # 2x+1
    assert delta_table(_cube(), one).values.tolist() == [1, 2, 4, 2, 1]  # 3x^2+3x+1
    assert delta_table(_sq(), two).values.tolist() == [4, 3, 2, 1, 0]  # 4x+4
    zero_shift = delta_table(_sq(), PointVector.zero(F5, 1))
    assert not zero_shift.values.any()
    with pytest.raises(FieldMismatch):
        delta_table(_sq(), PointVector.zero(make_field(7), 1))


def test_delta_table_recomputed_independently():
    # q^d <= 625 sweep on a couple of spaces: table vs pointwise recompute
    for params, d, spec in [
        (F5, 2, FnSpec.from_monomials([(1, (1, 1)), (2, (2, 0))])),
        (make_field(3, 2), 1, FnSpec.univariate([1, 2, 1])),
    ]:
        f = build_function(spec, params, d)
        n = params.q**d
        for a_idx in range(n):
            a = PointVector.from_index(params, d, a_idx)
            got = delta_table(f, a)
            for x_idx in range(n):
                x = PointVector.from_index(params, d, x_idx)
                want = f.value_at(x + a) - f.value_at(x)
                assert got.value_at(x) == want


def test_is_pn_verdicts_and_witness():
    assert is_pn(_sq()).verdict == "pn"
    bad = is_pn(_cube())
    assert bad.verdict == "not_pn"
    assert bad.witness.a.index == 1
    assert bad.witness.value.index == 1
    assert bad.witness.count == 2
    # witness is the least failing pair: recount it independently
    d1 = delta_table(_cube(), PointVector.from_index(F5, 1, 1)).values
    assert int(np.count_nonzero(d1 == 1)) == 2
    # f(x,y) = xy is PN on F_5^2
    xy = build_function(FnSpec.from_monomials([(1, (1, 1))]), F5, 2)
    assert is_pn(xy).verdict == "pn"


def _least_pn_failure(f):
    """Brute force: the least shift a whose difference table misses the
    q**(d-1) count, its least over-hit value v, and that count."""
    q, expected = f.params.q, f.n_points // f.params.q
    for a in range(1, f.n_points):
        delta = delta_table(f, PointVector.from_index(f.params, f.d, a)).values
        counts = np.bincount(delta, minlength=q)
        if np.any(counts != expected):
            v = int(np.flatnonzero(counts > expected)[0])
            return a, v, int(counts[v])
    return None


def _pn_scan_tables():
    f2, f4, f5 = make_field(2), make_field(2, 2), make_field(5)
    f9, f25 = make_field(3, 2), make_field(5, 2, modulus=[2, 1, 1])  # t^2+t+2
    tables = [
        random_function(params, d, seed)
        for params, d in ((f2, 6), (f4, 2), (f9, 1), (f25, 1), (f5, 2))
        for seed in range(3)
    ]
    tables.append(build_function(FnSpec.univariate([0, 0, 1]), f25, 1))  # planar
    # PN in the low digits plus a random part in the top ones: the first
    # failing shift lies past every shift that only moves the low digits.
    rng = np.random.default_rng(7)
    idx = np.arange(25)
    tables.append(FnTable(f5, 2, ((idx % 5) ** 2 + rng.integers(0, 5, 5)[idx // 5]) % 5))
    bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    top = rng.integers(0, 2, 4)[bits[:, 4] + 2 * bits[:, 5]]
    tables.append(FnTable(f2, 6, (bits[:, 0] * bits[:, 1] + bits[:, 2] * bits[:, 3] + top) % 2))
    return tables


def test_is_pn_witness_is_the_brute_force_least_failure():
    for f in _pn_scan_tables():
        verdict = is_pn(f)
        expected = _least_pn_failure(f)
        assert verdict.is_pn == (expected is None)
        if expected is not None:
            w = verdict.witness
            assert (w.a.index, w.value.index, w.count) == expected


def test_hamming_distance():
    two_sq = build_function(FnSpec.univariate([0, 0, 2]), F5, 1)
    sq_plus_x = build_function(FnSpec.univariate([0, 1, 1]), F5, 1)
    assert hamming_distance(_sq(), _sq()) == 0
    assert hamming_distance(_sq(), two_sq) == 4
    assert hamming_distance(_sq(), sq_plus_x) == 4
    with pytest.raises(FieldMismatch):
        hamming_distance(_sq(), _sq(make_field(7)))


def test_image_size():
    assert image_size(_sq()) == 3  # {0, 1, 4}
    assert image_size(build_function(FnSpec.univariate([2]), F5, 1)) == 1
    assert image_size(build_function(FnSpec.univariate([0, 1]), F5, 1)) == 5


def test_translate_frozen():
    one, zero = F5.one(), F5.zero()
    s1 = PointVector.from_index(F5, 1, 1)
    s0 = PointVector.zero(F5, 1)
    assert translate(_sq(), s1, zero).values.tolist() == [1, 4, 4, 1, 0]
    assert translate(_sq(), s0, F5.scalar(2)).values.tolist() == [2, 3, 1, 1, 3]
    assert translate(_sq(), s0, zero) == _sq()


def test_pn_invariant_under_translation():
    # verdicts survive any shift s and offset t (q <= 25)
    for params in (F5, make_field(3, 2)):
        f = _sq(params)
        g = _cube(params)
        for s_idx in range(params.q):
            s = PointVector.from_index(params, 1, s_idx)
            for t_idx in range(params.q):
                t = params.from_index(t_idx)
                assert is_pn(translate(f, s, t)).is_pn
                assert not is_pn(translate(g, s, t)).is_pn


def test_table_file_round_trip(tmp_path):
    text = dump_table(_sq())
    assert text == "5 1 1\n0 1\n0 1 4 4 1\n"
    assert parse_table(text) == _sq()
    path = tmp_path / "sq.txt"
    save_table(_sq(), path)
    assert path.read_text() == text
    assert load_table(path) == _sq()
    # extension field: modulus line carries ell+1 coefficients
    f9 = make_field(3, 2)
    g = build_function(FnSpec.univariate([0, 0, 1]), f9, 1)
    text9 = dump_table(g)
    assert text9.splitlines()[0] == "3 2 1"
    assert text9.splitlines()[1] == "1 0 1"
    assert parse_table(text9) == g


def test_table_file_errors():
    with pytest.raises(BadTableFile):
        parse_table("")
    with pytest.raises(BadTableFile):
        parse_table("4 1 1\n0 1\n0 1 2 3\n")  # non-prime p
    with pytest.raises(BadTableFile):
        parse_table("5 1 1\n0 1\n0 1 4 4\n")  # wrong value count
    with pytest.raises(BadTableFile):
        parse_table("5 1 1\n0 1\n0 1 4 4 9\n")  # value out of range
    with pytest.raises(BadTableFile):
        parse_table("5 1 1\n4 0 1\n0 1 4 4 1\n")  # reducible modulus
    with pytest.raises(BadTableFile):
        parse_table("5 1 1\n0 1\n0 1 x 4 1\n")  # non-integer entry


def test_catalog_spec_kind_dispatches():
    f = build_function(FnSpec.catalog("square"), F5, 1)
    assert f == _sq()
