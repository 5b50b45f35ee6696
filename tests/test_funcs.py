"""Dense function tables: construction, difference operators, PN verdicts,
distance/image helpers, and the text file format."""

import numpy as np
import pytest

from ffspectra import FieldParams, _modp, FnSpec, FnTable, PointVector, build_function, field, funcs, make_field
from ffspectra.catalog import get_function, random_function
from ffspectra.cli import main
from ffspectra.errors import (
    BadTableFile,
    FieldMismatch,
    IndexOutOfRange,
    SpecDimensionMismatch,
    UnsupportedSize,
)
from ffspectra.funcs import (
    _eval_monomials,
    _vec_pow,
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

from conftest import two_digit_groups

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
    assert build_function(FnSpec.univariate([0, 0, 0]), F5, 1) == zero
    assert build_function(FnSpec.univariate([1, 0, 0, 0, 0, 1]), F5, 1).values.tolist() == [
        1, 2, 3, 4, 0,
    ]  # x**5 + 1 = x + 1 on F_5
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
    for coeffs in ([0, -1], [7], [0, 0, 25]):  # coefficients are element indices
        with pytest.raises(IndexOutOfRange):
            build_function(FnSpec.univariate(coeffs), F5, 1)


@pytest.mark.parametrize(
    "params", [make_field(3, 2), make_field(2, 4), FieldParams(5, 2, (2, 1, 1))], ids=repr
)
def test_vec_pow_matches_scalar_powers_without_products_by_one(monkeypatch, params):
    products = 0
    vec_mul = field.vec_mul

    def counting(*args):
        nonlocal products
        products += 1
        return vec_mul(*args)

    monkeypatch.setattr(field, "vec_mul", counting)
    for e in range(1, 18):
        products = 0
        got = _vec_pow(params, np.arange(params.q), e)
        assert got.tolist() == [(x**e).index for x in params.elements()]
        # one square per bit below the top one, one product per further set bit
        assert products == (e.bit_length() - 1) + (bin(e).count("1") - 1)


def test_build_function_takes_no_product_by_one(monkeypatch):
    factors = []
    vec_mul = field.vec_mul

    def recording(params, a, b):
        factors.append((np.asarray(a).copy(), np.asarray(b).copy()))
        return vec_mul(params, a, b)

    monkeypatch.setattr(field, "vec_mul", recording)
    f2 = make_field(2)
    build_function(FnSpec.from_monomials([(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))]), f2, 4)
    assert len(factors) == 2  # one product per two-factor term, nothing else
    f25 = FieldParams(5, 2, (2, 1, 1))
    factors.clear()
    build_function(FnSpec.from_monomials([(7, (2, 1)), (3, (0, 0))]), f25, 2)
    assert len(factors) == 3  # x**2 (one square), x**2 * y, and the coefficient 7
    assert not any(np.all(b == 1) or np.all(a == 1) for a, b in factors)


@pytest.mark.parametrize(
    "params,d",
    [(make_field(3, 2), 3), (make_field(2, 2), 4), (make_field(7), 3), (FieldParams(5, 2, (2, 1, 1)), 2)],
    ids=["F9-d3", "F4-d4", "F7-d3", "F25-d2"],
)
def test_eval_monomials_matches_pointwise_evaluation(params, d):
    # the broadcast build against FieldElement arithmetic at every point
    q = params.q
    terms = [
        (2, (0,) * d),  # a constant-only term
        (1, (1,) + (0,) * (d - 1)),  # zero exponents on all but x_0
        (q - 1, tuple(range(d))),  # a non-unit coefficient, x_0**0
        (q // 2, (0,) * (d - 1) + (2 * q + 3,)),  # an exponent above q
        (3, (q + 1,) * d),  # every factor present, above q
        (0, (1,) * d),  # a zero coefficient
    ]
    got = _eval_monomials(params, d, terms)
    assert got.shape == (q**d,)
    want = []
    for i in range(q**d):
        x = PointVector.from_index(params, d, i).coords
        value = params.zero()
        for c, exps in terms:
            term = params.from_index(c)
            for xj, e in zip(x, exps):
                term = term * xj**e
            value = value + term
        want.append(value.index)
    assert got.tolist() == want


def test_spec_recheck_catches_a_wrong_evaluator(monkeypatch):
    # A vectorized product that reduces by the default modulus t**2 + 2 in
    # place of the table's t**2 + t + 2 still yields indices in [0, 25).
    params = FieldParams(5, 2, (2, 1, 1))
    default = make_field(5, 2)
    assert default.modulus != params.modulus
    specs = [(FnSpec.univariate([1, 0, 3, 1]), 1), (FnSpec.from_monomials([(7, (1, 2))]), 2)]
    for spec, d in specs:
        build_function(spec, params, d)
    original = field.vec_mul
    wrong = {
        "vec_mul": lambda p, a, b: original(default if p == params else p, a, b),
        # a digit addition that subtracts: the terms are summed as -f(x)
        "vec_add": field.vec_sub,
    }
    for name, evaluator in wrong.items():
        with monkeypatch.context() as patch:
            patch.setattr(field, name, evaluator)
            for spec, d in specs:
                with pytest.raises(AssertionError, match="spec evaluation mismatch"):
                    build_function(spec, params, d)


def test_raw_spec_and_table_guards():
    with pytest.raises(ValueError):
        FnTable(F5, 1, np.array([1, 2, 3]))  # wrong length
    with pytest.raises(ValueError):
        FnTable(F5, 1, np.array([0, 1, 2, 3, 5]))  # value out of range
    with pytest.raises(UnsupportedSize):
        FnTable(make_field(2), 21, np.zeros(2**21, dtype=np.int64))
    # a spec is refused before its 2**40 points are allocated
    with pytest.raises(UnsupportedSize):
        build_function(FnSpec.from_monomials([(1, (1,) * 40)]), make_field(2), 40)


def test_table_refuses_float_and_complex_values():
    # a float is never rounded to an element index
    for values in ([0.5, 1.9, 2, 3, 4], np.arange(5.0), np.arange(5) + 0j):
        with pytest.raises(ValueError, match="integer element indices"):
            FnTable(F5, 1, values)
    # integer, bool and object values are taken as before
    for values in ([4, 3, 2, 1, 0], np.arange(5, dtype=np.uint8), [True, False] * 2 + [True],
                   np.array([0, 1, 2, 3, 4], dtype=object)):
        assert FnTable(F5, 1, values).values.tolist() == [int(v) for v in values]


def test_table_refuses_objects_that_are_not_integers():
    # an object array is read value by value as operator.index reads it: a
    # float object is not truncated and a digit string is not parsed
    for values in (np.array([0.5, 1, 2, 3, 4], dtype=object), ["1", "2", "3", "4", "0"],
                   np.array(["1", "2", "3", "4", "0"], dtype=object), [np.float64(1.0)] + [0] * 4):
        with pytest.raises(ValueError, match="integer element indices"):
            FnTable(F5, 1, values)
    values = np.array([np.int64(4), np.uint8(3), 2, True, 0], dtype=object)
    assert FnTable(F5, 1, values).values.tolist() == [4, 3, 2, 1, 0]


F256 = make_field(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # t**8 + t**4 + t**3 + t + 1


@pytest.mark.parametrize(
    "params,d,narrow",
    [
        (make_field(2), 3, np.uint8),
        (F256, 1, np.uint8),
        (make_field(257), 1, np.uint16),
        (make_field(1009), 1, np.uint16),
        (make_field(5, 5), 1, np.uint16),
        (make_field(65537), 1, np.uint32),
    ],
    ids=["q2", "q256-ell8", "q257", "q1009", "q3125-ell5", "q65537"],
)
def test_every_table_holds_the_narrowest_unsigned_type(params, d, narrow, tmp_path):
    assert np.min_scalar_type(params.q - 1) == narrow
    f = random_function(params, d, 7)
    a = PointVector.from_index(params, d, 1)
    path = tmp_path / "f.tbl"
    save_table(f, path)
    tables = {
        "FnTable": FnTable(params, d, f.values.astype(np.int64)),
        "load_table": load_table(path),
        "random_function": f,
        "get_function": get_function("affine", params, b=1, c=params.q - 1),
        "delta_table": delta_table(f, a),
        "translate": translate(f, a, params.from_index(params.q - 1)),
    }
    assert {name: t.values.dtype for name, t in tables.items()} == dict.fromkeys(tables, np.dtype(narrow))
    assert tables["FnTable"] == tables["load_table"] == f


@pytest.mark.parametrize("bad", [256, 300, 65536 + 7, -1, -256, 2**70, -(2**70)])
def test_a_value_that_would_wrap_in_the_cast_is_refused(bad, tmp_path):
    # 300 is 44 as a uint8 and -1 is 255: the range is checked on the values
    # as given, before the table's uint8 copy is made; +-2**70 fits no
    # integer dtype, so it comes as a Python int in an object array or a list
    for dtype in (np.int64, np.int32, object) if abs(bad) < 2**31 else (object,):
        values = np.zeros(256, dtype=dtype)
        values[5] = bad
        with pytest.raises(ValueError, match=r"element indices in \[0, q\)"):
            FnTable(F256, 1, values)
    with pytest.raises(ValueError, match=r"element indices in \[0, q\)"):
        FnTable(F256, 1, [0] * 255 + [bad])
    if bad > 0:
        path = tmp_path / "bad.tbl"
        path.write_text("2 8 1\n1 1 0 1 1 0 0 0 1\n" + " ".join(["0"] * 255 + [str(bad)]) + "\n")
        with pytest.raises(BadTableFile, match="element indices"):
            load_table(path)


def test_table_dimension_is_an_integer():
    with pytest.raises(TypeError):
        FnTable(F5, 1.0, np.arange(5))
    f = FnTable(F5, np.int64(1), np.arange(5))
    assert type(f.d) is int and repr(f) == "FnTable(q=5, d=1, 5 points)"


def test_univariate_spec_refuses_float_coefficients():
    # read as operator.index reads them: 1.5 is not truncated to the square's 1
    for coeffs in ([0, 0, 1.5], [0, 0, np.float64(1.0)], [2.0]):
        with pytest.raises(TypeError):
            FnSpec.univariate(coeffs)
    spec = FnSpec.univariate([np.int64(0), 0, np.uint8(1)])
    assert spec == FnSpec.univariate([0, 0, 1]) and type(spec.monomials[0][0]) is int


def test_monomial_spec_refuses_float_coefficients_and_exponents():
    # 2.7 is not truncated to the exponent 2
    for terms in ([(1, (2.7,))], [(1.0, (2,))], [(1, (np.float64(2.0),))]):
        with pytest.raises(TypeError):
            FnSpec.from_monomials(terms)
    spec = FnSpec.from_monomials([(np.int64(1), (np.uint8(2),))])
    assert spec == FnSpec.from_monomials([(1, (2,))])
    assert all(type(v) is int for v in (spec.monomials[0][0], *spec.monomials[0][1]))


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
    f3, f7, f27, f125, f49 = (make_field(p, ell) for p, ell in ((3, 1), (7, 1), (3, 3), (5, 3), (7, 2)))
    f27_alt = make_field(3, 3, modulus=[2, 1, 1, 1])  # t^3+t^2+t+2
    square, xy = FnSpec.univariate([0, 0, 1]), FnSpec.from_monomials([(1, (1, 1))])
    spaces = [(f2, 6), (f4, 2), (f9, 1), (f25, 1), (f5, 2), (f3, 1), (f7, 1), (f27, 1),
              (f125, 1), (f49, 1), (f27_alt, 1), (f9, 2), (f7, 2)]
    tables = [random_function(params, d, seed) for params, d in spaces for seed in range(3)]
    # planar and PN tables run the odometer through every shift
    for params in (f25, f3, f7, f27, f125, f49, f27_alt):
        tables.append(build_function(square, params, 1))
    tables += [build_function(xy, params, 2) for params in (f9, f7)]
    # every distance-1 neighbour of x**2 over F_3 and F_9, planar ones included
    for params in (f3, f9):
        base = build_function(square, params, 1).values
        for w in range(params.q):
            for v in range(params.q):
                if v != base[w]:
                    tables.append(FnTable(params, 1, np.where(np.arange(params.q) == w, v, base)))
    # a 4093-entry digit group, and F_2^13's two groups under the 2**20 bound
    f4093 = make_field(4093, 1, modulus=[0, 1])
    f8192 = make_field(2, 13, modulus=[1, 1, 0, 1, 1] + [0] * 8 + [1])  # t^13+t^4+t^3+t+1
    tables += [random_function(params, 1, seed) for params in (f4093, f8192) for seed in range(2)]
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


def test_warm_pn_scan_does_no_digit_work_per_shift(monkeypatch):
    # F_125 has 124 shifts and F_3125 has 3124: a digit call per shift
    # would show up as a difference in the counts
    calls = []
    original = _modp.digits_of
    monkeypatch.setattr(_modp, "digits_of", lambda *args: calls.append(args) or original(*args))
    counts = []
    for ell in (3, 5):
        f = build_function(FnSpec.univariate([0, 0, 1]), make_field(5, ell), 1)
        is_pn(f)
        calls.clear()
        # a fresh table: f holds its own scan's witness
        assert is_pn(FnTable(f.params, f.d, f.values)).is_pn
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_pn_scan_across_digit_groups(monkeypatch):
    # planar x**2 and PN x*y over F_27 walk the full odometer; random
    # tables fail at their least witness
    params = make_field(3, 3)
    tables = [_sq(params), build_function(FnSpec.from_monomials([(1, (1, 1))]), params, 2)]
    tables += [random_function(params, d, seed) for d in (1, 2) for seed in range(2)]
    want = [funcs._pn_scan(params, f.d, f.values) for f in tables]
    with two_digit_groups(monkeypatch):
        assert [funcs._pn_scan(params, f.d, f.values) for f in tables] == want
    assert want[:2] == [None, None] and None not in want[2:]


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (5, 4), (7, 3)], ids=["F2-n10", "F3-n6", "F5-n4", "F7-n3"])
def test_shift_walk_gives_every_shift_and_its_last_step(p, n):
    # the walk behind the PN scan and the decomposition certificate: every
    # nonzero shift in index order, the digit that goes up at it, and the
    # translations by the shift and by the shift less that digit's unit,
    # against the index adder
    idx = np.arange(p**n, dtype=np.intp)
    shifts = []
    for a, j, before, after in _modp.shift_walk(p, n):
        shifts.append(a)
        assert j == next(k for k in range(n) if a // p**k % p)
        assert np.array_equal(after, _modp.add_indices(idx, a, p, n))
        assert np.array_equal(before, _modp.add_indices(idx, a - p**j, p, n))
    assert shifts == list(range(1, p**n))


def test_scan_caches_only_the_field_code_words():
    # the translations need no point-space words, so a scan on a d >= 2
    # space leaves one entry in difference_codes' cache: the field's
    for params, d in ((make_field(3), 6), (make_field(5, 2), 2), (make_field(2), 10)):
        _modp.difference_codes.cache_clear()
        assert not is_pn(random_function(params, d, 1)).is_pn
        assert _modp.difference_codes.cache_info().currsize == 1
        hits = _modp.difference_codes.cache_info().hits
        _modp.difference_codes(params.p, params.ell)
        assert _modp.difference_codes.cache_info().hits == hits + 1


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


def test_table_file_errors(tmp_path, capsys):
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
    with pytest.raises(BadTableFile, match="expected 5 values, got 0"):
        parse_table("5 1 1\n0 1\n \n")  # whitespace alone holds no value
    path = tmp_path / "t.tbl"
    for value in (2**63, 10**30):  # values past int64 saturate, out of range
        text = f"5 1 1\n0 1\n0 1 4 4 {value}\n"
        with pytest.raises(BadTableFile, match="element indices in"):
            parse_table(text)
        path.write_text(text, encoding="ascii")
        assert main(["test", "pn", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("ffspectra: error: ")


def test_table_header_and_modulus_stay_exact_ints():
    # a modulus coefficient past int64 reduces mod p exactly: saturated to
    # 2**63 - 1 = 2 mod 5, it would name another polynomial
    assert parse_table(f"5 1 1\n{5 * 2**70} {5 * 2**70 + 1}\n0 1 4 4 1\n") == _sq()
    f9 = make_field(3, 2)  # modulus t^2 + 1
    text = f"3 2 1\n{3 * 2**80 + 1} {3 * 2**65} {3 * 2**64 + 1}\n" + " ".join(map(str, _sq(f9).values)) + "\n"
    assert parse_table(text) == _sq(f9)
    with pytest.raises(BadTableFile):
        parse_table(f"5 1 {2**64 + 1}\n0 1\n0 1 4 4 1\n")  # d past int64 is past the cap


@pytest.mark.parametrize(
    "text",
    [
        "2 1 1\n0 1\n\u0661 \u0660\n",  # Arabic-Indic digits one and zero
        "5 1 1\n0 1\n0 \uff11 4 4 1\n",  # a fullwidth one
        "5 1 1\n0 1\n0 +1 0_4 4 1\n",
        "5 1 1\n0 1\n0 1 4 4 -0\n",
        "5 1 1\n0 +1\n0 1 4 4 1\n",
        "+5 1 1\n0 1\n0 1 4 4 1\n",
        "5 1 0_1\n0 1\n0 1 4 4 1\n",
        "5 1 1\n0 1\n0\u20031 4 4 1\n",  # an em space between two values
        "5 1 1\n0 1\n0\x1c1\x1d4\x1e4\x1f1\n",  # str.split() splits on these
        "5\x1f1 1\n0 1\n0 1 4 4 1\n",
        "5 1 1\n0\x1c1\n0 1 4 4 1\n",
        "5 1 1\n0 1\n0 1 4 4 1\x00\n",
    ],
    ids=["arabic-indic", "fullwidth", "sign-underscore", "minus-zero", "modulus-sign",
         "header-sign", "header-underscore", "em-space", "value-separators",
         "header-separator", "modulus-separator", "nul"],
)
def test_table_tokens_are_ascii_digit_strings(text, tmp_path):
    # int() reads all of these; the file format has plain ASCII digits only
    path = tmp_path / "t.tbl"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(BadTableFile):
        parse_table(text)
    with pytest.raises(BadTableFile):
        load_table(path)
    plain = "5 1 1\n0 1\n0 1 4 4 1\n"
    path.write_text(plain, encoding="ascii")
    assert parse_table(plain) == load_table(path) == _sq()


def test_table_separators_are_the_six_ascii_whitespace_bytes(tmp_path, capsys):
    path = tmp_path / "t.tbl"
    # the header and modulus are lines; the values may span lines
    for sep, eol in [(" ", "\n"), ("\t", "\r\n"), ("\v", "\r"), ("\f", "\n")]:
        for values_sep in (sep, "\n", "\r"):
            values = values_sep.join("01441")
            text = f"5{sep}1{sep}1{eol}0{sep}1{eol}{values}{eol}"
            path.write_text(text, encoding="ascii", newline="")
            assert parse_table(text) == load_table(path) == _sq()
    # every other control splits under str.split() but is refused here
    for sep in "\x1c\x1d\x1e\x1f":
        text = f"5 1 1\n0 1\n0{sep}1 4 4 1\n"
        path.write_text(text, encoding="ascii", newline="")
        with pytest.raises(BadTableFile):
            parse_table(text)
        with pytest.raises(BadTableFile):
            load_table(path)
        assert main(["test", "pn", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("ffspectra: error: ")


@pytest.mark.parametrize(
    "data",
    [
        b"2 1 \xe91\n0 1\n0 1\n",
        b"2 1 13\n0 1\n" + b"0 " * 8191 + b"\xe9\n",  # past the header line's first read
    ],
    ids=["header", "values"],
)
def test_non_ascii_table_file_is_refused(data, tmp_path, capsys):
    path = tmp_path / "latin1.tbl"
    path.write_bytes(data)
    with pytest.raises(BadTableFile):
        load_table(path)
    assert main(["test", "pn", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("ffspectra: error: ")


@pytest.mark.parametrize(
    "params",
    [make_field(5, 5), make_field(13, 3), make_field(7, 3), make_field(3, 6), make_field(1021),
     make_field(7, 2), make_field(11, 2), FieldParams(2, 5, (1, 0, 1, 1, 1, 1))],
    ids=str,
)
def test_log_tables_are_the_powers_of_a_generator(params):
    # antilog[k] = g**k by FieldElement products, for g = antilog[1] of order q - 1
    log, antilog = funcs._log_tables(params)
    g, x = params.from_index(int(antilog[1])), params.one()
    for k in range(params.q - 1):
        assert int(antilog[k]) == x.index and int(log[x.index]) == k
        x = x * g
    assert x == params.one() and sorted(antilog.tolist()) == list(range(1, params.q))
