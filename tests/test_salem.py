"""Graph sets, exact indicator transforms, the per-instance Salem constant,
and the two-case flat-graph certificate."""

import cmath
import math

import numpy as np
import pytest

from ffspectra import (
    FieldParams,
    FnSpec,
    PointVector,
    build_function,
    get_function,
    make_field,
    trace,
)
from ffspectra.catalog import random_function
from ffspectra.errors import EmptySet, FieldMismatch, HypothesisFailed, IndexOutOfRange, TrivialCharacter
from ffspectra.salem import (
    PointSet,
    graph_of,
    indicator_ft_abs_sq,
    indicator_sum,
    salem_constant,
    salem_report,
    verify_theorem1,
)
from ffspectra.space import dot
from ffspectra.spectrum import spectrum_report, walsh_exact_all

F5 = make_field(5)
SQ5 = build_function(FnSpec.univariate([0, 0, 1]), F5, 1)


def _indicator_oracle(e, m, u_index=1):
    # direct complex sum over the member points
    params = e.params
    u = params.from_index(u_index)
    total = 0j
    for i in range(params.q**e.d):
        if e.bitmap[i]:
            x = PointVector.from_index(params, e.d, i)
            tr = trace(u * dot(x, m))
            total += cmath.exp(-2j * cmath.pi * tr / params.p)
    return total


def test_graph_of_frozen():
    e = graph_of(SQ5)
    assert e.d == 2 and e.cardinality == 5
    assert sorted(np.nonzero(e.bitmap)[0].tolist()) == [0, 6, 9, 22, 23]
    const = build_function(FnSpec.univariate([0]), F5, 1)
    line = graph_of(const)
    assert line.cardinality == 5
    assert np.nonzero(line.bitmap)[0].tolist() == [0, 1, 2, 3, 4]
    xy = build_function(FnSpec.from_monomials([(1, (1, 1))]), F5, 2)
    assert graph_of(xy).d == 3 and graph_of(xy).cardinality == 25


def test_indicator_sum_frozen_cases():
    e = graph_of(SQ5)
    m0 = PointVector.zero(F5, 2)
    assert indicator_sum(e, m0).as_integer() == 5
    assert indicator_ft_abs_sq(e, m0).as_integer() == 25  # |E|^2
    m_case1 = PointVector(F5, (F5.one(), F5.zero()))
    assert indicator_ft_abs_sq(e, m_case1).as_integer() == 0
    m_case2 = PointVector(F5, (F5.zero(), F5.one()))
    assert indicator_ft_abs_sq(e, m_case2).as_integer() == 5


def test_indicator_sum_refuses_a_u_from_another_field():
    e = graph_of(SQ5)
    m = PointVector.from_index(F5, 2, 7)
    for u in (make_field(7).from_index(1), make_field(7).from_index(6)):
        with pytest.raises(FieldMismatch):
            indicator_sum(e, m, u)
    sq25 = get_function("square", make_field(5, 2))
    m25 = PointVector.from_index(sq25.params, 2, 30)
    u25 = FieldParams(5, 2, (2, 1, 1)).from_index(7)  # same q, another modulus
    with pytest.raises(FieldMismatch):
        indicator_sum(graph_of(sq25), m25, u25)


def test_indicator_sum_refuses_the_trivial_character():
    # u = 0 names the trivial character, which every spectral entry refuses
    e = graph_of(SQ5)
    m = PointVector.from_index(F5, 2, 7)
    with pytest.raises(TrivialCharacter):
        indicator_sum(e, m, F5.zero())
    with pytest.raises(TrivialCharacter):
        indicator_ft_abs_sq(e, m, F5.zero())
    with pytest.raises(FieldMismatch):  # the field is checked first
        indicator_sum(e, m, make_field(7).zero())


def test_indicator_matches_complex_oracle():
    # every u != 0 on d = 1 and d = 2 sets, a graph, and a non-default
    # modulus (u = 0 is refused: see the test above)
    f25 = FieldParams(5, 2, (2, 1, 1))
    rng = np.random.default_rng(9)
    for e in [
        PointSet.from_indices(make_field(3, 2), 1, [0, 2, 3, 7]),
        PointSet(F5, 2, rng.random(25) < 0.4),
        graph_of(get_function("square", make_field(3, 2))),
        PointSet(f25, 1, rng.random(25) < 0.5),
    ]:
        params = e.params
        for u in map(params.from_index, range(1, params.q)):
            for m_idx in range(params.q**e.d):
                m = PointVector.from_index(params, e.d, m_idx)
                want = _indicator_oracle(e, m, u.index)
                exact = indicator_sum(e, m, u)
                assert abs(exact.to_complex() - want) < 1e-9
                got = indicator_ft_abs_sq(e, m, u)
                assert abs(got.to_complex().real - abs(want) ** 2) < 1e-6


def test_character_choice_permutes_spectrum():
    # multiset of exact |S(m)|^2 over m is u-independent (q^d <= 625)
    for params, d, members in [
        (F5, 2, [0, 6, 9, 22, 23]),
        (make_field(3, 2), 1, [0, 2, 3, 7]),
    ]:
        e = PointSet.from_indices(params, d, members)
        n = params.q**d
        base = None
        for u_idx in range(1, params.q):
            u = params.from_index(u_idx)
            vals = sorted(
                str(indicator_ft_abs_sq(e, PointVector.from_index(params, d, m), u).coeffs)
                for m in range(n)
            )
            if base is None:
                base = vals
            else:
                assert vals == base


def test_salem_constant_frozen():
    c, argmax = salem_constant(graph_of(SQ5))
    assert c == 1.0
    assert argmax.coords[1].index != 0  # any case-2 frequency
    everything = PointSet(F5, 1, np.ones(5, dtype=bool))
    c0, _ = salem_constant(everything)
    assert c0 == 0.0
    singleton = PointSet.from_indices(F5, 1, [0])
    c1, _ = salem_constant(singleton)
    assert c1 == 1.0
    with pytest.raises(EmptySet):
        salem_constant(PointSet(F5, 1, np.zeros(5, dtype=bool)))


def test_salem_constant_random_sets_reported_not_asserted():
    # no lower bound is claimed for arbitrary sets; only the trivial ceiling
    rng = np.random.default_rng(31)
    for _ in range(5):
        members = rng.choice(25, size=5, replace=False)
        e = PointSet.from_indices(F5, 2, members)
        c, _ = salem_constant(e)
        assert 0.0 <= c <= math.sqrt(5) + 1e-9


def test_from_indices_refuses_indices_outside_the_space():
    # no negative index wraps around, no float is truncated to a point, and
    # no bitmap is read as the indices 0 and 1
    bitmap = np.array([False, True, False, True, True])
    for indices in ([-1], [5], [1.7], [0, 4, 5], np.array([2.0]), bitmap, [True, False]):
        with pytest.raises(IndexOutOfRange):
            PointSet.from_indices(F5, 1, indices)
    assert PointSet.from_indices(F5, 1, []).cardinality == 0
    assert PointSet.from_indices(F5, 1, [0, 4, 4]).bitmap.tolist() == [True, False, False, False, True]


def test_point_set_dimension_is_an_integer():
    # a float d is refused by both constructors, never stored or cast
    with pytest.raises(TypeError):
        PointSet(F5, 1.0, np.ones(5, dtype=bool))
    with pytest.raises(TypeError):
        PointSet.from_indices(F5, 1.0, [1, 2])
    for e in (PointSet(F5, np.int64(1), np.ones(5, dtype=bool)), PointSet.from_indices(F5, np.uint8(1), [1, 2])):
        assert type(e.d) is int and repr(e).startswith("PointSet(q=5, d=1, ")


def test_membership_refuses_a_point_of_another_space():
    e = PointSet.from_indices(F5, 2, [3, 7])
    assert [PointVector.from_index(F5, 2, i) in e for i in (3, 7, 0, 8, 24)] == [True, True, False, False, False]
    # the index 3 of another field or dimension is not read as E's point 3
    for x in (
        PointVector.from_index(make_field(7), 1, 3),
        PointVector.from_index(F5, 1, 3),
        PointVector.from_index(make_field(7), 2, 3),
    ):
        with pytest.raises(FieldMismatch):
            x in e


def test_bitmap_takes_only_truth_values():
    # an index list is not read as truth values, and a bitmap has one entry per point
    for bitmap in (
        [0, 2, 3, 4, 1],
        np.array([0, 1, 0, 1, 2]),
        [0.0, 0.5, 0, 0, 0],
        ["0", "1", "0", "0", "1"],
        [True, False],
        np.ones(25, dtype=bool),
    ):
        with pytest.raises(ValueError):
            PointSet(F5, 1, bitmap)
    want = [False, True, False, True, True]
    for bitmap in (want, np.array(want), [0, 1, 0, 1, 1], np.array(want, dtype=np.uint8), [0.0, 1.0, 0, 1, 1]):
        e = PointSet(F5, 1, bitmap)
        assert e.bitmap.dtype == bool and e.bitmap.tolist() == want
        assert e == PointSet.from_indices(F5, 1, [1, 3, 4])


def test_salem_report_case_tags():
    rep = salem_report(graph_of(SQ5))
    assert rep.cardinality == 5 and rep.d == 2
    tags = [row.case_tag for row in rep.rows]
    assert tags[0] == "zero"
    assert all(t == "case1" for t in tags[1:5])
    assert all(t == "case2" for t in tags[5:])
    # plain report carries no expectations
    assert rep.theorem1_pass is None
    assert all(row.expected_int is None for row in rep.rows)


def test_verify_theorem1_flat_graph():
    rep = verify_theorem1(SQ5)
    assert rep.theorem1_pass is True
    assert rep.salem_constant == 1.0
    assert rep.max_abs_sq_int == 5
    assert rep.argmax_m.index == rep.argmax_m_index
    for row in rep.rows:
        if row.case_tag == "zero":
            assert row.abs_sq_int == 25 and row.expected_int == 25
        elif row.case_tag == "case1":
            assert row.abs_sq_int == 0 and row.expected_int == 0
        else:
            assert row.abs_sq_int == 5 and row.expected_int == 5
            assert row.bound_ratio == 1.0
    # counts: 4 case-1 rows, 20 case-2 rows
    assert sum(r.case_tag == "case1" for r in rep.rows) == 4
    assert sum(r.case_tag == "case2" for r in rep.rows) == 20


def test_verify_theorem1_bool_bent():
    f2 = make_field(2)
    mm = build_function(
        FnSpec.from_monomials([(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))]), f2, 4
    )
    rep = verify_theorem1(mm)
    assert rep.theorem1_pass is True
    for row in rep.rows:
        if row.case_tag == "case2":
            assert row.abs_sq_int == 16


def test_verify_theorem1_hypothesis_failed():
    ident = build_function(FnSpec.univariate([0, 1]), F5, 1)
    with pytest.raises(HypothesisFailed):
        verify_theorem1(ident)
    cube = build_function(FnSpec.univariate([0, 0, 0, 1]), F5, 1)
    with pytest.raises(HypothesisFailed):
        verify_theorem1(cube)


def test_random_graph_report_consistency():
    # every magnitude squares back to the exact cyclotomic |s|^2; the int
    # column is filled exactly when that value is a rational integer
    f = random_function(F5, 1, 3)
    e = graph_of(f)
    rep = salem_report(e)
    saw_non_integer = False
    for row in rep.rows:
        m = PointVector.from_index(F5, 2, row.m_index)
        exact = indicator_ft_abs_sq(e, m)
        assert row.abs_sq_int == exact.as_integer()
        if row.abs_sq_int is None:
            saw_non_integer = True
            want = exact.to_complex().real
        else:
            want = row.abs_sq_int
        assert row.magnitude == pytest.approx(math.sqrt(max(want, 0.0)), abs=1e-12)
    assert saw_non_integer  # |s|^2 need not be a rational integer


GRAPH_IDENTITY_TABLES = {
    "square_F9": lambda: get_function("square", make_field(3, 2)),
    "random_F5^2": lambda: random_function(F5, 2, 11),
    "bool_quadratic_F2^4": lambda: get_function("bool_quadratic", make_field(2), d=4),
    "affine_F7": lambda: get_function("affine", make_field(7)),
}


@pytest.mark.parametrize("name", sorted(GRAPH_IDENTITY_TABLES))
def test_walsh_sum_is_graph_indicator_sum(name):
    # S_f(u, m) = S_graph(f)(u*m, -u): the indicator oracle and the butterfly
    # engine give the same cyclotomic integer in every cell
    f = GRAPH_IDENTITY_TABLES[name]()
    params, d = f.params, f.d
    e = graph_of(f)
    for u_index in range(1, params.q):
        u = params.from_index(u_index)
        spectrum = walsh_exact_all(f, u)
        for m_index in range(f.n_points):
            m = PointVector.from_index(params, d, m_index)
            freq = PointVector(params, tuple(u * c for c in m.coords) + (-u,))
            assert indicator_sum(e, freq) == spectrum[m_index]


@pytest.mark.parametrize("name", sorted(GRAPH_IDENTITY_TABLES))
def test_graph_case2_rows_are_spectrum_rows(name):
    # a case-2 row (v, w) of the graph report is row m = v/(-w) of the
    # spectrum report of f at u = -w, exact value and float alike
    f = GRAPH_IDENTITY_TABLES[name]()
    params, d = f.params, f.d
    graph_rows = salem_report(graph_of(f)).rows
    reports = {u: spectrum_report(f, params.from_index(u)).rows for u in range(1, params.q)}
    checked = 0
    for row in graph_rows:
        if row.case_tag != "case2":
            continue
        *v, w = PointVector.from_index(params, d + 1, row.m_index).coords
        u = -w
        m = PointVector(params, tuple(c * u.inverse() for c in v))
        twin = reports[u.index][m.index]
        assert (row.abs_sq_int, row.magnitude) == (twin.abs_sq_int, twin.magnitude)
        checked += 1
    assert checked == (params.q - 1) * f.n_points
