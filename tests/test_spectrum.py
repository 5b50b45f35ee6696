"""Character sums: the exact butterfly engine vs pointwise histograms,
the fast float transform, Parseval, and bent verdicts."""

import cmath
import math

import numpy as np
import pytest

from ffspectra import (
    FieldParams,
    FnSpec,
    FnTable,
    PointVector,
    build_function,
    get_function,
    make_field,
    spectrum,
    trace,
)
from ffspectra import _modp
from ffspectra.catalog import random_function
from ffspectra.cli import main
from ffspectra.cyclotomic import CycInt
from ffspectra.errors import EvenCharacteristic, TrivialCharacter, UnsupportedSize
from ffspectra.field import trace_weights
from ffspectra.funcs import is_pn
from ffspectra.space import dot
from ffspectra.spectrum import (
    characters,
    crosscheck_pn_bent,
    exact_cell,
    is_bent_exact,
    is_bent_fast,
    parseval_total,
    spectrum_report,
    walsh_exact,
    walsh_exact_all,
    walsh_fast_all,
)

F5 = make_field(5)
SQ5 = build_function(FnSpec.univariate([0, 0, 1]), F5, 1)


def _walsh_oracle(f, u, m):
    # direct complex sum, no shared machinery beyond field ops
    p = f.params.p
    total = 0j
    for i in range(f.n_points):
        x = PointVector.from_index(f.params, f.d, i)
        y = u * (f.value_at(x) - dot(x, m))
        total += cmath.exp(2j * cmath.pi * trace(y) / p)
    return total


def test_characters_enumeration():
    f9 = make_field(3, 2)
    us = [c.u.index for c in characters(f9)]
    assert us == list(range(1, 9))


def test_walsh_exact_frozen_examples():
    u1 = F5.one()
    m0 = PointVector.zero(F5, 1)
    s = walsh_exact(SQ5, u1, m0)
    assert s == CycInt.from_coeffs(5, [1, 2, 0, 0, 2])  # 1 + 2z + 2z^4
    assert s.abs_sq().as_integer() == 5
    const = build_function(FnSpec.univariate([0]), F5, 1)
    assert walsh_exact(const, u1, m0) == CycInt.integer(5, 5)
    ident = build_function(FnSpec.univariate([0, 1]), F5, 1)
    m1 = PointVector.from_index(F5, 1, 1)
    assert walsh_exact(ident, u1, m1) == CycInt.integer(5, 5)
    with pytest.raises(TrivialCharacter):
        walsh_exact(SQ5, F5.zero(), m0)


def test_engine_matches_pointwise_and_complex_oracle():
    cases = [
        (F5, 1, FnSpec.univariate([0, 0, 1])),
        (F5, 1, FnSpec.univariate([3, 1, 0, 1])),
        (make_field(3, 2), 1, FnSpec.univariate([1, 2, 1])),
        (make_field(2, 2), 2, FnSpec.from_monomials([(1, (1, 1))])),
        (make_field(3), 2, FnSpec.from_monomials([(1, (1, 1)), (2, (0, 2))])),
        (make_field(2, 3), 1, FnSpec.univariate([0, 0, 0, 1])),
    ]
    for params, d, spec in cases:
        f = build_function(spec, params, d)
        n = f.n_points
        for c in characters(params):
            u = c.u
            table = walsh_exact_all(f, u)
            assert len(table) == n
            for m_idx in range(n):
                m = PointVector.from_index(params, d, m_idx)
                cell = walsh_exact(f, u, m)
                assert table[m_idx] == cell
                assert exact_cell(f, u.index, m_idx) == cell
                want = _walsh_oracle(f, u, m)
                assert abs(cell.to_complex() - want) < 1e-8 * max(1.0, abs(want))


def test_exact_cell_guards():
    with pytest.raises(TrivialCharacter):
        exact_cell(SQ5, 0, 0)


def test_parseval_exact():
    for params, d, spec in [
        (F5, 1, FnSpec.univariate([0, 0, 1])),
        (F5, 2, FnSpec.from_monomials([(1, (1, 1))])),
        (make_field(3, 2), 1, FnSpec.univariate([2, 1, 2])),
        (make_field(2, 2), 1, FnSpec.univariate([1, 2])),
    ]:
        f = build_function(spec, params, d)
        for c in characters(params):
            assert parseval_total(f, c.u) == params.q ** (2 * d)
    # seeded random tables obey it too
    for seed in range(5):
        f = random_function(F5, 2, seed)
        assert parseval_total(f, F5.one()) == 5**4


def test_is_bent_exact_verdicts():
    assert is_bent_exact(SQ5).verdict == "bent"
    ident = build_function(FnSpec.univariate([0, 1]), F5, 1)
    bad = is_bent_exact(ident)
    assert bad.verdict == "not_bent"
    assert bad.witness.u.index == 1
    assert bad.witness.m.index == 1
    assert bad.witness.abs_sq_int == 25
    # x1*x2 + x3*x4 on F_2^4 is bent
    f2 = make_field(2)
    mm = build_function(
        FnSpec.from_monomials([(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))]), f2, 4
    )
    assert is_bent_exact(mm).verdict == "bent"


def test_is_bent_exact_stops_at_the_first_failing_orbit(monkeypatch, capsys):
    built = []
    init = spectrum._AbsSq.__init__

    def counting_init(self, params, d, u_index, *args, **kwargs):
        built.append(u_index)
        init(self, params, d, u_index, *args, **kwargs)

    monkeypatch.setattr(spectrum._AbsSq, "__init__", counting_init)
    f25 = make_field(5, 2)
    assert len(spectrum._orbit_reps(f25)) == 6
    bad = is_bent_exact(random_function(f25, 1, 3))
    assert bad.witness.u.index == 1
    assert built == [1]
    outputs = set()
    for threads in ("1", "2"):
        built.clear()
        code = main([
            "test", "bent", "--catalog", "random", "--p", "5", "--ell", "5",
            "--seed", "3", "--exact", "--threads", threads,
        ])
        assert code == 1
        assert built == [1]
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "p, ell, modulus",
    [(2, 4, None), (3, 2, None), (5, 2, None), (3, 3, (2, 1, 1, 1))],  # t^3+t^2+t+2
)
def test_orbit_reps_are_the_least_scalar_multiples(p, ell, modulus):
    params = make_field(p, ell, modulus)
    least = {
        min((params.from_index(t) * params.from_index(u)).index for t in range(1, p))
        for u in range(1, params.q)
    }
    assert spectrum._orbit_reps(params) == tuple(sorted(least))


def test_bent_over_odd_fields_square_is_flat():
    for p, ell in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]:
        params = make_field(p, ell)
        f = build_function(FnSpec.univariate([0, 0, 1]), params, 1)
        assert is_bent_exact(f).is_bent
        # flatness double-checked against the full exact table for one u
        report = spectrum_report(f, params.one())
        assert report.is_flat(params.q)


def test_bent_verdict_matches_brute_force_scan():
    # orbit-reduction path vs scanning every u directly
    params = make_field(3, 2)
    fns = [
        build_function(FnSpec.univariate([0, 0, 1]), params, 1),
        build_function(FnSpec.univariate([0, 2, 1]), params, 1),
        build_function(FnSpec.univariate([0, 1]), params, 1),
        random_function(params, 1, 7),
        random_function(params, 1, 8),
    ]
    target = params.q
    for f in fns:
        brute_u = None
        for c in characters(params):
            table = walsh_exact_all(f, c.u)
            if any(s.abs_sq().as_integer() != target for s in table):
                brute_u = c.u.index
                break
        verdict = is_bent_exact(f)
        assert verdict.is_bent == (brute_u is None)
        if brute_u is None:
            continue
        # least failing u; m follows the witness convention: least m whose
        # |S|^2 provably exceeds the target, else least failing m
        assert verdict.witness.u.index == brute_u
        abs_sqs = [s.abs_sq() for s in walsh_exact_all(f, params.from_index(brute_u))]
        ints = [z.as_integer() for z in abs_sqs]
        over = [m for m, v in enumerate(ints) if v is not None and v > target]
        if not over:
            over = [
                m
                for m, (v, z) in enumerate(zip(ints, abs_sqs))
                if v is None and z.to_complex().real > target + 0.25
            ]
        expected_m = over[0] if over else next(m for m, v in enumerate(ints) if v != target)
        assert verdict.witness.m.index == expected_m
        assert verdict.witness.abs_sq.as_integer() == ints[expected_m]


def test_p2_odd_dimension_never_bent():
    # q^(d/2) irrational: the verdict is computed, not special-cased
    f2 = make_field(2)
    f = build_function(FnSpec.from_monomials([(1, (1, 1, 0))]), f2, 3)
    assert not is_bent_exact(f).is_bent


def test_walsh_fast_matches_exact():
    cases = [
        (F5, 1, FnSpec.univariate([0, 0, 1])),
        (make_field(3, 2), 1, FnSpec.univariate([1, 2, 1])),
        (make_field(7), 1, FnSpec.univariate([0, 0, 0, 1])),
        (make_field(2, 2), 2, FnSpec.from_monomials([(1, (1, 1))])),
    ]
    for params, d, spec in cases:
        f = build_function(spec, params, d)
        for c in characters(params):
            mags = walsh_fast_all(f, c.u)
            exact = walsh_exact_all(f, c.u)
            for m_idx in range(f.n_points):
                z = exact[m_idx].abs_sq()
                v = z.as_integer()
                want = math.sqrt(v if v is not None else max(z.to_complex().real, 0.0))
                assert abs(mags[m_idx] - want) <= 1e-9 * max(1.0, want)
            if params.p == 2:
                assert np.array_equal(mags, np.rint(mags))


def test_walsh_fast_frozen_examples():
    u1 = F5.one()
    mags = walsh_fast_all(SQ5, u1)
    assert np.allclose(mags, math.sqrt(5), atol=1e-9)
    f2 = make_field(2)
    zero4 = build_function(FnSpec.from_monomials([]), f2, 4)
    mags0 = walsh_fast_all(zero4, f2.one())
    assert mags0[0] == 16 and not mags0[1:].any()
    xy = build_function(FnSpec.from_monomials([(1, (1, 1))]), f2, 2)
    assert walsh_fast_all(xy, f2.one()).tolist() == [2.0, 2.0, 2.0, 2.0]
    with pytest.raises(TrivialCharacter):
        walsh_fast_all(SQ5, F5.zero())


def test_spectrum_report_pairing():
    rep = spectrum_report(SQ5, F5.one())
    assert rep.u_index == 1 and len(rep.rows) == 5
    for row in rep.rows:
        assert row.abs_sq_int == 5
        assert row.magnitude == pytest.approx(math.sqrt(5), abs=1e-12)
    assert rep.is_flat(5)
    assert not rep.is_flat(4)
    assert rep.max_magnitude == rep.min_magnitude


def test_crosscheck_pn_bent():
    rep = crosscheck_pn_bent(SQ5)
    assert rep.pn.is_pn and rep.bent.is_bent and rep.agree
    cube = build_function(FnSpec.univariate([0, 0, 0, 1]), F5, 1)
    rep2 = crosscheck_pn_bent(cube)
    assert not rep2.pn.is_pn and not rep2.bent.is_bent and rep2.agree
    f9 = make_field(3, 2)
    rep3 = crosscheck_pn_bent(build_function(FnSpec.univariate([0, 0, 1]), f9, 1))
    assert rep3.agree and rep3.pn.is_pn
    with pytest.raises(EvenCharacteristic):
        crosscheck_pn_bent(build_function(FnSpec.univariate([0, 1]), make_field(2), 1))


def test_character_additivity_on_traces():
    # chi_u(y+z) = chi_u(y) chi_u(z) reduces to trace additivity of u*(y+z)
    for params in (make_field(5), make_field(3, 2), make_field(2, 3)):
        for c in characters(params):
            for yi in range(params.q):
                for zi in range(params.q):
                    y, z = params.from_index(yi), params.from_index(zi)
                    lhs = trace(c.u * (y + z))
                    rhs = (trace(c.u * y) + trace(c.u * z)) % params.p
                    assert lhs == rhs


def test_pn_positive_examples_are_bent_and_vice_versa():
    # random q^d <= 625 spot agreement between both routes (odd p)
    for params, d in [(F5, 1), (make_field(3, 2), 1), (make_field(7), 1), (F5, 2)]:
        for seed in range(3):
            f = random_function(params, d, seed)
            assert is_pn(f).is_pn == is_bent_exact(f).is_bent


FAST_BENT_CASES = {
    "square_F7": lambda: get_function("square", make_field(7)),
    "square_F125": lambda: get_function("square", make_field(5, 3)),
    "bool_quadratic_F2^8": lambda: get_function("bool_quadratic", make_field(2), d=8),
    "affine_F5": lambda: get_function("affine", F5),
    "power3_F27": lambda: get_function("power", make_field(3, 3), e=3),
    "random_F5^2": lambda: random_function(F5, 2, 3),
    "random_F3^5": lambda: random_function(make_field(3), 5, 1),
    "random_F2^6": lambda: random_function(make_field(2), 6, 2),
}


@pytest.mark.parametrize("name", sorted(FAST_BENT_CASES))
def test_is_bent_fast_agrees_with_exact(name):
    f = FAST_BENT_CASES[name]()
    params, n = f.params, f.n_points
    fast = is_bent_fast(f)
    exact = is_bent_exact(f)
    assert fast.is_bent == exact.is_bent
    assert fast.mismatches == 0 and fast.certified == fast.is_bent
    # one exact cell per 100 points and u, at least 1, at most 256, and
    # at most 2**26 point-coordinate reads per u
    k = min(256, max(1, n // 100), max(1, 2**26 // (n * (f.d + 1))))
    assert fast.sampled == (params.q - 1) * k
    if exact.is_bent:
        assert fast.witness is None
        return
    least = next(
        (u, row)
        for u in range(1, params.q)
        for row in spectrum_report(f, params.from_index(u)).rows
        if row.abs_sq_int != n
    )
    u, row = least
    assert fast.witness.u == exact.witness.u == params.from_index(u)
    assert fast.witness.m.index == row.m_index
    assert fast.witness.abs_sq_int is None
    assert fast.witness.abs_sq_float == pytest.approx(row.magnitude**2, rel=1e-9, abs=1e-9)


def test_is_bent_fast_counts_spot_check_mismatches(monkeypatch, capsys):
    f = get_function("square", make_field(7))
    original = spectrum.walsh_fast_all

    def perturbed(table, u):
        mags = original(table, u)
        # 1e-7 relative: far outside the spot-check tolerance, well inside
        # the bent tolerance, and the q = 7 table samples one cell per u
        return mags * (1 + 1e-7) if u.index == 1 else mags

    monkeypatch.setattr(spectrum, "walsh_fast_all", perturbed)
    fast = is_bent_fast(f)
    assert fast.is_bent and fast.sampled == 6
    assert fast.mismatches == 1
    assert fast.certified is False
    assert main(["test", "bent", "--catalog", "square", "--p", "7", "--fast"]) == 1
    assert '"mismatches": 1' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Array-built trace weights, Gram matrices and frequency maps, pinned to the
# scalar formulas.

# Default moduli plus one non-default modulus each of F_25 and F_27.
TRACE_FORM_FIELDS = [
    make_field(3, 2),
    make_field(3, 3),
    make_field(5, 3),
    make_field(2, 4),
    FieldParams(5, 2, (3, 0, 1)),
    FieldParams(3, 3, (2, 2, 0, 1)),
]


@pytest.mark.parametrize("params", TRACE_FORM_FIELDS, ids=repr)
def test_trace_weights_and_gram_match_scalar_trace(params):
    basis = [params.from_index(params.p**j) for j in range(params.ell)]
    for u in params.elements():
        assert trace_weights(params, u.index).tolist() == [trace(u * b) for b in basis]
        want = [[trace(u * a * b) for b in basis] for a in basis]
        assert spectrum._gram(params, u.index).tolist() == want


def _frequency_map_reference(params, d, u_index):
    """The map as I_d kron G applied to the digits of every m."""
    block = np.kron(np.eye(d, dtype=np.int64), np.asarray(spectrum._gram(params, u_index)))
    return _modp.apply_linear(np.arange(params.q**d, dtype=np.int64), block, params.p)


@pytest.mark.parametrize(
    "params,d",
    [
        (make_field(3, 2), 1),
        (make_field(3, 2), 2),
        (make_field(3, 2), 3),
        (make_field(2, 2), 3),
        (make_field(5), 3),
        (FieldParams(5, 2, (3, 0, 1)), 2),
    ],
    ids=str,
)
def test_frequency_map_matches_kron_reference(params, d):
    for u in range(1, params.q):
        got = spectrum._frequency_map(params, d, u)
        assert np.array_equal(got, _frequency_map_reference(params, d, u))


def test_frequency_map_is_identity_for_p2_u1():
    f2 = make_field(2)
    for d in (1, 2, 7, 12):
        assert np.array_equal(spectrum._frequency_map(f2, d, 1), np.arange(2**d))


# ---------------------------------------------------------------------------
# The spot-check oracle and its per-(f, u) memo.


def test_exact_cell_matches_pointwise_on_random_tables():
    # |S|^2 is always rational for p <= 3, so F_25 supplies the irrational cells.
    irrational = 0
    for params, seed, us, m_step in [
        (make_field(2, 2), 4, range(1, 4), 1),
        (make_field(3, 2), 7, range(1, 9), 3),
        (make_field(5, 2), 5, (1, 2, 8, 24), 53),
    ]:
        f = random_function(params, 2, seed)
        assert not is_bent_exact(f).is_bent
        for u in us:
            for m_idx in range(u % m_step, f.n_points, m_step):
                cell = exact_cell(f, u, m_idx)
                m = PointVector.from_index(params, 2, m_idx)
                assert cell == walsh_exact(f, params.from_index(u), m)
                irrational += cell.abs_sq().as_integer() is None
    assert irrational > 0


def test_exact_cell_memo_never_serves_stale_state(monkeypatch):
    f9 = make_field(3, 2)
    first = random_function(f9, 2, 1)
    tables = [
        first,
        random_function(f9, 2, 2),
        FnTable(f9, 2, first.values.copy()),  # equal to the first, not identical
        random_function(make_field(5), 3, 3),
        get_function("square", make_field(5, 2)),
    ]
    # Consecutive calls switch the table under a fixed u, and u under a
    # fixed table, in turn.
    calls = []
    for k in range(90):
        f = tables[(k // 3) % len(tables)]
        calls.append((f, 1 + (k // 2) % (f.params.q - 1), (37 * k) % f.n_points))

    def fresh(f, u, m):
        monkeypatch.setattr(spectrum, "_oracle", None)
        return exact_cell(f, u, m)

    want = [fresh(*c) for c in calls]
    monkeypatch.setattr(spectrum, "_oracle", None)
    assert [exact_cell(*c) for c in calls] == want
    # and again in reverse, starting from whatever the slot holds now
    assert [exact_cell(*c) for c in reversed(calls)] == want[::-1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: get_function("square", make_field(5, 2)),
        lambda: get_function("bool_quadratic", make_field(2), d=8),
    ],
    ids=["square_F25", "bool_quadratic_F2^8"],
)
def test_spot_checks_call_exact_cell_once_per_sampled_cell(monkeypatch, make):
    # Traced benchmark runs count exact_cell calls against `sampled`, so the
    # spot checks must go through the module-level oracle once per cell.
    f = make()
    calls = []
    original = spectrum.exact_cell

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spectrum, "exact_cell", counting)
    verdict = is_bent_fast(f)
    assert verdict.certified
    assert len(calls) == verdict.sampled > 0


# ---------------------------------------------------------------------------
# The matrix-product butterfly and one transform per Galois orbit.

ENGINE_TABLES = {
    "square_F7": lambda: get_function("square", make_field(7)),
    "random_F7": lambda: random_function(make_field(7), 1, 11),
    "square_F9": lambda: get_function("square", make_field(3, 2)),
    "random_F9": lambda: random_function(make_field(3, 2), 1, 12),
    "bool_quadratic_F2^4": lambda: get_function("bool_quadratic", make_field(2), d=4),
    "random_F2^4": lambda: random_function(make_field(2), 4, 13),
    "bilinear_F5^2": lambda: get_function("bilinear", F5, d=2),
    "random_F5^2": lambda: random_function(F5, 2, 14),
}


@pytest.mark.parametrize("name", sorted(ENGINE_TABLES))
def test_matmul_butterfly_matches_pointwise_on_every_cell(name):
    f = ENGINE_TABLES[name]()
    params = f.params
    for u in range(1, params.q):
        rows = spectrum._exact_coeff_rows(params, f.d, u, spectrum._trace_exponents(f, u))
        assert rows.dtype == np.int64
        for m_idx in range(f.n_points):
            m = PointVector.from_index(params, f.d, m_idx)
            want = walsh_exact(f, params.from_index(u), m)
            assert CycInt.from_coeffs(params.p, rows[m_idx].tolist()) == want


def test_pass_matrix_is_the_exact_size_p_pass():
    # out[s, k] = sum_t h[t, (k + s*t) mod p]: the slot form of sum_t h[t] zeta^(-s*t)
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7, 13):
        h = rng.integers(0, 50, size=(p, p))
        want = np.array(
            [[sum(h[t, (k + s * t) % p] for t in range(p)) for k in range(p)] for s in range(p)]
        )
        got = (h.reshape(1, p * p) @ spectrum._pass_matrix(p)).reshape(p, p)
        assert np.array_equal(got, want)


def test_member_mask_path_matches_indicator_sum():
    from ffspectra.salem import PointSet, indicator_sum

    rng = np.random.default_rng(8)
    for params, d in [(F5, 2), (make_field(3, 2), 2), (make_field(2), 5), (make_field(7), 2)]:
        n = params.q**d
        for _ in range(3):
            e = PointSet(params, d, rng.random(n) < 0.3)
            rows = spectrum._exact_coeff_rows(params, d, 1, np.zeros(n, dtype=np.int64), e.bitmap)
            for m_idx in range(n):
                m = PointVector.from_index(params, d, m_idx)
                got = CycInt.from_coeffs(params.p, rows[m_idx].tolist())
                assert got == indicator_sum(e, m)


@pytest.mark.parametrize(
    "params,d",
    [
        (make_field(2), 21),  # one past the 2**20-point cap
        (make_field(2), 40),  # allocating this would fail at once
        (F5, 9),
        (FieldParams(37, 1, (0, 1)), 1),  # p**4 > 2**20 entries of pass matrix
    ],
    ids=["2^21", "2^40", "5^9", "p37"],
)
def test_exact_coeff_rows_refuses_oversized_transforms(params, d):
    # A one-point exponent array: the refusal must come before any allocation.
    with pytest.raises(UnsupportedSize):
        spectrum._exact_coeff_rows(params, d, 1, np.zeros(1, dtype=np.int64))


def test_exact_engine_refuses_large_primes_with_exit_code_2(capsys):
    argv = ["test", "bent", "--catalog", "square", "--p", "37", "--modulus", "0,1", "--exact"]
    assert main(argv) == 2
    assert "p <= 31" in capsys.readouterr().err


ORBIT_CASES = {
    "F_9": (make_field(3, 2), 1),
    "F_25_t2+t+2": (FieldParams(5, 2, (2, 1, 1)), 1),
    "F_27_t3+t2+t+2": (FieldParams(3, 3, (2, 1, 1, 1)), 1),
    "F_5^2": (F5, 2),
    "F_7^2": (make_field(7), 2),
    "F_13": (make_field(13), 1),
    "F_2^4": (make_field(2), 4),  # p = 2: every orbit is a singleton
}


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_spectrum_reports_match_one_transform_per_u(name):
    params, d = ORBIT_CASES[name]
    irrational = 0
    for seed in range(3):
        f = random_function(params, d, seed)
        reports = list(spectrum.spectrum_reports(f))
        assert sorted(r.u_index for r in reports) == list(range(1, params.q))
        for rep in reports:
            want = spectrum_report(f, params.from_index(rep.u_index))
            assert (rep.params, rep.d) == (params, d)
            assert np.array_equal(rep.defined, want.defined)
            assert np.array_equal(rep.ints, want.ints)
            # bit-identical floats: the permuted table is the per-u table
            assert np.array_equal(rep.magnitudes, want.magnitudes)
            assert rep.rows == want.rows
            irrational += int(np.count_nonzero(~rep.defined))
    # Only irrational cells tell slot k*t from slot k/t, and since |S|^2 is
    # symmetric under k -> -k, only p >= 7 has a t with 1/t != +-t.
    assert irrational > 0 or params.p < 5


def test_spectrum_reports_run_one_transform_per_orbit(monkeypatch, tmp_path, capsys):
    built = []
    init = spectrum._AbsSq.__init__

    def counting_init(self, params, d, u_index, *args, **kwargs):
        built.append(u_index)
        init(self, params, d, u_index, *args, **kwargs)

    monkeypatch.setattr(spectrum._AbsSq, "__init__", counting_init)
    params = make_field(7, 3)
    f = get_function("square", params)
    built.clear()
    assert len(list(spectrum.spectrum_reports(f))) == 342
    assert built == list(spectrum._orbit_reps(params)) and len(built) == 57
    # The CLI's verdict scans 57 orbits; --emit adds 57 more, not 342.
    argv = ["test", "bent", "--catalog", "square", "--p", "7", "--ell", "3", "--exact"]
    built.clear()
    assert main(argv) == 0
    verdict_only = len(built)
    built.clear()
    assert main([*argv, "--emit", str(tmp_path)]) == 0
    assert verdict_only == 57 and len(built) == 57 + 57
    assert len(list(tmp_path.glob("spectrum_u*.csv"))) == 342
    capsys.readouterr()
