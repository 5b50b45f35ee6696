"""Character sums: the exact butterfly engine vs pointwise histograms,
the fast float transform, Parseval, and bent verdicts."""

import cmath
import gc
import math
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ffspectra import (
    Character,
    FieldElement,
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
from ffspectra import _modp, field
from ffspectra.catalog import random_function
from ffspectra.cli import main
from ffspectra.cyclotomic import CycInt
from ffspectra.errors import (
    EvenCharacteristic,
    FieldMismatch,
    IndexOutOfRange,
    TrivialCharacter,
    UnsupportedSize,
)
from ffspectra.field import trace_weights
from ffspectra.funcs import image_size, is_pn
from ffspectra.salem import verify_theorem1
from ffspectra.space import dot
from ffspectra.spectrum import (
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

from conftest import SMALL_EXTENSIONS, _moduli

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
        for u in map(params.from_index, range(1, params.q)):
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
    # Out-of-range indices used to wrap (m = 5 gave the m = 0 cell, m = -4
    # the m = 1 cell), and u = 6 left a wrapped state in the memo; each bad
    # call is followed by a valid one that must see the right cell.
    for u, m in [(1, 5), (1, -4), (6, 1), (-1, 1), (0, 5), (5, 0), (2, 25)]:
        with pytest.raises(IndexOutOfRange):
            exact_cell(SQ5, u, m)
        good_u, good_m = u % 4 + 1, m % 5
        want = walsh_exact(SQ5, F5.from_index(good_u), PointVector.from_index(F5, 1, good_m))
        assert exact_cell(SQ5, good_u, good_m) == want


def test_exact_cell_refuses_non_integer_indices():
    # neither index is truncated, and numpy's own IndexError never escapes
    for u, m in [(1.5, 2), (1, 2.5), (1.0, 2), ("1", 2), (1, None)]:
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            exact_cell(SQ5, u, m)
    want = exact_cell(SQ5, 1, 2)
    assert exact_cell(SQ5, np.int64(1), np.uint8(2)) == want == exact_cell(SQ5, True, 2)


def test_parseval_exact():
    for params, d, spec in [
        (F5, 1, FnSpec.univariate([0, 0, 1])),
        (F5, 2, FnSpec.from_monomials([(1, (1, 1))])),
        (make_field(3, 2), 1, FnSpec.univariate([2, 1, 2])),
        (make_field(2, 2), 1, FnSpec.univariate([1, 2])),
    ]:
        f = build_function(spec, params, d)
        for u in map(params.from_index, range(1, params.q)):
            assert parseval_total(f, u) == params.q ** (2 * d)
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


def _record_transforms(monkeypatch):
    """The u of every exact transform, in order: the transform reads the
    trace exponents of the u asked for last."""
    built, asked = [], []
    exponents, transform = spectrum._trace_exponents, spectrum._exact_coeff_rows
    monkeypatch.setattr(spectrum, "_trace_exponents", lambda f, u: asked.append(u) or exponents(f, u))
    monkeypatch.setattr(spectrum, "_exact_coeff_rows", lambda *args: built.append(asked[-1]) or transform(*args))
    return built


def _least_members(params):
    """The least index of each orbit of F_p^*-scaling on F_q^*, ascending,
    from the field products themselves."""
    return sorted({
        min((params.from_index(t) * params.from_index(u)).index for t in range(1, params.p))
        for u in range(1, params.q)
    })


def test_is_bent_exact_stops_at_the_first_failing_orbit(monkeypatch, capsys):
    built = _record_transforms(monkeypatch)
    f25 = make_field(5, 2)
    assert len(_least_members(f25)) == 6
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
    walk = spectrum._orbit_walk(random_function(params, 1, 0))
    assert [u for u, _ in walk] == _least_members(params)


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
        for u in map(params.from_index, range(1, params.q)):
            table = walsh_exact_all(f, u)
            if any(s.abs_sq().as_integer() != target for s in table):
                brute_u = u.index
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
        for u in map(params.from_index, range(1, params.q)):
            mags = walsh_fast_all(f, u)
            exact = walsh_exact_all(f, u)
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


def _walsh_hadamard_reference(values):
    # |sum_x (-1)**(f(x) + x.m)| in float64, one +- pass per bit of the index
    h = 1.0 - 2.0 * np.asarray(values, dtype=np.float64)
    step = 1
    while step < h.size:
        h = h.reshape(-1, 2, step)
        h = np.stack((h[:, 0] + h[:, 1], h[:, 0] - h[:, 1]), axis=1).ravel()
        step *= 2
    return np.abs(h)


def test_float32_walsh_hadamard_passes_are_exact():
    # the p = 2 passes run in float32, whose integers are exact below 2**24;
    # the magnitudes come back as float64, equal bit for bit to a float64
    # transform, up to |W(0)| = 2**20 on the constant table
    f2 = make_field(2)
    constant = FnTable(f2, 20, np.zeros(2**20, dtype=np.int64))
    for f in (constant, random_function(f2, 20, 3), get_function("bool_quadratic", f2, d=16)):
        mags = walsh_fast_all(f, f2.one())
        assert mags.dtype == np.float64
        assert mags.tobytes() == _walsh_hadamard_reference(f.values).tobytes()
    verdict = is_bent_fast(constant)
    assert not verdict.is_bent
    assert verdict.witness.m.index == 0 and verdict.witness.abs_sq_float == 2.0**40


def _one_axis_pass(p):
    """Reference: the one-axis exact pass shaped [k, (j, t), s], whose
    column s of slot k reads h[j, t] at e = (j - s*t) mod p as
    [e == k] - [e == p - 1]."""
    k, j, t, s = np.ogrid[: p - 1, : p - 1, :p, :p]
    e = (j - s * t) % p
    return ((e == k).astype(np.float32) - (e == p - 1)).reshape(p - 1, (p - 1) * p, p)


def _rotating_passes(h, w, n):
    """Reference: n one-axis passes over h, shaped (c, N), each moving the
    leading digit axis to the end between h and a spare buffer; w is shaped
    (c, c*p, p).  n moves restore the order, in which every digit is replaced
    by its frequency digit."""
    out = np.empty_like(h)
    c, p = w.shape[0], w.shape[2]
    for _ in range(n):
        np.matmul(h.reshape(c * p, -1).T, w, out=out.reshape(c, -1, p))
        h, out = out, h
    return h


@pytest.mark.parametrize("d", range(1, 15))
def test_f2_passes_in_the_result_match_float32_passes_then_a_float64_copy(d, monkeypatch):
    # the passes run in the upper float32 half of the result, with the lower
    # half as scratch: rotating passes at the default scratch size, and with
    # 2**11 elements of scratch grouped passes in place from d = 12 on; they
    # must also be the exact integer transform, whatever the BLAS thread count
    f2 = make_field(2)
    tables = [random_function(f2, d, d)] + ([get_function("bool_quadratic", f2, d=d)] if d % 2 == 0 else [])
    for slab in (spectrum._SLAB, 2**11):
        monkeypatch.setattr(spectrum, "_SLAB", slab)
        for f in tables:
            exponents = spectrum._trace_exponents(f, 1)
            h = spectrum._gather(spectrum._roots(2)[None], exponents)
            want = np.abs(_rotating_passes(h, spectrum._butterfly_matrix(2)[None], d)[0]).astype(np.float64)
            got = walsh_fast_all(f, f2.from_index(1))
            assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == _walsh_hadamard_reference(f.values).tobytes()


# d * ell across the group boundaries of the grouped passes: 1, g, g + 1 and
# 2g + 1 axes at p = 2, 3 and 5 (g = 7, 3 and 2), one-axis groups from p = 7
# on, and one extension field
GROUPED_PASS_SPACES = [(2, 1, n) for n in (1, 7, 8, 15)] + [
    (3, 1, 1), (3, 1, 3), (3, 1, 4), (3, 1, 7),
    (5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 1, 5),
    (7, 1, 1), (7, 1, 4), (13, 1, 3), (31, 1, 1), (31, 1, 3), (3, 2, 4),
]


@pytest.mark.parametrize("p,ell,d", GROUPED_PASS_SPACES)
def test_grouped_passes_match_rotating_passes(p, ell, d, monkeypatch):
    # at the default scratch size (rotating passes up to one slab, F_31**3
    # grouped) and with 2**11 elements of scratch, which group every
    # transform past 2**11 floats and split each group's pass into many
    # slabs; the sums are exact integers at any BLAS thread count, so the
    # rows are equal
    params = make_field(p, ell)
    f = random_function(params, d, p + d)
    exponents = spectrum._trace_exponents(f, 1)
    w = _one_axis_pass(p)
    want = _rotating_passes(spectrum._gather(w[:, :p, -1], exponents), w, d * ell).T
    for slab in (spectrum._SLAB, 2**11):
        monkeypatch.setattr(spectrum, "_SLAB", slab)
        assert np.array_equal(spectrum._exact_coeff_rows(params, d, exponents), want)


def test_every_group_matrix_is_the_product_of_one_axis_passes():
    # every g the grouping rule can take at each p, g = 1 included: the
    # matrix is g one-axis passes applied to each basis vector, its entries
    # are 0 and +-1, with at most two nonzeros per digit tuple t in a column,
    # so the partial sums of a grouped pass stay <= 2N < 2**24
    for p in (2, 3, 5, 7, 13, 31):
        c, w = p - 1, _one_axis_pass(p)
        for g in range(1, 8):
            width = c * p**g
            if g > 1 and width > spectrum._WIDTH:
                break
            m = spectrum._pass_matrix(p, g)
            assert m.dtype == np.float32 and m.shape == (width, width)
            basis = np.eye(width, dtype=np.float32).reshape(width, c, p**g)
            want = np.stack([_rotating_passes(e.copy(), w, g).ravel() for e in basis])
            assert np.array_equal(m, want)
            assert set(np.unique(m).tolist()) <= {-1.0, 0.0, 1.0}
            assert np.abs(m).reshape(c, p**g, width).sum(axis=0).max() <= 2
    hadamard = np.ones((1, 1), np.float32)
    for g in range(1, 8):  # the fast p = 2 matrix: the Kronecker power of its own one-axis pass
        hadamard = np.kron(hadamard, spectrum._butterfly_matrix(2))
        assert np.array_equal(spectrum._butterfly_matrix(2, g), hadamard)


@pytest.mark.parametrize("p,ell,d", [(3, 1, 7), (5, 1, 4), (7, 1, 4), (13, 1, 3), (3, 2, 3)])
def test_complex_passes_are_the_rotating_passes_bit_for_bit(p, ell, d, monkeypatch):
    # the fast path's complex floats round by the order of their sums, so a
    # complex transform takes the one-axis rotating passes at any size
    params = make_field(p, ell)
    f = random_function(params, d, p)
    h = spectrum._gather(spectrum._roots(p)[None], spectrum._trace_exponents(f, 1))
    want = _rotating_passes(h.copy(), spectrum._butterfly_matrix(p)[None], d * ell).tobytes()
    for slab in (spectrum._SLAB, 2**11):
        monkeypatch.setattr(spectrum, "_SLAB", slab)
        assert spectrum._butterfly(h.copy(), partial(spectrum._butterfly_matrix, p), d * ell).tobytes() == want


@pytest.mark.parametrize(
    "f,u",
    [
        (SQ5, make_field(7).from_index(6)),  # index 6 would wrap to 1 mod 5
        (
            get_function("square", make_field(5, 2)),
            FieldParams(5, 2, (2, 1, 1)).from_index(7),  # same q, another modulus
        ),
    ],
    ids=["F7_in_F5", "F25_other_modulus"],
)
def test_spectral_calls_refuse_a_u_from_another_field(monkeypatch, f, u):
    def refuse(*args):
        raise AssertionError("spectral work began before the field check")

    monkeypatch.setattr(spectrum, "_trace_exponents", refuse)
    m = PointVector.from_index(f.params, f.d, 1)
    calls = [
        lambda: walsh_fast_all(f, u),
        lambda: spectrum_report(f, u),
        lambda: walsh_exact_all(f, u),
        lambda: parseval_total(f, u),
        lambda: walsh_exact(f, u, m),
    ]
    for call in calls:
        with pytest.raises(FieldMismatch):
            call()


def test_spectrum_report_pairing():
    rep = spectrum_report(SQ5, F5.one())
    assert rep.u_index == 1 and len(rep.rows) == 5
    for row in rep.rows:
        assert row.abs_sq_int == 5
        assert row.magnitude == pytest.approx(math.sqrt(5), abs=1e-12)
    assert rep.is_flat(5)
    assert not rep.is_flat(4)
    assert rep.max_magnitude == rep.min_magnitude
    # undefined cells read None, the others Python ints, as a branch per cell would
    mixed = replace(rep, defined=np.arange(5) % 2 == 0, ints=np.array([5, 0, -3, 0, 2**40]))
    assert mixed.abs_sq_ints == [5, None, -3, None, 2**40]
    assert {type(v) for v in mixed.abs_sq_ints} == {int, type(None)}


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


def _spectral_summary(f):
    """Everything about f that a change of modulus must leave alone."""
    check = crosscheck_pn_bent(f)
    salem = verify_theorem1(f).salem_constant if check.bent.is_bent else None
    cells = sorted(
        (v is None, v or 0, mag)
        for rep in spectrum.spectrum_reports(f)
        for v, mag in zip(rep.abs_sq_ints, rep.magnitudes.tolist())
    )
    return check.pn.is_pn, check.bent.is_bent, check.agree, image_size(f), salem, cells


@pytest.mark.parametrize("p,ell", SMALL_EXTENSIONS, ids=[f"q{p**ell}" for p, ell in SMALL_EXTENSIONS])
def test_spectral_verdicts_agree_on_every_modulus(p, ell):
    # Moduli give isomorphic fields, and the trace, x**e and x*y commute with
    # the isomorphism, so the verdicts and the multiset of S(u, m) agree.
    summaries = []
    for modulus in _moduli(p, ell):
        params = make_field(p, ell, modulus)
        fns = [build_function(FnSpec.univariate([0] * e + [1]), params, 1) for e in (2, 3, 5)]
        if params.q <= 27:
            fns.append(build_function(FnSpec.from_monomials([(1, (1, 1))]), params, 2))
        summaries.append([_spectral_summary(f) for f in fns])
    assert len(summaries) > 1 and all(s == summaries[0] for s in summaries)
    # x**2 is planar, bent, hits (q + 1) / 2 values and has a flat graph
    assert summaries[0][0][:5] == (True, True, True, (p**ell + 1) // 2, 1.0)


def test_character_additivity_on_traces():
    # chi_u(y+z) = chi_u(y) chi_u(z) reduces to trace additivity of u*(y+z)
    for params in (make_field(5), make_field(3, 2), make_field(2, 3)):
        for u in map(params.from_index, range(1, params.q)):
            chi = Character(u)
            for yi in range(params.q):
                for zi in range(params.q):
                    y, z = params.from_index(yi), params.from_index(zi)
                    lhs = trace(u * (y + z))
                    rhs = (trace(u * y) + trace(u * z)) % params.p
                    assert lhs == rhs
                    assert abs(chi(y + z) - chi(y) * chi(z)) <= 1e-12
        with pytest.raises(TrivialCharacter):
            Character(params.zero())


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_function(make_field(7), 2, 4),
        lambda: random_function(make_field(3), 5, 1),
        lambda: random_function(make_field(2), 6, 2),
    ],
    ids=["random_F7^2", "random_F3^5", "random_F2^6"],
)
def test_spot_checks_do_no_scalar_cycint_algebra(monkeypatch, make):
    # The sampled cells are reduced by the engine's |S|^2 step, so the
    # verdict must not move when the scalar CycInt views refuse to run.
    f = make()
    cells = []
    original = spectrum.exact_cell

    def recording(*args):
        cells.append(original(*args))
        return cells[-1]

    monkeypatch.setattr(spectrum, "exact_cell", recording)
    want = is_bent_fast(f)
    assert not want.is_bent and want.mismatches == 0 and want.sampled == len(cells)
    if f.params.p >= 5:  # |S|^2 is always rational for p <= 3
        assert any(c.abs_sq().as_integer() is None for c in cells)

    def refuse(self, *args):
        raise AssertionError("scalar CycInt algebra in the spot checks")

    for name in ("abs_sq", "as_integer", "to_complex"):
        monkeypatch.setattr(CycInt, name, refuse)
    got = is_bent_fast(f)
    assert (got.is_bent, got.witness, got.sampled, got.mismatches) == (
        want.is_bent, want.witness, want.sampled, want.mismatches,
    )


# (table, verdict, witness (u, m) or None, sampled, mismatches): odd p with
# irrational sampled cells and d > 1, p = 2 bent and not, ell > 1, and
# ell > 1 with d > 1.
FAST_ONLY_CASES = [
    (lambda: random_function(make_field(7), 3, 4), False, (1, 0), 18, 0),
    (lambda: get_function("bool_quadratic", make_field(2), d=8), True, None, 2, 0),
    (lambda: random_function(make_field(2), 10, 3), False, (1, 0), 10, 0),
    (lambda: get_function("square", make_field(5, 2)), True, None, 24, 0),
    (lambda: random_function(make_field(3, 2), 2, 5), False, (1, 0), 8, 0),
]


@pytest.mark.parametrize(
    "make, is_bent, witness, sampled, mismatches",
    FAST_ONLY_CASES,
    ids=["random_F7^3", "bool_quadratic_F2^8", "random_F2^10", "square_F25", "random_F9^2"],
)
def test_fast_verdict_reads_no_exact_abs_sq_table(monkeypatch, make, is_bent, witness, sampled, mismatches):
    # The fast verdict uses the float engine and the exact_cell oracle only:
    # the |S|^2 table and the report of the exact engine must never run.
    f = make()
    cells = []
    original = spectrum.exact_cell

    def recording(*args):
        cells.append(original(*args))
        return cells[-1]

    def refuse(*args):
        raise AssertionError("exact |S|^2 table or report in the fast verdict")

    monkeypatch.setattr(spectrum, "exact_cell", recording)
    monkeypatch.setattr(spectrum, "_abs_sq_tables", refuse)
    monkeypatch.setattr(spectrum, "_report", refuse)
    got = is_bent_fast(f)
    assert got.is_bent is is_bent
    assert (None if got.witness is None else (got.witness.u.index, got.witness.m.index)) == witness
    assert (got.sampled, got.mismatches) == (sampled, mismatches) == (len(cells), 0)
    if f.params.p == 7:
        assert any(c.abs_sq().as_integer() is None for c in cells)


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

# Default moduli, two non-default moduli each of F_25 and F_27, and the
# longer bases of F_2**6 and F_3**5.
TRACE_FORM_FIELDS = [
    make_field(3, 2),
    make_field(3, 3),
    make_field(5, 3),
    make_field(2, 4),
    FieldParams(5, 2, (3, 0, 1)),
    FieldParams(3, 3, (2, 2, 0, 1)),
    FieldParams(5, 2, (2, 1, 1)),  # t**2 + t + 2
    FieldParams(3, 3, (2, 1, 1, 1)),  # t**3 + t**2 + t + 2
    make_field(2, 6),
    make_field(3, 5),
]


@pytest.mark.parametrize("params", TRACE_FORM_FIELDS, ids=repr)
def test_trace_weights_and_gram_match_scalar_trace(params):
    basis = [params.from_index(params.p**j) for j in range(params.ell)]
    for u in params.elements():
        assert trace_weights(params, u.index).tolist() == [trace(u * b) for b in basis]
        want = [[trace(u * a * b) for b in basis] for a in basis]
        assert spectrum._gram(params, u.index).tolist() == want


@pytest.mark.parametrize("params", [make_field(2, 6), FieldParams(5, 2, (2, 1, 1)), make_field(3, 5)], ids=repr)
def test_trace_forms_read_only_the_basis_products(monkeypatch, params):
    # P and H come from the field's product table alone: no vectorized
    # product, no scalar trace and no q-entry digit table
    basis = [params.from_index(params.p**j) for j in range(params.ell)]
    want_pairs = [[trace(a * b) for b in basis] for a in basis]
    want_triples = [[[trace(a * b * c) for c in basis] for b in basis] for a in basis]

    def refuse(*args):
        raise AssertionError("trace_forms left the basis products")

    for name in ("vec_mul", "trace", "element_digits"):
        monkeypatch.setattr(field, name, refuse)
    pairs, triples = field.trace_forms.__wrapped__(params)
    assert pairs.tolist() == want_pairs and triples.tolist() == want_triples


@pytest.mark.parametrize("params", TRACE_FORM_FIELDS, ids=repr)
def test_walsh_fast_matches_exact_magnitudes_on_every_modulus(params):
    f = random_function(params, 1, params.q)
    for u in range(1, params.q):
        mags = walsh_fast_all(f, params.from_index(u))
        want = spectrum_report(f, params.from_index(u)).magnitudes
        assert np.all(np.abs(mags - want) <= 1e-9 * np.maximum(want, 1.0))


def _frequency_map_reference(params, d, u_index):
    """The map as I_d kron G applied to the digits of every m."""
    block = np.kron(np.eye(d, dtype=np.int64), np.asarray(spectrum._gram(params, u_index)))
    digits = _modp.digits_of(np.arange(params.q**d), params.p, block.shape[1])
    return _modp.index_of_digits(digits @ block.T % params.p, params.p)


# The oracle reduces its digit products in the narrowest unsigned type that
# holds ell*(p-1)**2, and the per-u maps take them as float64 products:
# fields at each type boundary, against int64 references.
NARROW_CASES = [
    (make_field(31), 1, np.uint16),
    (make_field(1009), 1, np.uint32),
    (FieldParams(2, 12, (1, 0, 0, 1) + (0,) * 8 + (1,)), 1, np.uint8),  # t**12 + t**3 + 1
    (make_field(13, 3), 1, np.uint16),
    (FieldParams(5, 2, (2, 1, 1)), 2, np.uint8),  # t**2 + t + 2
    (make_field(5), 3, np.uint8),
]


@pytest.mark.parametrize(
    "params,d",
    [
        (make_field(3, 2), 1),
        (make_field(3, 2), 2),
        (make_field(3, 2), 3),
        (make_field(2, 2), 3),
        (make_field(5), 3),
        (FieldParams(5, 2, (3, 0, 1)), 2),
    ]
    + [(params, d) for params, d, _ in NARROW_CASES],
    ids=str,
)
def test_frequency_map_matches_kron_reference(params, d):
    # every u up to q = 1023, about 512 of them past that, and u = q - 1
    for u in [*range(1, params.q - 1, max(1, params.q // 512)), params.q - 1]:
        got = spectrum._frequency_map(params, d, u)
        assert np.array_equal(got, _frequency_map_reference(params, d, u))


@pytest.mark.parametrize("params,d,wide", NARROW_CASES, ids=lambda c: str(c) if isinstance(c, FieldParams) else None)
def test_narrow_reductions_match_int64_references(params, d, wide):
    f = random_function(params, d, 7)
    digits = field.element_digits(params).astype(np.int64)
    for u in (1, 2, params.q - 1):
        exponents = (digits @ trace_weights(params, u) % params.p)[f.values]
        assert spectrum._trace_exponents(f, u).tolist() == exponents.tolist()
    assert spectrum._trace_rows(params, params.q - 1, d)[2] == wide
    # every digit of m = N - 1 is p - 1, which makes the largest products; the
    # pointwise reference takes ell - 1 Frobenius powers per point, so F_2**12
    # checks that m alone
    u = params.from_index(params.q - 1)
    for m_idx in (f.n_points - 1, 1, f.n_points // 3)[: 1 if params.ell > 3 else 3]:
        m = PointVector.from_index(params, d, m_idx)
        assert exact_cell(f, u.index, m_idx) == walsh_exact(f, u, m)


def test_frequency_map_is_identity_for_p2_u1():
    f2 = make_field(2)
    for d in (1, 2, 7, 12):
        assert np.array_equal(spectrum._frequency_map(f2, d, 1), np.arange(2**d))


def _identity_grams(params):
    grams = [spectrum._gram(params, u) for u in range(1, params.q)]
    return [u for u, g in enumerate(grams, 1) if np.array_equal(g, np.eye(params.ell))]


def test_identity_skip_matches_the_gather_and_fires_only_on_an_identity_gram(monkeypatch):
    # over a prime field G(u) = [u], so exactly u = 1 has G = I and skips;
    # F_4's u = 3 also has G = I, but placement skips only for ell = 1
    assert all(_identity_grams(make_field(p)) == [1] for p in (2, 7, 13))
    f4, f25 = make_field(2, 2), FieldParams(5, 2, (2, 1, 1))
    assert _identity_grams(f4) == [3] and _identity_grams(f25) == []

    gathers = []
    frequency_map = spectrum._frequency_map
    monkeypatch.setattr(spectrum, "_frequency_map", lambda *a: gathers.append(a[2]) or frequency_map(*a))

    def spectra(f, u_indices):
        out = []
        for u_index in u_indices:
            u = f.params.from_index(u_index)
            report = spectrum_report(f, u)
            out.append((walsh_fast_all(f, u), report.defined, report.ints, report.magnitudes))
        return out

    # no u of F_25 mod t**2 + t + 2 or of F_4, and no u != 1 of F_7, skips the gather
    cases = [random_function(make_field(2), 10, 1), random_function(make_field(7), 3, 2)]
    extension = ((random_function(f25, 2, 3), range(1, 25)), (random_function(f4, 3, 4), range(1, 4)))
    for f, u_indices in (*extension, (cases[1], range(2, 7))):
        gathers.clear()
        spectra(f, u_indices)
        assert gathers == [u for u in u_indices for _ in range(2)]

    # u = 1 over F_2**10 and F_7**3 skips it, and the gather gives the same arrays
    gathers.clear()
    skipped = [spectra(f, [1])[0] for f in cases]
    assert gathers == []

    def always_gather(params, d, u_index, *arrays):
        perm = spectrum._frequency_map(params, d, u_index)
        return (perm, *(a if a is None else a.take(perm, axis=-1) for a in arrays))

    monkeypatch.setattr(spectrum, "_in_m_order", always_gather)
    gathered = [spectra(f, [1])[0] for f in cases]
    assert gathers == [1] * 3  # over F_2 walsh_fast_all is in m order and never places
    for a, b in zip(skipped, gathered):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _rows_by_m(params, d, u, exponents, members=None):
    """The engine's exact coefficient rows of u (see _exact_coeff_rows),
    placed by m through u's placement, as a report places its columns."""
    rows = spectrum._exact_coeff_rows(params, d, exponents, members)
    return spectrum._in_m_order(params, d, u, rows.T)[1].T


def _whole_table(rows):
    """Reference: the unreduced |S|^2 table of a whole transform as one (N, p)
    int64 array, summed slot pair by slot pair: column k adds
    rows[:, s] * rows[:, (s + k) mod p] over the slots s below p - 1 whose
    partner is below p - 1 too (the reduced rows' last slot is zero)."""
    p = rows.shape[1] + 1
    a = rows.astype(np.int64)
    t = np.zeros((len(a), p), dtype=np.int64)
    for k in range(p):
        for s in range(p - 1):
            if (s + k) % p < p - 1:
                t[:, k] += a[:, s] * a[:, (s + k) % p]
    return t


def _whole_table_columns(t):
    """Reference: defined, ints and float values of a whole int64 table, each
    by one expression over all of it: a row is rational when its columns 1
    to p - 1 agree, and the values are _real_values of the whole table."""
    return np.all(t[:, 1:] == t[:, 1:2], axis=1), t[:, 0] - t[:, 1], spectrum._real_values(t)


def _whole_table_witness_m(t, target):
    """Reference witness rule on a whole table placed by m: the least
    rational excess, else the least irrational float excess past a 0.25
    margin, else the least failing row."""
    defined, ints, values = _whole_table_columns(t)
    for mask in (defined & (ints > target), ~defined & (values > target + 0.25), ~defined | (ints != target)):
        if mask.any():
            return int(np.flatnonzero(mask)[0])
    return None


def test_flat_verdict_reads_transform_order_and_a_witness_places_once(monkeypatch):
    # both are extension fields, so placing any u by m gathers through the map
    fields = [make_field(5, 5), FieldParams(5, 2, (2, 1, 1))]  # F_25 mod t**2 + t + 2
    assert all(params.ell > 1 for params in fields)
    maps = []
    frequency_map = spectrum._frequency_map
    monkeypatch.setattr(spectrum, "_frequency_map", lambda *a: maps.append(a[2]) or frequency_map(*a))
    for params in fields:
        maps.clear()
        assert is_bent_exact(get_function("square", params)).is_bent
        assert maps == []
        maps.clear()
        f = random_function(params, 1, 3)
        bad = is_bent_exact(f)
        u, m = bad.witness.u.index, bad.witness.m.index
        assert not bad.is_bent and maps == [u]
        # the witness rule on the whole table by m, and the cell's exact value
        table = _whole_table(_rows_by_m(f.params, f.d, u, spectrum._trace_exponents(f, u)))
        assert m == _whole_table_witness_m(table, f.n_points)
        assert bad.witness.abs_sq == exact_cell(f, u, m).abs_sq()


def test_witness_rule_falls_back_to_the_least_failing_cell():
    # unreduced |S|^2 rows at p = 5 with target 25: row 2 is irrational,
    # 22 + 5*(zeta + zeta**4) = 25.09, above the target but within the 0.25
    # float margin, so no cell provably exceeds it and the least failing
    # cell is named; a rational excess is preferred whenever there is one
    t = np.array([[25, 0, 0, 0, 0], [20, 0, 0, 0, 0], [22, 5, 0, 0, 5], [25, 0, 0, 0, 0]])
    assert not spectrum._rational_rows(t)[2] and 25 < spectrum._real_values(t)[2] < 25.25

    def witness_m(t):  # the rule on the columns of the one table t
        return spectrum._witness_m(*spectrum._columns([t], len(t)), 25)

    assert witness_m(t) == 1
    assert witness_m(t[[0, 2]]) == 1
    assert witness_m(np.vstack([t, [[26, 0, 0, 0, 0]]])) == 4


def test_report_reads_float_values_only_where_a_row_is_irrational(monkeypatch):
    # every row of a bent graph's table is rational, so its report builds no
    # float values; a random table over F_25 has irrational rows and reads
    # them; both hold the magnitudes of the float expression on every row
    from ffspectra.salem import graph_of

    real_values, calls = spectrum._real_values, []
    monkeypatch.setattr(spectrum, "_real_values", lambda t: calls.append(len(t)) or real_values(t))
    f25 = make_field(5, 2)
    bent, f = get_function("square", f25), random_function(f25, 2, 3)
    graph = verify_theorem1(bent)
    assert calls == []
    report = spectrum_report(f, f25.from_index(7))
    assert calls == [f.n_points] and not report.defined.all()
    e = graph_of(bent)
    for rep, rows in (
        (graph, _rows_by_m(f25, 2, 1, np.zeros(e.params.q**2, dtype=np.uint8), e.bitmap)),
        (report, _rows_by_m(f25, 2, 7, spectrum._trace_exponents(f, 7))),
    ):
        t = _whole_table(rows)
        floats = np.maximum(real_values(t), 0.0)
        assert np.array_equal(rep.magnitudes, np.sqrt(np.where(rep.defined, rep.ints.astype(float), floats)))


# Every table of the chunked |S|^2 pass against the whole-table reference:
# random and bent tables at each p the engine takes, with ell > 1 and d > 1,
# and three that span several 2**13-row tables (F_3**11 all rational, F_7**6
# and F_2**17 with more than one chunk of rows).
CHUNKED_TABLES = {
    "random_F2^10": lambda: random_function(make_field(2), 10, 1),
    "random_F2^17": lambda: random_function(make_field(2), 17, 9),
    "bool_quadratic_F2^8": lambda: get_function("bool_quadratic", make_field(2), d=8),
    "random_F4^3": lambda: random_function(make_field(2, 2), 3, 2),
    "random_F3^11": lambda: random_function(make_field(3), 11, 3),
    "square_F27": lambda: get_function("square", make_field(3, 3)),
    "random_F25^2": lambda: random_function(make_field(5, 2), 2, 4),
    "bilinear_F5^2": lambda: get_function("bilinear", F5, d=2),
    "random_F7^6": lambda: random_function(make_field(7), 6, 5),
    "square_F49": lambda: get_function("square", make_field(7, 2)),
    "random_F13^2": lambda: random_function(make_field(13), 2, 6),
    "random_F169": lambda: random_function(make_field(13, 2), 1, 7),
    "bilinear_F13^2": lambda: get_function("bilinear", make_field(13), d=2),
    "random_F31^2": lambda: random_function(make_field(31), 2, 8),
    "square_F31": lambda: get_function("square", make_field(31)),
}


def _long_double_values(t):
    """Reference: the real value of every row of an int64 table, sum_k (t_k -
    t_1) * cos(2*pi*k/p) in long double, and the first-order error bound
    p * 2**-53 * sum_k |t_k - t_1| * |cos(2*pi*k/p)| of the float64 sum."""
    p = t.shape[1]
    terms = (t - t[:, 1:2]).astype(np.longdouble) * np.cos(2 * np.arccos(np.longdouble(-1)) * np.arange(p) / p)
    return terms.sum(axis=1), p * 2.0**-53 * np.abs(terms).sum(axis=1)


@pytest.mark.parametrize("name", sorted(CHUNKED_TABLES))
def test_chunked_pass_matches_a_whole_table_reference(name):
    f = CHUNKED_TABLES[name]()
    params, n = f.params, f.n_points
    assert n <= spectrum._CHUNK or name in ("random_F2^17", "random_F3^11", "random_F7^6")
    for u in (1, params.q - 1):
        rows = _rows_by_m(params, f.d, u, spectrum._trace_exponents(f, u))
        t = _whole_table(rows)
        defined, ints, values = _whole_table_columns(t)
        got = spectrum._columns(spectrum._abs_sq_tables(rows), n)
        assert np.array_equal(got[0], defined) and np.array_equal(got[1], np.where(defined, ints, 0))
        assert (got[2] is None) == defined.all()
        # a row's float value depends on that row alone: the same bits in any
        # table, at any row position, and in the report placed by m
        want = np.where(defined, ints.astype(np.float64), np.maximum(values, 0.0))
        assert got[2] is None or np.array_equal(got[2][0], want)
        assert np.array_equal(spectrum_report(f, params.from_index(u)).magnitudes, np.sqrt(want))
        ref, bound = _long_double_values(t)
        assert np.all(np.abs(values - ref) <= bound)
    verdict = is_bent_exact(f)
    if verdict.is_bent:
        assert name.split("_")[0] in ("bool", "square", "bilinear")
        return
    # the witness: its u is the walk's first failing orbit, its m the
    # reference rule on the whole table of u by m, its value that row's
    w = verdict.witness
    rows = _rows_by_m(params, f.d, w.u.index, spectrum._trace_exponents(f, w.u.index))
    t = _whole_table(rows)
    assert w.m.index == _whole_table_witness_m(t, n)
    assert w.abs_sq == CycInt.from_coeffs(params.p, t[w.m.index].tolist())
    assert w.abs_sq == exact_cell(f, w.u.index, w.m.index).abs_sq()
    for u, rows in spectrum._orbit_walk(f):  # the orbits before it are flat
        if u == w.u.index:
            break
        assert _whole_table_witness_m(_whole_table(rows), n) is None


@pytest.mark.parametrize("name", ["random_F7^6", "random_F31^2", "random_F169", "bilinear_F13^2", "square_F27"])
def test_orbit_multiples_equal_their_own_reports(name):
    # spectrum_reports derives t*u from one pass over u's tables; each must be
    # spectrum_report(t*u) array for array, and an orbit whose rows are all
    # rational hands its members the same arrays
    f = CHUNKED_TABLES[name]()
    params = f.params
    reports = spectrum.spectrum_reports(f)
    orbit = [next(reports) for _ in range(params.p - 1)]
    assert [r.u_index for r in orbit] == [params.one().scale(t).index for t in range(1, params.p)]
    for rep in orbit:
        want = spectrum_report(f, params.from_index(rep.u_index))
        for column in ("defined", "ints", "magnitudes"):
            assert np.array_equal(getattr(rep, column), getattr(want, column))
    shared = all(rep.magnitudes is orbit[0].magnitudes for rep in orbit)
    assert shared == orbit[0].defined.all()
    assert all(rep.defined is orbit[0].defined and rep.ints is orbit[0].ints for rep in orbit)


# One-table and multi-table transforms at p = 7, 13 and 31: F_31**3 spans
# four tables of 2**13 rows.
POSITION_TABLES = {
    "random_F7^3": lambda: random_function(make_field(7), 3, 5),
    "random_F7^6": lambda: random_function(make_field(7), 6, 5),
    "random_F13^2": lambda: random_function(make_field(13), 2, 5),
    "random_F13^5": lambda: random_function(make_field(13), 5, 5),
    "random_F31^2": lambda: random_function(make_field(31), 2, 5),
    "random_F31^3": lambda: random_function(make_field(31), 3, 5),
}


@pytest.mark.parametrize("name", sorted(POSITION_TABLES))
def test_a_rows_float_value_does_not_depend_on_its_position(name):
    # _real_values of a row on its own, of that row inside its 2**13-row
    # table, and the magnitude of its cell in the report placed by m are the
    # same bits: the first 500 rows and every 97th row of every table
    f = POSITION_TABLES[name]()
    params, n = f.params, f.n_points
    assert (n > spectrum._CHUNK) == (name in ("random_F7^6", "random_F13^5", "random_F31^3"))
    for u in (1, params.q - 1):
        rows = spectrum._exact_coeff_rows(params, f.d, spectrum._trace_exponents(f, u))
        values = []
        for t in spectrum._abs_sq_tables(rows):
            values.append(spectrum._real_values(t))
            sample = np.r_[: min(500, len(t)), 500 : len(t) : 97]
            alone = np.concatenate([spectrum._real_values(t[i : i + 1]) for i in sample])
            assert alone.tobytes() == values[-1][sample].tobytes()
        values = np.concatenate(values)[spectrum._frequency_map(params, f.d, u)]  # placed by m
        report = spectrum_report(f, params.from_index(u))
        irrational = ~report.defined
        assert irrational.any()
        want = np.sqrt(np.maximum(values[irrational], 0.0))
        assert report.magnitudes[irrational].tobytes() == want.tobytes()


def test_report_magnitudes_are_the_same_bits_at_every_openblas_thread_count():
    # random F_7**6 (117,649 points, fifteen 2**13-row tables), one process per
    # thread count, since OpenBLAS reads its count when it loads
    import hashlib
    import os
    import subprocess
    import sys

    script = (
        "import hashlib\n"
        "from ffspectra import make_field\n"
        "from ffspectra.catalog import random_function\n"
        "from ffspectra.spectrum import spectrum_report\n"
        "f = random_function(make_field(7), 6, 5)\n"
        "for u in (1, 6):\n"
        "    print(hashlib.sha256(spectrum_report(f, f.params.from_index(u)).magnitudes.tobytes()).hexdigest())\n"
    )
    outputs = set()
    for threads in ("1", "2", "4"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    f = random_function(make_field(7), 6, 5)
    here = "".join(
        hashlib.sha256(spectrum_report(f, f.params.from_index(u)).magnitudes.tobytes()).hexdigest() + "\n"
        for u in (1, 6)
    )
    assert outputs == {here}


# ---------------------------------------------------------------------------
# The spot-check oracle and its per-(f, u) memo.


def test_exact_cell_matches_pointwise_on_random_tables():
    # |S|^2 is always rational for p <= 3, so F_25 supplies the irrational cells.
    irrational = 0
    for params, d, seed, us, m_step in [
        (make_field(2, 2), 2, 4, range(1, 4), 1),
        (make_field(3, 2), 2, 7, range(1, 9), 3),
        (make_field(5, 2), 2, 5, (1, 2, 8, 24), 53),
        (FieldParams(5, 2, (2, 1, 1)), 2, 6, (1, 19), 131),
        (FieldParams(3, 3, (2, 1, 1, 1)), 2, 8, (1, 26), 181),
        (make_field(2), 6, 2, (1,), 2),
        (make_field(3), 3, 9, (1, 2), 2),
        (FieldParams(37, 1, (0, 1)), 1, 10, (1, 5, 36), 4),  # above the engine's p <= 31
    ]:
        f = random_function(params, d, seed)
        if params.p <= 31:
            assert not is_bent_exact(f).is_bent
        full = 0  # cells whose every coordinate of m is nonzero
        for u in us:
            cells = []
            for m_idx in range(u % m_step, f.n_points, m_step):
                cell = exact_cell(f, u, m_idx)
                m = PointVector.from_index(params, d, m_idx)
                assert cell == walsh_exact(f, params.from_index(u), m)
                irrational += cell.abs_sq().as_integer() is None
                full += not any(c.is_zero() for c in m.coords)
                cells.append(cell)
            # the spot checks' route: each cell's coefficients summed at zeta
            rows = np.array([c.coeffs for c in cells], dtype=np.int64)
            roots = np.abs(rows.astype(np.float64) @ spectrum._roots(params.p))
            # the engine's |S|^2 step on the stacked rows in its reduced form:
            # CycInt's normal form less its zero last slot, in float32
            assert not rows[:, -1].any()
            tables = spectrum._abs_sq_tables(rows[:, :-1].astype(np.float32))
            defined, ints, values = spectrum._columns(tables, len(rows))
            mags = np.sqrt(ints if values is None else values[0])
            for i, cell in enumerate(cells):
                z = cell.abs_sq()
                exact = z.as_integer()
                assert (ints[i] if defined[i] else None) == exact
                root = math.sqrt(z.to_complex().real)
                assert abs(mags[i] - root) <= 1e-12 * root
                assert abs(roots[i] - root) <= 1e-12 * max(root, 1.0)
        assert full > 0
    assert irrational > 0


def test_oracle_is_independent_of_the_transform(monkeypatch):
    from ffspectra.salem import PointSet, indicator_sum

    cases = [
        (random_function(FieldParams(5, 2, (2, 1, 1)), 2, 3), 7),
        (random_function(make_field(3), 3, 4), 2),
        (random_function(FieldParams(37, 1, (0, 1)), 1, 5), 11),
    ]
    sets = [PointSet(f.params, f.d, f.values % 3 == 0) for f, _ in cases]

    def cells():
        spectrum._trace_rows.cache_clear()
        out = []
        for (f, u), e in zip(cases, sets):
            u_elem = f.params.from_index(u)
            for m_idx in range(0, f.n_points, 5):
                m = PointVector.from_index(f.params, f.d, m_idx)
                out += [exact_cell(f, u, m_idx), indicator_sum(e, m), indicator_sum(e, m, u_elem)]
        return out

    want = cells()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the transform's machinery")

    for name in ("_gram", "_frequency_map", "_exact_coeff_rows", "_butterfly"):
        monkeypatch.setattr(spectrum, name, refuse)
    assert cells() == want


def test_fast_path_does_per_field_and_per_u_work_only(monkeypatch):
    # bilinear over F_25**2: N = 625 points, q = 25, ell = 2
    f = get_function("bilinear", make_field(5, 2), d=2)
    params = f.params

    def clear_per_u_caches():
        for cache in (field.mul_matrix, field.trace_weights, spectrum._trace_rows):
            cache.cache_clear()

    clear_per_u_caches()  # so that the warm run reaches this table's own params
    is_bent_fast(f)  # warm the per-field tables
    digit_sizes = []
    digits_of = _modp.digits_of

    def recording_digits_of(indices, *args):
        digit_sizes.append(np.size(indices))
        return digits_of(indices, *args)

    monkeypatch.setattr(_modp, "digits_of", recording_digits_of)
    vec_products = 0
    vec_mul = field.vec_mul

    def counting_vec_mul(*args):
        nonlocal vec_products
        vec_products += 1
        return vec_mul(*args)

    monkeypatch.setattr(field, "vec_mul", counting_vec_mul)
    products = 0
    mul = FieldElement.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    counts = []
    for spots in (6, 40):  # 6 is the default at N = 625
        monkeypatch.setattr(spectrum, "_spot_count", lambda n, d, k=spots: k)
        clear_per_u_caches()  # redo the per-u work; the per-field tables stay warm
        products = 0
        verdict = is_bent_fast(f)
        assert verdict.certified and verdict.sampled == (params.q - 1) * spots
        counts.append(products)
    # the per-u work reads the per-field digits and trace forms: no digit
    # expansion and no vector field product
    assert digit_sizes == [] and vec_products == 0
    assert counts[0] == counts[1] <= params.ell * (params.q - 1) + 8


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

    def empty_slots():
        spectrum._trace_rows.cache_clear()
        monkeypatch.setattr(spectrum, "_exponents", None)

    def fresh(f, u, m):
        empty_slots()
        return exact_cell(f, u, m), spectrum._trace_exponents(f, u).tolist()

    def served(f, u, m):
        return exact_cell(f, u, m), spectrum._trace_exponents(f, u).tolist()

    want = [fresh(*c) for c in calls]
    empty_slots()
    assert [served(*c) for c in calls] == want
    # and again in reverse, starting from whatever the slots hold now
    assert [served(*c) for c in reversed(calls)] == want[::-1]
    with pytest.raises(ValueError):  # the served row is shared, so read-only
        spectrum._trace_exponents(*calls[-1][:2])[0] = 0


def test_exponent_slot_does_not_keep_its_table_alive():
    f = get_function("bool_quadratic", make_field(2), d=8)
    assert is_bent_fast(f).certified
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_fast_path_builds_one_trace_exponent_row_per_u(monkeypatch):
    # walsh_fast_all and the spot-check oracle of one u share one row
    f = get_function("square", make_field(5, 2))
    rows = []
    original = field.trace_weights

    def counting(params, u_index):
        rows.append(u_index)
        return original(params, u_index)

    monkeypatch.setattr(field, "trace_weights", counting)
    monkeypatch.setattr(spectrum, "_exponents", None)
    assert is_bent_fast(f).certified
    assert rows == list(range(1, f.params.q))


@pytest.mark.parametrize(
    "make",
    [
        lambda: get_function("square", make_field(5, 2)),
        lambda: get_function("bool_quadratic", make_field(2), d=8),
    ],
    ids=["square_F25", "bool_quadratic_F2^8"],
)
def test_spot_checks_call_exact_cell_once_per_sampled_cell(monkeypatch, make):
    # Traced benchmark runs count exact_cell calls against `sampled` and
    # walsh_fast_all calls against q - 1, so the fast verdict must go through
    # the module-level oracle once per cell and the transform once per u.
    f = make()
    calls = []
    transforms = []
    original = spectrum.exact_cell
    transform = spectrum.walsh_fast_all

    def counting(*args):
        calls.append(args)
        return original(*args)

    def counting_transform(f, u):
        transforms.append(u.index)
        return transform(f, u)

    monkeypatch.setattr(spectrum, "exact_cell", counting)
    monkeypatch.setattr(spectrum, "walsh_fast_all", counting_transform)
    verdict = is_bent_fast(f)
    assert verdict.certified
    assert len(calls) == verdict.sampled > 0
    assert transforms == list(range(1, f.params.q))


@pytest.mark.parametrize(
    "make",
    [
        lambda: get_function("square", make_field(5, 2)),
        lambda: get_function("bool_quadratic", make_field(2), d=8),
        lambda: random_function(make_field(7), 3, 4),
    ],
    ids=["square_F25", "bool_quadratic_F2^8", "random_F7^3"],
)
def test_spot_checks_run_after_the_magnitudes_are_freed(monkeypatch, make):
    f = make()
    results = {}
    dead_at_first_cell = {}
    transform, original = spectrum.walsh_fast_all, spectrum.exact_cell

    def recording_transform(f, u):
        mags = transform(f, u)
        results[u.index] = weakref.ref(mags)
        return mags

    def checking(f, u_index, m_index):
        dead_at_first_cell.setdefault(u_index, results[u_index]() is None)
        return original(f, u_index, m_index)

    monkeypatch.setattr(spectrum, "walsh_fast_all", recording_transform)
    monkeypatch.setattr(spectrum, "exact_cell", checking)
    is_bent_fast(f)
    assert dead_at_first_cell == {u: True for u in range(1, f.params.q)}


def test_spot_check_sample_is_the_seeded_counter_stream(monkeypatch):
    # the cells of u are splitmix64(0x5BD1E995 ^ u, i) mod q**d for i < k,
    # recomputed here with Python ints, in the order they are checked
    mask = (1 << 64) - 1

    def ref(seed, i):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    f = random_function(make_field(3, 2), 3, 7)
    n, k = f.n_points, 7  # k = 729 // 100 cells per u
    calls = {}
    original = spectrum.exact_cell

    def recording(f, u, m):
        calls.setdefault(u, []).append(m)
        return original(f, u, m)

    monkeypatch.setattr(spectrum, "exact_cell", recording)
    assert is_bent_fast(f).sampled == k * (f.params.q - 1)
    assert calls == {u: [ref(0x5BD1E995 ^ u, i) % n for i in range(k)] for u in range(1, f.params.q)}


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
        rows = _rows_by_m(params, f.d, u, spectrum._trace_exponents(f, u))  # the engine's are in transform order
        assert np.array_equal(rows, np.rint(rows))
        for m_idx in range(f.n_points):
            m = PointVector.from_index(params, f.d, m_idx)
            want = walsh_exact(f, params.from_index(u), m)
            assert CycInt.from_coeffs(params.p, rows[m_idx].tolist()) == want


def test_exact_and_float_transforms_share_one_pass_routine(monkeypatch):
    from ffspectra.salem import PointSet, salem_report

    f = random_function(F5, 2, 4)
    u = F5.from_index(2)
    e = PointSet(F5, 2, f.values % 2 == 0)

    def refuse(*args, **kwargs):
        raise AssertionError("the shared pass routine ran")

    monkeypatch.setattr(spectrum, "_butterfly", refuse)
    for call in (
        lambda: walsh_fast_all(f, u),
        lambda: walsh_exact_all(f, u),
        lambda: spectrum_report(f, u),
        lambda: salem_report(e),
    ):
        with pytest.raises(AssertionError, match="shared pass routine"):
            call()


def test_pass_matrix_is_the_exact_size_p_pass():
    # out[k, s] = slot k of sum_t (sum_j h[j, t] zeta^j) zeta^(-s*t) in the
    # reduced basis 1, ..., zeta^(p-2): the p-slot sum less its last slot
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7, 13, 31):
        h = rng.integers(-50, 50, size=(p - 1, p))
        full = np.zeros((p, p), dtype=np.int64)  # [slot, s]
        for j in range(p - 1):
            for t in range(p):
                for s in range(p):
                    full[(j - s * t) % p, s] += h[j, t]
        w = spectrum._pass_matrix(p)
        assert w.dtype == np.float32 and w.shape == ((p - 1) * p, (p - 1) * p)
        got = (h.reshape(1, (p - 1) * p) @ w).reshape(p - 1, p)  # reads (slot, t), writes (k, s)
        assert np.array_equal(got, full[:-1] - full[-1])
        # +-1 entries, at most two nonzero per digit t: partial sums stay <= 2N
        assert set(np.unique(w).tolist()) <= {-1.0, 0.0, 1.0}
        assert np.abs(w).reshape(p - 1, p, (p - 1) * p).sum(axis=0).max() <= 2
    assert np.array_equal(spectrum._pass_matrix(2), [[1, 1], [1, -1]])  # Walsh-Hadamard


def _p_slot_rows(p: int, n: int, exponents: np.ndarray, members=None) -> np.ndarray:
    """Reference: the p-slot float64 transform in transform order.  Slot j of
    a point counts it at zeta**j, and each pass multiplies digit t of the
    leading axis by zeta**(-s*t), moving slot j to slot j - s*t, and puts
    the frequency digit s last."""
    k, j, t, s = np.ogrid[:p, :p, :p, :p]
    w = ((j - s * t) % p == k).astype(np.float64)
    h = (np.arange(p)[:, None] == exponents).astype(np.float64)
    if members is not None:
        h *= members
    for _ in range(n):
        h = np.einsum("kjts,jtr->krs", w, h.reshape(p, p, -1), optimize=True).reshape(p, -1)
    return h.T


@pytest.mark.parametrize(
    "params,d,seed,masked",
    [
        (make_field(2), 10, 1, False),
        (make_field(2), 9, 2, True),
        (make_field(2, 3), 3, 3, False),
        (F5, 4, 4, False),
        (F5, 4, 5, True),
        (make_field(5, 2), 2, 6, False),
        (make_field(31), 2, 7, False),
        (make_field(31), 2, 8, True),
    ],
)
def test_reduced_rows_match_a_p_slot_reference(params, d, seed, masked):
    # the engine's (N, p - 1) float32 rows are the p-slot counts less the
    # last slot, exactly, in the same transform order
    f = random_function(params, d, seed)
    n, p = f.n_points, params.p
    members = np.random.default_rng(seed).random(n) < 0.4 if masked else None
    for u in (1, params.q - 1):
        exponents = spectrum._trace_exponents(f, u)
        rows = spectrum._exact_coeff_rows(params, d, exponents, members)
        assert rows.shape == (n, p - 1) and rows.dtype == np.float32
        ref = _p_slot_rows(p, d * params.ell, exponents, members)
        assert np.array_equal(rows, ref[:, :-1] - ref[:, -1:])


def test_reduced_rows_are_exact_at_the_2pow20_cap():
    # a constant table puts all 2**20 points in one cell, the largest entry
    # float32 has to hold; the random table spreads them
    f2 = make_field(2)
    for exponents, top in ((np.zeros(2**20, dtype=np.uint8), 2**20), (random_function(f2, 20, 3).values, None)):
        rows = spectrum._exact_coeff_rows(f2, 20, exponents)
        ref = _p_slot_rows(2, 20, exponents)
        assert rows.shape == (2**20, 1) and np.array_equal(rows, ref[:, :1] - ref[:, 1:])
        assert top is None or np.abs(rows).max() == top


def test_member_mask_path_matches_indicator_sum():
    from ffspectra.salem import PointSet, indicator_sum

    rng = np.random.default_rng(8)
    for params, d in [(F5, 2), (make_field(3, 2), 2), (make_field(2), 5), (make_field(7), 2)]:
        n = params.q**d
        for _ in range(3):
            e = PointSet(params, d, rng.random(n) < 0.3)
            rows = _rows_by_m(params, d, 1, np.zeros(n, dtype=np.int64), e.bitmap)
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
        spectrum._exact_coeff_rows(params, d, np.zeros(1, dtype=np.int64))


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
    "F_4^2": (make_field(2, 2), 2),  # u = 3 has G = I but gathers: ell > 1
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
    built = _record_transforms(monkeypatch)
    params = make_field(7, 3)
    f = get_function("square", params)
    built.clear()
    assert len(list(spectrum.spectrum_reports(f))) == 342
    assert built == _least_members(params) and len(built) == 57
    # The CLI's verdict scans 57 orbits, and --emit takes it from the same 57.
    argv = ["test", "bent", "--catalog", "square", "--p", "7", "--ell", "3", "--exact"]
    built.clear()
    assert main(argv) == 0
    verdict_only = len(built)
    built.clear()
    assert main([*argv, "--emit", str(tmp_path)]) == 0
    assert verdict_only == 57 and len(built) == 57
    assert len(list(tmp_path.glob("spectrum_u*.csv"))) == 342
    capsys.readouterr()


def test_emit_takes_a_failing_verdict_from_its_one_pass(monkeypatch, tmp_path, capsys):
    built = _record_transforms(monkeypatch)
    argv = ["test", "bent", "--catalog", "random", "--p", "5", "--ell", "2", "--seed", "3", "--exact"]
    assert main(argv) == 1
    assert built == [1]  # the verdict alone stops at the first failing orbit
    verdict_only = capsys.readouterr().out
    built.clear()
    assert main([*argv, "--emit", str(tmp_path)]) == 1
    assert built == [1, 5, 6, 7, 8, 9]  # every orbit once, none twice
    assert capsys.readouterr().out == verdict_only
    assert len(list(tmp_path.glob("spectrum_u*.csv"))) == 24


def test_is_bent_exact_builds_no_galois_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("is_bent_exact built a report")

    monkeypatch.setattr(spectrum, "_report", refuse)
    assert is_bent_exact(get_function("square", make_field(7, 3))).is_bent
    # the witness places its own columns
    assert not is_bent_exact(random_function(make_field(5, 2), 1, 3)).is_bent
