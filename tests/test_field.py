"""Extension field arithmetic against independent small-scale oracles."""

import itertools
import random

import numpy as np
import pytest

from ffspectra import FieldParams, FpBasis, field_arithmetic, make_field, standard_fp_basis, trace
from ffspectra.errors import (
    BadModulus,
    FFSpectraError,
    FieldMismatch,
    IndexOutOfRange,
    NonPrime,
    NotABasis,
    ReducibleModulus,
    UnsupportedSize,
    ZeroInverse,
)
from ffspectra.field import (
    default_modulus,
    mul_matrix,
    vec_add,
    vec_mul,
    vec_scalar_mul,
    vec_sub,
)

BUILT_IN = [
    (p, ell)
    for p in (2, 3, 5, 7, 11, 13)
    for ell in range(1, 7)
    if p**ell <= 2**20
]


# -- independent polynomial helpers (plain coefficient lists, little endian) --

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_mod(a, m, p):
    a = [x % p for x in a]
    inv_lead = pow(m[-1], -1, p)
    deg_m = len(m) - 1
    while len(a) > deg_m:
        lead = (a[-1] * inv_lead) % p
        shift = len(a) - len(m)
        for j, c in enumerate(m):
            a[shift + j] = (a[shift + j] - lead * c) % p
        a.pop()
    while len(a) < deg_m:
        a.append(0)
    return a


def _irreducible_by_trial_division(m, p):
    """Monic m (little endian, degree >= 1) has no monic divisor of degree
    in [1, deg/2]; checked by brute-force enumeration of candidates."""
    deg = len(m) - 1
    if deg == 1:
        return True
    for ddeg in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=ddeg):
            divisor = list(tail) + [1]
            if not any(_poly_mod(m, divisor, p)):
                return False
    return True


def test_default_moduli_frozen_small_fields():
    assert default_modulus(2, 1) == (0, 1)
    assert default_modulus(5, 1) == (0, 1)
    assert default_modulus(2, 2) == (1, 1, 1)  # t^2+t+1
    assert default_modulus(3, 2) == (1, 0, 1)  # t^2+1
    assert default_modulus(5, 2) == (2, 0, 1)  # t^2+2
    assert default_modulus(7, 2) == (1, 0, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # t^3+t+1
    assert default_modulus(3, 3) == (1, 2, 0, 1)  # t^3+2t+1


def test_default_moduli_least_irreducible_all_built_ins():
    # every built-in modulus is irreducible (independent trial division) and
    # every candidate with a smaller little-endian index is reducible
    for p, ell in BUILT_IN:
        m = default_modulus(p, ell)
        assert len(m) == ell + 1 and m[-1] == 1
        assert _irreducible_by_trial_division(list(m), p)
        chosen = sum(m[j] * p**j for j in range(ell))
        limit = min(chosen, 60)  # exhaustive head of the enumeration
        for n in range(limit):
            cand = [(n // p**j) % p for j in range(ell)] + [1]
            assert not _irreducible_by_trial_division(cand, p), (p, ell, n)


def test_make_field_basics_and_errors():
    f9 = make_field(3, 2)
    assert f9.q == 9 and f9.p == 3 and f9.ell == 2
    assert make_field(3, 2, modulus=[1, 0, 1]).q == 9
    with pytest.raises(NonPrime):
        make_field(4)
    with pytest.raises(NonPrime):
        make_field(1)
    with pytest.raises(ReducibleModulus):
        make_field(5, 2, modulus=[4, 0, 1])  # t^2+4 = (t+2)(t+3)
    with pytest.raises(UnsupportedSize):
        make_field(17, 2)  # beyond the built-in modulus table
    assert make_field(17).modulus == (0, 1)  # a prime field needs no table
    with pytest.raises(UnsupportedSize):
        make_field(2, 21, modulus=[1] * 21 + [1])  # q > 2**20
    # a modulus that is not monic of degree ell is a package error and a ValueError
    for modulus in ([1, 2], [0, 1, 1], [1]):
        with pytest.raises(BadModulus) as info:
            make_field(5, 1, modulus)
        assert isinstance(info.value, FFSpectraError) and isinstance(info.value, ValueError)
    assert make_field(5, 1, [5, 6]).modulus == (0, 1)  # coefficients reduce mod p first
    # an explicit modulus unlocks fields outside the table
    f17 = make_field(17, 1, modulus=[0, 1])
    assert f17.q == 17
    assert (f17.scalar(2) * f17.scalar(9)).index == 1


def test_field_arithmetic_frozen_examples():
    f5 = make_field(5)
    assert field_arithmetic("add", f5.scalar(2), f5.scalar(4)).index == 1
    assert field_arithmetic("mul", f5.scalar(3), f5.scalar(4)).index == 2
    assert field_arithmetic("inv", f5.scalar(2)).index == 3
    assert field_arithmetic("pow", f5.scalar(2), 3).index == 3
    f9 = make_field(3, 2)
    t = f9.from_index(3)
    assert field_arithmetic("mul", t, t).index == 2  # t^2 = -1


def _tables(params):
    q = params.q
    els = [params.from_index(i) for i in range(q)]
    add = np.array([[(a + b).index for b in els] for a in els])
    mul = np.array([[(a * b).index for b in els] for a in els])
    return add, mul


def test_axioms_exhaustive_small_fields():
    # all triples for q <= 169 via index tables built from element ops
    for p, ell in [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                   (2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 2),
                   (3, 3), (2, 6), (11, 2), (13, 2)]:
        params = make_field(p, ell)
        q = params.q
        add, mul = _tables(params)
        assert np.array_equal(add, add.T)
        assert np.array_equal(mul, mul.T)
        assert np.array_equal(add[0], np.arange(q))
        assert np.array_equal(mul[1], np.arange(q))
        assert not np.any(mul[0])
        i = np.arange(q)
        a, b, c = np.meshgrid(i, i, i, indexing="ij", sparse=True)
        assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
        assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
        assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
        # additive inverse exists: every row of add is a permutation hitting 0
        assert np.all(np.sort(add, axis=1) == i)
        # multiplicative inverse for a != 0
        nz = mul[1:, 1:]
        assert np.all(np.sort(nz, axis=1) == np.arange(1, q))


def test_axioms_sampled_large_fields():
    # spot triples through element ops for the larger built-ins
    rng = random.Random(2024)
    for p, ell in [(3, 5), (7, 3), (5, 4), (3, 6), (13, 5)]:
        params = make_field(p, ell)
        q = params.q
        for _ in range(150):
            a = params.from_index(rng.randrange(q))
            b = params.from_index(rng.randrange(q))
            c = params.from_index(rng.randrange(q))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            assert (a + b) ** p == a**p + b**p  # Frobenius additivity
            if not b.is_zero():
                assert (a * b) / b == a


def test_inverse_and_pow():
    for p, ell in [(5, 1), (3, 2), (2, 4), (7, 2), (13, 1)]:
        params = make_field(p, ell)
        one = params.one()
        for i in range(1, params.q):
            a = params.from_index(i)
            assert a * a.inverse() == one
            assert a ** (params.q - 1) == one
            assert a**params.q == a
        with pytest.raises(ZeroInverse):
            params.zero().inverse()
        a = params.from_index(params.q - 1)
        acc = one
        for e in range(6):
            assert a**e == acc
            acc = acc * a


def test_trace_dual_route_and_fibers():
    for p, ell in [(2, 1), (5, 1), (3, 2), (2, 3), (5, 2), (7, 2), (3, 3), (2, 6)]:
        params = make_field(p, ell)
        counts = [0] * p
        for i in range(params.q):
            a = params.from_index(i)
            s = a
            for j in range(1, ell):
                s = s + a ** (p**j)
            # the Frobenius-orbit sum lands in the prime subfield
            assert s.index == trace(a) and s.index < p
            counts[trace(a)] += 1
        # surjective with equal fibers of size q/p
        assert counts == [params.q // p] * p
        # additivity
        rng = random.Random(5)
        for _ in range(50):
            a = params.from_index(rng.randrange(params.q))
            b = params.from_index(rng.randrange(params.q))
            assert trace(a + b) == (trace(a) + trace(b)) % p


def test_trace_frozen_examples():
    f9 = make_field(3, 2)
    assert trace(f9.from_index(3)) == 0  # t + t^3 = t - t
    assert trace(f9.one()) == 2
    f5 = make_field(5)
    for i in range(5):
        assert trace(f5.from_index(i)) == i


def test_element_codec():
    f9 = make_field(3, 2)
    assert f9.element([0, 1]).index == 3  # t
    assert f9.from_index(2).coeffs == (2, 0)
    assert f9.from_index(5).coeffs == (2, 1)  # 2 + t
    for p, ell in [(2, 4), (3, 2), (5, 2), (13, 1)]:
        params = make_field(p, ell)
        for i in range(params.q):
            assert params.from_index(i).index == i
    with pytest.raises(IndexOutOfRange):
        f9.from_index(9)
    with pytest.raises(IndexOutOfRange):
        f9.from_index(-1)


def test_element_index_refuses_non_integers():
    # a float is never truncated and a string never parsed to an element
    f7 = make_field(7)
    for i in (1.7, 2.0, np.float64(3.0), "3", None):
        with pytest.raises(IndexOutOfRange, match="not an integer"):
            f7.from_index(i)
    # what operator.index takes is an index: int, numpy integers and bool
    for i in (3, np.int64(3), np.uint8(3)):
        assert f7.from_index(i).index == 3
    assert f7.from_index(True).index == 1


def test_integer_parameters_refuse_floats():
    # a float is refused, never truncated to an int or stored as a parameter
    f5 = make_field(5)
    two = f5.from_index(2)
    for call in (
        lambda: make_field(5.0),
        lambda: make_field(5, 2.0),
        lambda: make_field(5, 1, (0.0, 1.0)),
        lambda: FieldParams(5, 1.0, (0, 1)),
        lambda: two**2.7,
        lambda: two.scale(2.9),
        lambda: f5.scalar(3.5),
        lambda: f5.element([1.5]),
        lambda: field_arithmetic("pow", two, 2.0),
    ):
        with pytest.raises(TypeError):
            call()
    # numpy integers are taken, and stored as Python ints
    f25 = make_field(np.int64(5), np.int64(2))
    assert f25 == make_field(5, 2)
    assert all(type(v) is int for v in (f25.p, f25.ell, f25.q, *f25.modulus))
    assert two ** np.int64(2) == two.scale(np.int64(2)) == f5.scalar(np.int64(4)) == f5.element([np.int64(4)])


def test_field_mismatch_guard():
    a = make_field(5).scalar(2)
    b = make_field(7).scalar(2)
    with pytest.raises(FieldMismatch):
        a + b
    # same (p, ell) but different modulus is still a different field
    c = make_field(3, 2, modulus=[2, 2, 1]).from_index(3)
    d = make_field(3, 2).from_index(3)
    with pytest.raises(FieldMismatch):
        c * d


def test_params_equality_and_determinism():
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(3, 2) == make_field(3, 2, modulus=[1, 0, 1])
    assert make_field(3, 2) != make_field(3, 2, modulus=[2, 2, 1])


def test_fp_basis_round_trip():
    f27 = make_field(3, 3)
    basis = standard_fp_basis(f27)
    for i in range(27):
        a = f27.from_index(i)
        digits = basis.decompose(a)
        assert digits == a.coeffs
        assert basis.combine(digits) == a


def test_fp_basis_round_trip_against_a_non_standard_basis():
    f9 = make_field(3, 2)
    one, t = f9.one(), f9.from_index(3)
    basis = FpBasis(f9, (one + t, t))
    assert basis.matrix.tolist() == [[1, 0], [1, 1]]
    for a in f9.elements():
        digits = basis.decompose(a)
        assert all(0 <= k < 3 for k in digits)
        assert (one + t).scale(digits[0]) + t.scale(digits[1]) == a
        assert basis.combine(digits) == a
    assert basis.combine((4, -1)) == basis.combine((1, 2))  # digits are read mod p


def test_fp_basis_refusals():
    f9, f9b = make_field(3, 2), make_field(3, 2, modulus=[2, 2, 1])
    one, t = f9.one(), f9.from_index(3)
    with pytest.raises(NotABasis):
        FpBasis(f9, (one,))  # too few
    with pytest.raises(NotABasis):
        FpBasis(f9, (one, t, one + t))  # too many
    with pytest.raises(NotABasis):
        FpBasis(f9, (t, t.scale(2)))  # dependent
    with pytest.raises(NotABasis):
        FpBasis(f9, (one, f9.zero()))
    with pytest.raises(FieldMismatch):
        FpBasis(f9, (one, f9b.from_index(3)))  # same q, another modulus
    basis = FpBasis(f9, (one, t))
    with pytest.raises(FieldMismatch):
        basis.decompose(f9b.from_index(4))
    with pytest.raises(FieldMismatch):
        basis.decompose(make_field(7).one())
    for digits in [(1,), (1, 2, 0)]:
        with pytest.raises(ValueError):
            basis.combine(digits)


@pytest.mark.parametrize(
    "p,ell,modulus",
    [(2, 1, None), (7, 1, None), (2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None),
     (3, 3, (2, 1, 1, 1))],
    ids=["F2", "F7", "F4", "F8", "F9", "F25", "F27-nondefault"],
)
def test_vec_ops_match_element_ops_on_all_pairs(p, ell, modulus):
    params = make_field(p, ell, modulus)
    q = params.q
    els = [params.from_index(i) for i in range(q)]
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(
        vec_add(params, a, b), [[(x + y).index for y in els] for x in els]
    )
    assert np.array_equal(
        vec_sub(params, a, b), [[(x - y).index for y in els] for x in els]
    )
    assert np.array_equal(
        vec_mul(params, a, b), [[(x * y).index for y in els] for x in els]
    )
    for u in els:
        assert np.array_equal(
            vec_scalar_mul(params, np.arange(q), u.index), [(u * x).index for x in els]
        )


@pytest.mark.parametrize(
    "params",
    [make_field(13, 3), make_field(5, 5), FieldParams(3, 2, (2, 2, 1)), make_field(2, 6), make_field(7)],
    ids=str,
)
def test_mul_matrix_matches_element_products(params):
    # column j holds the digits of u * t**j, for every u, from FieldElement products
    basis = [params.from_index(params.p**j) for j in range(params.ell)]
    for u in params.elements():
        want = np.array([(u * b).coeffs for b in basis], dtype=np.int64).T
        assert np.array_equal(mul_matrix(params, u.index), want)


def test_params_hash_is_held_and_equal_params_hash_equal():
    a, b, c = FieldParams(5, 2, (2, 0, 1)), FieldParams(5, 2, [7, 5, 1]), FieldParams(5, 2, (3, 0, 1))
    assert a == b and hash(a) == hash(b) == hash((5, 2, (2, 0, 1))) and a != c
    assert "_hash" in vars(a)  # computed once: an lru_cache lookup keyed by a rehashes nothing
    assert len({a: 1, b: 2, c: 3}) == 2
