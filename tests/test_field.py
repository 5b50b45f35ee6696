"""Extension field arithmetic against independent small-scale oracles."""

import itertools
import random

import numpy as np
import pytest

from ffspectra import FieldParams, field_arithmetic, make_field, trace
from ffspectra.errors import (
    FieldMismatch,
    IndexOutOfRange,
    NonPrime,
    ReducibleModulus,
    UnsupportedSize,
    ZeroInverse,
)
from ffspectra.field import (
    default_modulus,
    standard_fp_basis,
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
