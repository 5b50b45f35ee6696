"""Points of F_q^d: codec, inner product, and F_p-basis decomposition."""

import random

import numpy as np
import pytest

from ffspectra import PointVector, SpaceBasis, dot, make_field, standard_basis
from ffspectra.errors import DimensionMismatch, NotABasis
from ffspectra.space import (
    decompose_over_fp,
    vec_point_add,
)


def test_point_index_round_trip():
    for p, ell, d in [(5, 1, 3), (3, 2, 2), (2, 3, 2), (7, 1, 2)]:
        params = make_field(p, ell)
        n = params.q**d
        for i in range(n):
            x = PointVector.from_index(params, d, i)
            assert x.index == i and x.d == d
    with pytest.raises(Exception):
        PointVector.from_index(make_field(5), 2, 25)


def test_point_arithmetic():
    f5 = make_field(5)
    x = PointVector(f5, (f5.scalar(1), f5.scalar(2), f5.scalar(3)))
    y = PointVector(f5, (f5.scalar(2), f5.scalar(0), f5.scalar(1)))
    assert (x + y).coords == (f5.scalar(3), f5.scalar(2), f5.scalar(4))
    assert (x - x).is_zero()
    assert (-y + y).is_zero()
    assert x.scale(2).coords == (f5.scalar(2), f5.scalar(4), f5.scalar(1))


def test_dot_frozen_examples():
    f5 = make_field(5)
    x = PointVector(f5, (f5.scalar(1), f5.scalar(2), f5.scalar(3)))
    m = PointVector(f5, (f5.scalar(2), f5.scalar(0), f5.scalar(1)))
    assert dot(x, m).index == 0  # 2 + 0 + 3
    assert dot(x, PointVector.zero(f5, 3)).is_zero()
    f9 = make_field(3, 2)
    t = PointVector(f9, (f9.from_index(3),))
    assert dot(t, t).index == 2  # t^2 = -1


def test_dot_symmetric_bilinear():
    rng = random.Random(17)
    for params, d in [(make_field(3, 2), 2), (make_field(5), 3)]:
        n = params.q**d
        for _ in range(200):
            x = PointVector.from_index(params, d, rng.randrange(n))
            y = PointVector.from_index(params, d, rng.randrange(n))
            m = PointVector.from_index(params, d, rng.randrange(n))
            assert dot(x, m) == dot(m, x)
            assert dot(x + y, m) == dot(x, m) + dot(y, m)
    with pytest.raises(DimensionMismatch):
        f5 = make_field(5)
        dot(PointVector.zero(f5, 2), PointVector.zero(f5, 3))


def test_standard_basis_layout():
    f5 = make_field(5)
    assert [v.index for v in standard_basis(f5, 2).vectors] == [1, 5]
    f9 = make_field(3, 2)
    assert [v.index for v in standard_basis(f9, 1).vectors] == [1, 3]
    assert [v.index for v in standard_basis(f9, 2).vectors] == [1, 3, 9, 27]


def test_decompose_frozen_examples():
    f9 = make_field(3, 2)
    b = standard_basis(f9, 1)
    a = PointVector(f9, (f9.element([2, 1]),))  # 2 + t
    assert decompose_over_fp(a, b) == (2, 1)
    assert decompose_over_fp(PointVector.zero(f9, 1), b) == (0, 0)
    f5 = make_field(5)
    b2 = standard_basis(f5, 2)
    x = PointVector(f5, (f5.scalar(3), f5.scalar(4)))
    assert decompose_over_fp(x, b2) == (3, 4)


def test_round_trip_all_points_standard_and_shifted():
    for p, ell, d in [(5, 1, 2), (3, 2, 1), (2, 2, 2), (5, 1, 3), (3, 1, 4)]:
        params = make_field(p, ell)
        std = standard_basis(params, d)
        vectors = list(std.vectors)
        if len(vectors) > 1:
            vectors[0] = vectors[0] + vectors[-1]  # still a basis
        shifted = SpaceBasis(params, d, tuple(vectors))
        for basis in (std, shifted):
            for i in range(params.q**d):
                x = PointVector.from_index(params, d, i)
                digits = basis.decompose(x)
                assert all(0 <= k < p for k in digits)
                assert basis.recompose(digits) == x


def test_decompose_indices_vectorized_matches_scalar():
    params = make_field(3, 2)
    basis = standard_basis(params, 2)
    idx = np.arange(81)
    mat = basis.decompose_indices(idx)
    for i in range(81):
        assert tuple(int(k) for k in mat[i]) == basis.decompose(
            PointVector.from_index(params, 2, i)
        )


def test_not_a_basis():
    f5 = make_field(5)
    e1 = PointVector(f5, (f5.one(), f5.zero()))
    with pytest.raises(NotABasis):
        SpaceBasis(f5, 2, (e1, e1.scale(2)))  # dependent
    with pytest.raises(NotABasis):
        SpaceBasis(f5, 2, (e1,))  # wrong count


def test_vec_point_ops_match_element_ops():
    rng = np.random.default_rng(23)
    for p, ell, d in [(5, 1, 2), (3, 2, 2), (2, 3, 1)]:
        params = make_field(p, ell)
        n = params.q**d
        a = rng.integers(0, n, size=100)
        b = rng.integers(0, n, size=100)
        add = vec_point_add(params, d, a, b)
        for i in range(100):
            x = PointVector.from_index(params, d, int(a[i]))
            y = PointVector.from_index(params, d, int(b[i]))
            assert (x + y).index == add[i]
