"""Named function constructors and the deterministic seeded generator."""

import numpy as np
import pytest

from ffspectra import FnSpec, build_function, make_field
from ffspectra.catalog import (
    get_function,
    list_entries,
    random_function,
    splitmix64,
)
from ffspectra.errors import (
    EvenCharacteristic,
    SpecDimensionMismatch,
    UnknownCatalogEntry,
)
from ffspectra.funcs import is_pn

F5 = make_field(5)


def test_splitmix64_reference_vector():
    # published first outputs for seed 0 of the standard splitmix64 stream
    want = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    assert [splitmix64(0, i) for i in range(5)] == want
    assert splitmix64(1234567, 0) == 0x599ED017FB08FC85
    assert splitmix64(1234567, 1) == 0x2C73F08458540FA5
    # pure-integer re-implementation, kept independent of the library
    mask = (1 << 64) - 1
    def ref(seed, i):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)
    for seed in (0, 1, 42, 2**63):
        for i in range(50):
            assert splitmix64(seed, i) == ref(seed, i)
        # an index array draws the same outputs in one call
        assert splitmix64(seed, np.arange(50)).tolist() == [ref(seed, i) for i in range(50)]


def test_random_function_frozen_tables():
    assert random_function(F5, 1, seed=0).values.tolist() == [0, 0, 4, 4, 2]
    f13 = make_field(13)
    assert random_function(f13, 1, seed=42).values.tolist() == [
        9, 1, 10, 3, 7, 7, 10, 12, 4, 6, 8, 2, 11,
    ]


def test_random_function_determinism_and_range():
    for params, d in [(F5, 2), (make_field(3, 2), 1), (make_field(2, 3), 2)]:
        a = random_function(params, d, seed=5)
        b = random_function(params, d, seed=5)
        c = random_function(params, d, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.values.min() >= 0 and a.values.max() < params.q
        assert a.n_points == params.q**d


def test_list_entries():
    names = [e.name for e in list_entries()]
    assert names == sorted(names)
    assert {"square", "power", "bilinear", "bool_quadratic", "random", "affine"} <= set(names)
    for e in list_entries():
        assert e.summary
        assert isinstance(e.expectations(), dict)


def test_get_function_square():
    f = get_function("square", F5)
    assert f.values.tolist() == [0, 1, 4, 4, 1]
    with pytest.raises(EvenCharacteristic):
        get_function("square", make_field(2, 2))


def test_get_function_power_and_affine():
    cube = get_function("power", F5)  # e defaults to 3
    assert cube.values.tolist() == [0, 1, 3, 2, 4]
    fifth = get_function("power", make_field(7), e=5)
    assert fifth == build_function(FnSpec.univariate([0, 0, 0, 0, 0, 1]), make_field(7), 1)
    # the monomial build of x**e is the univariate one, below and above q - 1
    for params in (F5, make_field(3, 3), make_field(2, 4)):
        for e in (1, 3, 7, 26):
            want = build_function(FnSpec.univariate([0] * e + [1]), params, 1)
            assert get_function("power", params, e=e) == want
    aff = get_function("affine", F5)
    assert aff.values.tolist() == [0, 1, 2, 3, 4]  # identity by default
    shifted = get_function("affine", F5, b=2, c=3)
    assert shifted.values.tolist() == [2, 0, 3, 1, 4]
    assert not is_pn(shifted).is_pn


def test_get_function_bilinear_and_bool_quadratic():
    xy = get_function("bilinear", F5)
    assert xy.d == 2
    for i in range(25):
        assert xy.values[i] == (i % 5) * (i // 5) % 5
    with pytest.raises(SpecDimensionMismatch):
        get_function("bilinear", F5, d=3)
    f2 = make_field(2)
    quad = get_function("bool_quadratic", f2, d=4)
    for i in range(16):
        x = [(i >> j) & 1 for j in range(4)]
        assert quad.values[i] == (x[0] * x[1]) ^ (x[2] * x[3])
    with pytest.raises(SpecDimensionMismatch):
        get_function("bool_quadratic", f2, d=3)
    with pytest.raises(SpecDimensionMismatch):
        # the family lives over F_2 only
        get_function("bool_quadratic", make_field(3), d=2)


def test_get_function_random_seeds():
    a = get_function("random", F5, d=1, seed=9)
    b = random_function(F5, 1, 9)
    assert a == b
    assert get_function("random", F5, d=1) == random_function(F5, 1, 0)


def test_unknown_entry():
    with pytest.raises(UnknownCatalogEntry):
        get_function("not_a_thing", F5)


def test_declared_expectations_hold_on_load():
    # construction re-verifies the declared properties at desk scale
    assert is_pn(get_function("square", make_field(3, 2))).is_pn
    assert is_pn(get_function("bilinear", make_field(3))).is_pn
    # and verification is skipped (not failed) above the size limit
    big = get_function("random", make_field(2), d=13)
    assert big.n_points == 8192
