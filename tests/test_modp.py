"""Digit-vector arithmetic that every dense table path reduces to."""

import numpy as np

from ffspectra import _modp


def test_digits_round_trip():
    for p, n in [(2, 5), (3, 4), (5, 3), (13, 2)]:
        idx = np.arange(p**n)
        digits = _modp.digits_of(idx, p, n)
        assert digits.shape == (p**n, n)
        # little endian: digit j carries weight p**j
        recon = sum(digits[:, j] * p**j for j in range(n))
        assert np.array_equal(recon, idx)
        assert np.array_equal(_modp.index_of_digits(digits, p), idx)


def test_powers():
    assert _modp.powers(3, 4).tolist() == [1, 3, 9, 27]
    assert _modp.powers(2, 1).tolist() == [1]


def test_add_sub_neg_match_per_digit_arithmetic():
    rng = np.random.default_rng(7)
    for p, n in [(2, 6), (3, 3), (7, 2), (13, 2)]:
        q = p**n
        a = rng.integers(0, q, size=400)
        b = rng.integers(0, q, size=400)
        got = _modp.add_indices(a, b, p, n)
        want = _modp.index_of_digits(
            (_modp.digits_of(a, p, n) + _modp.digits_of(b, p, n)) % p, p
        )
        assert np.array_equal(got, want)
        assert np.array_equal(_modp.sub_indices(got, b, p, n), a)


def test_p2_shortcut_is_xor():
    a = np.arange(64)
    b = np.arange(64)[::-1].copy()
    assert np.array_equal(_modp.add_indices(a, b, 2, 6), a ^ b)
    assert np.array_equal(_modp.sub_indices(a, b, 2, 6), a ^ b)


def test_invert_matrix():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5, 7):
        found = 0
        while found < 5:
            m = rng.integers(0, p, size=(3, 3))
            inv = _modp.invert_matrix(m, p)
            if inv is None:
                continue
            found += 1
            assert np.array_equal((m @ inv) % p, np.eye(3, dtype=np.int64))
            assert np.array_equal((inv @ m) % p, np.eye(3, dtype=np.int64))
    # singular: repeated row
    sing = np.array([[1, 2], [2, 4]])
    assert _modp.invert_matrix(sing, 5) is None
    assert _modp.invert_matrix(np.zeros((2, 2), dtype=int), 3) is None


def _digit_sum(b, c, p, n, sign):
    """Index of b + sign * c by inline digit arithmetic, apart from the adder."""
    return _modp.index_of_digits((_modp.digits_of(b, p, n) + sign * _modp.digits_of(c, p, n)) % p, p)


def test_difference_codes_match_digit_subtraction():
    # the PN scan reads b - c through plus and minus, and the decomposition
    # walk reads b + c through plus and plus, through the same combine
    rng = np.random.default_rng(11)
    for p, n, n_groups, pairs in ((3, 2, 1, None), (5, 2, 1, None), (2, 6, 0, None),
                                  (2, 20, 0, 10**4), (3, 12, 2, 10**4)):
        q = p**n
        if pairs is None:  # every pair
            b, c = np.divmod(np.arange(q * q), q)
        else:
            b, c = rng.integers(0, q, (2, pairs))
        codes = _modp.difference_codes(p, n)
        assert codes.plus.dtype == codes.minus.dtype == np.intp
        if p == 2:  # each index is its own word, and combining is XOR
            assert codes.minus is codes.plus
            assert np.array_equal(codes.plus, np.arange(q))
            assert codes.combine is np.bitwise_xor
        else:
            # the words fill exactly n_groups bit fields, and the largest sum
            # of two words in a field, the last index of that group's table,
            # keeps each table within GROUP_TABLE_BOUND entries
            bits = int(codes.plus.max()).bit_length()
            assert _modp.GROUP_BITS * (n_groups - 1) < bits <= _modp.GROUP_BITS * n_groups
            mask = (1 << _modp.GROUP_BITS) - 1
            for shift in range(0, bits, _modp.GROUP_BITS):
                top = sum(int((words >> shift & mask).max()) for words in (codes.plus, codes.minus))
                assert top < _modp.GROUP_TABLE_BOUND
        got = codes.combine(codes.plus[b], codes.minus[c])
        assert got.dtype == np.intp
        assert np.array_equal(got, _digit_sum(b, c, p, n, -1))
        got = codes.combine(codes.plus[b], codes.plus[c])
        assert np.array_equal(got, _digit_sum(b, c, p, n, 1))


def test_add_sub_indices_on_two_group_point_spaces():
    # F_3**12 and F_5**8 split into two digit groups; a scalar operand
    # broadcasts, as a shift does in delta_table
    rng = np.random.default_rng(5)
    for p, n in ((3, 12), (5, 8)):
        q = p**n
        assert int(_modp.difference_codes(p, n).plus.max()) >> _modp.GROUP_BITS
        a, b = rng.integers(0, q, (2, 10**4))
        for sign, op in ((1, _modp.add_indices), (-1, _modp.sub_indices)):
            assert np.array_equal(op(a, b, p, n), _digit_sum(a, b, p, n, sign))
            shift = int(b[0])
            assert np.array_equal(op(a, shift, p, n), _digit_sum(a, np.full_like(a, shift), p, n, sign))
