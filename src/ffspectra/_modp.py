"""Dense mod-p digit arithmetic on index arrays, plus tiny mod-p linear algebra.

An integer in [0, p**n) encodes a length-n vector of base-p digits, little
endian (digit j has weight p**j).  Every dense table operation in the package
reduces to componentwise mod-p arithmetic on arrays of such indices, so the
helpers here work directly on numpy int64 arrays and never materialize Python
objects.  The PN scan, the decomposition walk and the distance-1 sweep do no
digit arithmetic per shift: they encode values once as the carry-free code
words of `difference_codes` and fold sums of words back to element indices,
without knowing how the words split the digits.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np


def powers(p: int, n: int) -> np.ndarray:
    """[1, p, p**2, ..., p**(n-1)] as int64."""
    return p ** np.arange(n, dtype=np.int64)


def digits_of(indices, p: int, n: int) -> np.ndarray:
    """Base-p digit matrix, shape (..., n), little endian."""
    arr = np.asarray(indices, dtype=np.int64)
    return (arr[..., None] // powers(p, n)) % p


def index_of_digits(digits, p: int) -> np.ndarray:
    """Inverse of digits_of; digits must already be reduced mod p."""
    d = np.asarray(digits, dtype=np.int64)
    return d @ powers(p, d.shape[-1])


def add_indices(a, b, p: int, n: int):
    if p == 2:
        return np.bitwise_xor(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    return index_of_digits((digits_of(a, p, n) + digits_of(b, p, n)) % p, p)


def sub_indices(a, b, p: int, n: int):
    if p == 2:
        return np.bitwise_xor(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    return index_of_digits((digits_of(a, p, n) - digits_of(b, p, n)) % p, p)


def invert_matrix(matrix: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of a square matrix mod p via Gauss-Jordan, or None if singular."""
    m = np.asarray(matrix, dtype=np.int64) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if aug[r, col] % p:
                pivot = r
                break
        if pivot is None:
            return None
        aug[[row, pivot]] = aug[[pivot, row]]
        inv = pow(int(aug[row, col]), -1, p)
        aug[row] = (aug[row] * inv) % p
        for r in range(n):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[row]) % p
        row += 1
    return aug[:, n:]


# A digit group's reduction table holds at most this many entries; a group
# always takes at least one digit, so a prime above 2**19 gets 2p - 1.
GROUP_TABLE_BOUND = 1 << 20
GROUP_BITS = 21  # bits per group in a code word; a sum of two words stays below 2**21 in each

# plus[b] and minus[c] are intp code words; fold(plus[b] + minus[c]) and
# fold(plus[b] + plus[c]) are the element indices of b - c and b + c
DifferenceCodes = namedtuple("DifferenceCodes", "plus minus fold")


@lru_cache(maxsize=4)  # over F_2**20 one field's codes take about 20 MB
def difference_codes(p: int, ell: int) -> DifferenceCodes:
    """Carry-free code words for b - c and b + c on the element indices of
    F_p**ell.

    Each group of value digits fills its own bit field, in radix r = 2p - 1:
    plus[b] holds the digits of b and minus[c] those of -c, so every digit
    of plus[b] + minus[c] or plus[b] + plus[c] is at most 2p - 2 and the sum
    never carries.  fold maps each field through its group's table to that
    group's share of the index, as intp, and adds the shares; with one group
    it is a single gather.
    """
    r, q = 2 * p - 1, p**ell
    width = 1
    while width < ell and r ** (width + 1) <= GROUP_TABLE_BOUND:
        width += 1
    elements = np.arange(q, dtype=np.intp)
    plus = np.zeros(q, dtype=np.intp)
    minus = np.zeros(q, dtype=np.intp)
    tables = []
    for start in range(0, ell, width):
        size = min(width, ell - start)
        shift = GROUP_BITS * len(tables)
        sums = np.arange(r**size, dtype=np.intp)
        table = np.zeros(r**size, dtype=np.intp)
        for j in range(size):
            digit = elements // p ** (start + j) % p
            plus += digit * r**j << shift
            minus += (p - digit) % p * r**j << shift
            table += sums // r**j % r % p * p ** (start + j)
        tables.append((shift, table))
    for array in (plus, minus, *(table for _, table in tables)):
        array.setflags(write=False)
    if len(tables) == 1:
        return DifferenceCodes(plus, minus, tables[0][1].__getitem__)
    mask = (1 << GROUP_BITS) - 1

    def fold(words: np.ndarray) -> np.ndarray:
        return sum(table[words >> shift & mask] for shift, table in tables)

    return DifferenceCodes(plus, minus, fold)


@lru_cache(maxsize=32)  # a 2**20-point space has 20 digits
def unit_translation(p: int, n: int, j: int) -> np.ndarray:
    """x -> x + e_j on the indices of F_p**n: digit j of x goes up by one,
    and p - 1 wraps to 0."""
    idx = np.arange(p**n, dtype=np.intp)
    w = p**j
    out = idx + w
    out[idx // w % p == p - 1] -= p * w
    out.setflags(write=False)
    return out
