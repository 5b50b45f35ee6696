"""Dense mod-p digit arithmetic on index arrays, plus tiny mod-p linear algebra.

An integer in [0, p**n) encodes a length-n vector of base-p digits, little
endian (digit j has weight p**j).  Every dense table operation in the package
reduces to componentwise mod-p arithmetic on arrays of such indices, so the
helpers here work directly on numpy int64 arrays and never materialize Python
objects.  The PN scan and the decomposition walk do no digit arithmetic per
shift: they share the carry-free codes of `difference_codes`.
"""

from __future__ import annotations

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


def apply_linear(a, matrix: np.ndarray, p: int):
    """Apply an (n_out, n_in) mod-p matrix to the digit vectors of `a`."""
    m = np.asarray(matrix, dtype=np.int64)
    d = digits_of(a, p, m.shape[1])
    return index_of_digits((d @ m.T) % p, p)


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


@lru_cache(maxsize=4)  # over F_2**20 one field's codes take about 20 MB
def difference_codes(p: int, ell: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Carry-free codes for b - c and b + c on the element indices of
    F_p**ell: one (plus, minus, fold) triple per group of value digits.

    A group's digits are written in radix r = 2p - 1: plus[b] holds the
    digits of b and minus[c] those of -c, so every digit of
    plus[b] + minus[c] or plus[b] + plus[c] is at most 2p - 2 and the sum
    never carries.  fold of such a sum is the group's share of the index of
    b - c or b + c, and that index is the sum of the shares.
    """
    r, q = 2 * p - 1, p**ell
    width = 1
    while width < ell and r ** (width + 1) <= GROUP_TABLE_BOUND:
        width += 1
    elements = np.arange(q, dtype=np.int32)
    groups = []
    for start in range(0, ell, width):
        size = min(width, ell - start)
        plus = np.zeros(q, dtype=np.int32)
        minus = np.zeros(q, dtype=np.int32)
        sums = np.arange(r**size, dtype=np.intp)
        fold = np.zeros(r**size, dtype=np.intp)
        for j in range(size):
            digit = elements // p ** (start + j) % p
            plus += digit * r**j
            minus += (p - digit) % p * r**j
            fold += sums // r**j % r % p * p ** (start + j)
        for table in (plus, minus, fold):
            table.setflags(write=False)
        groups.append((plus, minus, fold))
    return tuple(groups)


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
