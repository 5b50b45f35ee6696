"""Dense mod-p digit arithmetic on index arrays, plus tiny mod-p linear algebra.

An integer in [0, p**n) encodes a length-n vector of base-p digits, little
endian (digit j has weight p**j).  Every dense table operation in the package
reduces to componentwise mod-p arithmetic on arrays of such indices, so the
helpers here work directly on numpy int64 arrays and never materialize Python
objects.  Every sum or difference of indices combines the code words that
the encoders of `difference_codes`, the one owner of their format, give:
`add_indices` and `sub_indices` encode two operands, and the PN scan, the
decomposition walk and the distance-1 sweep encode their values once and
combine words per shift.  The one exception, `shift_walk`'s unit step
x -> x + p**j, is the index range with digit j's axis rolled by one.
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


def residue_product(a, b, p: int) -> np.ndarray:
    """a @ b mod p for arrays of residues mod p: one float64 BLAS product,
    exact since its entries are integers at most n*(p-1)**2 for inner length
    n, reduced in the narrowest unsigned type that holds that bound."""
    s = np.matmul(a, b, dtype=np.float64)  # casts both operands contiguous
    s = s.astype(np.min_scalar_type(np.shape(b)[0] * (p - 1) ** 2))
    s -= s // p * p
    return s


def add_indices(a, b, p: int, n: int):
    codes = difference_codes(p, n)
    return codes.combine(codes.plus(a), codes.plus(b))


def sub_indices(a, b, p: int, n: int):
    codes = difference_codes(p, n)
    return codes.combine(codes.plus(a), codes.minus(b))


def shift_walk(p: int, n: int):
    """Yield (a, j, before, after) for a = 1, ..., p**n - 1 in index order:
    j is the digit that goes up at a (its trailing base-p zeros), before[x]
    the index of x + a - p**j and after[x] that of x + a.  Like an odometer,
    level[j] is the translation by a - p**j, the last shift with no nonzero
    digit below j, and each shift gathers through units[j], built on first use."""
    idx = np.arange(p**n, dtype=np.intp)
    units = [None] * n
    level = [idx] * n
    for a in range(1, p**n):
        j, rest = 0, a
        while rest % p == 0:
            j, rest = j + 1, rest // p
        if units[j] is None:
            units[j] = np.roll(idx.reshape(-1, p, p**j), -1, axis=1).ravel()
        before = level[j]
        level[: j + 1] = [units[j][before]] * (j + 1)
        yield a, j, before, level[0]


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

# plus(b) and minus(c) encode index arrays as code words; combine(plus(b),
# minus(c)) and combine(plus(b), plus(c)) are the indices of b - c and b + c
DifferenceCodes = namedtuple("DifferenceCodes", "plus minus combine")


def _xor(b, c) -> np.ndarray:  # XOR sets no bit above its operands': unsigned ones keep their type
    return np.bitwise_xor(b, c, dtype=None if b.dtype.kind == c.dtype.kind == "u" else np.int64)


@lru_cache(maxsize=4)  # an odd-p space at the cap holds at most about 20 MB of words; p = 2 none
def difference_codes(p: int, n: int) -> DifferenceCodes:
    """Carry-free code words for b - c and b + c on the indices of F_p**n.

    plus and minus encode index arrays.  For p = 2 each index is its own
    word: both are `np.asarray` (no copy, no table), -c = c, and combine is
    XOR.  For odd p they gather intp words with one bit field per group of
    digits, in radix r = 2p - 1: plus(b) holds the digits of b and minus(c)
    those of -c, so no digit of plus(b) + minus(c) or plus(b) + plus(c)
    passes 2p - 2 and the sum never carries.  combine adds two words, maps
    each field through its group's table to that group's share of the index
    (intp) and adds the shares; with one group it is a single gather.
    """
    if p == 2:
        return DifferenceCodes(np.asarray, np.asarray, _xor)
    r, q = 2 * p - 1, p**n
    width = 1
    while width < n and r ** (width + 1) <= GROUP_TABLE_BOUND:
        width += 1
    elements = np.arange(q, dtype=np.intp)
    plus = np.zeros(q, dtype=np.intp)
    minus = np.zeros(q, dtype=np.intp)
    tables = []
    for start in range(0, n, width):
        size = min(width, n - start)
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
        table = tables[0][1]
        return DifferenceCodes(plus.__getitem__, minus.__getitem__, lambda b, c: table[b + c])
    mask = (1 << GROUP_BITS) - 1

    def combine(b: np.ndarray, c: np.ndarray) -> np.ndarray:
        words = b + c
        return sum(table[words >> shift & mask] for shift, table in tables)

    return DifferenceCodes(plus.__getitem__, minus.__getitem__, combine)
