"""Dense mod-p digit arithmetic on index arrays, plus tiny mod-p linear algebra.

An integer in [0, p**n) encodes a length-n vector of base-p digits, little
endian (digit j has weight p**j).  Every dense table operation in the package
reduces to componentwise mod-p arithmetic on arrays of such indices, so the
helpers here work directly on numpy int64 arrays and never materialize Python
objects.
"""

from __future__ import annotations

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


def scale_indices(a, k: int, p: int, n: int):
    """Multiply every digit by the integer scalar k mod p."""
    return index_of_digits((digits_of(a, p, n) * (k % p)) % p, p)


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
