"""Vectors in F_q**d: the input space of the function tables.

A point is a d-tuple of field elements.  Its index is little endian over
coordinates (coordinate 0 varies fastest), which makes a point index the
base-p expansion of its d*ell prime-field digits.  All dense table code
relies on that identification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import _modp
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    NotABasis,
    UnsupportedSize,
)
from .field import FieldElement, FieldParams

# Desk scale: exhaustive checks (basis round trips, spec re-evaluation,
# catalog expectations, the decomposition certificate) run only on spaces
# with at most this many points.
DESK_SCALE_POINTS = 4096
MAX_POINTS = 1 << 20


def _past_cap(q: int, d: int) -> bool:
    """q**d > MAX_POINTS; q >= 2, so every d > 20 is past it, and q**d is
    never computed at a huge d."""
    return d >= MAX_POINTS.bit_length() or q**d > MAX_POINTS


def _refuse_past_cap(q: int, d: int) -> None:
    """Raise UnsupportedSize for q**d > MAX_POINTS points, before any is built."""
    if _past_cap(q, d):
        n = q**d if d <= 64 else f"{q}**{d}"  # a huge d is named, not written out
        raise UnsupportedSize(f"{n} points exceeds the supported {MAX_POINTS}")


@dataclass(frozen=True)
class PointVector:
    """Immutable point of F_q**d."""

    params: FieldParams
    coords: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        for c in self.coords:
            if c.params != self.params:
                raise FieldMismatch("coordinate from a different field")
        if not self.coords:
            raise DimensionMismatch("points need at least one coordinate")

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def index(self) -> int:
        q = self.params.q
        return sum(c.index * q**j for j, c in enumerate(self.coords))

    @classmethod
    def from_index(cls, params: FieldParams, d: int, i: int) -> "PointVector":
        i = int(i)
        _refuse_past_cap(params.q, d)
        if not 0 <= i < params.q**d:
            raise IndexOutOfRange(f"point index {i} outside [0, {params.q ** d})")
        q = params.q
        return cls(params, tuple(params.from_index((i // q**j) % q) for j in range(d)))

    @classmethod
    def zero(cls, params: FieldParams, d: int) -> "PointVector":
        return cls(params, (params.zero(),) * d)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def _check(self, other: object) -> "PointVector":
        if not isinstance(other, PointVector):
            raise TypeError(f"expected PointVector, got {type(other).__name__}")
        if other.params != self.params:
            raise FieldMismatch("points over different fields")
        if other.d != self.d:
            raise DimensionMismatch(f"dimension {other.d} != {self.d}")
        return other

    def __add__(self, other: "PointVector") -> "PointVector":
        other = self._check(other)
        return PointVector(
            self.params, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "PointVector":
        return PointVector(self.params, tuple(-a for a in self.coords))

    def __sub__(self, other: "PointVector") -> "PointVector":
        return self + (-self._check(other))

    def scale(self, k: int) -> "PointVector":
        """Prime-field scalar multiple k * self."""
        return PointVector(self.params, tuple(c.scale(k) for c in self.coords))

    def dot(self, other: "PointVector") -> FieldElement:
        other = self._check(other)
        acc = self.params.zero()
        for a, b in zip(self.coords, other.coords):
            acc = acc + a * b
        return acc

    def __repr__(self) -> str:
        return f"PointVector({', '.join(repr(c) for c in self.coords)})"


def dot(x: PointVector, m: PointVector) -> FieldElement:
    """Bilinear form x . m = sum of coordinatewise products."""
    return x.dot(m)


def all_points(params: FieldParams, d: int) -> Iterator[PointVector]:
    for i in range(params.q**d):
        yield PointVector.from_index(params, d, i)


@dataclass(frozen=True)
class SpaceBasis:
    """An F_p-basis of F_q**d, with digit decomposition against it.

    Construction validates invertibility of the digit matrix; at desk scale
    (q**d <= 4096) it additionally round-trips every point through
    decompose/recompose.
    """

    params: FieldParams
    d: int
    vectors: tuple[PointVector, ...]

    def __post_init__(self) -> None:
        n = self.d * self.params.ell
        if len(self.vectors) != n:
            raise NotABasis(f"need exactly {n} vectors, got {len(self.vectors)}")
        for v in self.vectors:
            if v.params != self.params:
                raise FieldMismatch("basis vector over a different field")
            if v.d != self.d:
                raise DimensionMismatch("basis vector of wrong dimension")
        if self._inverse_matrix is None:
            raise NotABasis("vectors are linearly dependent over F_p")
        size = self.params.q**self.d
        if size <= DESK_SCALE_POINTS:
            idx = np.arange(size)
            digits = self.decompose_indices(idx)
            back = _modp.index_of_digits(
                (digits @ np.asarray(self.matrix).T) % self.params.p, self.params.p
            )
            if not np.array_equal(back, idx):
                raise NotABasis("decomposition failed to round-trip")

    @property
    def n(self) -> int:
        return self.d * self.params.ell

    @cached_property
    def matrix(self) -> np.ndarray:
        """Columns are the prime-field digit vectors of the basis points."""
        p, n = self.params.p, self.n
        cols = _modp.digits_of([v.index for v in self.vectors], p, n)
        m = cols.T.copy()
        m.setflags(write=False)
        return m

    @cached_property
    def _inverse_matrix(self) -> np.ndarray | None:
        return _modp.invert_matrix(np.array(self.matrix), self.params.p)

    def decompose(self, a: PointVector) -> tuple[int, ...]:
        """Digits k with a = sum k_i * vectors[i], each in [0, p)."""
        if a.params != self.params:
            raise FieldMismatch("point over a different field")
        if a.d != self.d:
            raise DimensionMismatch(f"dimension {a.d} != {self.d}")
        digits = self.decompose_indices(np.array([a.index]))[0]
        return tuple(int(k) for k in digits)

    def decompose_indices(self, indices) -> np.ndarray:
        """Vectorized decompose: digit matrix of shape (..., n)."""
        p = self.params.p
        d = _modp.digits_of(indices, p, self.n)
        return (d @ self._inverse_matrix.T) % p

    def recompose(self, digits: Sequence[int]) -> PointVector:
        if len(digits) != self.n:
            raise ValueError(f"need exactly {self.n} digits")
        acc = PointVector.zero(self.params, self.d)
        for k, v in zip(digits, self.vectors):
            if int(k) % self.params.p:
                acc = acc + v.scale(int(k))
        return acc


def standard_basis(params: FieldParams, d: int) -> SpaceBasis:
    """Vectors t**i * e_j, ordered coordinate-major to match point indexing."""
    _refuse_past_cap(params.q, d)  # d*ell vectors of d coordinates each
    vectors = []
    zero = params.zero()
    for j in range(d):
        for i in range(params.ell):
            coords = [zero] * d
            coords[j] = params.from_index(params.p**i)
            vectors.append(PointVector(params, tuple(coords)))
    return SpaceBasis(params, d, tuple(vectors))


def decompose_over_fp(a: PointVector, basis: SpaceBasis) -> tuple[int, ...]:
    return basis.decompose(a)


# ---------------------------------------------------------------------------
# Vectorized point arithmetic on index arrays.


def vec_point_add(params: FieldParams, d: int, a, b) -> np.ndarray:
    return _modp.add_indices(a, b, params.p, d * params.ell)
