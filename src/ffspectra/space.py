"""Vectors in F_q**d: the input space of the function tables.

A point is a d-tuple of field elements.  Its index is little endian over
coordinates (coordinate 0 varies fastest), which makes a point index the
base-p expansion of its d*ell prime-field digits.  All dense table code
relies on that identification.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _modp
from .errors import DimensionMismatch, FieldMismatch, NotABasis, UnsupportedSize
from .field import MAX_Q, FieldElement, FieldParams, _checked_index, _past_cap

# Desk scale: exhaustive checks (basis round trips, spec re-evaluation,
# catalog expectations, the decomposition certificate) run only on spaces
# with at most this many points.
DESK_SCALE_POINTS = 4096
MAX_POINTS = MAX_Q  # point counts and field sizes share the cap that _past_cap reads


def _refuse_past_cap(q: int, d: int) -> int:
    """d as an int; raise DimensionMismatch for d < 1 and UnsupportedSize for
    q**d > MAX_POINTS points, before any is built.  A float d is refused."""
    d = operator.index(d)
    if d < 1:
        raise DimensionMismatch("dimension must be >= 1")
    if _past_cap(q, d):
        n = q**d if d <= 64 else f"{q}**{d}"  # a huge d is named, not written out
        raise UnsupportedSize(f"{n} points exceeds the supported {MAX_POINTS}")
    return d


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
        _refuse_past_cap(params.q, d)
        i, q = _checked_index(i, params.q**d, "point"), params.q
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
        object.__setattr__(self, "d", _refuse_past_cap(self.params.q, self.d))
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
            if operator.index(k) % self.params.p:  # a float digit is refused, never truncated
                acc = acc + v.scale(k)
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


@dataclass(frozen=True)
class FpBasis:
    """An F_p-basis of F_q: the one-coordinate SpaceBasis of its elements."""

    params: FieldParams
    elements: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        # each point keeps its element's field, so SpaceBasis refuses a foreign one
        points = tuple(PointVector(e.params, (e,)) for e in self.elements)
        object.__setattr__(self, "_space", SpaceBasis(self.params, 1, points))

    @property
    def matrix(self) -> np.ndarray:
        """Columns are the coefficient vectors of the basis elements."""
        return self._space.matrix

    def decompose(self, a: FieldElement) -> tuple[int, ...]:
        if a.params != self.params:
            raise FieldMismatch("element from a different field")
        return tuple(int(k) for k in self._space.decompose_indices(np.array([a.index]))[0])

    def combine(self, digits: Sequence[int]) -> FieldElement:
        return self._space.recompose(digits).coords[0]


def standard_fp_basis(params: FieldParams) -> FpBasis:
    """The polynomial basis 1, t, ..., t**(ell-1)."""
    return FpBasis(params, tuple(params.from_index(params.p**j) for j in range(params.ell)))


def decompose_over_fp(a: PointVector, basis: SpaceBasis) -> tuple[int, ...]:
    return basis.decompose(a)


# ---------------------------------------------------------------------------
# Vectorized point arithmetic on index arrays.


def vec_point_add(params: FieldParams, d: int, a, b) -> np.ndarray:
    return _modp.add_indices(a, b, params.p, d * params.ell)
