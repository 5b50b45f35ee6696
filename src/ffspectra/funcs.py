"""Dense function tables f: F_q**d -> F_q, their constructors and difference
operators, and the PN/planar primitives.

The dense table is the single source of truth: polynomial and monomial specs
are constructors only, and every property test reduces to table arithmetic.
Values are stored as an immutable int64 array of element indices in point
index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _modp, field as field_mod, space
from .errors import (
    BadTableFile,
    DimensionMismatch,
    FFSpectraError,
    FieldMismatch,
    SpecDimensionMismatch,
    UnsupportedSize,
)
from .field import FieldElement, FieldParams, make_field
from .space import PointVector

MAX_POINTS = 1 << 20


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FnTable:
    """A function F_q**d -> F_q as a dense table of element indices."""

    params: FieldParams
    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DimensionMismatch("dimension must be >= 1")
        n = self.params.q**self.d
        if n > MAX_POINTS:
            raise UnsupportedSize(f"{n} points exceeds the supported {MAX_POINTS}")
        arr = _freeze(self.values)
        if arr.shape != (n,):
            raise ValueError(f"table must have exactly {n} values")
        if arr.size and (arr.min() < 0 or arr.max() >= self.params.q):
            raise ValueError("table values must be element indices in [0, q)")
        object.__setattr__(self, "values", arr)

    @property
    def n_points(self) -> int:
        return self.params.q**self.d

    def value_index(self, i: int) -> int:
        return int(self.values[i])

    def value_at(self, x: PointVector) -> FieldElement:
        if x.params != self.params or x.d != self.d:
            raise FieldMismatch("point incompatible with this table")
        return self.params.from_index(int(self.values[x.index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FnTable):
            return NotImplemented
        return (
            self.params == other.params
            and self.d == other.d
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"FnTable(q={self.params.q}, d={self.d}, {self.n_points} points)"


@dataclass(frozen=True)
class FnSpec:
    """Recipe for a table: raw values, a univariate polynomial, a sparse
    monomial list, or a catalog reference."""

    kind: str
    coeffs: tuple[int, ...] = ()
    monomials: tuple[tuple[int, tuple[int, ...]], ...] = ()
    table: tuple[int, ...] = ()
    name: str = ""
    args: tuple[tuple[str, int], ...] = ()

    @classmethod
    def univariate(cls, coeffs: Sequence[int]) -> "FnSpec":
        """Polynomial sum coeffs[k] * x**k with coefficients as element indices."""
        return cls(kind="univariate", coeffs=tuple(int(c) for c in coeffs))

    @classmethod
    def from_monomials(
        cls, terms: Sequence[tuple[int, Sequence[int]]]
    ) -> "FnSpec":
        """Sparse sum of c * prod x_i**e_i terms; c an element index."""
        packed = tuple(
            (int(c), tuple(int(e) for e in exps)) for c, exps in terms
        )
        return cls(kind="monomials", monomials=packed)

    @classmethod
    def raw(cls, values: Sequence[int]) -> "FnSpec":
        return cls(kind="table", table=tuple(int(v) for v in values))

    @classmethod
    def catalog(cls, name: str, **args: int) -> "FnSpec":
        return cls(kind="catalog", name=name, args=tuple(sorted(args.items())))


def _vec_pow(params: FieldParams, base: np.ndarray, e: int) -> np.ndarray:
    out = np.full(base.shape, params.one().index, dtype=np.int64)
    acc = base
    e = int(e)
    while e:
        if e & 1:
            out = field_mod.vec_mul(params, out, acc)
        acc = field_mod.vec_mul(params, acc, acc)
        e >>= 1
    return out


def _eval_monomials(
    params: FieldParams, d: int, terms, coords: list[np.ndarray]
) -> np.ndarray:
    n = coords[0].shape[0]
    acc = np.zeros(n, dtype=np.int64)
    for c, exps in terms:
        if len(exps) != d:
            raise SpecDimensionMismatch(
                f"exponent vector of length {len(exps)} in dimension {d}"
            )
        if any(int(e) < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        term = np.full(n, params.one().index, dtype=np.int64)
        for xi, e in zip(coords, exps):
            if int(e):
                term = field_mod.vec_mul(params, term, _vec_pow(params, xi, e))
        if int(c) != params.one().index:
            term = field_mod.vec_mul(params, term, np.int64(int(c)))
        acc = field_mod.vec_add(params, acc, term)
    return acc


def _point_coords(params: FieldParams, d: int) -> list[np.ndarray]:
    """Coordinate j of every point index, as element-index arrays."""
    idx = np.arange(params.q**d, dtype=np.int64)
    q = params.q
    return [(idx // q**j) % q for j in range(d)]


def _spot_check(table: "FnTable", spec: FnSpec) -> None:
    """Re-evaluate the spec pointwise with field elements; desk scale only."""
    params, d = table.params, table.d
    if table.n_points > space.DESK_SCALE_POINTS:
        return
    for i in range(table.n_points):
        x = PointVector.from_index(params, d, i)
        acc = params.zero()
        for c, exps in spec.monomials:
            term = params.from_index(c)
            for xi, e in zip(x.coords, exps):
                term = term * xi**int(e)
            acc = acc + term
        if acc.index != table.value_index(i):
            raise AssertionError(
                f"spec evaluation mismatch at point {i}: table disagrees with direct evaluation"
            )


def build_function(spec: FnSpec, params: FieldParams, d: int) -> FnTable:
    """Materialize a dense table from a spec; evaluation is re-checked
    pointwise at desk scale."""
    if spec.kind == "univariate":
        if d != 1:
            raise SpecDimensionMismatch("univariate specs require d = 1")
        spec = FnSpec.from_monomials([(c, (k,)) for k, c in enumerate(spec.coeffs) if c])
    if spec.kind == "monomials":
        coords = _point_coords(params, d)
        table = FnTable(params, d, _eval_monomials(params, d, spec.monomials, coords))
        _spot_check(table, spec)
        return table
    if spec.kind == "table":
        return FnTable(params, d, np.array(spec.table, dtype=np.int64))
    if spec.kind == "catalog":
        from . import catalog  # deferred: catalog builds on this module

        return catalog.get_function(spec.name, params, d=d, **dict(spec.args))
    raise ValueError(f"unknown spec kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Difference operators and the PN test.


def delta_table(f: FnTable, a: PointVector) -> FnTable:
    """Table of the difference operator x -> f(x+a) - f(x)."""
    if a.params != f.params or a.d != f.d:
        raise FieldMismatch("shift incompatible with this table")
    idx = np.arange(f.n_points, dtype=np.int64)
    shifted = space.vec_point_add(f.params, f.d, idx, np.int64(a.index))
    return FnTable(f.params, f.d, field_mod.vec_sub(f.params, f.values[shifted], f.values))


@dataclass(frozen=True)
class PnWitness:
    """Least failing (shift, value): the count of preimages exceeds q**(d-1)."""

    a: PointVector
    value: FieldElement
    count: int


@dataclass(frozen=True)
class PnVerdict:
    is_pn: bool
    witness: PnWitness | None

    @property
    def verdict(self) -> str:
        return "pn" if self.is_pn else "not_pn"


def _pn_scan(params: FieldParams, d: int, values: np.ndarray) -> PnWitness | None:
    """Least failing (a, v, count) over the nonzero shifts a in index order:
    the first shift whose value counts are not all q**(d-1), and its first
    over-hit value; None when every shift passes.

    The shifts are counted like an odometer over the base-p digits of a:
    level[j][x] is the index of x + (a with its digits below j cleared), so
    each shift is one gather through the translation by the digit that went
    up.  The value digits are built once; f(x + a) - f(x) is a gather and
    a subtraction on them (an XOR of the value indices when p = 2).
    """
    p, q, n = params.p, params.q, values.shape[0]
    expected = n // q
    idx = np.arange(n, dtype=np.int64)
    weights = _modp.powers(p, d * params.ell)
    # x -> x + e_j: digit j of x goes up by one, and p - 1 wraps to 0
    plus = [np.where(idx // w % p == p - 1, idx - (p - 1) * w, idx + w) for w in weights]
    level = [idx] * len(plus)
    value_digits = _modp.digits_of(values, p, params.ell)
    value_weights = _modp.powers(p, params.ell)
    for a_index in range(1, n):
        j, rest = 0, a_index
        while rest % p == 0:
            j, rest = j + 1, rest // p
        level[: j + 1] = [plus[j][level[j]]] * (j + 1)
        if p == 2:  # digit-wise subtraction mod 2 is XOR of the indices
            delta = values[level[0]] ^ values
        else:
            delta = ((value_digits[level[0]] - value_digits) % p) @ value_weights
        counts = np.bincount(delta, minlength=q)
        if not np.all(counts == expected):
            v = int(np.nonzero(counts > expected)[0][0])
            return PnWitness(
                PointVector.from_index(params, d, a_index), params.from_index(v), int(counts[v])
            )
    return None


def is_pn(f: FnTable) -> PnVerdict:
    """Exhaustive perfect-nonlinearity test over all nonzero shifts.

    The witness is the least (index(a), index(v)) whose preimage count under
    the difference operator exceeds the required q**(d-1).
    """
    witness = _pn_scan(f.params, f.d, f.values)
    return PnVerdict(witness is None, witness)


def hamming_distance(f: FnTable, g: FnTable) -> int:
    """Number of points where the two tables disagree."""
    if f.params != g.params or f.d != g.d:
        raise FieldMismatch("tables over different spaces")
    return int(np.count_nonzero(f.values != g.values))


def image_size(f: FnTable) -> int:
    return int(np.unique(f.values).size)


def translate(f: FnTable, s: PointVector, t: FieldElement) -> FnTable:
    """Table of x -> f(x+s) + t."""
    if s.params != f.params or s.d != f.d:
        raise FieldMismatch("shift incompatible with this table")
    if t.params != f.params:
        raise FieldMismatch("offset from a different field")
    idx = np.arange(f.n_points, dtype=np.int64)
    shifted = space.vec_point_add(f.params, f.d, idx, np.int64(s.index))
    vals = field_mod.vec_add(f.params, f.values[shifted], np.int64(t.index))
    return FnTable(f.params, f.d, vals)


# ---------------------------------------------------------------------------
# Canonical text serialization.
#
# Line 1: "p ell d"; line 2: the ell+1 modulus coefficients, little endian;
# line 3: the q**d element indices in point-index order.  Single spaces,
# every line newline-terminated.


def dump_table(f: FnTable) -> str:
    head = f"{f.params.p} {f.params.ell} {f.d}\n"
    mod = " ".join(str(c) for c in f.params.modulus) + "\n"
    body = " ".join(str(int(v)) for v in f.values) + "\n"
    return head + mod + body


def save_table(f: FnTable, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(dump_table(f))


def parse_table(text: str) -> FnTable:
    lines = text.splitlines()
    if len(lines) < 3:
        raise BadTableFile("expected three lines: header, modulus, values")
    try:
        p, ell, d = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise BadTableFile(f"bad header line: {lines[0]!r}") from exc
    try:
        modulus = [int(tok) for tok in lines[1].split()]
        values = [int(tok) for chunk in lines[2:] for tok in chunk.split()]
    except ValueError as exc:
        raise BadTableFile("non-integer token in table file") from exc
    if len(modulus) != ell + 1:
        raise BadTableFile(f"expected {ell + 1} modulus coefficients")
    try:
        params = make_field(p, ell, modulus)
        if len(values) != params.q**d:
            raise BadTableFile(
                f"expected {params.q ** d} values, got {len(values)}"
            )
        return FnTable(params, d, np.array(values, dtype=np.int64))
    except BadTableFile:
        raise
    except (FFSpectraError, ValueError) as exc:
        raise BadTableFile(f"invalid table file: {exc}") from exc


def load_table(path) -> FnTable:
    with open(path, "r", encoding="ascii") as fh:
        return parse_table(fh.read())
