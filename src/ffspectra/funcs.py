"""Dense function tables f: F_q**d -> F_q, their constructors and difference
operators, and the PN/planar primitives.

The dense table is the single source of truth: polynomial and monomial specs
are constructors only, and every property test reduces to table arithmetic.
Values are stored as an immutable int64 array of element indices in point
index order.  The PN scan reads f(x + a) - f(x) through the carry-free code
words of `_modp`, which the decomposition walk and the sweep share.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import _modp, field as field_mod, space
from .errors import (
    BadTableFile,
    DimensionMismatch,
    FFSpectraError,
    FieldMismatch,
    IndexOutOfRange,
    SpecDimensionMismatch,
)
from .field import FieldElement, FieldParams, make_field
from .space import MAX_POINTS, PointVector, _refuse_past_cap


@dataclass(frozen=True, eq=False)
class FnTable:
    """A function F_q**d -> F_q as a dense table of element indices."""

    params: FieldParams
    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DimensionMismatch("dimension must be >= 1")
        _refuse_past_cap(self.params.q, self.d)
        n = self.params.q**self.d
        arr = np.array(self.values, dtype=np.int64)
        if arr.shape != (n,):
            raise ValueError(f"table must have exactly {n} values")
        if arr.size and (arr.min() < 0 or arr.max() >= self.params.q):
            raise ValueError("table values must be element indices in [0, q)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_points(self) -> int:
        return self.params.q**self.d

    @cached_property
    def _pn_witness(self) -> "PnWitness | None":
        """The PN scan of these frozen values, made at most once per table:
        a catalog load check and the command after it share it."""
        return _pn_scan(self.params, self.d, self.values)

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
    """base**e for e >= 1 by squaring: the product starts at the lowest set
    bit of e, so it never multiplies by one, and the top square is skipped."""
    out = None
    e = int(e)
    while True:
        if e & 1:
            out = base if out is None else field_mod.vec_mul(params, out, base)
        e >>= 1
        if not e:
            return out
        base = field_mod.vec_mul(params, base, base)


def _eval_monomials(params: FieldParams, d: int, terms) -> np.ndarray:
    """Sum of the terms over every point, on the (q,)*d grid whose axis
    d-1-j is x_j.  Each coordinate is a q-entry view along its own axis, so
    powers take q entries and a term or the sum grows to the grid only by
    broadcasting where its factors meet; build_function has refused q**d past the cap."""
    q = params.q
    acc = np.zeros((1,) * d, dtype=np.int64)
    for c, exps in terms:
        if len(exps) != d:
            raise SpecDimensionMismatch(
                f"exponent vector of length {len(exps)} in dimension {d}"
            )
        if any(int(e) < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        if not 0 <= int(c) < params.q:
            raise IndexOutOfRange(f"element index {c} outside [0, {params.q})")
        term = None  # the product of the factors x_j**e_j, from the first one on
        for j, e in enumerate(exps):
            if int(e):
                power = _vec_pow(params, np.arange(q, dtype=np.int64).reshape((q,) + (1,) * j), e)
                term = power if term is None else field_mod.vec_mul(params, term, power)
        if term is None:
            term = np.int64(int(c))
        elif int(c) != params.one().index:
            term = field_mod.vec_mul(params, term, np.int64(int(c)))
        acc = field_mod.vec_add(params, acc, term)
    return np.broadcast_to(acc, (q,) * d).ravel()


def _point_coord(params: FieldParams, d: int, j: int) -> np.ndarray:
    """Coordinate j of every point index, as an element-index array."""
    q = params.q
    axes = np.arange(q, dtype=np.int64).reshape(q, 1)
    return np.broadcast_to(axes, (q ** (d - 1 - j), q, q**j)).ravel()


@lru_cache(maxsize=16)
def _log_tables(params: FieldParams) -> tuple[np.ndarray, np.ndarray]:
    """log and antilog of a generator g of F_q^*, built from FieldElement
    products only: an order test by powers, then q - 1 products."""
    order = params.q - 1  # q <= 4096 at desk scale
    primes = [r for r in range(2, order + 1) if order % r == 0 and field_mod._is_prime(r)]
    one = params.one()
    g = next(
        x for x in params.elements()
        if not x.is_zero() and all(x ** (order // r) != one for r in primes)
    )
    antilog = np.zeros(order, dtype=np.int64)
    x = one
    for k in range(order):
        antilog[k] = x.index
        x = x * g
    log = np.zeros(params.q, dtype=np.int64)  # log[0] is masked by the caller
    log[antilog] = np.arange(order)
    log.setflags(write=False)
    antilog.setflags(write=False)
    return log, antilog


def _spot_check(table: "FnTable", spec: FnSpec) -> None:
    """Re-evaluate the spec in the log domain of a generator, away from
    vec_mul and vec_add; desk scale only."""
    params, d = table.params, table.d
    if table.n_points > space.DESK_SCALE_POINTS:
        return
    log, antilog = _log_tables(params)
    order = params.q - 1
    coords = [_point_coord(params, d, j) for j in range(d)]
    acc = np.zeros(table.n_points, dtype=np.int64)
    for c, exps in spec.monomials:
        exponent = np.full(table.n_points, log[c])
        nonzero = np.full(table.n_points, c != 0)
        for xi, e in zip(coords, exps):
            if e:  # x**0 = 1, also at x = 0
                exponent += int(e) % order * log[xi]
                nonzero &= xi != 0
        term = np.where(nonzero, antilog[exponent % order], 0)
        acc = _modp.add_indices(acc, term, params.p, params.ell)
    wrong = np.flatnonzero(acc != table.values)
    if wrong.size:
        raise AssertionError(
            f"spec evaluation mismatch at point {int(wrong[0])}: table disagrees with direct evaluation"
        )


def build_function(spec: FnSpec, params: FieldParams, d: int) -> FnTable:
    """Materialize a dense table from a spec; at desk scale the evaluation
    is re-checked through the log tables of a generator.  A d past the cap
    is refused before anything is built."""
    _refuse_past_cap(params.q, d)
    if spec.kind == "univariate":
        if d != 1:
            raise SpecDimensionMismatch("univariate specs require d = 1")
        spec = FnSpec.from_monomials([(c, (k,)) for k, c in enumerate(spec.coeffs) if c])
    if spec.kind == "monomials":
        table = FnTable(params, d, _eval_monomials(params, d, spec.monomials))
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
    each shift is one gather through the unit translation of the digit that
    went up.  The values are encoded once per call as the carry-free code
    words shared with the decomposition walk (`_modp.difference_codes`), so
    the index of f(x + a) - f(x) is one fold of a gathered sum, with no
    digit arithmetic per shift.
    """
    p, q, n = params.p, params.q, values.shape[0]
    expected = n // q
    digits = d * params.ell
    codes = _modp.difference_codes(p, params.ell)
    plus, minus = codes.plus[values], codes.minus[values]
    level = [np.arange(n, dtype=np.intp)] * digits
    for a_index in range(1, n):
        j, rest = 0, a_index
        while rest % p == 0:
            j, rest = j + 1, rest // p
        level[: j + 1] = [_modp.unit_translation(p, digits, j)[level[j]]] * (j + 1)
        delta = codes.fold(plus[level[0]] + minus)
        counts = np.bincount(delta, minlength=q)
        if counts.max() > expected:  # the counts sum to q * expected
            v = int(np.flatnonzero(counts > expected)[0])
            return PnWitness(
                PointVector.from_index(params, d, a_index), params.from_index(v), int(counts[v])
            )
    return None


def is_pn(f: FnTable) -> PnVerdict:
    """Exhaustive perfect-nonlinearity test over all nonzero shifts.

    The witness is the least (index(a), index(v)) whose preimage count under
    the difference operator exceeds the required q**(d-1).
    """
    witness = f._pn_witness
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
    # load_table reads a non-ASCII byte as a backslash escape; refuse what it refuses
    if not text.isascii():
        raise BadTableFile("table text is not ASCII")
    return _read_table(io.StringIO(text, newline=None))


def load_table(path) -> FnTable:
    # a non-ASCII byte reads as a backslash escape, which no header or token parses
    with open(path, "r", encoding="ascii", errors="backslashreplace") as fh:
        return _read_table(fh)


def _read_table(fh) -> FnTable:
    """The header and modulus lines, then the size check, then the values:
    a table past the cap is refused before its values are read."""
    header = fh.readline()
    try:
        p, ell, d = _tokens(header)
    except (BadTableFile, ValueError) as exc:
        raise BadTableFile(f"bad header line: {header.rstrip()!r}") from exc
    modulus = _tokens(fh.readline())
    if len(modulus) != ell + 1:
        raise BadTableFile(f"expected {ell + 1} modulus coefficients")
    try:
        params = make_field(p, ell, modulus)
        _refuse_past_cap(params.q, d)
        values = _tokens(fh.read())
        if len(values) != params.q**d:
            raise BadTableFile(f"expected {params.q ** d} values, got {len(values)}")
        return FnTable(params, d, np.array(values, dtype=np.int64))
    except BadTableFile:
        raise
    except (FFSpectraError, ValueError, OverflowError) as exc:  # a value past int64 overflows
        raise BadTableFile(f"invalid table file: {exc}") from exc


_DIGITS_AND_SEPARATORS = b"0123456789 \t\n\v\f\r"


def _tokens(text: str) -> list[int]:
    """The tokens between ASCII whitespace (space, tab, LF, VT, FF, CR), each
    a plain ASCII digit string.  str.split() would also split on the controls
    0x1c-0x1f and on non-ASCII spaces, and int() would also read '+1', '0_4'
    and non-ASCII digits; bytes.split() splits on exactly these six bytes."""
    data = text.encode("ascii", "replace")  # a non-ASCII character becomes '?'
    if data.translate(None, _DIGITS_AND_SEPARATORS):
        raise BadTableFile("table files hold ASCII digits separated by ASCII whitespace")
    return [int(tok) for tok in data.split()]
