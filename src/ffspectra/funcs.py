"""Dense function tables f: F_q**d -> F_q, their constructors and difference
operators, and the PN/planar primitives.

The dense table is the single source of truth: polynomial and monomial specs
are constructors only, and every property test reduces to table arithmetic.
Values are stored as an immutable array of element indices in point index
order, in the narrowest unsigned type that holds q - 1 (uint8 up to q = 256),
so a raw difference of two tables wraps; `vec_sub` and `delta_table` do not.
The PN scan reads f(x + a) - f(x) by combining the carry-free code words of
`_modp` (XOR for p = 2), as the index adder does.
"""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import _modp, field as field_mod, space
from .errors import (
    BadTableFile,
    FFSpectraError,
    FieldMismatch,
    IndexOutOfRange,
    SpecDimensionMismatch,
)
from .field import FieldElement, FieldParams, make_field
from .space import MAX_POINTS, PointVector, _refuse_past_cap


@dataclass(frozen=True, eq=False)
class FnTable:
    """A function F_q**d -> F_q as a dense table of element indices.

    Every value is checked to lie in [0, q) as given, so none wraps into
    range, and the table keeps one read-only copy in the narrowest unsigned
    type that holds q - 1: a raw difference of two tables wraps, so take
    delta_table or field.vec_sub, or cast to int64 first."""

    params: FieldParams
    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _refuse_past_cap(self.params.q, self.d))
        n, q = self.params.q**self.d, self.params.q
        arr = np.asarray(self.values)
        try:  # never rounded or parsed to an index: each object is read as operator.index reads it
            if arr.dtype.kind == "O":  # clamped to [-1, q], refused below: no int past int64 is cast
                arr = np.array([min(max(operator.index(v), -1), q) for v in arr.flat], np.int64).reshape(arr.shape)
            elif arr.dtype.kind not in "iub":
                raise TypeError
        except TypeError:
            raise ValueError("table values must be integer element indices") from None
        if arr.shape != (n,):
            raise ValueError(f"table must have exactly {n} values")
        # checked on the source, so that a value >= q cannot wrap into range in the cast
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= q):
            raise ValueError("table values must be element indices in [0, q)")
        arr = arr.astype(np.min_scalar_type(q - 1))  # the one copy the table owns
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
    """Recipe for a table: a sparse sum of c * prod x_i**e_i terms."""

    monomials: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def univariate(cls, coeffs: Sequence[int]) -> "FnSpec":
        """Polynomial sum coeffs[k] * x**k with coefficients as element indices.
        The zero polynomial keeps the term 0 * x**0, so every univariate spec
        has exponent vectors of length 1 and needs d = 1."""
        terms = [(c, (k,)) for k, c in enumerate(coeffs) if operator.index(c)]
        return cls.from_monomials(terms or [(0, (0,))])

    @classmethod
    def from_monomials(
        cls, terms: Sequence[tuple[int, Sequence[int]]]
    ) -> "FnSpec":
        """Sparse sum of c * prod x_i**e_i terms; c an element index, and a float is refused."""
        packed = tuple(
            (operator.index(c), tuple(operator.index(e) for e in exps)) for c, exps in terms
        )
        return cls(packed)


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
    broadcasting where its factors meet; build_function has refused q**d past the cap.
    The sum is kept in the narrowest unsigned type that holds q - 1."""
    q = params.q
    narrow = np.min_scalar_type(q - 1)
    acc = np.zeros((1,) * d, dtype=narrow)
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
        acc = field_mod.vec_add(params, acc, term.astype(narrow)).astype(narrow, copy=False)
    return np.broadcast_to(acc, (q,) * d).ravel()


def _point_coord(params: FieldParams, d: int, j: int) -> np.ndarray:
    """Coordinate j of every point index, as an element-index array."""
    q = params.q
    axes = np.arange(q, dtype=np.int64).reshape(q, 1)
    return np.broadcast_to(axes, (q ** (d - 1 - j), q, q**j)).ravel()


@lru_cache(maxsize=16)
def _log_tables(params: FieldParams) -> tuple[np.ndarray, np.ndarray]:
    """log and antilog of a generator g of F_q^*, away from vec_mul: an
    order test by FieldElement powers, then the antilog by doubling, the
    digits of g**b, ..., g**(2b-1) being those of 1, ..., g**(b-1) times the
    matrix of g**b, which is squared from mul_matrix(g) as b doubles."""
    order = params.q - 1  # q <= 4096 at desk scale
    primes = [r for r in range(2, order + 1) if order % r == 0 and field_mod._is_prime(r)]
    one = params.one()
    g = next(
        x for x in params.elements()
        if not x.is_zero() and all(x ** (order // r) != one for r in primes)
    )
    digits = np.zeros((order, params.ell), dtype=np.int64)
    digits[0, 0] = 1
    m, b = field_mod.mul_matrix(params, g.index), 1
    while b < order:
        digits[b : 2 * b] = _modp.residue_product(digits[: min(b, order - b)], m.T, params.p)
        m, b = m @ m % params.p, 2 * b
    antilog = _modp.index_of_digits(digits, params.p)
    log = np.zeros(params.q, dtype=np.int64)  # log[0] is masked by the caller
    log[antilog] = np.arange(order)
    log.setflags(write=False)
    antilog.setflags(write=False)
    return log, antilog


def _spot_check(table: "FnTable", spec: FnSpec) -> None:
    """Re-evaluate the spec in the log domain of a generator, away from
    vec_mul and the index adder (it sums digit rows); desk scale only."""
    params, d = table.params, table.d
    if table.n_points > space.DESK_SCALE_POINTS:
        return
    log, antilog = _log_tables(params)
    order = params.q - 1
    coords = [_point_coord(params, d, j) for j in range(d)]
    acc = np.zeros((table.n_points, params.ell), dtype=np.int64)
    for c, exps in spec.monomials:
        exponent = np.full(table.n_points, log[c])
        nonzero = np.full(table.n_points, c != 0)
        for xi, e in zip(coords, exps):
            if e:  # x**0 = 1, also at x = 0
                exponent += int(e) % order * log[xi]
                nonzero &= xi != 0
        term = np.where(nonzero, antilog[exponent % order], 0)
        acc += field_mod.element_digits(params)[term]
    wrong = np.flatnonzero(_modp.index_of_digits(acc % params.p, params.p) != table.values)
    if wrong.size:
        raise AssertionError(
            f"spec evaluation mismatch at point {int(wrong[0])}: table disagrees with direct evaluation"
        )


def build_function(spec: FnSpec, params: FieldParams, d: int) -> FnTable:
    """Materialize a dense table from a spec; at desk scale the evaluation
    is re-checked through the log tables of a generator.  A d past the cap
    is refused before anything is built."""
    _refuse_past_cap(params.q, d)
    table = FnTable(params, d, _eval_monomials(params, d, spec.monomials))
    _spot_check(table, spec)
    return table


# ---------------------------------------------------------------------------
# The seeded stream behind random tables and the spot-check cells.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, i: int | np.ndarray) -> int | np.ndarray:
    """Output i of the splitmix64 counter sequence for this seed; i may be
    an index array, and a scalar i gives a Python int.

    z = seed + (i+1)*0x9E3779B97F4A7C15 mod 2**64, then the standard
    finalizer: z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31 (all mod 2**64).
    """
    # an array wraps mod 2**64 silently, where a numpy scalar warns on overflow
    z = (np.atleast_1d(np.asarray(i, dtype=np.uint64)) + np.uint64(1)) * np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z if np.ndim(i) else int(z[0])


# ---------------------------------------------------------------------------
# Difference operators and the PN test.


def delta_table(f: FnTable, a: PointVector) -> FnTable:
    """Table of the difference operator x -> f(x+a) - f(x)."""
    if a.params != f.params or a.d != f.d:
        raise FieldMismatch("shift incompatible with this table")
    shifted = space.vec_point_add(f.params, f.d, np.arange(f.n_points), a.index)
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

    `_modp.shift_walk` gives x + a, and with the values encoded once as the
    field's code words (over F_2 the values themselves), f(x + a) - f(x) is
    one combine of two words.
    """
    p, q, n = params.p, params.q, values.shape[0]
    expected = n // q
    codes = _modp.difference_codes(p, params.ell)
    plus, minus = codes.plus(values), codes.minus(values)
    for a_index, _, _, at in _modp.shift_walk(p, d * params.ell):
        delta = codes.combine(plus[at], minus)
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
    shifted = space.vec_point_add(f.params, f.d, np.arange(f.n_points), s.index)
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
    """Header and modulus as exact ints, then the cap check before any value is
    read, then the values as one int64 array (a value past int64 saturates)."""
    header = fh.readline()
    try:
        p, ell, d = map(int, _checked(header).split())
    except (BadTableFile, ValueError) as exc:
        raise BadTableFile(f"bad header line: {header.rstrip()!r}") from exc
    modulus = [int(tok) for tok in _checked(fh.readline()).split()]  # a coefficient >= p is reduced mod p
    if len(modulus) != ell + 1:
        raise BadTableFile(f"expected {ell + 1} modulus coefficients")
    try:
        params = make_field(p, ell, modulus)
        _refuse_past_cap(params.q, d)
        values = np.fromstring(_checked(fh.read()), dtype=np.int64, sep=" ")
        if values.size != params.q**d:
            raise BadTableFile(f"expected {params.q ** d} values, got {values.size}")
        return FnTable(params, d, values)
    except BadTableFile:
        raise
    except (FFSpectraError, ValueError) as exc:
        raise BadTableFile(f"invalid table file: {exc}") from exc


_DIGITS_AND_SEPARATORS = b"0123456789 \t\n\v\f\r"


def _checked(text: str) -> bytes:
    """The text as ASCII bytes of plain digits and ASCII whitespace (space, tab,
    LF, VT, FF, CR).  str.split() would also split on 0x1c-0x1f and non-ASCII
    spaces, and int() would also read '+1', '0_4' and non-ASCII digits;
    bytes.split() and np.fromstring split on exactly these six bytes."""
    data = text.encode("ascii", "replace")  # a non-ASCII character becomes '?'
    if data.translate(None, _DIGITS_AND_SEPARATORS):
        raise BadTableFile("table files hold ASCII digits separated by ASCII whitespace")
    return b"" if data.isspace() else data  # np.fromstring reads bare whitespace as a 0
