"""Walsh/character-sum spectra.

For f: F_q**d -> F_q, a character parameter u in F_q^* and a frequency
m in F_q**d, the sum of interest is

    S(u, m) = sum_x zeta^(Tr(u * (f(x) - x.m))),  zeta = exp(2*pi*i/p).

Two independent routes compute it:

* exact: the Tr values are histogrammed into p bins of Z[zeta_p]
  coefficients and pushed through a size-p pass along each of the d*ell
  prime-field axes, one float64 product with a 0/1 matrix per axis.  Every
  intermediate is a point count <= q**d <= 2**20, so the result is the exact
  cyclotomic integer.  The per-(u, m) reference (walsh_exact) computes the
  same histogram pointwise with field elements.
* fast: the same butterfly over complex128 (Walsh-Hadamard in float64 for
  p = 2, where its integer sums stay exact).

S(t*u, m) for t in F_p^* is the conjugate sigma_t(S(u, m)), so one exact
transform per Galois orbit serves the bent verdict and every per-u report.
The test suite pins both reductions against the direct route.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Generator, Iterator, NamedTuple

import numpy as np

from . import _modp, field as field_mod
from .catalog import splitmix64
from .cyclotomic import CycInt
from .errors import (
    EvenCharacteristic,
    FieldMismatch,
    IndexOutOfRange,
    TrivialCharacter,
    UnsupportedSize,
)
from .field import FieldElement, FieldParams, trace
from .funcs import MAX_POINTS, FnTable, PnVerdict, is_pn
from .space import PointVector, _past_cap


@dataclass(frozen=True)
class Character:
    """Additive character chi_u(y) = zeta_p^Tr(u*y), u != 0."""

    u: FieldElement

    def __post_init__(self) -> None:
        if self.u.is_zero():
            raise TrivialCharacter("u = 0 names the trivial character")

    def exponent(self, y: FieldElement) -> int:
        return trace(self.u * y)

    def __call__(self, y: FieldElement) -> complex:
        p = self.u.params.p
        angle = math.tau * self.exponent(y) / p
        return complex(math.cos(angle), math.sin(angle))


# ---------------------------------------------------------------------------
# Exact engine.


@lru_cache(maxsize=field_mod.PER_U_CACHE_SIZE)
def _gram(params: FieldParams, u_index: int) -> np.ndarray:
    """G[j,k] = Tr(u * t**j * t**k), the digits of u times the field's triple
    trace forms; then Tr(u*(x.m)) = digits(x).T B digits(m) with B = I_d kron G."""
    ell = params.ell
    triples = field_mod.trace_forms(params)[1].reshape(ell, ell * ell)
    g = (field_mod.element_digits(params)[u_index] @ triples % params.p).reshape(ell, ell)
    g.setflags(write=False)
    return g


def _frequency_map(params: FieldParams, d: int, u_index: int) -> np.ndarray:
    """perm[m] = flat transform index holding S(u, m).

    B = I_d kron G acts on each coordinate m_j separately, so the map is the
    one-coordinate map on [0, q) applied to every base-q digit of m.
    """
    q = params.q
    images = field_mod.element_digits(params) @ _gram(params, u_index).T % params.p
    perm = one = _modp.index_of_digits(images, params.p)
    for j in range(1, d):
        perm = (one[:, None] * q**j + perm).ravel()
    return perm


@lru_cache(maxsize=4)  # at most 4 * 31**4 float64s, 30 MB
def _pass_matrix(p: int) -> np.ndarray:
    """One exact size-p pass on (slot, t) pairs: out[k, s] = sum_t h[(k + s*t) mod p, t],
    i.e. sum_t h[t] * zeta^(-s*t), as multiplying by zeta^r shifts slots by r."""
    k, j, t, s = np.ogrid[:p, :p, :p, :p]
    m = ((k + s * t - j) % p == 0).astype(np.float64).reshape(p, p * p, p)
    m.setflags(write=False)
    return m


def _require_exact_size(p: int, n: int) -> None:
    """Refuse an exact transform of p**n points before anything is built."""
    if _past_cap(p, n) or p**4 > MAX_POINTS:  # the pass matrix has p**4 entries
        raise UnsupportedSize(f"exact transforms take <= {MAX_POINTS} points and p <= 31")


def _butterfly(h: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """n size-p passes over h, shaped (c, N) with c slots per point and
    overwritten, in transform order: column perm[m] holds frequency m (see
    _frequency_map and _in_m_order).  w, shaped (c, c*p, p), maps one axis's
    (slot, digit) pairs to each slot's p outputs.  Each pass moves the
    leading digit axis to the end, alternating two buffers."""
    c, p = w.shape[0], w.shape[2]
    out = np.empty_like(h)
    for _ in range(n):
        np.matmul(h.reshape(c * p, -1).T, w, out=out.reshape(c, -1, p))
        h, out = out, h
    return h


def _in_m_order(params: FieldParams, d: int, u_index: int, a: np.ndarray) -> np.ndarray:
    """Placement: a, indexed on its first axis by u's transform position,
    indexed by m instead.  Over a prime field G(u) = [u], so u = 1 returns a
    itself; every other u gathers through _frequency_map.  Only what hands
    out values by m calls this: a flat verdict reads the transform order."""
    if params.ell == 1 and u_index == 1:
        return a
    return a[_frequency_map(params, d, u_index)]


def _exact_coeff_rows(
    params: FieldParams,
    d: int,
    u_index: int,
    exponents: np.ndarray,
    members: np.ndarray | None = None,
) -> np.ndarray:
    """Exact zeta-coefficient rows of S(u, m) for every m at once.

    exponents[x] = Tr(u*f(x)) (any F_p-valued array); the boolean mask
    members restricts the point set (defaults to all points).  Returns an
    (N, p) float64 view of slot-major rows in transform order: row perm[m]
    (see _frequency_map) is the unnormalized coefficient vector of S(u, m),
    and _in_m_order places it at row m.  Every entry is a point count
    <= N <= 2**20 < 2**53, so exact.
    """
    p = params.p
    _require_exact_size(p, d * params.ell)
    h = (np.arange(p)[:, None] == exponents).astype(np.float64)  # slot-major one-hot
    if members is not None:
        h *= members
    return _butterfly(h, _pass_matrix(p), d * params.ell).T


# One read-only slot: the float transform and the spot-check oracle of one u
# ask for the same row in turn.  Tables are frozen, so the identity of f and
# the index u key the slot; f is held weakly, so the slot never keeps it alive.
_exponents: tuple[weakref.ref, int, np.ndarray] | None = None


def _trace_exponents(f: FnTable, u_index: int) -> np.ndarray:
    """Tr(u * f(x)) for every point in the narrowest unsigned type, read-only:
    the q-entry row Tr(u * y) from digits and trace weights, gathered at f.

    Every character sum over f starts here, so this is where u = 0 is refused.
    """
    global _exponents
    if u_index == 0:
        raise TrivialCharacter("u = 0 names the trivial character")
    slot = _exponents
    if slot is None or slot[0]() is not f or slot[1] != u_index:
        params = f.params
        row = field_mod.element_digits(params) @ field_mod.trace_weights(params, u_index) % params.p
        values = row.astype(np.min_scalar_type(params.p - 1))[f.values]
        values.setflags(write=False)
        slot = _exponents = (weakref.ref(f), u_index, values)
    return slot[2]


def _abs_sq_table(rows: np.ndarray) -> np.ndarray:
    """Unreduced |S|^2 of stacked zeta-coefficient rows: out[i, k] is the
    coefficient of zeta^k in S_i*conj(S_i), sum_s rows[i, s]*rows[i, s+k mod p],
    in the rows' order.  Column k is two products of contiguous slot slices
    of the slot-major rows, so no rolled copy is made.  |out| <= max|row| *
    sum|row| < 2**46 for the point counts of N <= 2**20 points or their
    normalized CycInt coefficients, so float64 rows give it exactly; it is
    cast once, to int64."""
    p = rows.shape[1]
    slots = rows.T
    t = np.empty(rows.shape, np.int64)
    for k in range(p // 2 + 1):  # the table is symmetric under k -> -k
        column = np.einsum("ij,ij->j", slots[k:], slots[: p - k])
        if k:
            column += np.einsum("ij,ij->j", slots[:k], slots[p - k :])
        t[:, k] = t[:, -k] = column
    return t


def _transform_table(
    params: FieldParams, d: int, u_index: int, exponents: np.ndarray, members: np.ndarray | None = None
) -> np.ndarray:
    """The unreduced |S|^2 table of u in transform order (see _in_m_order)
    of a function table or a point set (arguments as _exact_coeff_rows);
    one expression, so the coefficient rows are freed before it returns."""
    return _abs_sq_table(_exact_coeff_rows(params, d, u_index, exponents, members))


def _rational_rows(t: np.ndarray) -> np.ndarray:
    """Mask of the rows of an unreduced |S|^2 table whose value is a rational
    integer.  The table is symmetric under k -> -k, so a row is rational
    exactly when its p//2 - 1 columns 2, ..., p//2 equal column 1."""
    rational = np.ones(len(t), dtype=bool)
    for k in range(2, t.shape[1] // 2 + 1):
        rational &= t[:, k] == t[:, 1]
    return rational


def _is_flat(t: np.ndarray, target: int) -> bool:
    """Every row of an unreduced |S|^2 table is the rational integer target.
    That holds in any row order and reads no float values, so a flat verdict
    tests the transform order and builds no _AbsSq."""
    return bool(np.all(_rational_rows(t) & (t[:, 0] - t[:, 1] == target)))


class _AbsSq:
    """|S(u, m)|^2 for every m of one u, from an unreduced |S|^2 table
    (see _abs_sq_table), row by row in the table's own order.

    table[i, k] is the unreduced coefficient of zeta^k in S*conj(S) for the
    frequency in row i.  Where defined[i] holds, the value is the rational
    integer ints[i] (see _rational_rows); floats[i] is the real value of
    every row.  A witness or a report reads a table placed by m.
    """

    def __init__(self, t: np.ndarray) -> None:
        self.p = p = t.shape[1]
        self.table = t
        self.defined = _rational_rows(t)
        self.ints = t[:, 0] - t[:, 1]
        # The p-th root cosines sum to zero, so the value only depends on the
        # coefficients up to a common shift.  Subtracting t[:, 1] keeps the huge
        # near-uniform rows from cancelling in floats, and makes integer-valued
        # rows (where t[:, 1:] is constant) come out exactly.
        self.floats = (t - t[:, 1:2]) @ np.cos(math.tau * np.arange(p) / p)

    def galois(self, t: int) -> "_AbsSq":
        """The table of t*u, t in F_p^*: slot k of sigma_t(z) is slot k/t of z."""
        return _AbsSq(self.table[:, np.arange(self.p) * pow(t, -1, self.p) % self.p])

    @classmethod
    def of(
        cls, params: FieldParams, d: int, u_index: int, exponents: np.ndarray, members: np.ndarray | None = None
    ) -> "_AbsSq":
        """The tables of u, row m holding S(u, m) (arguments as _transform_table).
        The unreduced table is placed before floats is computed: the @ cos
        product may round a row differently at another row position."""
        table = _transform_table(params, d, u_index, exponents, members)
        table = _in_m_order(params, d, u_index, table)  # frees the transform order
        return cls(table)

    def report(self, f: FnTable, u_index: int) -> "SpectrumReport":
        return SpectrumReport(f.params, f.d, u_index, self.defined, self.ints, self.magnitudes())

    def fails(self, target: int) -> np.ndarray:
        """Mask of the rows whose |S|^2 is not the rational integer target."""
        return ~self.defined | (self.ints != target)

    def magnitudes(self) -> np.ndarray:
        """|S| per row, fed from the exact integer whenever one exists so
        that rational cells stay float-exact."""
        exact = self.ints.astype(np.float64)
        return np.sqrt(np.where(self.defined, exact, np.maximum(self.floats, 0.0)))


# ---------------------------------------------------------------------------
# Public exact operations.


def _check_field(f: FnTable, u: FieldElement) -> None:
    """Refuse a character parameter from another field (or another modulus),
    whose index would name some unrelated element of f's field."""
    if u.params != f.params:
        raise FieldMismatch("character parameter from a different field")


def walsh_exact(f: FnTable, u: FieldElement, m: PointVector) -> CycInt:
    """Reference S(u, m): pointwise field-element evaluation, p-bin histogram."""
    chi = Character(u)  # validates u != 0
    params = f.params
    counts = [0] * params.p
    for i in range(f.n_points):
        x = PointVector.from_index(params, f.d, i)
        counts[chi.exponent(f.value_at(x) - x.dot(m))] += 1
    return CycInt.from_histogram(params.p, counts)


def walsh_exact_all(f: FnTable, u: FieldElement) -> list[CycInt]:
    """Exact S(u, m) for every m, via the butterfly engine."""
    _check_field(f, u)
    rows = _exact_coeff_rows(f.params, f.d, u.index, _trace_exponents(f, u.index))
    rows = _in_m_order(f.params, f.d, u.index, rows)
    return [CycInt.from_coeffs(f.params.p, row.tolist()) for row in rows]


@lru_cache(maxsize=1)  # the spot checks ask for many cells of one u in a row
def _trace_rows(params: FieldParams, u_index: int) -> np.ndarray:
    """rows[i, x] = -Tr(u * t**i * x) mod p for every x in F_q, as float64:
    a digit row times rows is then one BLAS product whose entries, integers
    below ell*p**2 <= 2**41, are exact.

    Built from the matrix of multiplication by u and the trace forms of the
    basis, Tr(t**i * t**k), never from the transform's Gram matrix or
    frequency map, so that the oracle stays independent of them.
    """
    p = params.p
    pair_forms = field_mod.trace_forms(params)[0]
    forms = -pair_forms @ field_mod.mul_matrix(params, u_index) % p  # -Tr(t**i * u * t**k)
    rows = (forms @ field_mod.element_digits(params).T % p).astype(np.float64)
    rows.setflags(write=False)  # shared through the cache
    return rows


def _cell_counts(
    params: FieldParams,
    u_index: int,
    exponents: np.ndarray,
    m_index: int,
    members: np.ndarray | None = None,
) -> np.ndarray:
    """Histogram over points x of exponents[x] - Tr(u*(x.m)) mod p.

    exponents is shaped (q,)*d with axis d-1-j over x_j.  With digits the
    base-p digits of every element of F_q and rows[i, y] = -Tr(u*t**i*y) mod
    p (see _trace_rows), digits[m_j] @ rows reduced mod p is -Tr(u*m_j*x_j)
    for every x_j.  The boolean mask members restricts the point set
    (defaults to all points).  The nonzero m_j add these q-entry rows by
    broadcasting, in the narrowest type holding their sums, at most
    (d+1)*(p-1), histogrammed once and folded p-wide: no reduction per point.
    """
    p, q, d = params.p, params.q, exponents.ndim
    digits, rows = field_mod.element_digits(params), _trace_rows(params, u_index)
    narrow = np.min_scalar_type((d + 1) * (p - 1))
    offset = 0
    for j in range(d):
        mj = m_index // q**j % q
        if mj:
            shape = [1] * d
            shape[d - 1 - j] = q
            s = (digits[mj] @ rows).astype(np.intp)
            offset = offset + (s - s // p * p).astype(narrow).reshape(shape)  # s mod p
    values = (exponents + offset).ravel()
    hist = np.bincount(values if members is None else values[members], minlength=(d + 1) * p)
    return hist.reshape(-1, p).sum(axis=0)


def exact_cell(f: FnTable, u_index: int, m_index: int) -> CycInt:
    """Exact S(u, m) for a single (u, m), vectorized over points.

    Independent of the butterfly engine: accumulates the exponent
    Tr(u*f(x)) - sum_j Tr((u*m_j)*x_j) per point and histograms it.  Used
    as the spot-check oracle behind the floating transform path.
    """
    params = f.params
    if not (0 <= u_index < params.q and 0 <= m_index < f.n_points):
        raise IndexOutOfRange(
            f"cell (u, m) = ({u_index}, {m_index}) outside [1, {params.q}) x [0, {f.n_points})"
        )
    exponents = _trace_exponents(f, u_index).reshape((params.q,) * f.d)  # refuses u = 0
    counts = _cell_counts(params, u_index, exponents, m_index)
    return CycInt(params.p, tuple((counts - counts[-1]).tolist()))  # normalized: last slot 0


def parseval_total(f: FnTable, u: FieldElement) -> int:
    """Exact sum over m of |S(u, m)|^2; always the rational integer q^(2d)."""
    _check_field(f, u)
    total = _transform_table(f.params, f.d, u.index, _trace_exponents(f, u.index)).sum(axis=0)
    value = CycInt.from_coeffs(f.params.p, total.tolist()).as_integer()
    if value is None:
        raise AssertionError("Parseval sum must be a rational integer")
    return value


# ---------------------------------------------------------------------------
# Bent test with Galois-orbit reduction over u.


@dataclass(frozen=True)
class BentWitness:
    """Least cell violating |S(u, m)|^2 = q^d, with its exact value."""

    u: FieldElement
    m: PointVector
    abs_sq: CycInt

    @property
    def abs_sq_int(self) -> int | None:
        return self.abs_sq.as_integer()

    @property
    def abs_sq_float(self) -> float:
        return self.abs_sq.to_complex().real


@dataclass(frozen=True)
class BentVerdict:
    is_bent: bool
    witness: BentWitness | None

    @property
    def verdict(self) -> str:
        return "bent" if self.is_bent else "not_bent"


@lru_cache(maxsize=field_mod.PARAMS_CACHE_SIZE)
def _orbit_reps(params: FieldParams) -> tuple[int, ...]:
    """Least index of each orbit of F_p^*-scaling on F_q^*, ascending.

    Scaling u by t keeps the position j of u's top nonzero base-p digit and
    multiplies that digit by t, so an orbit's least index is its member whose
    top digit is 1: the reps are exactly the indices in [p**j, 2*p**j).
    """
    p = params.p
    return tuple(u for j in range(params.ell) for u in range(p**j, 2 * p**j))


def _witness_m(spec: _AbsSq, target: int) -> int:
    """Least excess-valued m, falling back to least failing m.

    Mirrors the PN witness convention: prefer the least m whose |S|^2
    provably exceeds q^d (exact integer first, then float), else the least
    m failing equality at all.
    """
    over = np.nonzero(spec.defined & (spec.ints > target))[0]
    if over.size:
        return int(over[0])
    over = np.nonzero(~spec.defined & (spec.floats > target + 0.25))[0]
    if over.size:
        return int(over[0])
    return int(np.nonzero(spec.fails(target))[0][0])


def _orbit_walk(f: FnTable) -> Iterator[tuple[int, np.ndarray]]:
    """One exact transform per Galois orbit of u, by ascending least member:
    that member and its unreduced |S|^2 table in transform order.

    Scaling u by t in F_p^* conjugates every S(u, m), which changes neither
    rational integrality nor rational values of |S|^2, so a whole orbit
    shares one pass/fail pattern over m: the first failing orbit's least
    member is the least failing u.  The walk names no frequency, so it needs
    no frequency map; the table is yielded without a name in the walk, so a
    consumer that places it by m frees the transform order.
    """
    for u_index in _orbit_reps(f.params):
        yield u_index, _transform_table(f.params, f.d, u_index, _trace_exponents(f, u_index))


def _witness(f: FnTable, u_index: int, spec: _AbsSq) -> BentWitness | None:
    """The least failing cell of u under the witness rule, from its tables
    by m (see _AbsSq.of), or None when every |S(u, m)|^2 is q^d."""
    if not np.any(spec.fails(f.n_points)):
        return None
    params = f.params
    m_index = _witness_m(spec, f.n_points)
    return BentWitness(
        params.from_index(u_index),
        PointVector.from_index(params, f.d, m_index),
        CycInt.from_coeffs(params.p, spec.table[m_index].tolist()),
    )


def is_bent_exact(f: FnTable) -> BentVerdict:
    """Exact flat-spectrum test: |S(u, m)|^2 = q^d for all u != 0, m, by the
    orbit walk, which stops at the first failing orbit.  Flatness does not
    depend on the order of m, so each orbit's table is tested in transform
    order; only the failing one is placed by m, to name its cell."""
    for u_index, table in _orbit_walk(f):
        if not _is_flat(table, f.n_points):
            table = _in_m_order(f.params, f.d, u_index, table)  # frees the transform order
            return BentVerdict(False, _witness(f, u_index, _AbsSq(table)))
    return BentVerdict(True, None)


# ---------------------------------------------------------------------------
# Fast transform path.


@lru_cache(maxsize=1)  # 16 * p**2 bytes: 2.7 KB at p = 13, 16 MB at p = 1009
def _butterfly_matrix(p: int) -> np.ndarray:
    """The float size-p pass, w[j, k] = zeta^(-j*k).  The fast path runs
    every u of one table in a row, so one entry serves all q - 1 of them."""
    if p == 2:
        w = np.array([[1.0, 1.0], [1.0, -1.0]])
    else:
        w = np.exp(-2j * math.pi * np.outer(np.arange(p), np.arange(p)) / p)
    w.setflags(write=False)
    return w


def walsh_fast_all(f: FnTable, u: FieldElement) -> np.ndarray:
    """All q^d magnitudes |S(u, m)| by a multidimensional size-p butterfly.

    Floating point for odd p; for p = 2 the float64 Walsh-Hadamard sums are
    integers of size <= 2**20, so exact.  The passes alternate two buffers.
    """
    _check_field(f, u)
    params = f.params
    p = params.p
    if p**2 > MAX_POINTS:  # the pass matrix has p**2 entries, as the exact one p**4
        raise UnsupportedSize(f"fast transforms take p**2 <= {MAX_POINTS}: p <= 1021")
    roots = np.array([1.0, -1.0]) if p == 2 else np.exp(2j * math.pi * np.arange(p) / p)
    h = roots[None, _trace_exponents(f, u.index)]
    h = _butterfly(h, _butterfly_matrix(p)[None], f.d * params.ell)[0]
    h = np.abs(h, out=h) if p == 2 else np.abs(h)  # frees a complex h before the gather
    return _in_m_order(params, f.d, u.index, h)


_SPOT_SEED = 0x5BD1E995
_SPOT_BUDGET = 1 << 26
_FAST_REL_TOL = 1e-9


@dataclass(frozen=True)
class FastBentWitness:
    """Least cell whose float |S(u, m)|^2 misses q^d; it carries no exact
    value, so abs_sq_int is always None."""

    u: FieldElement
    m: PointVector
    abs_sq_float: float

    @property
    def abs_sq_int(self) -> None:
        return None


@dataclass(frozen=True)
class FastBentVerdict(BentVerdict):
    """Float flat-spectrum verdict with its exact spot-check tally.

    sampled cells were recomputed by exact_cell; mismatches counts those
    whose float magnitude disagreed beyond the relative tolerance.
    """

    witness: FastBentWitness | None
    sampled: int
    mismatches: int

    @property
    def certified(self) -> bool:
        return self.is_bent and self.mismatches == 0


def _spot_count(n_points: int, d: int) -> int:
    by_fraction = max(1, n_points // 100)
    by_budget = max(1, _SPOT_BUDGET // max(n_points * (d + 1), 1))
    return min(256, by_fraction, by_budget)


def _spot_check(f: FnTable, u_index: int, mags: np.ndarray) -> tuple[int, int]:
    """Exactly recompute a deterministic sample of cells; return (sampled, bad)."""
    n = f.n_points
    ms = (splitmix64(_SPOT_SEED ^ u_index, np.arange(_spot_count(n, f.d))) % np.uint64(n)).tolist()
    rows = np.array([exact_cell(f, u_index, m).coeffs for m in ms], dtype=np.int64)
    roots = _AbsSq(_abs_sq_table(rows)).magnitudes()
    bad = np.abs(mags[ms] - roots) > _FAST_REL_TOL * np.maximum(roots, 1.0)
    return len(ms), int(np.count_nonzero(bad))


def is_bent_fast(f: FnTable) -> FastBentVerdict:
    """Float flat-spectrum test: every |S(u, m)|^2 equals q^d within
    tolerance (exactly for p = 2), with exact spot checks of every u.

    Runs in one process.  The witness is the least failing (u, m); the
    verdict is certified only when no spot check disagreed.
    """
    params = f.params
    target = float(f.n_points)
    witness: FastBentWitness | None = None
    sampled = mismatches = 0
    for u_index in range(1, params.q):
        mags = walsh_fast_all(f, params.from_index(u_index))
        k, bad = _spot_check(f, u_index, mags)
        sampled += k
        mismatches += bad
        dev = np.multiply(mags, mags)  # |S|^2 - q^d in place, in one buffer
        dev -= target
        failing = np.flatnonzero(np.abs(dev, out=dev) > 1e-6 * target)
        if witness is None and failing.size:
            m = int(failing[0])
            sq = mags[m] * mags[m]
            witness = FastBentWitness(
                params.from_index(u_index), PointVector.from_index(params, f.d, m), float(sq)
            )
        mags = dev = None  # freed before the next transform
    return FastBentVerdict(witness is None, witness, sampled, mismatches)


# ---------------------------------------------------------------------------
# Reports and the PN/bent crosscheck.


class SpectrumRow(NamedTuple):
    m_index: int
    abs_sq_int: int | None
    magnitude: float


# builds a row from one (m_index, abs_sq_int, magnitude) tuple, without the
# generated Python __new__ of the named tuple
_spectrum_row = partial(tuple.__new__, SpectrumRow)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Per-frequency spectrum of one (f, u) pair with exact/float pairing,
    stored by column: |S(u, m)|^2 is the rational integer ints[m] where
    defined[m] holds, and magnitudes[m] is |S(u, m)| as a float."""

    params: FieldParams
    d: int
    u_index: int
    defined: np.ndarray
    ints: np.ndarray
    magnitudes: np.ndarray

    @property
    def abs_sq_ints(self) -> list[int | None]:
        if self.defined.all():
            return self.ints.tolist()
        return [v if ok else None for ok, v in zip(self.defined.tolist(), self.ints.tolist())]

    @property
    def rows(self) -> tuple[SpectrumRow, ...]:
        mags = self.magnitudes.tolist()
        return tuple(map(_spectrum_row, zip(range(len(mags)), self.abs_sq_ints, mags)))

    @property
    def max_magnitude(self) -> float:
        return float(self.magnitudes.max())

    @property
    def min_magnitude(self) -> float:
        return float(self.magnitudes.min())

    def is_flat(self, target: int) -> bool:
        return bool(np.all(self.defined & (self.ints == target)))


def spectrum_report(f: FnTable, u: FieldElement) -> SpectrumReport:
    _check_field(f, u)
    return _AbsSq.of(f.params, f.d, u.index, _trace_exponents(f, u.index)).report(f, u.index)


def spectrum_reports(f: FnTable) -> Generator[SpectrumReport, None, BentVerdict]:
    """spectrum_report(f, u) for every u in F_q^*, one exact transform per
    Galois orbit: each orbit's least member first, then its multiples t*u
    for t = 2, ..., p-1, whose tables are slot permutations of it.  Returns
    the is_bent_exact verdict of the same transforms (StopIteration.value)."""
    params = f.params
    witness = None
    for rep, table in _orbit_walk(f):
        # placed by rep's map, which every multiple t*rep shares; rebinding
        # frees the transform order before the tables are built
        table = _in_m_order(params, f.d, rep, table)
        spec = _AbsSq(table)
        witness = witness or _witness(f, rep, spec)  # the least failing orbit's
        yield spec.report(f, rep)
        for t in range(2, params.p):
            yield spec.galois(t).report(f, params.from_index(rep).scale(t).index)
    return BentVerdict(witness is None, witness)


@dataclass(frozen=True)
class CrosscheckReport:
    pn: PnVerdict
    bent: BentVerdict
    agree: bool


def crosscheck_pn_bent(f: FnTable) -> CrosscheckReport:
    """Independent PN and bent verdicts; for odd p they must agree."""
    if f.params.p == 2:
        raise EvenCharacteristic("the PN/bent equivalence is stated for odd p")
    pn = is_pn(f)
    bent = is_bent_exact(f)
    return CrosscheckReport(pn, bent, pn.is_pn == bent.is_bent)
