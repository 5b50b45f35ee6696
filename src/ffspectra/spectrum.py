"""Walsh/character-sum spectra.

For f: F_q**d -> F_q, a character parameter u in F_q^* and a frequency
m in F_q**d, the sum of interest is

    S(u, m) = sum_x zeta^(Tr(u * (f(x) - x.m))),  zeta = exp(2*pi*i/p).

Two independent routes compute it:

* exact: each point's zeta**Tr is written in the reduced basis 1, zeta,
  ..., zeta**(p-2) of Z[zeta_p] and pushed through a size-p pass along each
  of the d*ell prime-field axes, one float32 product with a +-1 matrix per
  axis.  Every intermediate is an integer below 2**24, so the result is the
  exact cyclotomic integer.  The per-(u, m) reference (walsh_exact)
  computes the same histogram pointwise with field elements.
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
from .cyclotomic import CycInt
from .errors import (
    EvenCharacteristic,
    FieldMismatch,
    TrivialCharacter,
    UnsupportedSize,
)
from .field import FieldElement, FieldParams, _checked_index, trace
from .funcs import MAX_POINTS, FnTable, PnVerdict, is_pn, splitmix64
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


def _gram(params: FieldParams, u_index: int) -> np.ndarray:
    """G[j,k] = Tr(u * t**j * t**k), the digits of u times the field's triple
    trace forms; then Tr(u*(x.m)) = digits(x).T B digits(m) with B = I_d kron G.
    Built at each placement: one placement reads it once."""
    ell = params.ell
    triples = field_mod.trace_forms(params)[1].reshape(ell, ell * ell)
    return (field_mod.element_digits(params)[u_index] @ triples % params.p).reshape(ell, ell)


def _frequency_map(params: FieldParams, d: int, u_index: int) -> np.ndarray:
    """perm[m] = flat transform index holding S(u, m).

    B = I_d kron G acts on each coordinate m_j separately, so the map is the
    one-coordinate map on [0, q) applied to every base-q digit of m.
    """
    q, digits = params.q, field_mod.element_digits(params)
    images = _modp.residue_product(digits, _gram(params, u_index).T, params.p)
    perm = one = _modp.index_of_digits(images, params.p)
    for j in range(1, d):
        perm = (one[:, None] * q**j + perm).ravel()
    return perm


@lru_cache(maxsize=4)  # at most 4 * 30**2 * 31**2 float32s, 14 MB
def _pass_matrix(p: int) -> np.ndarray:
    """One exact size-p pass on (slot, t) pairs in the reduced basis 1, zeta,
    ..., zeta**(p-2), where zeta**(p-1) = -(1 + ... + zeta**(p-2)): out[k, s]
    = sum_t h[t] * zeta^(-s*t) = sum_(j,t) h[j, t] * ([e == k] - [e == p-1])
    with e = (j - s*t) mod p, so each column has at most two nonzero +-1
    entries per digit t.  At p = 2 it is the Walsh-Hadamard matrix."""
    k, j, t, s = np.ogrid[: p - 1, : p - 1, :p, :p]
    e = (j - s * t) % p
    m = ((e == k).astype(np.float32) - (e == p - 1)).reshape(p - 1, (p - 1) * p, p)
    m.setflags(write=False)
    return m


def _require_exact_size(p: int, n: int) -> None:
    """Refuse an exact transform of p**n points before anything is built."""
    if _past_cap(p, n) or p**4 > MAX_POINTS:  # the pass matrix has (p-1)**2 * p**2 < p**4 entries
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
    params: FieldParams, d: int, exponents: np.ndarray, members: np.ndarray | None = None
) -> np.ndarray:
    """Exact zeta-coefficient rows of S(u, m) for every m at once.

    exponents[x] = Tr(u*f(x)) (any F_p-valued array); the boolean mask
    members restricts the point set (defaults to all points).  Returns an
    (N, p - 1) float32 view of slot-major rows in transform order: row
    perm[m] (see _frequency_map) is CycInt's normal form of S(u, m) less its
    zero last slot, and _in_m_order places it at row m.  Slot k counts the
    points at zeta**k less those at zeta**(p-1), so |entry| <= N; with two
    +-1 pass entries per digit, every partial sum a BLAS kernel forms is at
    most 2N <= 2**21 < 2**24 in absolute value, so float32 is exact.
    """
    p = params.p
    _require_exact_size(p, d * params.ell)
    w = _pass_matrix(p)
    h = w[:, :p, -1].take(exponents, axis=1)  # column e at j = 0, s = -1 is zeta**e
    if members is not None:
        h *= members
    return _butterfly(h, w, d * params.ell).T


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
        params, digits = f.params, field_mod.element_digits(f.params)
        row = _modp.residue_product(digits, field_mod.trace_weights(params, u_index), params.p)
        values = row.astype(np.min_scalar_type(params.p - 1))[f.values]
        values.setflags(write=False)
        slot = _exponents = (weakref.ref(f), u_index, values)
    return slot[2]


def _abs_sq_table(rows: np.ndarray) -> np.ndarray:
    """Unreduced |S|^2 of the reduced rows of a whole exact transform (see
    _exact_coeff_rows), in their order: out[i, k] is the coefficient of zeta^k
    in S_i*conj(S_i), sum_s rows[i, s]*rows[i, s+k mod p] over the slots below
    p - 1.  That differs from the table of p-slot rows by a constant per row,
    which changes no value.  Column k is two products of contiguous slot
    slices, [k:] with [:p-1-k] and [:k-1] with [p-k:], so no rolled copy is
    made.  |out| < 2**46 for N <= 2**20 points, so it is exact in float64:
    the rows are cast to it 2**15 at a time, and the table once, to int64."""
    p, chunk = rows.shape[1] + 1, 1 << 15
    t = np.empty((len(rows), p), np.int64)
    for i in range(0, len(rows), chunk):
        slots, out = rows[i : i + chunk].T.astype(np.float64, order="C"), t[i : i + chunk]
        for k in range(p // 2 + 1):  # the table is symmetric under k -> -k
            column = np.einsum("ij,ij->j", slots[k:], slots[: p - 1 - k])
            if k > 1:
                column += np.einsum("ij,ij->j", slots[: k - 1], slots[p - k :])
            out[:, k] = out[:, -k] = column
        slots = None  # freed before the next chunk is cast
    return t


def _placed_table(
    params: FieldParams, d: int, u_index: int, exponents: np.ndarray, members: np.ndarray | None = None
) -> np.ndarray:
    """The unreduced |S|^2 table of u placed by m of a function table or a
    point set (arguments as _exact_coeff_rows).  The float32 rows are placed
    (see _in_m_order) before the table is built, and freed before it returns."""
    return _abs_sq_table(_in_m_order(params, d, u_index, _exact_coeff_rows(params, d, exponents, members)))


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
    tests the transform order and builds no report."""
    return bool(np.all(_rational_rows(t) & (t[:, 0] - t[:, 1] == target)))


def _real_values(t: np.ndarray) -> np.ndarray:
    """The real value of every row of an unreduced |S|^2 table.  A witness or
    a report reads it from a table placed by m, since the @ cos product may
    round a row differently at another row position."""
    p = t.shape[1]
    # The p-th root cosines sum to zero, so the value only depends on the
    # coefficients up to a common shift.  Subtracting t[:, 1] keeps the huge
    # near-uniform rows from cancelling in floats, and makes integer-valued
    # rows (where t[:, 1:] is constant) come out exactly.
    return (t - t[:, 1:2]) @ np.cos(math.tau * np.arange(p) / p)


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
    rows = _exact_coeff_rows(f.params, f.d, _trace_exponents(f, u.index))
    rows = _in_m_order(f.params, f.d, u.index, rows).astype(np.int64).tolist()
    return [CycInt.from_coeffs(f.params.p, row + [0]) for row in rows]  # the zero last slot


@lru_cache(maxsize=1)  # the spot checks ask for many cells of one u in a row
def _trace_rows(params: FieldParams, u_index: int, d: int) -> tuple:
    """The oracle's constants of u over F_q**d, so that a cell computes no
    type and no shape: the digits of every element of F_q; rows[i, x] =
    -Tr(u * t**i * x) mod p for every x in F_q, as float64, so that a digit
    row times rows is one BLAS product whose entries, integers below
    ell*(p-1)**2 <= 2**40, are exact; the wide unsigned type holding those
    entries and the narrow one holding d + 1 summed residues; the broadcast
    shape of each coordinate; and the histogram length.

    Built from the matrix of multiplication by u and the trace forms of the
    basis, Tr(t**i * t**k), never from the transform's Gram matrix or
    frequency map, so that the oracle stays independent of them.
    """
    p, q, ell = params.p, params.q, params.ell
    digits, pair_forms = field_mod.element_digits(params), field_mod.trace_forms(params)[0]
    forms = -pair_forms @ field_mod.mul_matrix(params, u_index) % p  # -Tr(t**i * u * t**k)
    rows = _modp.residue_product(forms, digits.T, p).astype(np.float64)
    rows.setflags(write=False)  # shared through the cache
    wide, narrow = np.min_scalar_type(ell * (p - 1) ** 2), np.min_scalar_type((d + 1) * (p - 1))
    shapes = tuple((1,) * (d - 1 - j) + (q,) + (1,) * j for j in range(d))
    return digits, rows, wide, narrow, shapes, (d + 1) * p


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
    p (see _trace_rows), digits[m_j] @ rows reduced mod p, in the wide type,
    is -Tr(u*m_j*x_j) for every x_j.  The boolean mask members restricts the
    point set (defaults to all points).  The nonzero m_j add these q-entry
    rows by broadcasting, in the narrow type holding their sums, at most
    (d+1)*(p-1), histogrammed once and folded p-wide: no reduction per point.
    """
    p, q = params.p, params.q
    digits, rows, wide, narrow, shapes, minlength = _trace_rows(params, u_index, exponents.ndim)
    offset = None
    for shape in shapes:
        m_index, mj = divmod(m_index, q)
        if mj:
            s = np.dot(digits[mj], rows).astype(wide)  # np.dot costs less per call than @
            s -= s // p * p
            s = s.astype(narrow, copy=False).reshape(shape)
            offset = s if offset is None else offset + s
    values = (exponents if offset is None else exponents + offset).ravel()
    hist = np.bincount(values if members is None else values[members], minlength=minlength)
    return np.add.reduce(hist.reshape(-1, p))


def exact_cell(f: FnTable, u_index: int, m_index: int) -> CycInt:
    """Exact S(u, m) for a single (u, m), vectorized over points.

    Independent of the butterfly engine: accumulates the exponent
    Tr(u*f(x)) - sum_j Tr((u*m_j)*x_j) per point and histograms it.  Used
    as the spot-check oracle behind the floating transform path.
    """
    params = f.params
    u_index = _checked_index(u_index, params.q, "character")
    m_index = _checked_index(m_index, f.n_points, "frequency")
    exponents = _trace_exponents(f, u_index).reshape((params.q,) * f.d)  # refuses u = 0
    counts = _cell_counts(params, u_index, exponents, m_index)
    return CycInt(params.p, tuple((counts - counts[-1]).tolist()))  # normalized: last slot 0


def parseval_total(f: FnTable, u: FieldElement) -> int:
    """Exact sum over m of |S(u, m)|^2; always the rational integer q^(2d)."""
    _check_field(f, u)
    total = _abs_sq_table(_exact_coeff_rows(f.params, f.d, _trace_exponents(f, u.index))).sum(axis=0)
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


def _witness_m(t: np.ndarray, target: int) -> int:
    """Least excess-valued m of an unreduced |S|^2 table placed by m,
    falling back to least failing m.

    Mirrors the PN witness convention: prefer the least m whose |S|^2
    provably exceeds q^d (exact integer first, then float), else the least
    m failing equality at all.
    """
    defined, ints = _rational_rows(t), t[:, 0] - t[:, 1]
    over = np.nonzero(defined & (ints > target))[0]
    if over.size:
        return int(over[0])
    over = np.nonzero(~defined & (_real_values(t) > target + 0.25))[0]
    if over.size:
        return int(over[0])
    return int(np.nonzero(~defined | (ints != target))[0][0])


def _orbit_walk(f: FnTable) -> Iterator[tuple[int, np.ndarray]]:
    """One exact transform per Galois orbit of u, by ascending least member:
    that member and its exact coefficient rows in transform order.

    Scaling u by t in F_p^* keeps the position j of u's top nonzero base-p
    digit and multiplies that digit by t, so an orbit's least member is the
    one whose top digit is 1: the least members are exactly the indices in
    [p**j, 2*p**j), generated as the walk reaches them.  Scaling also
    conjugates every S(u, m), which changes neither rational integrality nor
    rational values of |S|^2, so a whole orbit shares one pass/fail pattern
    over m: the first failing orbit's least member is the least failing u.
    The walk names no frequency, so it needs no frequency map; the rows are
    yielded without a name in the walk, so a consumer that places them by m
    frees the transform order.
    """
    p = f.params.p
    for j in range(f.params.ell):
        for u_index in range(p**j, 2 * p**j):
            yield u_index, _exact_coeff_rows(f.params, f.d, _trace_exponents(f, u_index))


def _witness(f: FnTable, u_index: int, t: np.ndarray) -> BentWitness:
    """The least failing cell of u under the witness rule, from its unreduced
    |S|^2 table placed by m, which is not flat."""
    params = f.params
    m_index = _witness_m(t, f.n_points)
    return BentWitness(
        params.from_index(u_index),
        PointVector.from_index(params, f.d, m_index),
        CycInt.from_coeffs(params.p, t[m_index].tolist()),
    )


def is_bent_exact(f: FnTable) -> BentVerdict:
    """Exact flat-spectrum test: |S(u, m)|^2 = q^d for all u != 0, m, by the
    orbit walk, which stops at the first failing orbit.  Flatness does not
    depend on the order of m, so each orbit's table is tested in transform
    order; only the failing one is placed by m, to name its cell."""
    for u_index, rows in _orbit_walk(f):
        table = _abs_sq_table(rows)
        if not _is_flat(table, f.n_points):
            table = _in_m_order(f.params, f.d, u_index, table)  # frees the transform order
            return BentVerdict(False, _witness(f, u_index, table))
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


def _roots(p: int) -> np.ndarray:
    """zeta**j for j < p; real +-1 at p = 2, where sums of them stay exact."""
    return np.array([1.0, -1.0]) if p == 2 else np.exp(2j * math.pi * np.arange(p) / p)


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
    h = _roots(p)[None, _trace_exponents(f, u.index)]
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
    """Exactly recompute a deterministic sample of cells, each summed at the
    float transform's roots (so exactly at p = 2); return (sampled, bad)."""
    n = f.n_points
    ms = (splitmix64(_SPOT_SEED ^ u_index, np.arange(_spot_count(n, f.d))) % np.uint64(n)).tolist()
    rows = np.array([exact_cell(f, u_index, m).coeffs for m in ms], dtype=np.float64)
    exact = np.abs(rows @ _roots(f.params.p))
    bad = np.abs(mags[ms] - exact) > _FAST_REL_TOL * np.maximum(exact, 1.0)
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
        return np.where(self.defined, self.ints.astype(object), None).tolist()

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


def _report(params: FieldParams, d: int, u_index: int, t: np.ndarray) -> SpectrumReport:
    """The report of u from its unreduced |S|^2 table placed by m (see
    _abs_sq_table).  Where defined[m] holds, |S|^2 is the rational integer
    ints[m] (see _rational_rows); the magnitudes are fed from that integer
    whenever it exists, so that rational cells stay float-exact."""
    defined = _rational_rows(t)
    ints = t[:, 0] - t[:, 1]
    exact = ints.astype(np.float64)
    if not defined.all():  # the float values only where some row is irrational
        exact = np.where(defined, exact, np.maximum(_real_values(t), 0.0))
    return SpectrumReport(params, d, u_index, defined, ints, np.sqrt(exact, out=exact))


def spectrum_report(f: FnTable, u: FieldElement) -> SpectrumReport:
    _check_field(f, u)
    table = _placed_table(f.params, f.d, u.index, _trace_exponents(f, u.index))
    return _report(f.params, f.d, u.index, table)


def spectrum_reports(f: FnTable) -> Generator[SpectrumReport, None, BentVerdict]:
    """spectrum_report(f, u) for every u in F_q^*, one exact transform per
    Galois orbit: each orbit's least member first, then its multiples t*u
    for t = 2, ..., p-1, whose tables are slot permutations of it.  Returns
    the is_bent_exact verdict of the same transforms (StopIteration.value)."""
    params = f.params
    witness = None
    for rep, rows in _orbit_walk(f):
        # placed by rep's map, which every multiple t*rep shares; the rows
        # are freed before the reports are built
        table = _abs_sq_table(_in_m_order(params, f.d, rep, rows))
        rows = None
        report = _report(params, f.d, rep, table)
        if witness is None and not report.is_flat(f.n_points):
            witness = _witness(f, rep, table)  # the least failing orbit's
        yield report
        for t in range(2, params.p):
            # the table of t*rep: slot k of sigma_t(z) is slot k/t of z
            slots = np.arange(params.p) * pow(t, -1, params.p) % params.p
            yield _report(params, f.d, params.from_index(rep).scale(t).index, table[:, slots])
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
