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
* fast: the same butterfly over complex128 (Walsh-Hadamard in float32 for
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
from typing import Callable, Generator, Iterable, Iterator, NamedTuple

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


def _digit_products(p: int, g: int) -> np.ndarray:
    """s.t mod p for every pair of g-digit tuples s and t over F_p, indexed by
    their base-p values, in the narrowest type that holds s.t."""
    digits = (np.arange(p**g)[:, None] // p ** np.arange(g) % p).astype(np.min_scalar_type(g * (p - 1) ** 2))
    return digits @ digits.T % p


@lru_cache(maxsize=4)  # at most 4 * 30**2 * 31**2 float32s, 14 MB: g > 1 only where the side is <= 128
def _pass_matrix(p: int, g: int = 1) -> np.ndarray:
    """g exact size-p passes at once, on (slot, digits) pairs in the reduced
    basis 1, zeta, ..., zeta**(p-2), where zeta**(p-1) = -(1 + ... +
    zeta**(p-2)): row (j, t) and column (k, s), for g-digit tuples t and s,
    hold [e == k] - [e == p-1] with e = (j - s.t) mod p, so that h @ m is
    sum_t h[t] * zeta^(-s.t) in that basis.  That is the product of g
    one-axis passes; every entry is 0 or +-1, with at most two nonzeros per
    digit tuple t in each column.  At p = 2 it is the Walsh-Hadamard matrix."""
    k, e = np.arange(p - 1), (np.arange(p - 1)[:, None, None] - _digit_products(p, g)) % p  # e[j, t, s]
    e = e[:, :, None, :]  # [j, t, k, s]
    m = ((e == k[:, None]).astype(np.float32) - (e == p - 1)).reshape((p - 1) * p**g, -1)
    m.setflags(write=False)
    return m


def _require_exact_size(p: int, n: int) -> None:
    """Refuse an exact transform of p**n points before anything is built."""
    if _past_cap(p, n) or p**4 > MAX_POINTS:  # the pass matrix has (p-1)**2 * p**2 < p**4 entries
        raise UnsupportedSize(f"exact transforms take <= {MAX_POINTS} points and p <= 31")


_SLICE = 4096  # points per gather, flatness-test or histogram slice: 32 KB of intp


def _gather(table: np.ndarray, exponents: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """table[:, exponents] as a (c, N) array, into h if given, else a new
    one.  take copies its narrow indices to intp, so it takes one slice at a
    time; the indices are in range (residues mod p or element indices), so
    "clip" spares take a buffered out."""
    h = np.empty((len(table), len(exponents)), table.dtype) if h is None else h
    for i in range(0, len(exponents), _SLICE):
        table.take(exponents[i : i + _SLICE], axis=1, out=h[:, i : i + _SLICE], mode="clip")
    return h


_SLAB = 1 << 18  # elements of scratch beside a transform: a rotating pass's spare, or a slab and its product
_WIDTH = 128  # the widest group of (slot, digits) pairs that a grouped pass takes, where p allows g > 1


def _butterfly(
    h: np.ndarray, w: Callable[[int], np.ndarray], n: int, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The n size-p passes over h, shaped (c, N) with c slots per point and
    overwritten, in transform order: column perm[m] holds frequency m (see
    _frequency_map and _in_m_order).  w(g) is the pass over g digit axes (see
    _pass_matrix).  Beside h the passes hold one slab: min(h.size, _SLAB)
    elements of scratch (h.size for a complex h), allocated if it is None.

    A real h larger than a slab is passed in place, in consecutive groups of
    digit axes, as few as c*p**g <= 128 allows for a group of g (and one axis
    at least), their sizes at most one apart.  For a group, h is viewed as
    (c, A, p**g, B) and copied out a slab at a time as (c*p**g, columns) in
    runs along B, multiplied by w(g) into the scratch's other half and
    copied back.  Any other h takes one axis per pass, each moving the
    leading axis to the end between h and the scratch, so that n passes
    restore the order.  The result is returned: h, or after an odd n the
    scratch, which is copied back into h only if the caller gave it.  A
    complex h is never grouped, which would reorder its rounded sums."""
    c = len(h)
    if h.size <= _SLAB or h.dtype.kind == "c":
        w1 = w(1)
        p = len(w1) // c
        b = np.empty_like(h) if scratch is None else scratch.reshape(-1)[: h.size].reshape(h.shape)
        a, w1 = h, w1.reshape(c * p, c, p).transpose(1, 0, 2)  # [k, (j, t), s]
        for _ in range(n):
            np.matmul(a.reshape(c * p, -1).T, w1, out=b.reshape(c, -1, p))
            a, b = b, a
        if a is h or scratch is None:
            return a
        np.copyto(h, a)
        return h
    p = round(h.shape[1] ** (1 / n))  # h holds p**n points
    scratch = np.empty(_SLAB, h.dtype) if scratch is None else scratch.reshape(-1)[:_SLAB]
    most, half, axis = 1, _SLAB // 2, 0
    while c * p ** (most + 1) <= _WIDTH:
        most += 1
    groups = -(-n // most)
    for g in (n // groups + (i < n % groups) for i in range(groups)):
        m, width, after = w(g).T, c * p**g, p ** (n - axis - g)
        v = h.reshape(c, -1, p**g, after)
        run, lead = min(after, half // width), max(1, half // width // after)  # a slab's extents along B and A
        for i in range(0, v.shape[1], lead):
            for j in range(0, after, run):
                block = v[:, i : i + lead, :, j : j + run]
                x = scratch[: block.size].reshape(c, p**g, *block.shape[1:4:2])
                np.copyto(x, block.transpose(0, 2, 1, 3))
                y = np.matmul(m, x.reshape(width, -1), out=scratch[half : half + block.size].reshape(width, -1))
                np.copyto(block, y.reshape(x.shape).transpose(0, 2, 1, 3))
        axis += g
    return h


def _in_m_order(params: FieldParams, d: int, u_index: int, *arrays: np.ndarray | None) -> tuple:
    """Placement: (perm, *placed), with perm[m] u's transform position of m
    (see _frequency_map) and each array, indexed on its last axis by that
    position, indexed by m through it (None stays None).  Over a prime field
    G(u) = [u], so u = 1 gathers nothing and perm is None.  Only what hands
    out values by m calls this: a flat verdict reads the transform order."""
    if params.ell == 1 and u_index == 1:
        return (None, *arrays)
    perm = _frequency_map(params, d, u_index)
    return (perm, *(a if a is None else a.take(perm, axis=-1) for a in arrays))


def _exact_coeff_rows(
    params: FieldParams, d: int, exponents: np.ndarray, members: np.ndarray | None = None
) -> np.ndarray:
    """Exact zeta-coefficient rows of S(u, m) for every m at once.

    exponents[x] = Tr(u*f(x)) (any F_p-valued array); the boolean mask
    members restricts the point set (defaults to all points).  Returns an
    (N, p - 1) float32 view of slot-major rows in transform order: row
    perm[m] (see _frequency_map) is CycInt's normal form of S(u, m) less its
    zero last slot.  Slot k counts the points at zeta**k less those at
    zeta**(p-1), so |entry| <= N; with at most two +-1 pass entries per digit
    tuple in a column, every partial sum a BLAS kernel forms, over one axis
    or a group of them, is at most 2N <= 2**21 < 2**24 in absolute value, so
    float32 is exact at any thread count.  Beside the rows, the passes hold
    at most one slab of scratch (see _butterfly).
    """
    p = params.p
    _require_exact_size(p, d * params.ell)
    w = partial(_pass_matrix, p)
    h = _gather(w(1)[:p, p - 1 :: p].T, exponents)  # row e at j = 0, column s = p - 1 of each slot is zeta**e
    if members is not None:
        h *= members
    return _butterfly(h, w, d * params.ell).T


# One read-only slot: the float transform and the spot-check oracle of one u
# ask for the same row in turn.  Tables are frozen, so the identity of f and
# the index u key the slot; f is held weakly, so the slot never keeps it alive.
_exponents: tuple[weakref.ref, int, np.ndarray] | None = None


def _trace_exponents(f: FnTable, u_index: int) -> np.ndarray:
    """Tr(u * f(x)) for every point in the narrowest unsigned type, read-only:
    the q-entry row Tr(u * y) from digits and trace weights, gathered at f by _gather.

    Every character sum over f starts here, so this is where u = 0 is refused.
    """
    global _exponents
    if u_index == 0:
        raise TrivialCharacter("u = 0 names the trivial character")
    slot = _exponents
    if slot is None or slot[0]() is not f or slot[1] != u_index:
        params, digits = f.params, field_mod.element_digits(f.params)
        row = _modp.residue_product(digits, field_mod.trace_weights(params, u_index), params.p)
        values = _gather(row.astype(np.min_scalar_type(params.p - 1))[None], f.values)[0]
        values.setflags(write=False)
        slot = _exponents = (weakref.ref(f), u_index, values)
    return slot[2]


_CHUNK = 1 << 13  # rows per |S|^2 table: a table and its float64 slots hold 2p - 1 float64s a row


def _abs_sq_tables(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Unreduced |S|^2 of the reduced rows of an exact transform (see
    _exact_coeff_rows), in their order, as one (C, p) float64 table per
    _CHUNK rows, so that no table of a whole transform is built: t[i, k] is the
    coefficient of zeta^k in S_i*conj(S_i), sum_s rows[i, s]*rows[i, s+k mod
    p] over the slots below p - 1.  That differs from the table of p-slot
    rows by a constant per row, which changes no value.  Column k is two
    products of contiguous slot slices, [k:] with [:p-1-k] and [:k-1] with
    [p-k:], so no rolled copy is made.  |t| < 2**46 for N <= 2**20 points,
    so the float64 entries are exact integers.  Every table is a view of one
    column-major buffer, overwritten by the next: a consumer reads each
    before it asks for the next, so that two never coexist."""
    p, n = rows.shape[1] + 1, len(rows)
    table = np.empty((p, min(n, _CHUNK)))  # by column, so that each column is one contiguous run
    for i in range(0, n, _CHUNK):
        slots = rows[i : i + _CHUNK].T.astype(np.float64, order="C")
        t = table[:, : slots.shape[1]]
        for k in range(p // 2 + 1):  # the table is symmetric under k -> -k
            np.einsum("ij,ij->j", slots[k:], slots[: p - 1 - k], out=t[k])
            if k > 1:
                t[k] += np.einsum("ij,ij->j", slots[: k - 1], slots[p - k :])
            t[-k] = t[k]
        slots = None  # freed before the consumer reads the table
        yield t.T


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
    """The real value of every row of an unreduced |S|^2 table, a function of
    that row alone: with c_k = cos(2*pi*k/p), the terms (t_k - t_1) * c_k for
    k = 0, 2, ..., p - 1 added elementwise in that order, with no BLAS call,
    so that no BLAS build, thread count or row position changes a bit.  Each
    term carries two roundings and the sum p - 2, so to first order |error|
    <= p * 2**-53 * sum_k |t_k - t_1| * |c_k| (Higham 2002, ch. 4)."""
    p = t.shape[1]
    # The p-th root cosines sum to zero, so the value only depends on the
    # coefficients up to a common shift.  Subtracting t[:, 1] keeps the huge
    # near-uniform rows from cancelling in floats, and makes integer-valued
    # rows (where t[:, 1:] is constant) come out exactly.
    terms = (t - t[:, 1:2]) * np.cos(math.tau * np.arange(p) / p)
    value = terms[:, 0].copy()
    for k in range(2, p):
        value += terms[:, k]
    return value


def _columns(
    tables: Iterable[np.ndarray], n: int, conjugates: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(defined, ints, values) of n rows in their tables' order, from one pass
    over their unreduced |S|^2 tables: where defined[i] holds, |S|^2 is the
    rational integer ints[i] (see _rational_rows), and ints[i] is 0 where it
    fails, so that every conjugate has the same two columns.  values is None
    when every row is rational; else values[j] is the float |S|^2 of
    sigma_(j+1) of every cell for j < conjugates (slot k of sigma_t(z) is
    slot k/t of z): the integer on rational rows, and on the others
    _real_values clamped at 0, read only from the tables that hold an
    irrational row.  An entry reads its own row alone, so a transform's
    columns are computed in its order, then placed (see _in_m_order)."""
    defined, ints, values = np.empty(n, dtype=bool), np.empty(n, dtype=np.int64), None
    stop = 0
    for t in tables:
        rows, stop = slice(stop, stop + len(t)), stop + len(t)
        rational = defined[rows] = _rational_rows(t)
        ints[rows] = t[:, 0] - t[:, 1]
        if not rational.all():
            ints[rows][~rational] = 0
            if values is None:
                values = np.empty((conjugates, n))
            p = t.shape[1]
            for j in range(conjugates):
                conjugate = t[:, np.arange(p) * pow(j + 1, -1, p) % p] if j else t
                values[j, rows] = np.maximum(_real_values(conjugate), 0.0)
    if values is not None:
        np.copyto(values, ints, where=defined)
    return defined, ints, values


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
    rows = _exact_coeff_rows(f.params, f.d, _trace_exponents(f, u.index)).T  # slot-major: m on the last axis
    rows = _in_m_order(f.params, f.d, u.index, rows)[1].T.astype(np.int64).tolist()
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
    (d+1)*(p-1), histogrammed and folded p-wide: no reduction per point.
    bincount copies its input to intp, so it counts one slice at a time into
    the first slice's histogram.
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
    hist = None
    for i in range(0, len(values), _SLICE):
        part = values[i : i + _SLICE] if members is None else values[i : i + _SLICE][members[i : i + _SLICE]]
        counts = np.bincount(part, minlength=minlength)
        hist = counts if hist is None else np.add(hist, counts, out=hist)
    return np.add.reduce(hist.reshape(-1, p))


def exact_cell(f: FnTable, u_index: int, m_index: int) -> CycInt:
    """Exact S(u, m) for a single (u, m), vectorized over points.

    Independent of the butterfly engine: accumulates the exponent
    Tr(u*f(x)) - sum_j Tr((u*m_j)*x_j) per point and histograms it.  Used
    as the spot-check oracle behind the floating transform path.  Both
    indices are read as operator.index reads them: a float or a string
    raises IndexOutOfRange, never truncated or parsed.
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
    rows = _exact_coeff_rows(f.params, f.d, _trace_exponents(f, u.index))
    total = sum(t.astype(np.int64).sum(axis=0) for t in _abs_sq_tables(rows))  # int64: a sum passes 2**53
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


def _witness_m(defined: np.ndarray, ints: np.ndarray, values: np.ndarray | None, target: int) -> int:
    """Least excess-valued m of u's columns placed by m (see _columns),
    falling back to least failing m.

    Mirrors the PN witness convention: prefer the least m whose |S|^2
    provably exceeds q^d (exact integer first, then float), else the least
    m failing equality at all.  The float values are read only when no
    rational row exceeds the target.
    """
    over = np.flatnonzero(defined & (ints > target))
    if over.size:
        return int(over[0])
    if values is not None:
        over = np.flatnonzero(~defined & (values[0] > target + 0.25))
        if over.size:
            return int(over[0])
    return int(np.flatnonzero(~defined | (ints != target))[0])


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
    yielded without a name in the walk, so a consumer can free them.
    """
    p = f.params.p
    for j in range(f.params.ell):
        for u_index in range(p**j, 2 * p**j):
            yield u_index, _exact_coeff_rows(f.params, f.d, _trace_exponents(f, u_index))


def _witness(
    f: FnTable, u_index: int, perm: np.ndarray | None, columns: tuple, rows: np.ndarray, t: np.ndarray | None = None
) -> BentWitness:
    """The least failing cell of u under the witness rule, from its columns
    placed by perm (see _in_m_order), which are not flat; its exact value is
    the |S|^2 row at its transform position, of t if whole, else of rows,
    normalized (last slot 0) as exact_cell normalizes its counts."""
    params = f.params
    m_index = _witness_m(*columns, f.n_points)
    i = m_index if perm is None else perm[m_index]
    row = (next(_abs_sq_tables(rows[i : i + 1]))[0] if t is None else t[i]).astype(np.int64)
    return BentWitness(
        params.from_index(u_index),
        PointVector.from_index(params, f.d, m_index),
        CycInt(params.p, tuple((row - row[-1]).tolist())),
    )


def is_bent_exact(f: FnTable) -> BentVerdict:
    """Exact flat-spectrum test: |S(u, m)|^2 = q^d for all u != 0, m, by the
    orbit walk, which stops at the first failing orbit.  Flatness does not
    depend on the order of m, so each orbit's tables are tested in transform
    order, one chunk of rows at a time, up to the first failing one; so are
    the failing orbit's columns (from the flat test's table when it is the
    only one), and only they are placed by m, to name its cell."""
    params, n = f.params, f.n_points
    for u_index, rows in _orbit_walk(f):
        for t in _abs_sq_tables(rows):
            if not _is_flat(t, n):
                break
        else:
            continue
        t = t if n <= _CHUNK else None  # the whole table, else the columns read every table again
        perm, *columns = _in_m_order(params, f.d, u_index, *_columns(_abs_sq_tables(rows) if t is None else [t], n))
        return BentVerdict(False, _witness(f, u_index, perm, columns, rows, t))
    return BentVerdict(True, None)


# ---------------------------------------------------------------------------
# Fast transform path.


@lru_cache(maxsize=2)  # 16 * p**2 bytes at odd p: 2.7 KB at p = 13, 16 MB at p = 1009
def _butterfly_matrix(p: int, g: int = 1) -> np.ndarray:
    """The float pass over g digit axes, w[t, s] = zeta^(-s.t) on g-digit
    tuples.  Only p = 2 takes g > 1 (see _butterfly), where w is the g-th
    Kronecker power of the float32 Walsh-Hadamard matrix.  The fast path runs
    every u of one table in a row, so the entries serve all q - 1 of them."""
    if p == 2:
        w = np.where(_digit_products(2, g), np.float32(-1), np.float32(1))
    else:
        w = np.exp(-2j * math.pi * np.outer(np.arange(p), np.arange(p)) / p)
    w.setflags(write=False)
    return w


def _roots(p: int) -> np.ndarray:
    """zeta**j for j < p; float32 +-1 at p = 2, where sums of them stay exact."""
    return np.array([1.0, -1.0], np.float32) if p == 2 else np.exp(2j * math.pi * np.arange(p) / p)


def walsh_fast_all(f: FnTable, u: FieldElement) -> np.ndarray:
    """All q^d magnitudes |S(u, m)| by a multidimensional size-p butterfly.

    Floating point for odd p; for p = 2 the float32 Walsh-Hadamard sums are
    integers of size <= 2**20 < 2**24, so exact, and the magnitudes are
    returned as float64.  Over F_2 the passes run in the upper float32 half
    of the returned array, with the lower half as their scratch, and are
    widened into it in ascending slices: one float64 per point.
    """
    _check_field(f, u)
    params = f.params
    p, n = params.p, f.d * params.ell
    if p**2 > MAX_POINTS:  # the pass matrix has p**2 entries, as the exact one p**4
        raise UnsupportedSize(f"fast transforms take p**2 <= {MAX_POINTS}: p <= 1021")
    roots, w, exponents = _roots(p)[None], partial(_butterfly_matrix, p), _trace_exponents(f, u.index)
    if params.q == 2:  # the transform order is m order (see _in_m_order): nothing is placed
        mags = np.empty(len(exponents))
        lower, upper = mags.view(np.float32).reshape(2, 1, -1)
        h = _butterfly(_gather(roots, exponents, upper), w, n, lower)[0]
        np.abs(h, out=h)
        for i in range(0, len(mags), _SLICE):  # ascending: no slice overwrites a float32 still unread
            mags[i : i + _SLICE] = h[i : i + _SLICE]
        return mags
    h = _butterfly(_gather(roots, exponents), w, n)[0]
    h = np.abs(h, out=h) if p == 2 else np.abs(h)  # frees a complex h before the gather
    return _in_m_order(params, f.d, u.index, h)[1].astype(np.float64, copy=False)


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


def _spot_check(f: FnTable, u_index: int, ms: list[int], floats: np.ndarray) -> int:
    """Exactly recompute the cells ms, each summed at the float transform's
    roots (so exactly at p = 2); return how many of the float magnitudes
    floats, read at ms, disagree."""
    rows = np.array([exact_cell(f, u_index, m).coeffs for m in ms], dtype=np.float64)
    exact = np.abs(rows @ _roots(f.params.p))
    return int(np.count_nonzero(np.abs(floats - exact) > _FAST_REL_TOL * np.maximum(exact, 1.0)))


def _first_off_target(mags: np.ndarray, target: float) -> int | None:
    """Least m with | |S|^2 - q^d | > 1e-6 * q^d, tested one slice at a
    time up to the first failing slice, so that no point-sized buffer is built."""
    for i in range(0, len(mags), _SLICE):
        sq = mags[i : i + _SLICE] * mags[i : i + _SLICE]
        failing = np.flatnonzero(np.abs(sq - target) > 1e-6 * target)
        if failing.size:
            return i + int(failing[0])
    return None


def is_bent_fast(f: FnTable) -> FastBentVerdict:
    """Float flat-spectrum test: every |S(u, m)|^2 equals q^d within
    tolerance (exactly for p = 2), with exact spot checks of every u.

    Runs in one process.  The witness is the least failing (u, m); the
    verdict is certified only when no spot check disagreed.  For each u the
    spot checks recompute m = splitmix64(0x5BD1E995 ^ u, i) mod N for i < k,
    k = min(256, N // 100, 2**26 // (N*(d+1))) and at least 1, N = q^d; a
    magnitude disagrees when it misses the exact one by over 1e-9 relative.
    Each u runs the flatness test and the witness first, then reads its
    magnitudes at the sampled cells and frees them, and only then sums the
    exact cells.
    """
    params, n = f.params, f.n_points
    target = float(n)
    witness: FastBentWitness | None = None
    sampled = mismatches = 0
    for u_index in range(1, params.q):
        mags = walsh_fast_all(f, params.from_index(u_index))
        m = None if witness is not None else _first_off_target(mags, target)
        if m is not None:
            witness = FastBentWitness(
                params.from_index(u_index), PointVector.from_index(params, f.d, m), float(mags[m] * mags[m])
            )
        ms = (splitmix64(_SPOT_SEED ^ u_index, np.arange(_spot_count(n, f.d))) % np.uint64(n)).tolist()
        floats, mags = mags[ms], None  # freed before the exact cells and the next transform
        sampled += len(ms)
        mismatches += _spot_check(f, u_index, ms, floats)
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
    defined[m] holds (ints[m] is 0 where it fails), and magnitudes[m] is
    |S(u, m)| as a float.  rows builds SpectrumRow named tuples on demand,
    each equal to the plain tuple of its fields."""

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


def _report(params: FieldParams, d: int, u_index: int, rows: np.ndarray) -> SpectrumReport:
    """The report of u from its exact coefficient rows in transform order,
    passed inline so that this frame frees them before the columns of their
    |S|^2 tables (see _columns) are placed by m; magnitudes are fed from the
    rational integer where it exists, so that rational cells stay exact."""
    defined, ints, values = _columns(_abs_sq_tables(rows), len(rows))
    rows = None  # freed before the columns are placed
    _, defined, ints, values = _in_m_order(params, d, u_index, defined, ints, values)
    exact = ints.astype(np.float64) if values is None else values[0]
    return SpectrumReport(params, d, u_index, defined, ints, np.sqrt(exact, out=exact))


def spectrum_report(f: FnTable, u: FieldElement) -> SpectrumReport:
    _check_field(f, u)
    return _report(f.params, f.d, u.index, _exact_coeff_rows(f.params, f.d, _trace_exponents(f, u.index)))


def spectrum_reports(f: FnTable) -> Generator[SpectrumReport, None, BentVerdict]:
    """spectrum_report(f, u) for every u in F_q^*, one exact transform per
    Galois orbit: each orbit's least member first, then its multiples t*u
    for t = 2, ..., p-1, whose tables are slot permutations of it, all from
    one pass over the tables, whose columns the representative's map places.
    Rationality and rational values are the same for every member, so the
    members share defined and ints, and when every row is rational their
    magnitudes too.  Returns the is_bent_exact verdict of the same
    transforms (StopIteration.value)."""
    params, n = f.params, f.n_points
    witness = None
    for rep, rows in _orbit_walk(f):
        defined, ints, values = _columns(_abs_sq_tables(rows), n, params.p - 1)
        if witness is not None or np.all(defined & (ints == n)):
            rows = None  # no witness reads them: freed before the columns are placed
        perm, defined, ints, values = _in_m_order(params, f.d, rep, defined, ints, values)  # shared by every t*rep
        if rows is not None:  # the least failing orbit
            witness = _witness(f, rep, perm, (defined, ints, values), rows)
        rows = perm = None  # freed before the reports are built
        exact = ints.astype(np.float64) if values is None else values
        mags = np.sqrt(exact, out=exact)
        for a in (defined, ints, mags):
            a.setflags(write=False)  # shared between the reports of the orbit
        for t in range(1, params.p):
            u_index = params.from_index(rep).scale(t).index
            yield SpectrumReport(params, f.d, u_index, defined, ints, mags if values is None else mags[t - 1])
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
