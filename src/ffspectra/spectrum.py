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
* fast: the same butterfly over complex128 (integer Walsh-Hadamard for
  p = 2, where it stays exact).

S(t*u, m) for t in F_p^* is the conjugate sigma_t(S(u, m)), so one exact
transform per Galois orbit serves the bent verdict and every per-u report.
The test suite pins both reductions against the direct route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import _modp, field as field_mod
from .catalog import splitmix64
from .cyclotomic import CycInt
from .errors import EvenCharacteristic, TrivialCharacter, UnsupportedSize
from .field import FieldElement, FieldParams, trace
from .funcs import MAX_POINTS, FnTable, PnVerdict, is_pn
from .space import PointVector


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


def characters(params: FieldParams) -> Iterator[Character]:
    """All q-1 nontrivial additive characters, by ascending u index."""
    for i in range(1, params.q):
        yield Character(params.from_index(i))


# ---------------------------------------------------------------------------
# Exact engine.


@lru_cache(maxsize=field_mod.PER_U_CACHE_SIZE)
def _gram(params: FieldParams, u_index: int) -> np.ndarray:
    """G[j,k] = Tr(u * t**j * t**k); then Tr(u*(x.m)) = digits(x).T B digits(m)
    with B = I_d kron G."""
    basis = _modp.powers(params.p, params.ell)
    u_basis = field_mod.vec_mul(params, u_index, basis)
    g = params.trace_table[field_mod.vec_mul(params, u_basis[:, None], basis[None, :])]
    g.setflags(write=False)
    return g


def _frequency_map(params: FieldParams, d: int, u_index: int) -> np.ndarray:
    """perm[m] = flat transform index holding S(u, m).

    B = I_d kron G acts on each coordinate m_j separately, so the map is the
    one-coordinate map on [0, q) applied to every base-q digit of m.
    """
    q = params.q
    one = _modp.apply_linear(np.arange(q, dtype=np.int64), _gram(params, u_index), params.p)
    perm = one
    for j in range(1, d):
        perm = (one[:, None] * q**j + perm).ravel()
    return perm


@lru_cache(maxsize=4)  # at most 4 * 31**4 float64s, 30 MB
def _pass_matrix(p: int) -> np.ndarray:
    """One exact size-p pass on (t, slot) pairs: out[s, k] = sum_t h[t, (k + s*t) mod p],
    i.e. sum_t h[t] * zeta^(-s*t), as multiplying by zeta^r shifts slots by r."""
    t, j, s, k = np.ogrid[:p, :p, :p, :p]
    m = ((k + s * t - j) % p == 0).astype(np.float64).reshape(p * p, p * p)
    m.setflags(write=False)
    return m


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
    (N, p) int64 array whose row m is the unnormalized coefficient vector of
    S(u, m).  Each pass moves the leading digit axis to the end, so n passes
    restore the order; all entries are point counts <= N, exact in float64.
    """
    p = params.p
    n = d * params.ell
    size = p**n
    if size > MAX_POINTS or p**4 > MAX_POINTS:  # the pass matrix has p**4 entries
        raise UnsupportedSize(f"exact transforms take <= {MAX_POINTS} points and p <= 31")
    h = np.zeros((size, p))
    h[np.arange(size), exponents] = 1.0 if members is None else members
    m = _pass_matrix(p)
    for _ in range(n):
        h = h.reshape(p, -1, p).transpose(1, 0, 2).reshape(-1, p * p) @ m
    return h.reshape(size, p).astype(np.int64)[_frequency_map(params, d, u_index)]


def _trace_exponents(f: FnTable, u_index: int) -> np.ndarray:
    """Tr(u * f(x)) for every point, vectorized through trace weights.

    Every character sum over f starts here, so this is where u = 0 is refused.
    """
    if u_index == 0:
        raise TrivialCharacter("u = 0 names the trivial character")
    params = f.params
    w = np.asarray(field_mod.trace_weights(params, u_index))
    digits = _modp.digits_of(f.values, params.p, params.ell)
    return (digits @ w) % params.p


class _AbsSq:
    """|S(u, m)|^2 for every m of one u, from one exact transform.

    table[m, k] is the unreduced coefficient of zeta^k in S(u,m)*conj(S(u,m)).
    Where defined[m] holds, the value is the rational integer ints[m];
    floats[m] is the real value of every row.
    """

    def __init__(
        self,
        params: FieldParams,
        d: int,
        u_index: int,
        exponents: np.ndarray,
        members: np.ndarray | None = None,
    ) -> None:
        rows = _exact_coeff_rows(params, d, u_index, exponents, members)
        p = params.p
        t = np.empty_like(rows)
        for k in range(p // 2 + 1):  # the table is symmetric under k -> -k
            t[:, k] = t[:, -k] = np.einsum("ij,ij->i", rows, rows[:, np.arange(-k, p - k) % p])
        self._fill(t)

    def _fill(self, t: np.ndarray) -> None:
        self.p = p = t.shape[1]
        self.table = t
        self.defined = np.all(t[:, 1:] == t[:, 1:2], axis=1)
        self.ints = t[:, 0] - t[:, 1]
        # The p-th root cosines sum to zero, so the value only depends on the
        # coefficients up to a common shift.  Subtracting t[:, 1] keeps the huge
        # near-uniform rows from cancelling in floats, and makes integer-valued
        # rows (where t[:, 1:] is constant) come out exactly.
        self.floats = (t - t[:, 1:2]) @ np.cos(math.tau * np.arange(p) / p)

    def galois(self, t: int) -> "_AbsSq":
        """The table of t*u, t in F_p^*: slot k of sigma_t(z) is slot k/t of z."""
        image = object.__new__(_AbsSq)
        image._fill(self.table[:, np.arange(self.p) * pow(t, -1, self.p) % self.p])
        return image

    @classmethod
    def of(cls, f: FnTable, u_index: int) -> "_AbsSq":
        return cls(f.params, f.d, u_index, _trace_exponents(f, u_index))

    def report(self, f: FnTable, u_index: int) -> "SpectrumReport":
        return SpectrumReport(f.params, f.d, u_index, self.defined, self.ints, self.magnitudes())

    def fails(self, target: int) -> np.ndarray:
        """Mask of the m whose |S|^2 is not the rational integer target."""
        return ~self.defined | (self.ints != target)

    def magnitudes(self) -> np.ndarray:
        """|S(u, m)| per m, fed from the exact integer whenever one exists so
        that rational cells stay float-exact."""
        exact = self.ints.astype(np.float64)
        return np.sqrt(np.where(self.defined, exact, np.maximum(self.floats, 0.0)))


# ---------------------------------------------------------------------------
# Public exact operations.


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
    rows = _exact_coeff_rows(f.params, f.d, u.index, _trace_exponents(f, u.index))
    return [CycInt.from_coeffs(f.params.p, row.tolist()) for row in rows]


class _OracleState:
    """The per-(f, u) invariants of exact_cell: Tr(u*f(x)) for every point,
    shaped (q,)*d so that axis d-1-j runs over the coordinate x_j, and the
    digits of every element of F_q."""

    def __init__(self, f: FnTable, u_index: int) -> None:
        params = f.params
        self.f = f
        self.u_index = u_index
        self.exponents = _trace_exponents(f, u_index).reshape((params.q,) * f.d)
        self.digits = _modp.digits_of(np.arange(params.q), params.p, params.ell)


# One slot: the spot checks ask for many cells of one (f, u) in a row.  Tables
# are frozen, so the identity of f and the index u key the slot.
_oracle: _OracleState | None = None


def _oracle_state(f: FnTable, u_index: int) -> _OracleState:
    global _oracle
    state = _oracle
    if state is None or state.f is not f or state.u_index != u_index:
        state = _oracle = _OracleState(f, u_index)
    return state


def exact_cell(f: FnTable, u_index: int, m_index: int) -> CycInt:
    """Exact S(u, m) for a single (u, m), vectorized over points.

    Independent of the butterfly engine: accumulates the exponent
    Tr(u*f(x)) - sum_j Tr((u*m_j)*x_j) per point and histograms it.  Used
    as the spot-check oracle behind the floating transform path.
    """
    params = f.params
    p, q, d = params.p, params.q, f.d
    state = _oracle_state(f, u_index)
    exps = state.exponents.copy()
    u = params.from_index(u_index)
    for j in range(d):
        mj = (m_index // q**j) % q
        if mj == 0:
            continue
        umj = (u * params.from_index(mj)).index
        # term[x_j] = Tr((u*m_j)*x_j) for every x_j in F_q.
        term = (state.digits @ np.asarray(field_mod.trace_weights(params, umj))) % p
        shape = [1] * d
        shape[d - 1 - j] = q
        exps -= term.reshape(shape)
    counts = np.bincount(exps.ravel() % p, minlength=p)
    return CycInt.from_histogram(p, [int(c) for c in counts])


def parseval_total(f: FnTable, u: FieldElement) -> int:
    """Exact sum over m of |S(u, m)|^2; always the rational integer q^(2d)."""
    total = _AbsSq.of(f, u.index).table.sum(axis=0)
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


def is_bent_exact(f: FnTable) -> BentVerdict:
    """Exact flat-spectrum test: |S(u, m)|^2 = q^d for all u != 0, m.

    u is scanned by ascending index, one transform per Galois orbit: scaling
    u by t in F_p^* conjugates every S(u, m), which changes neither rational
    integrality nor rational values of |S|^2, so a whole orbit shares one
    pass/fail pattern over m.  The scan stops at the first failing orbit,
    whose least member is the least failing u.
    """
    params = f.params
    target = f.n_points
    for u_index in _orbit_reps(params):
        spec = _AbsSq.of(f, u_index)
        if np.any(spec.fails(target)):
            m_index = _witness_m(spec, target)
            witness = BentWitness(
                params.from_index(u_index),
                PointVector.from_index(params, f.d, m_index),
                CycInt.from_coeffs(params.p, spec.table[m_index].tolist()),
            )
            return BentVerdict(False, witness)
    return BentVerdict(True, None)


# ---------------------------------------------------------------------------
# Fast transform path.


def _butterfly_matrix(p: int) -> np.ndarray:
    if p == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)
    jk = np.outer(np.arange(p), np.arange(p))
    return np.exp(-2j * math.pi * jk / p)


def walsh_fast_all(f: FnTable, u: FieldElement) -> np.ndarray:
    """All q^d magnitudes |S(u, m)| by a multidimensional size-p butterfly.

    Floating point for odd p; for p = 2 the transform is the integer
    Walsh-Hadamard transform and the returned floats are exact.
    """
    params = f.params
    p = params.p
    n = f.d * params.ell
    exponents = _trace_exponents(f, u.index)
    if p == 2:
        values = 1 - 2 * exponents.astype(np.int64)
    else:
        values = np.exp(2j * math.pi * exponents / p)
    w = _butterfly_matrix(p)
    tensor = values.reshape((p,) * n)
    for axis in range(n):
        moved = np.moveaxis(tensor, axis, 0)
        tensor = np.moveaxis(np.tensordot(w, moved, axes=([1], [0])), 0, axis)
    flat = tensor.reshape(f.n_points)
    return np.abs(flat[_frequency_map(params, f.d, u.index)]).astype(np.float64)


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
class FastBentVerdict:
    """Float flat-spectrum verdict with its exact spot-check tally.

    sampled cells were recomputed by exact_cell; mismatches counts those
    whose float magnitude disagreed beyond the relative tolerance.
    """

    is_bent: bool
    witness: FastBentWitness | None
    sampled: int
    mismatches: int

    @property
    def verdict(self) -> str:
        return "bent" if self.is_bent else "not_bent"

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
    k = _spot_count(n, f.d)
    bad = 0
    for i in range(k):
        m_index = splitmix64(_SPOT_SEED ^ u_index, i) % n
        z = exact_cell(f, u_index, m_index).abs_sq()
        exact_int = z.as_integer()
        exact_val = float(exact_int) if exact_int is not None else z.to_complex().real
        root = math.sqrt(max(exact_val, 0.0))
        if abs(float(mags[m_index]) - root) > _FAST_REL_TOL * max(root, 1.0):
            bad += 1
    return k, bad


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
        sq = mags * mags
        if params.p == 2:
            failing = np.nonzero(np.rint(sq) != target)[0]
        else:
            failing = np.nonzero(np.abs(sq - target) > 1e-6 * target)[0]
        if witness is None and failing.size:
            m = int(failing[0])
            witness = FastBentWitness(
                params.from_index(u_index), PointVector.from_index(params, f.d, m), float(sq[m])
            )
    return FastBentVerdict(witness is None, witness, sampled, mismatches)


# ---------------------------------------------------------------------------
# Reports and the PN/bent crosscheck.


@dataclass(frozen=True)
class SpectrumRow:
    m_index: int
    abs_sq_int: int | None
    magnitude: float


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
        return [v if ok else None for ok, v in zip(self.defined.tolist(), self.ints.tolist())]

    @property
    def rows(self) -> tuple[SpectrumRow, ...]:
        mags = self.magnitudes.tolist()
        return tuple(map(SpectrumRow, range(len(mags)), self.abs_sq_ints, mags))

    @property
    def max_magnitude(self) -> float:
        return float(self.magnitudes.max())

    @property
    def min_magnitude(self) -> float:
        return float(self.magnitudes.min())

    def is_flat(self, target: int) -> bool:
        return bool(np.all(self.defined & (self.ints == target)))


def spectrum_report(f: FnTable, u: FieldElement) -> SpectrumReport:
    return _AbsSq.of(f, u.index).report(f, u.index)


def spectrum_reports(f: FnTable) -> Iterator[SpectrumReport]:
    """spectrum_report(f, u) for every u in F_q^*, one exact transform per
    Galois orbit: each orbit's least member first, then its multiples t*u
    for t = 2, ..., p-1, whose tables are slot permutations of it."""
    params = f.params
    for rep in _orbit_reps(params):
        spec = _AbsSq.of(f, rep)
        yield spec.report(f, rep)
        for t in range(2, params.p):
            u_index = int(_modp.scale_indices(rep, t, params.p, params.ell))
            yield spec.galois(t).report(f, u_index)


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
