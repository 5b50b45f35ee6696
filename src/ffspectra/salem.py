"""Point sets, indicator Fourier coefficients, and the flat-graph verifier.

For E a subset of F_q**d the relevant sums are S(m) = sum over x in E of
zeta^Tr(-x.m) with the canonical character u = 1 (any other u only permutes
the multiset of values over m; the tests pin that).  The graph of a bent
function f: F_q**(d-1) -> F_q has |S(m)|^2 = 0 on nonzero frequencies whose
last coordinate vanishes and q**(d-1) on the rest, which makes the best
constant in |indicator_ft| <= C * q**(-d) * |E|**(1/2) exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .cyclotomic import CycInt
from .errors import EmptySet, FieldMismatch, HypothesisFailed, TrivialCharacter
from .field import FieldElement, FieldParams
from .funcs import FnTable
from .space import PointVector, _refuse_past_cap
from .spectrum import SpectrumReport, _AbsSq, _cell_counts, _require_exact_size, is_bent_exact


@dataclass(frozen=True, eq=False)
class PointSet:
    """Subset of F_q**d as an immutable membership bitmap."""

    params: FieldParams
    d: int
    bitmap: np.ndarray

    def __post_init__(self) -> None:
        _refuse_past_cap(self.params.q, self.d)
        arr = np.array(self.bitmap, dtype=bool)
        if arr.shape != (self.params.q**self.d,):
            raise ValueError(f"bitmap must have length {self.params.q ** self.d}")
        arr.setflags(write=False)
        object.__setattr__(self, "bitmap", arr)

    @classmethod
    def from_indices(cls, params: FieldParams, d: int, indices) -> "PointSet":
        _refuse_past_cap(params.q, d)
        bitmap = np.zeros(params.q**d, dtype=bool)
        bitmap[np.asarray(indices, dtype=np.int64)] = True
        return cls(params, d, bitmap)

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.bitmap))

    def __contains__(self, x: PointVector) -> bool:
        return bool(self.bitmap[x.index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (
            self.params == other.params
            and self.d == other.d
            and np.array_equal(self.bitmap, other.bitmap)
        )

    def __repr__(self) -> str:
        return f"PointSet(q={self.params.q}, d={self.d}, |E|={self.cardinality})"


def graph_of(f: FnTable) -> PointSet:
    """The graph {(x, f(x))} as a subset of F_q**(f.d + 1)."""
    _refuse_past_cap(f.params.q, f.d + 1)  # before the member indices
    n = f.n_points
    member = np.arange(n, dtype=np.int64) + f.values * np.int64(n)
    return PointSet.from_indices(f.params, f.d + 1, member)


def indicator_sum(e: PointSet, m: PointVector, u: FieldElement | None = None) -> CycInt:
    """Exact S(m) = sum over x in E of zeta^Tr(-u * (x.m)); u defaults to 1."""
    params = e.params
    if m.params != params or m.d != e.d:
        raise FieldMismatch("frequency incompatible with this set")
    if u is not None and u.params != params:
        raise FieldMismatch("character parameter from a different field")
    if u is not None and u.is_zero():
        raise TrivialCharacter("u = 0 names the trivial character")
    exponents = np.zeros((params.q,) * e.d, dtype=np.int64)  # exponent 0 at every member
    counts = _cell_counts(params, 1 if u is None else u.index, exponents, m.index, e.bitmap)
    return CycInt.from_histogram(params.p, counts.tolist())


def indicator_ft_abs_sq(e: PointSet, m: PointVector, u: FieldElement | None = None) -> CycInt:
    """Exact |S(m)|^2; the q**(-d) normalization is applied only in reports."""
    return indicator_sum(e, m, u).abs_sq()


def salem_constant(e: PointSet) -> tuple[float, PointVector]:
    """max over m != 0 of |S(m)| / |E|**(1/2), with the least argmax index."""
    report = salem_report(e)
    return report.salem_constant, report.argmax_m


class SalemRow(NamedTuple):
    m_index: int
    case_tag: str
    abs_sq_int: int | None
    expected_int: int | None
    magnitude: float
    bound_ratio: float


_salem_row = partial(tuple.__new__, SalemRow)  # as spectrum._spectrum_row
_TAG_NAMES = ("zero", "case1", "case2")


@dataclass(frozen=True, eq=False)
class SalemReport(SpectrumReport):
    """The spectrum of E's indicator at u = 1, with the two-case flat-graph
    checks: ratios = magnitudes / |E|**(1/2), and expected[tags[m]] is the
    |S(m)|^2 asserted for m's case, or None."""

    cardinality: int
    ratios: np.ndarray
    tags: np.ndarray
    expected: tuple[int | None, int | None, int | None]

    @property
    def case_tags(self) -> list[str]:
        return [_TAG_NAMES[t] for t in self.tags.tolist()]

    @property
    def rows(self) -> tuple[SalemRow, ...]:
        tags = self.tags.tolist()
        names = [_TAG_NAMES[t] for t in tags]
        want = [self.expected[t] for t in tags]
        mags, ratios = self.magnitudes.tolist(), self.ratios.tolist()
        return tuple(map(_salem_row, zip(range(len(tags)), names, self.abs_sq_ints, want, mags, ratios)))

    @property
    def argmax_m_index(self) -> int:
        """The least m != 0 attaining the largest ratio."""
        return int(np.argmax(self.ratios[1:])) + 1

    @property
    def argmax_m(self) -> PointVector:
        return PointVector.from_index(self.params, self.d, self.argmax_m_index)

    @property
    def salem_constant(self) -> float:
        return float(self.ratios[self.argmax_m_index])

    @property
    def max_abs_sq_int(self) -> int | None:
        m = self.argmax_m_index
        return int(self.ints[m]) if self.defined[m] else None

    @property
    def theorem1_pass(self) -> bool | None:
        """Every asserted case holds exactly; None when nothing is asserted."""
        if self.expected == (None, None, None):
            return None
        want = np.array([-1 if v is None else v for v in self.expected])[self.tags]
        return bool(np.all((want < 0) | (self.defined & (self.ints == want))))


def _build_report(e: PointSet, expected: tuple[int | None, int | None, int | None]) -> SalemReport:
    if e.cardinality == 0:
        raise EmptySet("spectral report of the empty set")
    # the canonical character u = 1: exponent 0 at every member
    spec = _AbsSq.of(e.params, e.d, 1, np.zeros(e.params.q**e.d, dtype=np.int64), e.bitmap)
    mags = spec.magnitudes()
    tags = np.where(np.arange(mags.size) < e.params.q ** (e.d - 1), 1, 2)
    tags[0] = 0  # 0 = zero frequency, 1 = last coordinate zero, 2 = last nonzero
    return SalemReport(
        e.params, e.d, 1, spec.defined, spec.ints, mags,
        e.cardinality, mags / math.sqrt(e.cardinality), tags, expected,
    )


def salem_report(e: PointSet) -> SalemReport:
    """Per-frequency spectrum and Salem constant, no theorem assertions."""
    return _build_report(e, (None, None, None))


def verify_theorem1(f: FnTable) -> SalemReport:
    """Flat-graph certification for a bent f: case-1 frequencies vanish,
    case-2 frequencies carry exactly q**(f.d), so the Salem constant is 1.

    Raises UnsupportedSize for a graph past the exact engine's cap before
    any scan, and HypothesisFailed (with the bent witness) when f is not
    bent; the theorem presupposes bentness.
    """
    _require_exact_size(f.params.p, (f.d + 1) * f.params.ell)
    verdict = is_bent_exact(f)
    if not verdict.is_bent:
        raise HypothesisFailed(
            "the input is not bent; flat-graph statement does not apply", verdict.witness
        )
    e = graph_of(f)
    return _build_report(e, (e.cardinality**2, 0, f.n_points))
