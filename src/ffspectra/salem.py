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
from typing import Sequence

import numpy as np

from . import _modp, field as field_mod
from .cyclotomic import CycInt
from .errors import DimensionMismatch, EmptySet, FieldMismatch, HypothesisFailed
from .field import FieldElement, FieldParams
from .funcs import FnTable
from .space import PointVector
from .spectrum import _AbsSq, is_bent_exact


@dataclass(frozen=True, eq=False)
class PointSet:
    """Subset of F_q**d as an immutable membership bitmap."""

    params: FieldParams
    d: int
    bitmap: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.bitmap, dtype=bool)
        if arr.shape != (self.params.q**self.d,):
            raise ValueError(f"bitmap must have length {self.params.q ** self.d}")
        arr.setflags(write=False)
        object.__setattr__(self, "bitmap", arr)

    @classmethod
    def from_indices(cls, params: FieldParams, d: int, indices) -> "PointSet":
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
    n = f.n_points
    member = np.arange(n, dtype=np.int64) + f.values * np.int64(n)
    return PointSet.from_indices(f.params, f.d + 1, member)


def _indicator_spectrum(e: PointSet) -> tuple[_AbsSq, np.ndarray, int]:
    """|S(m)|^2 of E for all m at once, the bound ratios |S(m)| / |E|**(1/2),
    and the least m != 0 attaining the largest ratio."""
    exponents = np.zeros(e.params.q**e.d, dtype=np.int64)
    spec = _AbsSq(e.params, e.d, 1, exponents, e.bitmap.astype(np.int64))
    ratios = spec.magnitudes() / math.sqrt(e.cardinality)
    return spec, ratios, int(np.argmax(ratios[1:])) + 1


def indicator_sum(e: PointSet, m: PointVector, u: FieldElement | None = None) -> CycInt:
    """Exact S(m) = sum over x in E of zeta^Tr(-u * (x.m)); u defaults to 1."""
    params = e.params
    if m.params != params or m.d != e.d:
        raise FieldMismatch("frequency incompatible with this set")
    u_index = 1 if u is None else u.index
    if u_index == 0:
        counts = [e.cardinality] + [0] * (params.p - 1)
        return CycInt.from_histogram(params.p, counts)
    members = np.nonzero(e.bitmap)[0].astype(np.int64)
    q = params.q
    dots = np.zeros(members.shape, dtype=np.int64)
    for j in range(e.d):
        mj = m.coords[j].index
        if mj:
            coord = (members // q**j) % q
            dots = field_mod.vec_add(
                params, dots, field_mod.vec_scalar_mul(params, coord, mj)
            )
    w = np.asarray(field_mod.trace_weights(params, u_index))
    exponents = (-(_modp.digits_of(dots, params.p, params.ell) @ w)) % params.p
    counts = np.bincount(exponents, minlength=params.p)
    return CycInt.from_histogram(params.p, [int(c) for c in counts])


def indicator_ft_abs_sq(e: PointSet, m: PointVector, u: FieldElement | None = None) -> CycInt:
    """Exact |S(m)|^2; the q**(-d) normalization is applied only in reports."""
    return indicator_sum(e, m, u).abs_sq()


def salem_constant(e: PointSet) -> tuple[float, PointVector]:
    """max over m != 0 of |S(m)| / |E|**(1/2), with the least argmax index."""
    if e.cardinality == 0:
        raise EmptySet("salem constant of the empty set")
    _, ratios, best = _indicator_spectrum(e)
    return float(ratios[best]), PointVector.from_index(e.params, e.d, best)


@dataclass(frozen=True)
class SalemRow:
    m_index: int
    case_tag: str
    abs_sq_int: int | None
    expected_int: int | None
    magnitude: float
    bound_ratio: float


@dataclass(frozen=True)
class SalemReport:
    """Spectral report for a point set, with the two-case flat-graph checks."""

    params: FieldParams
    d: int
    cardinality: int
    rows: tuple[SalemRow, ...]
    salem_constant: float
    argmax_m_index: int
    max_abs_sq_int: int | None
    theorem1_pass: bool | None

    @property
    def argmax_m(self) -> PointVector:
        return PointVector.from_index(self.params, self.d, self.argmax_m_index)


def _case_tags(params: FieldParams, d: int) -> np.ndarray:
    """0 = zero frequency, 1 = last coordinate zero, 2 = last nonzero."""
    size = params.q**d
    m = np.arange(size, dtype=np.int64)
    last = m // params.q ** (d - 1)
    tags = np.where(last != 0, 2, 1)
    tags[0] = 0
    return tags

_TAG_NAMES = ("zero", "case1", "case2")


def _build_report(e: PointSet, expected_by_tag: Sequence[int | None]) -> SalemReport:
    if e.cardinality == 0:
        raise EmptySet("spectral report of the empty set")
    spec, ratios, best = _indicator_spectrum(e)
    mags = spec.magnitudes()
    tags = _case_tags(e.params, e.d)

    rows = []
    passing: bool | None = None
    if any(v is not None for v in expected_by_tag):
        passing = True
    for m in range(mags.size):
        tag = int(tags[m])
        expected = expected_by_tag[tag]
        value = spec.exact(m)
        if expected is not None and value != expected:
            passing = False
        rows.append(
            SalemRow(
                m,
                _TAG_NAMES[tag],
                value,
                expected,
                float(mags[m]),
                float(ratios[m]),
            )
        )
    return SalemReport(
        e.params,
        e.d,
        e.cardinality,
        tuple(rows),
        float(ratios[best]),
        best,
        spec.exact(best),
        passing,
    )


def salem_report(e: PointSet) -> SalemReport:
    """Per-frequency spectrum and Salem constant, no theorem assertions."""
    return _build_report(e, (None, None, None))


def verify_theorem1(f: FnTable, threads: int = 1) -> SalemReport:
    """Flat-graph certification for a bent f: case-1 frequencies vanish,
    case-2 frequencies carry exactly q**(f.d), so the Salem constant is 1.

    Raises HypothesisFailed (with the bent witness attached) when f is not
    bent; the theorem presupposes bentness.
    """
    verdict = is_bent_exact(f, threads=threads)
    if not verdict.is_bent:
        exc = HypothesisFailed("the input is not bent; flat-graph statement does not apply")
        exc.witness = verdict.witness
        raise exc
    e = graph_of(f)
    report = _build_report(e, (e.cardinality**2, 0, f.n_points))
    return report
