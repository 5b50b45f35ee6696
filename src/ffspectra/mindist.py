"""Distance-1 perturbation sweeps and pairwise distances of planar functions.

A planar function (d = 1, every nonzero-shift difference operator a
bijection) is certified isolated: all q*(q-1) tables at Hamming distance 1
fail planarity, each with a concrete non-bijectivity witness.  The sweep is
stated for p > 3; for p = 3 it still runs but the report carries an
outside-theorem-scope label and asserts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NoOpPerturbation,
    NotPlanarBase,
    NotPlanarEntry,
    UnsupportedSize,
)
from .field import FieldElement, FieldParams
from .funcs import MAX_POINTS, FnTable, PnWitness, _pn_scan, is_pn
from .space import PointVector

SCOPE_THEOREM = "theorem"
SCOPE_OUTSIDE = "outside-theorem-scope"


def _require_univariate(f: FnTable) -> None:
    if f.d != 1:
        raise DimensionMismatch("planarity is defined for d = 1 tables")


def perturb(f: FnTable, w: PointVector, v: FieldElement) -> FnTable:
    """Copy of f with the single value at w replaced by v."""
    _require_univariate(f)
    if w.params != f.params or w.d != 1:
        raise FieldMismatch("point incompatible with this table")
    if v.params != f.params:
        raise FieldMismatch("value from a different field")
    if int(f.values[w.index]) == v.index:
        raise NoOpPerturbation(f"table already maps point {w.index} to {v.index}")
    values = f.values.copy()
    values[w.index] = v.index
    return FnTable(f.params, 1, values)


def planarity_witness(g: FnTable) -> PnWitness | None:
    """Least (index(a), index(v)) with an over-hit value; None iff planar."""
    _require_univariate(g)
    verdict = is_pn(g)
    return verdict.witness


@dataclass(frozen=True)
class PerturbEntry:
    w_index: int
    v_index: int
    witness: PnWitness | None  # None would exhibit a planar neighbor

    @property
    def planar(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class PerturbationReport:
    params: FieldParams
    scope: str
    entries: tuple[PerturbEntry, ...]

    @property
    def pairs_tested(self) -> int:
        return len(self.entries)

    @property
    def planar_found(self) -> int:
        return sum(1 for e in self.entries if e.planar)

    @property
    def passed(self) -> bool:
        """False only when a theorem-scope sweep finds a planar neighbor."""
        return self.scope != SCOPE_THEOREM or self.planar_found == 0


def perturbation_sweep(f: FnTable) -> PerturbationReport:
    """Test all q*(q-1) distance-1 neighbors of a planar f for planarity."""
    _require_univariate(f)
    params = f.params
    if params.q * (params.q - 1) > MAX_POINTS:  # one entry and one PN scan per neighbor
        raise UnsupportedSize(f"the sweep takes q*(q-1) <= {MAX_POINTS} neighbors")
    base = is_pn(f)
    if not base.is_pn:
        raise NotPlanarBase("the base table is not planar; sweep hypothesis fails", base.witness)
    scope = SCOPE_THEOREM if params.p > 3 else SCOPE_OUTSIDE
    entries = []
    values = f.values.copy()
    for w in range(params.q):
        original = int(values[w])
        for v in range(params.q):
            if v == original:
                continue
            values[w] = v
            entries.append(PerturbEntry(w, v, _pn_scan(params, 1, values)))
        values[w] = original
    return PerturbationReport(params, scope, tuple(entries))


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    min_distance: int | None  # over pairs of distinct tables; None if < 2 distinct
    duplicates: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        """False when two distinct tables are at distance < 2."""
        return self.min_distance is None or self.min_distance >= 2


def pairwise_min_distance(
    fns: Sequence[FnTable], labels: Sequence[str] | None = None
) -> DistanceMatrix:
    """Full Hamming-distance matrix of a verified planar family.

    Duplicate tables are reported, and the minimum is taken over distinct
    pairs only (a duplicate's zero distance says nothing about the family).
    """
    fns = list(fns)
    if not fns:
        raise ValueError("need at least one function")
    params, d = fns[0].params, fns[0].d
    for i, f in enumerate(fns):
        if f.params != params or f.d != d:
            raise FieldMismatch(f"function {i} is over a different space")
        _require_univariate(f)
        verdict = is_pn(f)
        if not verdict.is_pn:
            raise NotPlanarEntry(f"function {i} is not planar", verdict.witness)
    if labels is None:
        labels = tuple(f"f{i}" for i in range(len(fns)))
    else:
        labels = tuple(labels)
        if len(labels) != len(fns):
            raise ValueError("one label per function required")

    k = len(fns)
    matrix = [[0] * k for _ in range(k)]
    duplicates = []
    best: int | None = None
    for i in range(k):
        for j in range(i + 1, k):
            dist = int(np.count_nonzero(fns[i].values != fns[j].values))
            matrix[i][j] = matrix[j][i] = dist
            if dist == 0:
                duplicates.append((i, j))
            elif best is None or dist < best:
                best = dist
    return DistanceMatrix(
        labels,
        tuple(tuple(row) for row in matrix),
        best,
        tuple(duplicates),
    )
