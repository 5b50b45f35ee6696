"""Distance-1 perturbation sweeps and pairwise distances of planar functions.

A planar function (d = 1, every nonzero-shift difference operator a
bijection) is certified isolated: all q*(q-1) tables at Hamming distance 1
fail planarity, each with a concrete non-bijectivity witness.  The sweep is
stated for p > 3; for p = 3 it still runs but the report carries an
outside-theorem-scope label and asserts nothing.

The sweep scans only the base table; each neighbor's witness follows from
the local rule.  Let g differ from the planar f only at w, with g(w) = v.
For a shift a, D_a g differs from the bijection D_a f only at x = w, which
takes A1 = f(w + a) - v in place of f(w + a) - f(w), and at x = w - a,
which takes A2 = v - f(w - a) in place of f(w) - f(w - a).  So D_a g is a
bijection exactly when v = v*(w, a) = f(w + a) + f(w - a) - f(w), and
otherwise neither added value is a removed one: both are over-hit, the
least over-hit value is the one of A1, A2 with the smaller index, and it is
hit 3 times if A1 = A2 and twice otherwise.  The least failing shift is
a = 1 for every v but v*(w, 1), which is never f(w) since D_1 f is
injective.  That one neighbor per w fails first at the least a with
v*(w, a) != v*(w, 1); if there is none it is planar, as happens over F_3.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _modp, field as field_mod
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NoOpPerturbation,
    NotPlanarBase,
    NotPlanarEntry,
    UnsupportedSize,
)
from .field import FieldElement, FieldParams
from .funcs import MAX_POINTS, FnTable, PnWitness, is_pn
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
    return is_pn(g).witness


@dataclass(frozen=True)
class PerturbEntry:
    w_index: int
    v_index: int
    witness: PnWitness | None  # None would exhibit a planar neighbor

    @property
    def planar(self) -> bool:
        return self.witness is None


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    """The sweep by column: one row per neighbor (w, v), in index order,
    with its least failing shift a, that shift's least over-hit value and
    the value's count.  A planar neighbor has a = value = count = 0."""

    params: FieldParams
    scope: str
    w_index: np.ndarray
    v_index: np.ndarray
    a_index: np.ndarray
    value_index: np.ndarray
    count: np.ndarray

    @property
    def entries(self) -> Sequence[PerturbEntry]:
        """The rows as PerturbEntry objects, each built when it is read."""
        return _Entries(self)

    @property
    def pairs_tested(self) -> int:
        return int(self.w_index.size)

    @property
    def planar_found(self) -> int:
        return int(np.count_nonzero(self.count == 0))

    @property
    def passed(self) -> bool:
        """False only when a theorem-scope sweep finds a planar neighbor."""
        return self.scope != SCOPE_THEOREM or self.planar_found == 0


class _Entries(Sequence):
    """PerturbationReport.entries: a read-only view of the columns."""

    def __init__(self, report: PerturbationReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return self._report.pairs_tested

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = range(len(self))[k]  # negative indices and IndexError
        r = self._report
        witness = None
        if r.count[k]:
            witness = PnWitness(
                PointVector.from_index(r.params, 1, int(r.a_index[k])),
                r.params.from_index(int(r.value_index[k])),
                int(r.count[k]),
            )
        return PerturbEntry(int(r.w_index[k]), int(r.v_index[k]), witness)


def _shifted(params: FieldParams, values: np.ndarray, w: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """f(w + a) and f(w - a) for element indices w and shift indices a."""
    return values[field_mod.vec_add(params, w, a)], values[field_mod.vec_sub(params, w, a)]


def _planar_value(params: FieldParams, values: np.ndarray, w: np.ndarray, a) -> np.ndarray:
    """v*(w, a) = f(w + a) + f(w - a) - f(w), the one value at w that
    leaves D_a a bijection."""
    up, down = _shifted(params, values, w, a)
    return field_mod.vec_sub(params, field_mod.vec_add(params, up, down), values[w])


def _witnesses(codes, up: np.ndarray, down: np.ndarray, v: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The least of A1 = up - v and A2 = v - down, broadcast, and its count:
    3 where they agree, else 2.  Each difference combines carry-free code
    words, 16 rows at a time, straight into the narrow index dtype."""
    up, down, v = np.broadcast_arrays(up, down, v)
    a1, a2 = np.empty((2, *v.shape), dtype)
    for rows in (slice(i, i + 16) for i in range(0, len(v), 16)):
        a1[rows] = codes.combine(codes.plus[up[rows]], codes.minus[v[rows]])
        a2[rows] = codes.combine(codes.plus[v[rows]], codes.minus[down[rows]])
    return np.minimum(a1, a2), (a1 == a2) + np.uint8(2)


def perturbation_sweep(f: FnTable) -> PerturbationReport:
    """Witnesses for all q*(q-1) distance-1 neighbors of a planar f, by the
    local rule of the module docstring: one PN scan, of f itself."""
    _require_univariate(f)
    params = f.params
    q = params.q
    if q * (q - 1) > MAX_POINTS:  # one report row per neighbor
        raise UnsupportedSize(f"the sweep takes q*(q-1) <= {MAX_POINTS} neighbors")
    base = is_pn(f)
    if not base.is_pn:
        raise NotPlanarBase("the base table is not planar; sweep hypothesis fails", base.witness)
    scope = SCOPE_THEOREM if params.p > 3 else SCOPE_OUTSIDE
    dtype = np.min_scalar_type(q - 1)  # element indices in one or two bytes
    values, w, v = f.values, np.arange(q), np.arange(q)
    v_star = _planar_value(params, values, w, 1)
    # the least failing shift of each neighbor (w, v*(w, 1)); 0 while none fails
    shift = np.zeros(q, dtype=dtype)
    pending = w
    for a in range(2, q):
        if not pending.size:
            break
        fails = _planar_value(params, values, pending, a) != v_star[pending]
        shift[pending[fails]] = a
        pending = pending[~fails]

    codes = _modp.difference_codes(params.p, params.ell)
    # every (w, v) of the grid at a = 1, then the q neighbors (w, v*(w, 1))
    up, down = _shifted(params, values, w, 1)
    value, count = _witnesses(codes, up[:, None], down[:, None], v, dtype)
    shifts = np.ones((q, q), dtype=dtype)
    up, down = _shifted(params, values, w, shift)
    star_value, star_count = _witnesses(codes, up, down, v_star, dtype)
    planar = shift == 0
    star_value[planar] = star_count[planar] = 0
    shifts[w, v_star] = shift
    value[w, v_star] = star_value
    count[w, v_star] = star_count
    neighbor = v != values[:, None]  # drops the base table's own (w, f(w))
    return PerturbationReport(
        params,
        scope,
        np.repeat(w.astype(dtype), q - 1),
        np.broadcast_to(v.astype(dtype), (q, q))[neighbor],
        shifts[neighbor],
        value[neighbor],
        count[neighbor],
    )


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

    values = np.stack([f.values for f in fns])
    matrix = np.array([np.count_nonzero(values != row, axis=1) for row in values])
    i, j = np.triu_indices(len(fns), 1)
    dist = matrix[i, j]
    distinct = dist[dist > 0]
    return DistanceMatrix(
        labels,
        tuple(map(tuple, matrix.tolist())),
        int(distinct.min()) if distinct.size else None,
        tuple(zip(i[dist == 0].tolist(), j[dist == 0].tolist())),
    )
