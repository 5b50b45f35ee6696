"""Reconstruction of difference operators from a basis of shifts.

Writing a = sum k_i * g_i over an F_p-basis g_1..g_n of F_q**d (n = d*ell,
digits 0 <= k_i < p), every difference operator decomposes as

    D_{f,a}(x) = sum_i sum_{j=0}^{k_i - 1} D_{f,g_i}(x + b_i + j*g_i),

where b_i = sum_{j<i} k_j * g_j are the partial sums of preceding
contributions.  The inner shift index starts at 0: the k_i = 1 case must
reduce to a bare D_{f,g_i}(x + b_i), and the chain identity

    D_{f,b+c}(x) = D_{f,c}(x+b) + D_{f,b}(x)

telescopes to exactly this convention.  identity_suite checks that chain
for any parts and start offset, so the off-by-one variant (inner index
starting at 1, start = b) stays pinned by a negative-control test.

reconstruct_delta (the formula for one shift, the tests' oracle) and
identity_suite are one chain sum, sum_i D_{f,s_i}(x + o_i) with
o_{i+1} = o_i + s_i.  verify_decomposition certifies the formula for all
q**d - 1 shifts in one process: in basis coordinates x + g_s is one digit
step of `_modp.shift_walk`, the PN scan's walk, and a + g_s, for s at least
the top nonzero digit of a, adds the formula's next term D_{f,g_s}(x + a)
to a's reconstruction, a field-index array added by combining code words
of `_modp`.  The walk is one loop for every p, and memory is linear in
q**d; no q**d x q**d addition table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import _modp, field as field_mod, space
from .errors import DimensionMismatch, FieldMismatch, UnsupportedSize
from .field import FieldElement
from .funcs import FnTable, delta_table
from .space import PointVector, SpaceBasis


def _check_compatible(f: FnTable, basis: SpaceBasis) -> None:
    if basis.params != f.params:
        raise FieldMismatch("basis over a different field")
    if basis.d != f.d:
        raise DimensionMismatch(f"basis dimension {basis.d} != {f.d}")


@dataclass(frozen=True)
class BaseDeltaSet:
    """The d*ell difference tables of f along a basis."""

    basis: SpaceBasis
    tables: tuple[FnTable, ...]

    @property
    def params(self):
        return self.basis.params

    @property
    def d(self) -> int:
        return self.basis.d


def base_deltas(f: FnTable, basis: SpaceBasis) -> BaseDeltaSet:
    _check_compatible(f, basis)
    return BaseDeltaSet(basis, tuple(delta_table(f, g) for g in basis.vectors))


@dataclass(frozen=True)
class DecompPlan:
    """Digits of a target shift over a basis; for_shift asserts that they
    recompose the target."""

    digits: tuple[int, ...]
    target_index: int

    @classmethod
    def for_shift(cls, basis: SpaceBasis, a: PointVector) -> "DecompPlan":
        digits = basis.decompose(a)
        if basis.recompose(digits).index != a.index:
            raise AssertionError("digit expansion failed to recompose the shift")
        return cls(digits, a.index)


def _chain_sum(params: field_mod.FieldParams, d: int, links, offset: int = 0) -> np.ndarray:
    """sum_i table_i[x + o_i] over all x, for links (table_i, step_i) of value
    arrays and point indices, with o_0 = offset and o_{i+1} = o_i + step_i.

    Every form of the chain identity is one such sum: its terms are difference
    tables read at the running partial sums of their shifts.
    """
    idx = np.arange(params.q**d, dtype=np.int64)
    acc = np.zeros(params.q**d, dtype=np.int64)
    at = np.int64(offset)
    for table, step in links:
        acc = field_mod.vec_add(params, acc, table[space.vec_point_add(params, d, idx, at)])
        at = space.vec_point_add(params, d, at, np.int64(step))
    return acc


def reconstruct_delta(b: BaseDeltaSet, a: PointVector) -> FnTable:
    """D_{f,a} assembled purely from the base tables; f is never consulted."""
    if a.params != b.params or a.d != b.d:
        raise FieldMismatch("shift incompatible with this basis")
    plan = DecompPlan.for_shift(b.basis, a)
    links = [
        (table.values, g.index)
        for k, table, g in zip(plan.digits, b.tables, b.basis.vectors)
        for _ in range(k)
    ]
    return FnTable(b.params, b.d, _chain_sum(b.params, b.d, links))


# ---------------------------------------------------------------------------
# Identity checks.


@dataclass(frozen=True)
class IdentityResult:
    passed: bool
    counterexample: PointVector | None
    lhs_value: FieldElement | None
    rhs_value: FieldElement | None


def identity_suite(
    f: FnTable, parts: Sequence[PointVector], start: PointVector | None = None
) -> IdentityResult:
    """Pointwise check over all x of the chain identity

        D_{f,s_1+...+s_n}(x) = sum_i D_{f,s_i}(x + o_i),

    with o_1 = start (0 by default) and o_{i+1} = o_i + s_i.  The paper's
    k*b form is parts = (b,)*k; its printed inner index 1..k is start = b,
    which fails already at k = 1.  Raises ValueError for an empty chain and
    FieldMismatch for a part or start outside f's space."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("the chain needs at least one part")
    for s in parts if start is None else parts + (start,):
        if s.params != f.params or s.d != f.d:
            raise FieldMismatch("shift incompatible with this table")
    lhs = delta_table(f, reduce(PointVector.__add__, parts)).values
    links = [(delta_table(f, s).values, s.index) for s in parts]
    rhs = _chain_sum(f.params, f.d, links, 0 if start is None else start.index)
    diff = np.flatnonzero(lhs != rhs)
    if diff.size == 0:
        return IdentityResult(True, None, None, None)
    x = int(diff[0])
    return IdentityResult(
        False,
        PointVector.from_index(f.params, f.d, x),
        f.params.from_index(int(lhs[x])),
        f.params.from_index(int(rhs[x])),
    )


# ---------------------------------------------------------------------------
# Exhaustive verification.


@dataclass(frozen=True)
class DecompVerdict:
    passed: bool
    failing_a: PointVector | None
    shifts_checked: int


def _least_failing_shift(f: FnTable, b: BaseDeltaSet) -> int | None:
    """Point index of the least nonzero shift whose reconstruction differs
    from the direct difference table, or None if every shift agrees.

    f and the base tables are read in basis coordinates: perm[k] is the
    point index of sum_s k_s * g_s, digit s of k at weight p**(n-1-s), so
    x + g_s is a step of walk digit n-1-s and `_modp.shift_walk` counts the
    shifts over their basis digits, the last fastest.  When walk digit j
    goes up at a, recon[j] holds the reconstruction of a - p**j; appending
    the term D_{f,g_s}(x + a - p**j) gives a's, which becomes recon[:j + 1];
    recon starts as zeros in the table's dtype.  Only the base tables are
    read on that side, and both sides combine the field's code words.
    """
    p, n = f.params.p, b.basis.n
    perm = _modp.index_of_digits(
        _modp.residue_product(_modp.digits_of(np.arange(f.n_points), p, n), b.basis.matrix.T[::-1], p), p
    )
    codes = _modp.difference_codes(p, f.params.ell)
    f_plus, f_minus = codes.plus(f.values[perm]), codes.minus(f.values[perm])
    base_plus = [codes.plus(t.values[perm]) for t in reversed(b.tables)]
    recon = [np.zeros(f.n_points, dtype=f.values.dtype)] * n
    least = None
    for a, j, before, after in _modp.shift_walk(p, n):
        recon[: j + 1] = [codes.combine(codes.plus(recon[j]), base_plus[j][before])] * (j + 1)
        if not np.array_equal(recon[0], codes.combine(f_plus[after], f_minus)):
            least = int(perm[a]) if least is None else min(least, int(perm[a]))
    return least


def verify_decomposition(f: FnTable, basis: SpaceBasis) -> DecompVerdict:
    """Reconstruct every nonzero difference operator from the base tables
    and compare pointwise with the direct computation; the verdict names
    the least failing shift and always counts q**d - 1 shifts checked."""
    _check_compatible(f, basis)
    if f.n_points > space.DESK_SCALE_POINTS:
        raise UnsupportedSize(
            f"exhaustive decomposition check is desk-scale: q**d <= {space.DESK_SCALE_POINTS}"
        )
    least = _least_failing_shift(f, base_deltas(f, basis))
    failing = None if least is None else PointVector.from_index(f.params, f.d, least)
    return DecompVerdict(least is None, failing, f.n_points - 1)
