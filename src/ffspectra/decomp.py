"""Reconstruction of difference operators from a basis of shifts.

Writing a = sum k_i * g_i over an F_p-basis g_1..g_n of F_q**d (n = d*ell,
digits 0 <= k_i < p), every difference operator decomposes as

    D_{f,a}(x) = sum_i sum_{j=0}^{k_i - 1} D_{f,g_i}(x + b_i + j*g_i),

where b_i = sum_{j<i} k_j * g_j are the partial sums of preceding
contributions.  The inner shift index starts at 0: the k_i = 1 case must
reduce to a bare D_{f,g_i}(x + b_i), and the chain identity

    D_{f,b+c}(x) = D_{f,c}(x+b) + D_{f,b}(x)

telescopes to exactly this convention.  identity_suite exposes the
off-by-one variant (inner index starting at 1) so its failure stays pinned
by a negative-control test.

reconstruct_delta (the formula for one shift, the tests' oracle) and
identity_suite are one chain sum, sum_i D_{f,s_i}(x + o_i) with
o_{i+1} = o_i + s_i.  verify_decomposition certifies the formula for all
q**d - 1 shifts in one process by walking them in prefix order: a + g_s,
for s at least the top nonzero digit of a, adds the formula's next term
D_{f,g_s}(x + a) to a's reconstruction, a field-index array added through
the PN scan's carry-free code words.  Each digit's chain of p - 1 steps is a
loop, so the walk is at most n levels deep for every p, and memory is
linear in q**d (n translation gathers and one chain position per level);
no q**d x q**d addition table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
class IdentityTrial:
    """One named identity instance.

    kinds: "combine" (needs b, c), "kbeq" (needs b, k; convention is
    "corrected" for inner shifts 0..k-1 or "printed" for 1..k), "allbut"
    (needs parts, the decomposition c = sum parts[i]).
    """

    kind: str
    b: PointVector | None = None
    c: PointVector | None = None
    k: int | None = None
    parts: tuple[PointVector, ...] = ()
    convention: str = "corrected"


@dataclass(frozen=True)
class IdentityResult:
    kind: str
    passed: bool
    counterexample: PointVector | None
    lhs_value: FieldElement | None
    rhs_value: FieldElement | None


def _trial_chain(trial: IdentityTrial, p: int) -> tuple[tuple[PointVector, ...], int]:
    """The trial's right-hand side as (parts, offset): the chain sum of
    D_{part} from that point index.  The left-hand side is D at the sum of
    the parts.  Raises ValueError for an unknown kind or convention, a field
    the kind needs left unset, or k outside [1, p)."""
    needs = {"combine": ("b", "c"), "kbeq": ("b", "k"), "allbut": ("parts",)}
    if trial.kind not in needs:
        raise ValueError(f"unknown identity kind {trial.kind!r}")
    missing = [name for name in needs[trial.kind] if getattr(trial, name) in (None, ())]
    if missing:
        raise ValueError(f"{trial.kind!r} trial needs {', '.join(missing)}")
    if trial.kind == "combine":
        return (trial.b, trial.c), 0
    if trial.kind == "allbut":
        return tuple(trial.parts), 0
    k = int(trial.k)
    if not 1 <= k < p:
        raise ValueError("k must lie in [1, p)")
    starts = {"corrected": 0, "printed": trial.b.index}
    if trial.convention not in starts:
        raise ValueError(f"unknown convention {trial.convention!r}")
    return (trial.b,) * k, starts[trial.convention]


def identity_suite(f: FnTable, trial: IdentityTrial) -> IdentityResult:
    """Pointwise check of one difference-operator identity over all x."""
    parts, offset = _trial_chain(trial, f.params.p)
    lhs = delta_table(f, reduce(PointVector.__add__, parts)).values
    rhs = _chain_sum(f.params, f.d, [(delta_table(f, g).values, g.index) for g in parts], offset)
    diff = np.flatnonzero(lhs != rhs)
    if diff.size == 0:
        return IdentityResult(trial.kind, True, None, None, None)
    x = int(diff[0])
    return IdentityResult(
        trial.kind,
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

    The shifts are walked in prefix order: from a node a whose top nonzero
    digit lies below s, the chain a + g_s, a + 2*g_s, ... appends the
    formula's terms D_{f,g_s}(x + a + j*g_s) one at a time, and each chain
    node is then extended by the digits above s.  Only the base tables are
    read on the reconstruction side.  Recursion goes one level per digit
    position (depth at most n) and keeps one chain position per level, so
    memory is O(n * q**d).  Both sides are field-index arrays read through
    the PN scan's code words (`_modp.difference_codes`): a chain step folds
    recon + D_{f,g_s}(x + a), the comparison folds f(x + a) - f(x), and
    x + a is one gather per node.
    """
    params, d, n = f.params, f.d, b.basis.n
    idx = np.arange(f.n_points, dtype=np.intp)
    along = [space.vec_point_add(params, d, idx, np.int64(g.index)) for g in b.basis.vectors]
    codes = _modp.difference_codes(params.p, params.ell)
    f_plus, f_minus = codes.plus[f.values], codes.minus[f.values]
    base_plus = [codes.plus[t.values] for t in b.tables]
    least = None

    def extend(at: np.ndarray, recon: np.ndarray, start: int) -> None:
        # at[x] = index(x + a) for a node a with no nonzero digit at or above start
        nonlocal least
        for s in range(start, n):
            chain_at, chain_recon = at, recon
            for _ in range(params.p - 1):
                chain_recon = codes.fold(codes.plus[chain_recon] + base_plus[s][chain_at])
                chain_at = along[s][chain_at]
                if not np.array_equal(chain_recon, codes.fold(f_plus[chain_at] + f_minus)):
                    a = int(chain_at[0])
                    least = a if least is None else min(least, a)
                extend(chain_at, chain_recon, s + 1)

    extend(idx, np.zeros(f.n_points, dtype=np.intp), 0)
    return least


def verify_decomposition(f: FnTable, basis: SpaceBasis) -> DecompVerdict:
    """Reconstruct every nonzero difference operator from the base tables
    and compare pointwise with the direct computation; the verdict names
    the least failing shift."""
    _check_compatible(f, basis)
    if f.n_points > space.DESK_SCALE_POINTS:
        raise UnsupportedSize(
            f"exhaustive decomposition check is desk-scale: q**d <= {space.DESK_SCALE_POINTS}"
        )
    least = _least_failing_shift(f, base_deltas(f, basis))
    failing = None if least is None else PointVector.from_index(f.params, f.d, least)
    return DecompVerdict(least is None, failing, f.n_points - 1)
