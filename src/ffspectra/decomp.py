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

reconstruct_delta evaluates the formula for one shift.  verify_decomposition
certifies it for all q**d - 1 shifts in one process by walking them
in prefix order: a + g_s, for s at least the top nonzero digit of a, adds
the formula's next term D_{f,g_s}(x + a) to a's reconstruction.  Each
digit's chain of p - 1 steps is a loop, so the walk is at most n levels
deep for every p, and memory is linear in q**d (n translation gathers and
one chain position per level); no q**d x q**d addition table is built.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Digits of a target shift over a basis, with running offsets.

    offsets[i] is the point index of b_i = sum_{j<i} digits[j] * g_j; the
    final running sum must recompose the target, which for_shift asserts.
    """

    digits: tuple[int, ...]
    offsets: tuple[int, ...]
    target_index: int

    @classmethod
    def for_shift(cls, basis: SpaceBasis, a: PointVector) -> "DecompPlan":
        digits = basis.decompose(a)
        offsets = []
        b = PointVector.zero(basis.params, basis.d)
        for k, g in zip(digits, basis.vectors):
            offsets.append(b.index)
            if k:
                b = b + g.scale(k)
        if b.index != a.index:
            raise AssertionError("digit expansion failed to recompose the shift")
        return cls(tuple(digits), tuple(offsets), a.index)


def _reconstruct_values(b: BaseDeltaSet, plan: DecompPlan) -> np.ndarray:
    params, d = b.params, b.d
    n_points = params.q**d
    idx = np.arange(n_points, dtype=np.int64)
    acc = np.zeros(n_points, dtype=np.int64)
    for i, k in enumerate(plan.digits):
        if not k:
            continue
        table = b.tables[i].values
        g_index = b.basis.vectors[i].index
        shift = plan.offsets[i]
        for _ in range(k):
            gathered = table[space.vec_point_add(params, d, idx, np.int64(shift))]
            acc = field_mod.vec_add(params, acc, gathered)
            shift = int(space.vec_point_add(params, d, np.int64(shift), np.int64(g_index)))
    return acc


def reconstruct_delta(b: BaseDeltaSet, a: PointVector) -> FnTable:
    """D_{f,a} assembled purely from the base tables; f is never consulted."""
    if a.params != b.params or a.d != b.d:
        raise FieldMismatch("shift incompatible with this basis")
    plan = DecompPlan.for_shift(b.basis, a)
    return FnTable(b.params, b.d, _reconstruct_values(b, plan))


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


def _compare_tables(
    f: FnTable, kind: str, lhs: np.ndarray, rhs: np.ndarray
) -> IdentityResult:
    diff = np.nonzero(lhs != rhs)[0]
    if diff.size == 0:
        return IdentityResult(kind, True, None, None, None)
    x = int(diff[0])
    return IdentityResult(
        kind,
        False,
        PointVector.from_index(f.params, f.d, x),
        f.params.from_index(int(lhs[x])),
        f.params.from_index(int(rhs[x])),
    )


def identity_suite(f: FnTable, trial: IdentityTrial) -> IdentityResult:
    """Pointwise check of one difference-operator identity over all x."""
    params, d = f.params, f.d
    idx = np.arange(f.n_points, dtype=np.int64)
    if trial.kind == "combine":
        b, c = trial.b, trial.c
        lhs = delta_table(f, b + c).values
        dc = delta_table(f, c).values
        db = delta_table(f, b).values
        rhs = field_mod.vec_add(
            params, dc[space.vec_point_add(params, d, idx, np.int64(b.index))], db
        )
        return _compare_tables(f, trial.kind, lhs, rhs)
    if trial.kind == "kbeq":
        b, k = trial.b, int(trial.k)
        if not 1 <= k < params.p:
            raise ValueError("k must lie in [1, p)")
        start = 0 if trial.convention == "corrected" else 1
        lhs = delta_table(f, b.scale(k)).values
        db = delta_table(f, b).values
        rhs = np.zeros(f.n_points, dtype=np.int64)
        for j in range(start, start + k):
            shift = b.scale(j).index
            rhs = field_mod.vec_add(
                params, rhs, db[space.vec_point_add(params, d, idx, np.int64(shift))]
            )
        return _compare_tables(f, trial.kind, lhs, rhs)
    if trial.kind == "allbut":
        parts = trial.parts
        total = PointVector.zero(params, d)
        for piece in parts:
            total = total + piece
        lhs = delta_table(f, total).values
        rhs = np.zeros(f.n_points, dtype=np.int64)
        offset = PointVector.zero(params, d)
        for piece in parts:
            dpiece = delta_table(f, piece).values
            rhs = field_mod.vec_add(
                params,
                rhs,
                dpiece[space.vec_point_add(params, d, idx, np.int64(offset.index))],
            )
            offset = offset + piece
        return _compare_tables(f, trial.kind, lhs, rhs)
    raise ValueError(f"unknown identity kind {trial.kind!r}")


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
    memory is O(n * q**d).  Values are F_p digit arrays; the reconstruction
    keeps its int32 digit sums unreduced (at most n*(p-1)**2 < 2**31 for
    q**d <= 4096) and each comparison reduces recon + f(x) - f(x + a) mod p
    once.  x + a is one gather per node.
    """
    params, d = f.params, f.d
    p, ell, n = params.p, params.ell, b.basis.n
    idx = np.arange(f.n_points, dtype=np.int64)
    plus = [space.vec_point_add(params, d, idx, np.int64(g.index)) for g in b.basis.vectors]
    f_digits = _modp.digits_of(f.values, p, ell).astype(np.int32)
    base_digits = [_modp.digits_of(t.values, p, ell).astype(np.int32) for t in b.tables]
    least = None

    def extend(at: np.ndarray, recon: np.ndarray, start: int) -> None:
        # at[x] = index(x + a) for a node a with no nonzero digit at or above start
        nonlocal least
        for s in range(start, n):
            chain_at, chain_recon = at, recon.copy()
            for _ in range(p - 1):
                chain_recon += base_digits[s][chain_at]
                chain_at = plus[s][chain_at]
                residue = chain_recon + f_digits
                residue -= f_digits[chain_at]
                if (residue % p).any():
                    a = int(chain_at[0])
                    least = a if least is None else min(least, a)
                extend(chain_at, chain_recon, s + 1)

    extend(idx, np.zeros_like(f_digits), 0)
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
    n = f.n_points
    if least is None:
        return DecompVerdict(True, None, n - 1)
    return DecompVerdict(False, PointVector.from_index(f.params, f.d, least), n - 1)
