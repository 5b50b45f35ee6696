"""Finite fields F_q, q = p**ell, in a polynomial basis.

Elements are residues of F_p[t] modulo a monic irreducible polynomial of
degree ell.  Coefficient vectors are little endian (coeffs[j] multiplies
t**j), and the index of an element is sum(coeffs[j] * p**j), so the field
enumerates as 0, 1, ..., p-1, t, t+1, ...

When no modulus is supplied, make_field picks the monic irreducible
polynomial of degree ell whose little-endian coefficient vector is
lexicographically least.  That rule is deterministic and reproducible, so
serialized tables always reconstruct the same field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import _modp
from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    NonPrime,
    ReducibleModulus,
    UnsupportedSize,
    ZeroInverse,
)

MAX_Q = 1 << 20
_TABLE_MAX_P = 13
_TABLE_MAX_ELL = 6

# Bounds of the lru_caches.  Per-field caches hold one entry per FieldParams
# (or (p, ell)); per-u caches hold one entry per element u, so a scan over
# every u of F_q stays warm up to q = 4096.
PARAMS_CACHE_SIZE = 64
PER_U_CACHE_SIZE = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Coefficient sequences are little endian and
# short (below 2*ell entries), so plain Python loops are fine.


def _poly_rem(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo m; m must be monic."""
    r = [c % p for c in a]
    dm = len(m) - 1
    while len(r) - 1 >= dm:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for j in range(dm + 1):
                r[shift + j] = (r[shift + j] - lead * m[j]) % p
        r.pop()
    while len(r) < dm:
        r.append(0)
    return r


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by monic polynomials of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for e in range(1, deg // 2 + 1):
        for n in range(p**e):
            g = [(n // p**j) % p for j in range(e)] + [1]
            if not any(_poly_rem(m, g, p)):
                return False
    return True


def _past_cap(q: int, d: int) -> bool:
    """q**d > MAX_Q, without computing q**d at a huge d (q >= 2: d > 20 is past it)."""
    return d >= MAX_Q.bit_length() or q**d > MAX_Q


def _refuse_past_max_q(p: int, ell: int) -> None:
    """Refuse p > MAX_Q or p**ell > MAX_Q before any primality or irreducibility test."""
    if p >= 2 and _past_cap(p, max(ell, 1)):
        raise UnsupportedSize(f"q = {p}**{ell} exceeds {MAX_Q}")


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def default_modulus(p: int, ell: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree ell over F_p.

    Every monic of degree 1 is irreducible, so a prime field of p <= 2**20
    takes t.  Extension fields are covered for p <= 13, ell <= 6 and
    p**ell <= 2**20; outside that range callers must supply a modulus.
    """
    _refuse_past_max_q(p, ell)
    if not _is_prime(p):
        raise NonPrime(f"characteristic {p!r} is not prime")
    if ell == 1:
        return (0, 1)
    if not (1 <= ell <= _TABLE_MAX_ELL and p <= _TABLE_MAX_P):
        raise UnsupportedSize(
            f"no built-in modulus for p={p}, ell={ell}; pass one explicitly"
        )
    for n in range(p**ell):
        coeffs = tuple((n // p**j) % p for j in range(ell)) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("unreachable: an irreducible of every degree exists")


@dataclass(frozen=True)
class FieldParams:
    """Immutable description of F_q: characteristic, degree, and modulus."""

    p: int
    ell: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        _refuse_past_max_q(self.p, self.ell)
        if not _is_prime(self.p):
            raise NonPrime(f"characteristic {self.p!r} is not prime")
        if self.ell < 1:
            raise UnsupportedSize("extension degree must be >= 1")
        mod = tuple(int(c) % self.p for c in self.modulus)
        if len(mod) != self.ell + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree ell")
        object.__setattr__(self, "modulus", mod)
        if not _is_irreducible(mod, self.p):
            raise ReducibleModulus(f"{mod} factors over F_{self.p}")

    @cached_property  # read in every per-cell and per-element hot loop
    def q(self) -> int:
        return self.p**self.ell

    # -- element construction -------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) != self.ell:
            raise ValueError(f"need exactly {self.ell} coefficients")
        return FieldElement(self, c)

    def scalar(self, n: int) -> "FieldElement":
        """The constant polynomial n mod p (embedding of the integers)."""
        return FieldElement(self, (int(n) % self.p,) + (0,) * (self.ell - 1))

    def zero(self) -> "FieldElement":
        return self.scalar(0)

    def one(self) -> "FieldElement":
        return self.scalar(1)

    def from_index(self, i: int) -> "FieldElement":
        i = int(i)
        if not 0 <= i < self.q:
            raise IndexOutOfRange(f"element index {i} outside [0, {self.q})")
        return FieldElement(
            self, tuple((i // self.p**j) % self.p for j in range(self.ell))
        )

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.q):
            yield self.from_index(i)

    def __repr__(self) -> str:
        return f"FieldParams(p={self.p}, ell={self.ell}, modulus={self.modulus})"


def make_field(
    p: int, ell: int = 1, modulus: Sequence[int] | None = None
) -> FieldParams:
    """Construct F_{p**ell}; a built-in modulus is used when none is given."""
    if modulus is None:
        modulus = default_modulus(p, ell)
    return FieldParams(p, ell, tuple(int(c) for c in modulus))


@dataclass(frozen=True)
class FieldElement:
    """One element of F_q, as a little-endian coefficient vector."""

    params: FieldParams
    coeffs: tuple[int, ...]

    @property
    def index(self) -> int:
        p = self.params.p
        return sum(c * p**j for j, c in enumerate(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: object) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.params != self.params:
            raise FieldMismatch("operands belong to different fields")
        return other

    def __add__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        p = self.params.p
        return FieldElement(
            self.params,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "FieldElement":
        p = self.params.p
        return FieldElement(self.params, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-self._check(other))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        other = self._check(other)
        p = self.params.p
        ell = self.params.ell
        conv = [0] * (2 * ell - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        return FieldElement(self.params, tuple(_poly_rem(conv, self.params.modulus, p)))

    def scale(self, k: int) -> "FieldElement":
        """Prime-field scalar multiple k * self."""
        p = self.params.p
        k = int(k) % p
        return FieldElement(self.params, tuple((k * c) % p for c in self.coeffs))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroInverse("0 has no multiplicative inverse")
        return self ** (self.params.q - 2)

    def __pow__(self, e: int) -> "FieldElement":
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        result = self.params.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * self._check(other).inverse()

    def __repr__(self) -> str:
        if self.params.ell == 1:
            return f"F{self.params.p}({self.coeffs[0]})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}t" if j == 1 else f"{head}t^{j}")
        body = " + ".join(terms) if terms else "0"
        return f"F{self.params.q}({body})"


def field_arithmetic(
    op: str, a: FieldElement, b: FieldElement | int | None = None
) -> FieldElement:
    """Named dispatch over the ring operations; pow takes an integer exponent."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "inv":
        return a.inverse()
    if op == "pow":
        return a ** int(b)
    raise ValueError(f"unknown field operation {op!r}")


def trace(a: FieldElement) -> int:
    """Absolute trace Tr(a) = a + a**p + ... + a**(p**(ell-1)), in [0, p)."""
    acc = a
    frob = a
    for _ in range(a.params.ell - 1):
        frob = frob**a.params.p
        acc = acc + frob
    if any(acc.coeffs[1:]):
        raise AssertionError("trace image left the prime field")
    return acc.coeffs[0]


@dataclass(frozen=True)
class FpBasis:
    """An F_p-basis of F_q: the one-coordinate SpaceBasis of its elements."""

    params: FieldParams
    elements: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        from .space import PointVector, SpaceBasis  # space imports this module

        # each point keeps its element's field, so SpaceBasis refuses a foreign one
        points = tuple(PointVector(e.params, (e,)) for e in self.elements)
        object.__setattr__(self, "_space", SpaceBasis(self.params, 1, points))

    @property
    def matrix(self) -> np.ndarray:
        """Columns are the coefficient vectors of the basis elements."""
        return self._space.matrix

    def decompose(self, a: FieldElement) -> tuple[int, ...]:
        if a.params != self.params:
            raise FieldMismatch("element from a different field")
        return tuple(int(k) for k in self._space.decompose_indices(np.array([a.index]))[0])

    def combine(self, digits: Sequence[int]) -> FieldElement:
        return self._space.recompose(digits).coords[0]


def standard_fp_basis(params: FieldParams) -> FpBasis:
    """The polynomial basis 1, t, ..., t**(ell-1)."""
    return FpBasis(params, tuple(params.from_index(params.p**j) for j in range(params.ell)))


# ---------------------------------------------------------------------------
# Vectorized arithmetic on arrays of element indices.  These are the dense
# work-horses behind table operations; semantics match the element methods
# and the test suite ties the two together exhaustively on small fields.


def vec_add(params: FieldParams, a, b) -> np.ndarray:
    return _modp.add_indices(a, b, params.p, params.ell)


def vec_sub(params: FieldParams, a, b) -> np.ndarray:
    return _modp.sub_indices(a, b, params.p, params.ell)


@lru_cache(maxsize=8)  # one field takes at most 20 MB: F_2**20, one byte per digit
def element_digits(params: FieldParams) -> np.ndarray:
    """Read-only (q, ell) base-p digits of every element of F_q, by index,
    in the narrowest unsigned type that holds p - 1."""
    digits = _modp.digits_of(np.arange(params.q), params.p, params.ell)
    digits = digits.astype(np.min_scalar_type(params.p - 1))
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=PARAMS_CACHE_SIZE)
def _overflow_matrix(params: FieldParams) -> np.ndarray:
    """Row k holds the coefficients of t**(ell+k) mod the modulus, k < ell - 1."""
    ell = params.ell
    rows = [_poly_rem([0] * (ell + k) + [1], params.modulus, params.p) for k in range(ell - 1)]
    m = np.array(rows, dtype=np.int64).reshape(ell - 1, ell)
    m.setflags(write=False)
    return m


def vec_mul(params: FieldParams, a, b) -> np.ndarray:
    """Componentwise field product of two index arrays."""
    p, ell = params.p, params.ell
    if ell == 1:
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % p
    da = _modp.digits_of(a, p, ell)
    db = _modp.digits_of(b, p, ell)
    shape = np.broadcast_shapes(da.shape, db.shape)[:-1]
    conv = np.zeros(shape + (2 * ell - 1,), dtype=np.int64)
    for i in range(ell):
        for j in range(ell):
            conv[..., i + j] += da[..., i] * db[..., j]
    out = conv[..., :ell] + conv[..., ell:] @ _overflow_matrix(params)
    return _modp.index_of_digits(out % p, p)


@lru_cache(maxsize=PER_U_CACHE_SIZE)
def mul_matrix(params: FieldParams, u_index: int) -> np.ndarray:
    """Matrix of multiplication by u on little-endian coefficient vectors."""
    u = params.from_index(u_index)
    cols = [(u * params.from_index(params.p**j)).coeffs for j in range(params.ell)]
    m = np.array(cols, dtype=np.int64).T
    m.setflags(write=False)
    return m


def vec_scalar_mul(params: FieldParams, a, u_index: int) -> np.ndarray:
    """Componentwise product of an index array with the fixed element u."""
    return vec_mul(params, a, int(u_index))


@lru_cache(maxsize=PARAMS_CACHE_SIZE)  # ell <= 20: at most 8,400 int64s per field
def trace_forms(params: FieldParams) -> tuple[np.ndarray, np.ndarray]:
    """The pair forms P[i, j] = Tr(t**i * t**j) and the triple forms
    H[i, j, k] = Tr(t**i * t**j * t**k) of the basis.

    The trace is F_p-linear, so Tr(y) = digits(y) . w with w[j] = Tr(t**j),
    and Tr(y * t**k) = digits(y) . P[:, k]: P and H come from the digits of
    the ell**2 products t**i * t**j, one vec_mul.
    """
    p = params.p
    basis = _modp.powers(p, params.ell)
    weights = np.array([trace(params.from_index(int(b))) for b in basis], dtype=np.int64)
    pair_digits = element_digits(params)[vec_mul(params, basis[:, None], basis[None, :])]
    forms = pair_digits @ weights % p
    triples = pair_digits @ forms % p
    forms.setflags(write=False)
    triples.setflags(write=False)
    return forms, triples


@lru_cache(maxsize=PER_U_CACHE_SIZE)
def trace_weights(params: FieldParams, u_index: int) -> np.ndarray:
    """w[j] = Tr(u * t**j) = digits(u) . P[:, j]; then Tr(u*x) = digits(x) . w mod p."""
    w = element_digits(params)[u_index] @ trace_forms(params)[0] % params.p
    w.setflags(write=False)
    return w
