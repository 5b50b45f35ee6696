"""Exact arithmetic in Z[zeta_p], the carrier ring for character sums.

zeta_p is a primitive p-th root of unity, p prime.  An element is stored as
an integer coefficient vector over 1, zeta, ..., zeta^(p-1), normalized so
the last coefficient is zero: subtracting c[p-1] from every slot uses the
relation 1 + zeta + ... + zeta^(p-1) = 0 and lands in the free Z-module on
1, ..., zeta^(p-2), so equality of normalized vectors is ring equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import NonPrime, PrimeMismatch
from .field import _is_prime


@lru_cache(maxsize=64)  # exceptions are not cached, so a non-prime raises every time
def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise NonPrime(f"zeta order {p!r} is not prime")


def _normalize(p: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs) + [0] * (p - len(coeffs))
    last = c[p - 1]
    if last:
        c = [x - last for x in c]
    return tuple(int(x) for x in c)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_p] in normalized coordinates."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if len(self.coeffs) != self.p or self.coeffs[-1] != 0:
            raise ValueError("coefficients must be normalized; use from_coeffs")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_coeffs(cls, p: int, coeffs: Sequence[int]) -> "CycInt":
        """Element sum(coeffs[j] * zeta**j); any length up to p accepted."""
        _check_prime(p)
        if len(coeffs) > p:
            raise ValueError(f"at most {p} coefficients expected")
        return cls(p, _normalize(p, coeffs))

    @classmethod
    def from_histogram(cls, p: int, counts: Sequence[int]) -> "CycInt":
        """Character sum with counts[j] terms of exponent j: sum counts[j]*zeta**j."""
        if len(counts) != p:
            raise ValueError(f"histogram must have exactly {p} bins")
        return cls.from_coeffs(p, counts)

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls.from_coeffs(p, ())

    @classmethod
    def integer(cls, p: int, n: int) -> "CycInt":
        return cls.from_coeffs(p, (int(n),))

    @classmethod
    def root(cls, p: int, j: int) -> "CycInt":
        """zeta**j."""
        e = int(j) % p
        return cls.from_coeffs(p, (0,) * e + (1,))

    # -- ring operations --------------------------------------------------

    def _check(self, other: object) -> "CycInt":
        if not isinstance(other, CycInt):
            raise TypeError(f"expected CycInt, got {type(other).__name__}")
        if other.p != self.p:
            raise PrimeMismatch(f"zeta orders differ: {self.p} != {other.p}")
        return other

    def __add__(self, other: "CycInt") -> "CycInt":
        other = self._check(other)
        return CycInt.from_coeffs(
            self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CycInt":
        return CycInt.from_coeffs(self.p, [-a for a in self.coeffs])

    def __sub__(self, other: "CycInt") -> "CycInt":
        return self + (-self._check(other))

    def __mul__(self, other: "CycInt | int") -> "CycInt":
        if isinstance(other, int):
            return CycInt.from_coeffs(self.p, [other * a for a in self.coeffs])
        other = self._check(other)
        out = [0] * self.p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.p] += a * b
        return CycInt.from_coeffs(self.p, out)

    def __rmul__(self, other: int) -> "CycInt":
        return self * other

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def conjugate(self) -> "CycInt":
        """Complex conjugate: zeta**j -> zeta**(-j)."""
        out = [0] * self.p
        for j, a in enumerate(self.coeffs):
            out[(-j) % self.p] = a
        return CycInt.from_coeffs(self.p, out)

    def galois(self, t: int) -> "CycInt":
        """Automorphism zeta -> zeta**t for t not divisible by p."""
        t = int(t) % self.p
        if t == 0:
            raise ValueError("galois exponent must be a unit mod p")
        out = [0] * self.p
        for j, a in enumerate(self.coeffs):
            out[(j * t) % self.p] += a
        return CycInt.from_coeffs(self.p, out)

    # -- views -------------------------------------------------------------

    def abs_sq(self) -> "CycInt":
        """Exact |z|**2 = z * conjugate(z); always real, not always rational."""
        return self * self.conjugate()

    def as_integer(self) -> int | None:
        """The value as a rational integer, or None when it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def to_complex(self) -> complex:
        # The p-th roots of unity sum to zero, so shifting every coefficient
        # by coeffs[1] leaves the value unchanged while avoiding cancellation
        # between huge near-uniform coefficients; rational-integer values
        # (coeffs[1:] all equal) come out exactly.
        shift = self.coeffs[1] if self.p > 1 else 0
        step = math.tau / self.p
        re = sum((a - shift) * math.cos(step * j) for j, a in enumerate(self.coeffs))
        im = sum((a - shift) * math.sin(step * j) for j, a in enumerate(self.coeffs))
        return complex(re, im)

    def __repr__(self) -> str:
        n = self.as_integer()
        if n is not None:
            return f"CycInt(p={self.p}, {n})"
        body = " + ".join(
            f"{a}*z^{j}" if j else str(a) for j, a in enumerate(self.coeffs) if a
        )
        return f"CycInt(p={self.p}, {body})"


def cyc_arithmetic(op: str, a: CycInt, b: "CycInt | int | None" = None) -> CycInt:
    """Named dispatch over ring operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op in ("conj", "conjugate"):
        return a.conjugate()
    raise ValueError(f"unknown cyclotomic operation {op!r}")


def from_histogram(counts: Sequence[int], p: int | None = None) -> CycInt:
    """Character sum with counts[j] terms of exponent j; p defaults to len(counts)."""
    if p is None:
        p = len(counts)
    return CycInt.from_histogram(p, counts)


def abs_sq(z: CycInt) -> CycInt:
    return z.abs_sq()


def as_integer(z: CycInt) -> int | None:
    return z.as_integer()


def to_complex(z: CycInt) -> complex:
    return z.to_complex()
