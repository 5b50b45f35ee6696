"""Built-in function families with load-time verified properties.

Every entry's expected properties are re-checked on materialization at desk
scale (q**d <= 4096); a failed expectation raises PropertyMismatch rather
than shipping an unverified claim.  Entries whose properties depend on the
field (e.g. power maps) carry no expectations and are measured instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    BadExponent,
    EvenCharacteristic,
    PropertyMismatch,
    SpecDimensionMismatch,
    UnknownCatalogEntry,
)
from .field import FieldParams
from .funcs import FnSpec, FnTable, build_function, is_pn
from .space import DESK_SCALE_POINTS, _refuse_past_cap

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, i: int | np.ndarray) -> int | np.ndarray:
    """Output i of the splitmix64 counter sequence for this seed; i may be
    an index array, and a scalar i gives a Python int.

    z = seed + (i+1)*0x9E3779B97F4A7C15 mod 2**64, then the standard
    finalizer: z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31 (all mod 2**64).
    """
    # an array wraps mod 2**64 silently, where a numpy scalar warns on overflow
    z = (np.atleast_1d(np.asarray(i, dtype=np.uint64)) + np.uint64(1)) * np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z if np.ndim(i) else int(z[0])


def random_function(params: FieldParams, d: int, seed: int) -> FnTable:
    """Seeded uniform table: value at point i is splitmix64(seed, i) mod q.

    Deterministic and platform-independent bit for bit; the test suite
    freezes golden tables against an independent scalar implementation.
    """
    _refuse_past_cap(params.q, d)  # before the n-entry work arrays
    values = splitmix64(seed, np.arange(params.q**d, dtype=np.uint64)) % np.uint64(params.q)
    return FnTable(params, d, values)


@dataclass(frozen=True)
class CatalogEntry:
    """A named family: builder plus the properties verified on load."""

    name: str
    summary: str
    default_d: int
    expects: tuple[tuple[str, bool], ...]
    builder: Callable[[FieldParams, int, Mapping[str, int]], FnTable]

    def expectations(self) -> dict[str, bool]:
        return dict(self.expects)


def _build_square(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    if params.p == 2:
        raise EvenCharacteristic("x**2 is linear over characteristic 2")
    if d != 1:
        raise SpecDimensionMismatch("square is univariate")
    return build_function(FnSpec.univariate([0, 0, 1]), params, 1)


def _build_power(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    if d != 1:
        raise SpecDimensionMismatch("power maps are univariate")
    e = int(args.get("e", 3))
    if e < 1:
        raise BadExponent("exponent must be >= 1")
    return build_function(FnSpec.from_monomials([(1, (e,))]), params, 1)


def _build_bilinear(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    if d != 2:
        raise SpecDimensionMismatch("bilinear f(x, y) = x*y needs d = 2")
    return build_function(FnSpec.from_monomials([(1, (1, 1))]), params, 2)


def _build_bool_quadratic(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    if params.p != 2 or params.ell != 1:
        raise SpecDimensionMismatch("bool_quadratic is defined over F_2")
    if d < 2 or d % 2:
        raise SpecDimensionMismatch("bool_quadratic needs even d >= 2")
    terms = []
    for i in range(0, d, 2):
        exps = [0] * d
        exps[i] = exps[i + 1] = 1
        terms.append((1, tuple(exps)))
    return build_function(FnSpec.from_monomials(terms), params, d)


def _build_random(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    return random_function(params, d, int(args.get("seed", 0)))


def _build_affine(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    if d != 1:
        raise SpecDimensionMismatch("affine entry is univariate")
    c = int(args.get("c", 1)) % params.q
    b = int(args.get("b", 0)) % params.q
    return build_function(FnSpec.univariate([b, c]), params, 1)


_CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            "square",
            "x**2, the canonical planar function (odd p)",
            1,
            (("pn", True),),
            _build_square,
        ),
        CatalogEntry(
            "power",
            "x**e; properties measured, never asserted (e defaults to 3)",
            1,
            (),
            _build_power,
        ),
        CatalogEntry(
            "bilinear",
            "f(x, y) = x*y on F_q**2, perfect nonlinear in every characteristic",
            2,
            (("pn", True),),
            _build_bilinear,
        ),
        CatalogEntry(
            "bool_quadratic",
            "x1*x2 + x3*x4 + ... over F_2**d (even d), the standard bent family",
            4,
            (("bent", True),),
            _build_bool_quadratic,
        ),
        CatalogEntry(
            "random",
            "seeded uniform table (splitmix64 counter mod q)",
            1,
            (),
            _build_random,
        ),
        CatalogEntry(
            "affine",
            "c*x + b; difference operators are constant, so never planar",
            1,
            (("pn", False),),
            _build_affine,
        ),
    )
}


def list_entries() -> tuple[CatalogEntry, ...]:
    return tuple(_CATALOG[name] for name in sorted(_CATALOG))


def get_function(
    name: str, params: FieldParams, d: int | None = None, **args: int
) -> FnTable:
    """Materialize a catalog function and verify its declared properties."""
    if name not in _CATALOG:
        raise UnknownCatalogEntry(name)
    entry = _CATALOG[name]
    if d is None:
        d = entry.default_d
    _refuse_past_cap(params.q, d)  # before any entry builds its spec
    table = entry.builder(params, d, args)
    if table.n_points <= DESK_SCALE_POINTS:
        for prop, expected in entry.expects:
            if prop == "pn":
                actual = is_pn(table).is_pn
            elif prop == "bent":
                from .spectrum import is_bent_exact

                actual = is_bent_exact(table).is_bent
            else:
                raise AssertionError(f"unknown expectation {prop!r}")
            if actual != expected:
                raise PropertyMismatch(
                    f"catalog entry {name!r} expected {prop}={expected}, measured {actual}"
                )
    return table
