"""Built-in function families with load-time verified properties.

Every entry's expected properties are re-checked on materialization at desk
scale (q**d <= 4096); a failed expectation raises PropertyMismatch rather
than shipping an unverified claim.  Entries whose properties depend on the
field (e.g. power maps) carry no expectations and are measured instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    BadExponent,
    EvenCharacteristic,
    FFSpectraError,
    PropertyMismatch,
    SpecDimensionMismatch,
    UnknownCatalogEntry,
)
from .field import FieldParams
from .funcs import FnSpec, FnTable, build_function, is_pn, splitmix64
from .space import DESK_SCALE_POINTS, _refuse_past_cap
from .spectrum import is_bent_exact


def random_function(params: FieldParams, d: int, seed: int) -> FnTable:
    """Seeded uniform table: value at point i is splitmix64(seed, i) mod q.

    Deterministic and platform-independent bit for bit; the test suite
    freezes golden tables against an independent scalar implementation.
    """
    _refuse_past_cap(params.q, d)  # before the n-entry table
    n, step = params.q**d, 1 << 16  # uint64 work arrays of 2**16 points at a time
    values = np.empty(n, np.min_scalar_type(params.q - 1))
    for i in range(0, n, step):
        values[i : i + step] = splitmix64(seed, np.arange(i, min(i + step, n), dtype=np.uint64)) % params.q
    return FnTable(params, d, values)


@dataclass(frozen=True)
class CatalogEntry:
    """A named family: builder plus the properties verified on load, and
    the names of the parameters the builder reads."""

    name: str
    summary: str
    default_d: int
    expects: tuple[tuple[str, bool], ...]
    builder: Callable[[FieldParams, int, Mapping[str, int]], FnTable]
    reads: tuple[str, ...] = ()

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
    e = operator.index(args.get("e", 3))
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
    return random_function(params, d, operator.index(args.get("seed", 0)))


def _build_affine(params: FieldParams, d: int, args: Mapping[str, int]) -> FnTable:
    if d != 1:
        raise SpecDimensionMismatch("affine entry is univariate")
    c = operator.index(args.get("c", 1)) % params.q
    b = operator.index(args.get("b", 0)) % params.q
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
            ("e",),
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
            ("seed",),
        ),
        CatalogEntry(
            "affine",
            "c*x + b; difference operators are constant, so never planar",
            1,
            (("pn", False),),
            _build_affine,
            ("b", "c"),
        ),
    )
}


def list_entries() -> tuple[CatalogEntry, ...]:
    return tuple(_CATALOG[name] for name in sorted(_CATALOG))


def get_function(
    name: str, params: FieldParams, d: int | None = None, **args: int
) -> FnTable:
    """Materialize a catalog function and verify its declared properties.
    A parameter the entry does not read is refused before anything is built."""
    if name not in _CATALOG:
        raise UnknownCatalogEntry(name)
    entry = _CATALOG[name]
    unread = sorted(set(args) - set(entry.reads))
    if unread:
        reads = ", ".join(entry.reads) or "none"
        raise FFSpectraError(f"catalog entry {name!r} does not read parameter {unread[0]!r} (it reads: {reads})")
    if d is None:
        d = entry.default_d
    d = _refuse_past_cap(params.q, d)  # before any entry builds its spec
    table = entry.builder(params, d, args)
    if table.n_points <= DESK_SCALE_POINTS:
        for prop, expected in entry.expects:
            if prop == "pn":
                actual = is_pn(table).is_pn
            elif prop == "bent":
                actual = is_bent_exact(table).is_bent
            else:
                raise AssertionError(f"unknown expectation {prop!r}")
            if actual != expected:
                raise PropertyMismatch(
                    f"catalog entry {name!r} expected {prop}={expected}, measured {actual}"
                )
    return table
