"""Spans and counters around ffspectra's public functions, installed from outside.

Nothing in the package is edited: `install` replaces each target function
at every binding site, i.e. in every `ffspectra.*` module namespace that
holds the original function object, so a name bound by
`from .spectrum import exact_cell` inside `cli` is wrapped as well.

Three kinds of wrapper:

* span: records (name, start, end, parent) in memory and counts calls.
  A span's self time is its duration minus the time its child spans cover.
* timed: hot helpers called up to ~10**5 times per command.  They count
  calls and add busy time per group, timed at the outermost call of the
  group only.  They record no span, so they do not reduce any span's self
  time.
* counted: a call count only, for the hottest scalar operations.

Spans live in the traced process only; work done inside pool workers shows
up as the `parallel.parallel_map` span of the process that called it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, attribute, kind, metric stem); a span or timed stem yields
# <stem>_calls and <stem>_s, a counted stem is the metric name itself.
FUNCTION_TARGETS = (
    ("cli", "main", SPAN, "cli.main"),
    ("field", "make_field", SPAN, "field.make_field"),
    ("catalog", "get_function", SPAN, "catalog.get_function"),
    ("funcs", "load_table", SPAN, "funcs.load_table"),
    ("funcs", "is_pn", SPAN, "funcs.is_pn"),
    ("spectrum", "is_bent_exact", SPAN, "spectrum.is_bent_exact"),
    ("spectrum", "crosscheck_pn_bent", SPAN, "spectrum.crosscheck_pn_bent"),
    ("spectrum", "spectrum_report", SPAN, "spectrum.spectrum_report"),
    ("spectrum", "walsh_fast_all", SPAN, "spectrum.walsh_fast_all"),
    ("spectrum", "exact_cell", SPAN, "spectrum.exact_cell"),
    ("salem", "graph_of", SPAN, "salem.graph_of"),
    ("salem", "verify_theorem1", SPAN, "salem.verify_theorem1"),
    ("decomp", "base_deltas", SPAN, "decomp.base_deltas"),
    ("decomp", "verify_decomposition", SPAN, "decomp.verify_decomposition"),
    ("mindist", "perturbation_sweep", SPAN, "mindist.perturbation_sweep"),
    ("_parallel", "parallel_map", SPAN, "parallel.parallel_map"),
    ("_modp", "digits_of", TIMED, "modp.digits_of"),
    ("field", "vec_add", TIMED, "field.vec"),
    ("field", "vec_sub", TIMED, "field.vec"),
    ("field", "vec_mul", TIMED, "field.vec"),
    ("field", "vec_scalar_mul", TIMED, "field.vec"),
    ("space", "vec_point_add", TIMED, "space.vec_point_add"),
    ("field", "trace", COUNTED, "field.trace_calls"),
    ("funcs", "delta_table", COUNTED, "funcs.delta_table_calls"),
)

# (module, class, attribute, kind, metric stem); applied in order, so a
# method listed twice gets both wrappers.
_CYCINT_METHODS = (
    "from_coeffs", "from_histogram", "zero", "integer", "root", "__add__", "__neg__",
    "__sub__", "__mul__", "__rmul__", "is_zero", "conjugate", "galois", "abs_sq",
    "as_integer", "to_complex",
)
METHOD_TARGETS = (
    ("field", "FieldElement", "__mul__", COUNTED, "field.elem_mul_calls"),
    ("space", "PointVector", "from_index", COUNTED, "space.point_from_index_calls"),
    *(("cyclotomic", "CycInt", name, TIMED, "cyclotomic") for name in _CYCINT_METHODS),
    ("cyclotomic", "CycInt", "from_coeffs", COUNTED, "cyclotomic.cycint_built"),
)

# Counts read from a call's arguments or result: (stem, metric, extractor).
_EXTRA_COUNTS = {
    "modp.digits_of": ("modp.digits_of_elems", lambda args, result: int(np.size(args[0]))),
    "parallel.parallel_map": ("parallel.tasks", lambda args, result: len(args[1])),
    "decomp.verify_decomposition": ("decomp.shifts_checked", lambda args, result: result.shifts_checked),
    "mindist.perturbation_sweep": ("mindist.pairs_tested", lambda args, result: result.pairs_tested),
}

# Metric names that do not follow the <stem>_<suffix> pattern.
_ALIASES = {"cli.self_s": "cli.main_self_s", "cyclotomic.s": "cyclotomic_s"}


class Tracer:
    """In-memory spans, call counts and group busy times for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self._open: list[int] = []
        self._active_groups: set[str] = set()
        info = _field_caches()[0].cache_info()
        self._trace_weights0 = (info.hits, info.misses)

    def span(self, stem: str, fn):
        extra = _EXTRA_COUNTS.get(stem)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[stem + "_calls"] += 1
            record = [stem, perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if extra is not None:
                self.counts[extra[0]] += extra[1](args, result)
            return result

        return wrapper

    def timed(self, stem: str, fn):
        extra = _EXTRA_COUNTS.get(stem)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[stem + "_calls"] += 1
            if extra is not None:
                self.counts[extra[0]] += extra[1](args, None)
            if stem in self._active_groups:
                return fn(*args, **kwargs)
            self._active_groups.add(stem)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy[stem] += perf_counter() - start
                self._active_groups.discard(stem)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, kind: str, stem: str, fn):
        return {SPAN: self.span, TIMED: self.timed, COUNTED: self.counted}[kind](stem, fn)

    def summary(self) -> dict[str, float]:
        """Flat metric dict: counts, inclusive and self span times, busy times,
        and the field caches' activity since this tracer was made."""
        out: dict[str, float] = dict(self.counts)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name + "_self_s"] = out.get(name + "_self_s", 0.0) + (end - start - child_time[i])
            if not _has_ancestor(self.spans, parent, name):
                out[name + "_s"] = out.get(name + "_s", 0.0) + (end - start)
        for group, seconds in self.busy.items():
            out[group + "_s"] = seconds
        out.update(_cache_activity(*self._trace_weights0))
        for alias, source in _ALIASES.items():
            out[alias] = out.get(source, 0.0)
        return out


def _has_ancestor(spans: list[list], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _field_caches():
    from ffspectra import field

    return field.trace_weights, field.mul_matrix, field.default_modulus


def _cache_activity(hits0: int, misses0: int) -> dict[str, float]:
    trace_weights = _field_caches()[0].cache_info()
    return {
        "field.trace_weights_hits": trace_weights.hits - hits0,
        "field.trace_weights_misses": trace_weights.misses - misses0,
        "field.cache_entries": sum(c.cache_info().currsize for c in _field_caches()),
    }


def _package_modules() -> list:
    import ffspectra
    import ffspectra.cli  # noqa: F401  (not imported by the package itself)

    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ffspectra" or name.startswith("ffspectra."))
    ]


def install(tracer: Tracer):
    """Wrap every target at every binding site; returns a function that
    restores the originals."""
    modules = _package_modules()
    by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
    restore: list[tuple[object, str, object]] = []
    for mod_name, attr, kind, stem in FUNCTION_TARGETS:
        original = getattr(by_name[mod_name], attr)
        wrapper = tracer.wrap(kind, stem, original)
        sites = 0
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    sites += 1
        if not sites:
            raise RuntimeError(f"no binding site found for {mod_name}.{attr}")
    for mod_name, cls_name, attr, kind, stem in METHOD_TARGETS:
        cls = getattr(by_name[mod_name], cls_name)
        raw = cls.__dict__[attr]
        restore.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(kind, stem, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(kind, stem, raw))

    def uninstall() -> None:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)

    return uninstall


def combine(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-process summaries; cache entries take the largest process's
    value and the trace_weights hit ratio is hits over lookups (0 when the
    cache was never consulted)."""
    total: Counter = Counter()
    for s in summaries:
        total.update({k: v for k, v in s.items() if k != "field.cache_entries"})
    out = dict(total)
    out["field.cache_entries"] = max((s.get("field.cache_entries", 0) for s in summaries), default=0)
    lookups = out.get("field.trace_weights_hits", 0) + out.get("field.trace_weights_misses", 0)
    out["field.trace_weights_hit_ratio"] = out.get("field.trace_weights_hits", 0) / lookups if lookups else 0.0
    return out
