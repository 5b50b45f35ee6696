"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
module and attribute name; a rename or deletion of any of them must fail
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from ffspectra import field

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target():
    tracing = _load_tracing()
    original = field.make_field
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)  # raises if a target does not resolve
    try:
        field.make_field(5)
        assert tracer.counts["field.make_field_calls"] == 1
    finally:
        uninstall()
    assert field.make_field is original
