"""A serial `parallel_map`, kept only as a name.

Every verification loop in the package runs in one process and nothing
here calls this function.  The benchmark tracer (`perfbench/tracing.py`)
still wraps `ffspectra._parallel.parallel_map` by name and needs the module
to be loaded, so the module stays until the tracer drops that target.
"""


def parallel_map(fn, items):
    """[fn(x) for x in items], in this process."""
    return [fn(x) for x in items]
