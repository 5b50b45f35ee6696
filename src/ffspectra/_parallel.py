"""Deterministic work splitting for the verification loops.

Worker count never affects results: tasks are split into contiguous chunks,
chunk outputs are merged back in task order, and threads=1 bypasses the pool
entirely.  The FFSPECTRA_THREADS environment variable supplies the default
when a caller does not pass an explicit count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import BadThreadCount

T = TypeVar("T")
R = TypeVar("R")

ENV_THREADS = "FFSPECTRA_THREADS"


def resolve_threads(requested: int | None) -> int:
    if requested is not None:
        return max(1, int(requested))
    raw = os.environ.get(ENV_THREADS, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise BadThreadCount(f"{ENV_THREADS} must be an integer, got {raw!r}") from None


def chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split range(total) into at most `parts` contiguous, near-even spans."""
    if total <= 0:
        return []
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    spans = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map preserving input order; a process pool is used only when threads > 1."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
