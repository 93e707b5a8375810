"""Thread-pool helper honoring the RADIAL_THREADS environment cap.

Work items own independent RNG streams and results are collected by input
index, so outputs are identical for every worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    env = os.environ.get("RADIAL_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigurationError(f"RADIAL_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ConfigurationError("RADIAL_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def indexed_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items`` preserving order, possibly with threads."""
    workers = min(worker_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
