"""Optional per-image parallelism, capped by the FSF_THREADS variable."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def worker_count() -> int:
    """Thread cap from FSF_THREADS (default 1 = serial); must be a positive integer."""
    raw = os.environ.get("FSF_THREADS", "1")
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ConfigError(f"FSF_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def parallel_map(fn, items):
    """Apply fn to each item, preserving order; threads only if allowed.

    Work items must be independent so results do not depend on the worker
    count.
    """
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
