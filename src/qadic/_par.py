"""Optional process parallelism for enumeration scans, capped by QADIC_THREADS."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from qadic.rational import parse_natural


def worker_count() -> int:
    """Workers to use: QADIC_THREADS, with 0 or unset meaning serial."""
    n = parse_natural(os.environ.get("QADIC_THREADS", "0").strip(), "QADIC_THREADS")
    return n if n > 1 else 1


def pmap(fn, items: list) -> list:
    """Order-preserving map, fanned out over processes when allowed."""
    n = worker_count()
    if n <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * n))))
