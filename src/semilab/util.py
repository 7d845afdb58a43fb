"""Shared plumbing."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def map_indexed(fn, items):
    """Map preserving input order; parallel over threads when
    SEMILAB_THREADS > 1 (default 1 = serial). Order-stable, so reductions
    stay deterministic."""
    items = list(items)
    try:
        workers = int(os.environ.get("SEMILAB_THREADS", "1"))
    except ValueError:
        workers = 1
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))
