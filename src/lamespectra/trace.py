"""Stage log of one run: what each stage computed and what it cost.

Inside :func:`record`, each :func:`stage` that finishes appends one dict,
``{"stage": name, "seconds": wall seconds, **counts}``; outside a record a
stage keeps nothing.  The record lives in a context variable, so threads
and nested records each see their own.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["record", "stage"]

_log: ContextVar = ContextVar("lamespectra_trace", default=None)


@contextmanager
def record():
    """Collect the stages finished inside the block; yields their list."""
    token = _log.set([])
    try:
        yield _log.get()
    finally:
        _log.reset(token)


@contextmanager
def stage(name: str):
    """Time the block and yield a dict for its counts; a block that raises is not kept."""
    log, counts = _log.get(), {}
    start = time.perf_counter()
    yield counts
    if log is not None:
        log.append({"stage": name, "seconds": time.perf_counter() - start, **counts})
