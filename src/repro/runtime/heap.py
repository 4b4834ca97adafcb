"""Heap policy for the write-once exchange state.

The exchange phase builds a large heap (facts, adjacency rows, grounding
tuples) once and then only reads it.  CPython's cyclic collector would
still traverse all of it in every full collection, for the life of the
process.  :func:`long_lived_build` builds it with the collector paused and
then moves everything alive into the permanent generation
(:func:`gc.freeze`), so no later collection walks it again.

Freezing leaks nothing only because the published exchange state is
acyclic: reference counting still frees frozen objects when their last
reference goes, it is only cycles among them that would never be
reclaimed.  ``tests/test_runtime/test_heap.py`` pins that property.

The depth count below is module state on purpose: the collector it
pauses is one per process, so every engine in the process must share it.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_caller_enabled = True
_failed = False


@contextmanager
def long_lived_build() -> Iterator[None]:
    """Run the body with the cyclic collector paused; freeze its result.

    The outermost use collects once (so the freeze pins no garbage the
    caller left behind), pauses the collector and, when every use that
    overlapped it succeeded, freezes the heap on the way out.  Either way
    the last use out restores the caller's enabled/disabled state.
    Nested and concurrent uses share one depth count: only the outermost
    acts.
    """
    global _depth, _caller_enabled, _failed
    with _lock:
        if _depth == 0:
            gc.collect()
            _caller_enabled = gc.isenabled()
            _failed = False
            gc.disable()
        _depth += 1
    ok = False
    try:
        yield
        ok = True
    finally:
        with _lock:
            _depth -= 1
            _failed = _failed or not ok
            if _depth == 0:
                if not _failed:
                    gc.freeze()
                if _caller_enabled:
                    gc.enable()
