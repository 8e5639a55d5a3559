"""Threads: the pin of numpy's BLAS to one thread, and the block pool.

Every public call that runs a BLAS product holds the pin, so the same
inputs give the same bits on any BLAS thread count. Pins nest and may
overlap across threads: BLAS stays on one thread until the last returns.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# Most threads that work blocks at once, the calling thread included:
# more have not been measured, and each holds its own block buffer.
_MAX_WORKERS = 2


def _blas_thread_calls():
    """numpy's OpenBLAS (set, get) thread-count calls; None for MKL or Accelerate."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")) and hasattr(lib, name.format("get")):
            return (ctypes.CFUNCTYPE(None, ctypes.c_int)((name.format("set"), lib)),
                    ctypes.CFUNCTYPE(ctypes.c_int)((name.format("get"), lib)))
    return None


_BLAS_THREADS = _blas_thread_calls()

# Pins held now in this process, whose BLAS count they share, and the
# count the first of them read.
_pin_lock = threading.Lock()
_pin_depth, _pin_saved = 0, 1


@contextmanager
def _pinned_blas():
    """numpy's BLAS on one thread for the body, process-wide; a no-op without
    thread calls. The first pin to enter sets 1, and the last to leave
    restores the count the first read; the others make no thread-count call."""
    global _pin_depth, _pin_saved
    if _BLAS_THREADS is None:
        yield
        return
    set_threads, get_threads = _BLAS_THREADS
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get_threads()
            set_threads(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_threads(_pin_saved)


def _workers() -> int:
    """Threads that work blocks: up to ``_MAX_WORKERS`` of this process's
    CPUs when numpy's BLAS can be pinned to one thread, else 1 (an
    unpinned BLAS may already run each product on every CPU)."""
    if _BLAS_THREADS is None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


def _in_runs(work, blocks: list[slice], buffers: list) -> list:
    """``work(run, buffer)`` for each run of consecutive blocks, in block order.

    The blocks are cut into ``min(len(buffers), len(blocks))`` runs whose
    block counts differ by at most one, and run i gets ``buffers[i]``.
    The calling thread works the first run; a pool made for the call
    works the others, and its threads are joined before this returns,
    also when a run raises.
    """
    n = min(len(buffers), len(blocks))
    runs = [blocks[len(blocks) * i // n : len(blocks) * (i + 1) // n] for i in range(n)]
    if n < 2:
        return [work(run, buffer) for run, buffer in zip(runs, buffers)]
    with ThreadPoolExecutor(n - 1) as pool:
        rest = [pool.submit(work, run, buffer) for run, buffer in zip(runs[1:], buffers[1:])]
        return [work(runs[0], buffers[0])] + [future.result() for future in rest]
