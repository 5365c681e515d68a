"""Thread count of the OpenBLAS that numpy is linked to, and the one
pinned-BLAS map over seeded samples.

All sample loops run on one BLAS thread per process and spread their
samples over worker processes instead.  The finite-N checks solve
thousands of small dense problems (N <= 128); OpenBLAS splits each over
its thread pool, which gains little at that size, and while another
process holds a core a call now and then waits milliseconds for a
descheduled worker, so single calls took 20-100x their median time.
The Monte Carlo eigensolves (N = 256-1024) are faster on one thread per
process, with the samples spread over the cores instead, and their
eigenvalue bits then no longer depend on the machine's core count.

``map_samples`` is that loop: ``fn(i)`` for i = 0..count-1 over
``num_workers`` processes, or in this process under ``single_thread``,
which runs a block on one BLAS thread and restores the count after.
Results come back in index order, so a caller that reduces them in that
order gets the same bits for any worker count.  Where numpy's BLAS is
not OpenBLAS the thread controls change nothing.

The worker processes belong to a ``pool_scope``: every map inside one
open scope shares its pool of each size, and the outermost block shuts
the pools down when it exits, so a run that maps three times starts its
workers once, and they are warm for the later maps.  ``_init_worker``
sets each worker up: one BLAS thread, no scope inherited from the
parent, and on glibc malloc thresholds high enough that the per-draw
matrices (16 MiB for a complex one at N = 1024) are reused from the heap
instead of being mapped and faulted in afresh on every draw.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds bundled with numpy wheels
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _thread_controls():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def num_threads() -> int | None:
    """numpy's OpenBLAS thread count now, or None where it cannot be read."""
    controls = _thread_controls()
    return None if controls is None else controls[0]()


def pin_single_thread() -> None:
    """Run every later BLAS call of this process on one thread."""
    controls = _thread_controls()
    if controls is not None:
        controls[1](1)


@contextlib.contextmanager
def single_thread():
    """Run the block on one BLAS thread; restore the previous count after.

    The count is process-wide, so blocks in concurrent threads would
    restore each other's count.
    """
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def num_workers(threads: int | None, count: int) -> int:
    """Worker processes used for ``count`` samples; None means all cores."""
    if threads is None:
        threads = os.cpu_count() or 1
    return min(threads, count)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3    # glibc's mallopt parameters
# 32 MiB is the ceiling of glibc's own sliding mmap threshold on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX); the trim threshold lets the heap keep two
# such blocks free
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@functools.cache
def _mallopt():
    """glibc's ``mallopt`` in this process, or None on another libc."""
    if os.name != "posix":   # dlopen(NULL), the process's own symbols, is POSIX's
        return None
    fn = getattr(ctypes.CDLL(None), "mallopt", None)
    if fn is not None:
        fn.restype, fn.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    return fn


def _keep_freed_blocks() -> bool:
    """Let this process's malloc keep freed blocks below 32 MiB in its heap;
    True where both thresholds were set.  Applied in pool workers only."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    # mallopt returns 1 on success and 0 for a value it refuses
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


_scope: dict | None = None   # worker count -> pool of the open scope, None if none


def _init_worker() -> None:
    """Set up a pool worker: one BLAS thread, no pools of the parent's
    scope (they are the parent's to run), freed blocks kept."""
    global _scope
    _scope = None
    pin_single_thread()
    _keep_freed_blocks()


@contextlib.contextmanager
def pool_scope():
    """Share worker pools between the ``map_samples`` calls of the block.

    A map inside the block starts a pool of its size only if the scope
    has none yet; a nested block joins the open scope.  When the
    outermost block exits, whether it returns or raises, every pool
    cancels its queued work and is joined, so no worker outlives it.
    The scope is process-wide, as the BLAS thread count is.
    """
    global _scope
    if _scope is not None:
        yield
        return
    _scope = {}
    try:
        yield
    finally:
        pools, _scope = _scope, None
        for pool in pools.values():
            pool.shutdown(wait=True, cancel_futures=True)


def map_samples(fn, count: int, threads: int | None = None) -> list:
    """``[fn(i) for i in range(count)]`` on one BLAS thread per process.

    With more than one worker (``num_workers(threads, count)``), ``fn``
    must pickle (a module-level function or a ``functools.partial`` of
    one), and each worker computes its own results from the index, so
    workers inherit no samples from this process.  The workers are those
    of the open ``pool_scope``; outside one the map opens its own scope,
    which ends with the map.  An exception raised by ``fn`` reaches the
    caller, and the chunks of the map not yet started are cancelled.
    Indices go out in chunks of about a sixteenth of a worker's share: a
    round trip to a worker is a sizeable part of a finite-N draw
    (1-4 ms), and chunks that small still even out the workers' loads.
    """
    workers = num_workers(threads, count)
    if workers <= 1:
        with single_thread():
            return [fn(i) for i in range(count)]
    chunk = max(1, count // (16 * workers))
    with pool_scope():
        pool = _scope.get(workers)
        if pool is None:
            # imported here: runs that never use a pool need no multiprocessing
            import concurrent.futures

            pool = _scope[workers] = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker)
        return list(pool.map(fn, range(count), chunksize=chunk))
