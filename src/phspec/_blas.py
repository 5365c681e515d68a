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
``num_workers`` processes, each pinned by ``pin_single_thread``, or in
this process under ``single_thread``, which runs a block on one BLAS
thread and restores the count after.  Results come back in index order,
so a caller that reduces them in that order gets the same bits for any
worker count.  Where numpy's BLAS is not OpenBLAS the thread controls
change nothing.
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


def map_samples(fn, count: int, threads: int | None = None) -> list:
    """``[fn(i) for i in range(count)]`` on one BLAS thread per process.

    With more than one worker (``num_workers(threads, count)``), ``fn``
    must pickle (a module-level function or a ``functools.partial`` of
    one), and each worker computes its own results from the index, so
    forked workers inherit no samples from this process.  An exception
    raised by ``fn`` reaches the caller.  Indices go out in chunks of
    about a sixteenth of a worker's share: a round trip to a worker is
    a sizeable part of a finite-N draw (1-4 ms), and chunks that small
    still even out the workers' loads.
    """
    workers = num_workers(threads, count)
    if workers <= 1:
        with single_thread():
            return [fn(i) for i in range(count)]
    # imported here: runs that never use a pool need no multiprocessing
    import concurrent.futures

    chunk = max(1, count // (16 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                initializer=pin_single_thread) as pool:
        return list(pool.map(fn, range(count), chunksize=chunk))
