"""Thread count of the OpenBLAS that numpy is linked to.

Two kinds of work run on one BLAS thread.  The finite-N checks solve
thousands of small dense problems (N <= 128) one after another;
OpenBLAS splits each over its thread pool, which gains little at that
size, and while another process holds a core a call now and then waits
milliseconds for a descheduled worker, so single calls took 20-100x
their median time.  The Monte Carlo eigensolves (N = 256-1024) are
faster on one thread per process, with the samples spread over the
cores instead, and their eigenvalue bits then no longer depend on the
machine's core count.

``single_thread`` runs a block on one BLAS thread and restores the
count after; ``pin_single_thread`` sets one thread for the rest of the
process (the initializer of the sampling workers).  Where numpy's BLAS
is not OpenBLAS both change nothing.
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
