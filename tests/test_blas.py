import contextlib
import functools
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from phspec import _blas


def _slow_square(i):
    # uneven work, so that the workers finish out of index order
    time.sleep(0.001 * ((5 * i) % 3))
    return i * i


def _fail_at(bad, i):
    if i == bad:
        raise ZeroDivisionError(f"sample {i}")
    return i


def _blas_threads(i):
    return _blas.num_threads()


def _keeps_freed_blocks(i):
    return _blas._keep_freed_blocks()


@contextlib.contextmanager
def parent_on_two_blas_threads():
    """Run the block with this process's OpenBLAS on two threads; yields
    the count the block should find again after the map (None if unset)."""
    controls = _blas._thread_controls()
    if controls is None:
        yield None
        return
    get, put = controls
    before = get()
    put(2)
    try:
        yield 2
    finally:
        put(before)


def test_num_workers():
    assert _blas.num_workers(3, 2) == 2
    assert _blas.num_workers(2, 40) == 2
    assert _blas.num_workers(None, 1000) == min(1000, os.cpu_count() or 1)


@settings(max_examples=12, deadline=None)
@given(count=st.integers(1, 40), threads=st.integers(1, 3))
def test_map_samples_is_the_ordered_map(count, threads):
    with parent_on_two_blas_threads() as parent:
        assert _blas.map_samples(_slow_square, count, threads) == [i * i for i in range(count)]
        assert _blas.num_threads() == parent


@settings(max_examples=8, deadline=None)
@given(data=st.data(), count=st.integers(1, 40), threads=st.integers(1, 3))
def test_map_samples_raises_what_fn_raises(data, count, threads):
    bad = data.draw(st.integers(0, count - 1))
    with parent_on_two_blas_threads() as parent:
        with pytest.raises(ZeroDivisionError, match=f"sample {bad}$"):
            _blas.map_samples(functools.partial(_fail_at, bad), count, threads)
        assert _blas.num_threads() == parent


@pytest.mark.parametrize("threads", [1, 2])
def test_map_samples_runs_on_one_blas_thread(threads):
    with parent_on_two_blas_threads() as parent:
        one = None if parent is None else 1
        assert _blas.map_samples(_blas_threads, 4, threads) == [one] * 4
        assert _blas.num_threads() == parent


@pytest.mark.skipif(_blas._mallopt() is None, reason="no glibc mallopt")
def test_workers_accept_the_malloc_thresholds():
    # set again in each worker, where _init_worker set them first; mallopt
    # returns 0 for a parameter or a value that this glibc refuses
    assert _blas.map_samples(_keeps_freed_blocks, 2, 2) == [True, True]
