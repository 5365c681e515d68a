"""Traced-allocation ceilings of the gap grid: paths are per-point records,
the CSV is written a block at a time and the step-halving candidates of the
non-holomorphic Newton are tried in calls no larger than the full step's, so
none of them holds a table of the whole grid."""

import tracemalloc

import numpy as np

from phspec import gapsolve as G
from phspec import metric as M
from phspec.harness import config as C
from phspec.harness import experiments as X

MIB = 2.0**20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gap_grid_peak_on_the_default_grid(tmp_path):
    # 101^2 points on Signature(64, 256): 38.3 MiB when every waypoint of
    # every path was an array entry and the CSV was formatted whole
    cfg = C.from_dict({"experiment": "gap_grid", "metric": {"type": "signature", "k": 64, "n": 256},
                       "n": 256, "m": 1.0, "seed": 1, "out_dir": str(tmp_path)})
    X.run(cfg)                      # lazy set-up is not the grid's
    assert _traced_peak(lambda: X.run(cfg)) <= 12 * MIB


def test_continuation_paths_peak():
    # as many points as the default grid's holomorphic ones; 37.5 MiB as an array
    n = 7465
    w = np.linspace(0.01, 1.7, n) * np.exp(1j * np.linspace(-3.1, 3.1, n))
    assert _traced_peak(lambda: X.continuation_paths(w, 0.25, 1.0)) <= 2 * MIB


def test_nonholomorphic_solve_peak():
    # 41^2 points against 128 quadrature nodes: 8.5 MiB when every halving
    # was its own call, 39.9 MiB with all candidates of all rows in one
    metric = M.FlatContinuum(mu1=1.0, lminus=0.5, mu2=1.5, lplus=1.0)
    xs = np.linspace(-1.2, 1.2, 41)
    w = (xs[:, None] + 1j * xs[None, :]).ravel()
    G.solve_nonholomorphic_batch(metric, w[:4], 1.0)    # quadrature nodes are cached
    assert _traced_peak(lambda: G.solve_nonholomorphic_batch(metric, w, 1.0)) <= 10 * MIB
