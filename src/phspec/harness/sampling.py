"""Seeded, classified Monte Carlo spectra: the one sampling loop.

Sample i is drawn by ``ensemble.draw_sample`` from its own counter-based
stream, so it is the same matrix in whatever process and order it is
drawn.  Every eigensolve runs on one OpenBLAS thread, and the samples
are spread over worker processes instead (``threads``, all cores by
default).  Results are reduced in sample-index order, so spectra, and
the reports built from them, are bit-identical for any ``threads`` and
any core count or BLAS thread setting of the machine.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor

from .. import _blas
from .. import ensemble as ens
from .. import spectral


def num_workers(threads: int | None, num_samples: int) -> int:
    """Worker processes used for ``num_samples`` samples; None means all cores."""
    if threads is None:
        threads = os.cpu_count() or 1
    return min(threads, num_samples)


def _one_spectrum(config: ens.EnsembleConfig, idx: int):
    sample = ens.draw_sample(config, idx)
    phi, seed = sample.phi, sample.seed
    del sample   # frees A before the eigensolve
    try:
        eigs = spectral.eigenvalues(phi)
    except spectral.EigensolveError:
        return None
    spec = spectral.classify(eigs, seed=seed)
    spec.sample_index = idx
    return spec


def map_spectra(metric, n, m, master_seed, num_samples, threads=None):
    """Classified spectra for sample indices 0..num_samples-1.

    Returns (samples, skip_count); failed eigensolves are skipped, never
    imputed.  With more than one worker, each draws its own samples, so
    forked workers inherit no matrices from this process.
    """
    config = ens.EnsembleConfig(n=n, m=m, metric=metric, master_seed=master_seed,
                                num_samples=num_samples)
    draw = functools.partial(_one_spectrum, config)
    workers = num_workers(threads, num_samples)
    if workers == 1:
        with _blas.single_thread():
            results = [draw(i) for i in range(num_samples)]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_blas.pin_single_thread) as pool:
            results = list(pool.map(draw, range(num_samples)))
    samples = [r for r in results if r is not None]
    return samples, len(results) - len(samples)
