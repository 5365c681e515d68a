"""Seeded, classified Monte Carlo spectra.

Sample i is drawn by ``ensemble.draw_sample`` from its own counter-based
stream, so it is the same matrix in whatever process and order it is
drawn.  The samples go through ``_blas.map_samples``, the sample map
that the finite-N checks of ``hermcheck`` and ``verify`` use too: every
eigensolve runs on one OpenBLAS thread, and the samples are spread over
worker processes instead (``threads``, all cores by default), those of
the run's ``_blas.pool_scope`` when an experiment runner calls, so a
sweep over several metrics starts its workers once.  Results are
reduced in sample-index order, so spectra, and the reports built from
them, are bit-identical for any ``threads`` and any core count or BLAS
thread setting of the machine.
"""

from __future__ import annotations

import functools

from .. import _blas
from .. import ensemble as ens
from .. import spectral


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
    imputed.
    """
    config = ens.EnsembleConfig(n=n, m=m, metric=metric, master_seed=master_seed,
                                num_samples=num_samples)
    results = _blas.map_samples(functools.partial(_one_spectrum, config),
                                num_samples, threads)
    samples = [r for r in results if r is not None]
    return samples, len(results) - len(samples)
