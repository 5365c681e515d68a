"""Seeded per-sample spectra with optional process parallelism.

Results are reduced in sample-index order regardless of worker
scheduling, so reports are bit-identical for any parallelism degree.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import ensemble as ens
from .. import metric as metric_mod
from .. import spectral


def _one_spectrum(args):
    metric_cfg, n, m, master_seed, idx = args
    metric = metric_mod.from_config(metric_cfg)
    seed = ens.mix_seed(master_seed, idx)
    phi = ens.make_ph(ens.sample_gue(n, m, seed), metric).phi
    try:
        eigs = spectral.eigenvalues(phi)
    except spectral.EigensolveError:
        return None
    return spectral.classify(eigs, seed=seed)


def map_spectra(metric, n, m, master_seed, num_samples, threads=1):
    """Classified spectra for sample indices 0..num_samples-1.

    Returns (samples, skip_count); failed eigensolves are skipped, never
    imputed.
    """
    metric_cfg = metric_mod.to_config(metric)
    args = [(metric_cfg, n, m, master_seed, i) for i in range(num_samples)]
    if threads <= 1:
        results = [_one_spectrum(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_one_spectrum, args, chunksize=4))
    samples = [r for r in results if r is not None]
    return samples, len(results) - len(samples)
