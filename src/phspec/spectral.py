"""Eigenvalues of phi, real/conjugate-pair classification, empirical densities.

The characteristic polynomial of a pseudo-hermitian matrix has real
coefficients, so eigenvalues are real or come in conjugate pairs; the
classifier enforces exactly that structure on floating-point output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

REAL_TOL_FACTOR = 1e-9   # |Im| <= factor * spectral radius counts as real
PAIR_TOL_FACTOR = 1e-6   # max conjugate-partner mismatch, relative


class EigensolveError(RuntimeError):
    """Dense eigenvalue iteration failed for one sample."""


@dataclass
class SpectrumSample:
    """Classified spectrum of one phi realization."""

    eigs: np.ndarray                 # all n eigenvalues
    real_eigs: np.ndarray            # real parts of those classified real
    pair_eigs: np.ndarray            # one representative per pair, Im > 0
    tol_used: float
    sample_seed: int = 0
    sample_index: int = -1
    forced_real: int = 0             # pairs split by noise, reclassified real

    @property
    def n(self) -> int:
        return len(self.eigs)

    @property
    def real_fraction(self) -> float:
        return len(self.real_eigs) / self.n


def eigenvalues(phi: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense general complex matrix."""
    if not np.all(np.isfinite(phi)):
        raise EigensolveError("non-finite entries in phi")
    try:
        return np.linalg.eigvals(phi)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolveError(str(exc)) from exc


def _greedy_match(u: np.ndarray, v: np.ndarray, tol: float = np.inf):
    """Greedy nearest matching of the elements of ``u`` into ``v``.

    Each element of ``u`` in turn takes the nearest element of ``v`` not
    yet taken (the lowest index among equal distances), measured by
    ``np.hypot``, which rounds like the scalar complex abs where the
    vectorised ``np.abs`` can differ in the last bit.  Returns (partner,
    dist): the index into ``v`` of each element's partner, or -1 where
    the nearest free element lies further than ``tol`` (it stays free) or
    none is left (distance inf), and that nearest distance.
    """
    vr, vi = v.real.copy(), v.imag.copy()   # a taken element's real part becomes inf
    left = len(v)
    partner, dist = [], []
    for x in u.tolist():
        if not left:
            partner.append(-1)
            dist.append(np.inf)
            continue
        d = np.hypot(vr - x.real, vi - x.imag)
        j = int(d.argmin())
        dj = float(d[j])
        if dj <= tol:
            vr[j] = np.inf
            left -= 1
        else:
            j = -1
        partner.append(j)
        dist.append(dj)
    return np.array(partner, dtype=np.intp), np.array(dist)


def classify(eigs: np.ndarray, seed: int = 0) -> SpectrumSample:
    """Split a spectrum into real eigenvalues and conjugate pairs.

    An eigenvalue is real when |Im| <= REAL_TOL_FACTOR * max|eig|.  The
    rest are matched by ``_greedy_match``: each upper-half eigenvalue, in
    order of (Re, Im), takes the nearest free conjugate of a lower-half
    one within PAIR_TOL_FACTOR * scale.  A leftover on either side is a
    near-real pair split by rounding and gets reclassified as real (the
    count of such events is kept on the sample).
    """
    eigs = np.asarray(eigs, dtype=complex)
    scale = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
    if scale == 0.0:
        return SpectrumSample(eigs=eigs, real_eigs=eigs.real.copy(),
                              pair_eigs=np.empty(0, complex),
                              tol_used=0.0, sample_seed=seed)
    tol = REAL_TOL_FACTOR * scale
    real_mask = np.abs(eigs.imag) <= tol
    rest = eigs[~real_mask]
    upper = np.array(sorted(rest[rest.imag > 0], key=lambda z: (z.real, z.imag)), dtype=complex)
    lower = rest[rest.imag <= 0]
    partner, _ = _greedy_match(upper, np.conj(lower), PAIR_TOL_FACTOR * scale)
    paired = partner >= 0
    taken = np.zeros(len(lower), dtype=bool)
    taken[partner[paired]] = True
    leftovers = [upper[~paired], lower[~taken]]   # partnerless on either side
    forced = sum(len(v) for v in leftovers)
    if forced:
        warnings.warn(f"{forced} unpaired near-real eigenvalues reclassified as real",
                      RuntimeWarning, stacklevel=2)
    return SpectrumSample(
        eigs=eigs,
        real_eigs=np.sort(np.concatenate([eigs[real_mask].real, *(v.real for v in leftovers)]),
                          kind="stable"),
        pair_eigs=upper[paired],
        tol_used=tol,
        sample_seed=seed,
        forced_real=forced,
    )


def multiset_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Sup distance between two same-size multisets under ``_greedy_match``
    (lexicographic sorting would mispair noisy conjugate partners with
    nearly equal real parts)."""
    _, dist = _greedy_match(np.asarray(u, complex), np.asarray(v, complex))
    return float(np.max(dist, initial=0.0))


@dataclass
class Histogram1D:
    """Uniform-bin histogram; bins are [lo, hi) with the last bin closed."""

    edges: np.ndarray
    counts: np.ndarray
    total_weight: int     # n * num_samples, the density normalizer

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def density(self) -> np.ndarray:
        width = self.edges[1] - self.edges[0]
        return self.counts / (self.total_weight * width)

    @property
    def mass(self) -> float:
        """Integral of the density: (in-range count) / (n * num_samples)."""
        return float(self.counts.sum() / self.total_weight)


@dataclass
class Histogram2D:
    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray        # shape (nx, ny)
    total_weight: int

    @property
    def cell_area(self) -> float:
        return float((self.x_edges[1] - self.x_edges[0]) * (self.y_edges[1] - self.y_edges[0]))

    @property
    def density(self) -> np.ndarray:
        return self.counts / (self.total_weight * self.cell_area)


def empirical_density_1d(samples, bins: int, rng: tuple) -> Histogram1D:
    """Aggregate histogram of real eigenvalues over many samples.

    Normalized so its total mass is (real count) / (n * num_samples),
    i.e. densities integrate to the real-eigenvalue fraction.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    samples = list(samples)
    values = (np.concatenate([s.real_eigs for s in samples])
              if samples else np.empty(0))
    counts, edges = np.histogram(values, bins=bins, range=rng)
    total = sum(s.n for s in samples)
    return Histogram1D(edges=edges, counts=counts, total_weight=max(total, 1))


def empirical_density_2d(samples, bins: tuple, x_range: tuple, y_range: tuple) -> Histogram2D:
    """2D histogram of complex eigenvalues (both members of each pair)."""
    samples = list(samples)
    pts = []
    for s in samples:
        pts.append(s.pair_eigs)
        pts.append(np.conj(s.pair_eigs))
    z = np.concatenate(pts) if pts else np.empty(0, complex)
    counts, xe, ye = np.histogram2d(z.real, z.imag, bins=bins, range=[x_range, y_range])
    total = sum(s.n for s in samples)
    return Histogram2D(x_edges=xe, y_edges=ye, counts=counts, total_weight=max(total, 1))


def real_fraction(samples) -> tuple[float, float]:
    """Mean real-eigenvalue fraction over samples and its standard error."""
    fr = np.array([s.real_fraction for s in samples])
    if len(fr) == 0:
        raise ValueError("need at least one sample")
    err = fr.std(ddof=1) / np.sqrt(len(fr)) if len(fr) > 1 else 0.0
    return float(fr.mean()), float(err)


def ks_distance(values: np.ndarray, cdf) -> float:
    """Sup-norm distance between the empirical CDF of ``values`` and ``cdf``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))
