"""Deterministic metrics B and their spectral data.

A metric is a fixed, invertible, hermitian (here: real diagonal) matrix B.
Three representations are supported:

* ``Signature(k, n)``   -- k eigenvalues +1 and n-k eigenvalues -1,
* ``ExplicitDiagonal``  -- an arbitrary list of nonzero real eigenvalues,
* ``FlatContinuum``     -- a continuum density that is flat on one negative
  and one positive segment, both bounded away from zero.

Every metric knows its eigenvalue density and the Cauchy transform
(Green's function) of that density,

    G_B(w) = integral rho_B(mu) / (w - mu) dmu,

which is the only input the large-N gap equations need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    """Invalid metric definition or evaluation request."""


class OnSupportError(MetricError):
    """Green's function requested exactly on the eigenvalue support."""


@dataclass(frozen=True)
class Signature:
    """diag(+1 ... +1, -1 ... -1) with ``k`` plus-ones out of ``n``."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 1 or not (0 <= self.k <= self.n):
            raise MetricError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def lam(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class ExplicitDiagonal:
    """Explicit list of real, nonzero diagonal entries."""

    mu: tuple

    def __init__(self, mu):
        mu = tuple(float(v) for v in mu)
        if len(mu) == 0:
            raise MetricError("empty diagonal")
        if any(v == 0.0 for v in mu):
            raise MetricError("zero eigenvalue makes the metric singular")
        if not all(np.isfinite(mu)):
            raise MetricError("diagonal entries must be finite")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class FlatContinuum:
    """Flat density on [-mu1, -mu1+lminus] and [mu2-lplus, mu2].

    Both segments must stay away from zero: mu1 > lminus > 0 and
    mu2 > lplus > 0, so the metric stays invertible in the continuum
    limit.  The density value is 1/(lplus+lminus) on both segments.
    """

    mu1: float
    lminus: float
    mu2: float
    lplus: float

    def __post_init__(self):
        if not (np.isfinite(self.mu1) and np.isfinite(self.mu2)
                and self.mu1 > self.lminus > 0 and self.mu2 > self.lplus > 0):
            raise MetricError(
                "flat metric needs finite mu1 > lminus > 0 and mu2 > lplus > 0 "
                "(support must exclude a neighborhood of zero)"
            )

    @property
    def density_value(self) -> float:
        return 1.0 / (self.lplus + self.lminus)

    def segments(self):
        """The two support intervals, negative one first."""
        return (
            (-self.mu1, -self.mu1 + self.lminus),
            (self.mu2 - self.lplus, self.mu2),
        )


Metric = Signature | ExplicitDiagonal | FlatContinuum


def is_atomic(metric: Metric) -> bool:
    return isinstance(metric, (Signature, ExplicitDiagonal))


def atoms(metric: Metric):
    """Distinct eigenvalues and their weights for an atomic metric.

    Returns (values, weights) with weights summing to 1.
    """
    if isinstance(metric, Signature):
        vals, wts = [], []
        if metric.k > 0:
            vals.append(1.0)
            wts.append(metric.k / metric.n)
        if metric.k < metric.n:
            vals.append(-1.0)
            wts.append(1.0 - metric.k / metric.n)
        return np.array(vals), np.array(wts)
    if isinstance(metric, ExplicitDiagonal):
        vals, counts = np.unique(np.array(metric.mu), return_counts=True)
        return vals, counts / counts.sum()
    raise MetricError("continuum metric has no atomic decomposition")


def trace_over_n(metric: Metric) -> float:
    """(1/N) tr B: the first moment of the metric's eigenvalue density."""
    if is_atomic(metric):
        vals, wts = atoms(metric)
        return float((wts * vals).sum())
    c = metric.density_value
    (a0, a1), (b0, b1) = metric.segments()
    # exact first moment of the piecewise-flat density
    return c * ((a1**2 - a0**2) / 2 + (b1**2 - b0**2) / 2)


def support_radius(metric: Metric) -> float:
    """max |mu| over the eigenvalue support."""
    if is_atomic(metric):
        vals, _ = atoms(metric)
        return float(np.max(np.abs(vals)))
    return max(metric.mu1, metric.mu2)


def realize(metric: Metric, n: int) -> np.ndarray:
    """Diagonal entries of B at matrix size ``n``.

    For a continuum metric the entries are deterministic equal-mass
    quantile midpoints (the inverse CDF evaluated at (i - 1/2)/n), so
    the empirical distribution converges weakly to the target density
    and never deviates from its CDF by more than 1/(2n) in sup norm.
    No randomness enters B anywhere.

    Raises
    ------
    MetricError
        If a Signature metric is realized at the wrong size, or n < 2
        for a continuum metric.
    """
    if n < 1:
        raise MetricError("n must be positive")
    if isinstance(metric, Signature):
        if metric.n != n:
            raise MetricError(f"signature metric is fixed at n={metric.n}, requested {n}")
        return np.concatenate([np.ones(metric.k), -np.ones(metric.n - metric.k)])
    if isinstance(metric, ExplicitDiagonal):
        if len(metric.mu) != n:
            raise MetricError(f"diagonal metric has {len(metric.mu)} entries, requested {n}")
        return np.array(metric.mu, dtype=float)
    if n < 2:
        raise MetricError("continuum metric needs n >= 2")
    p = (np.arange(n) + 0.5) / n
    return _flat_quantile(metric, p)


def _flat_quantile(metric: FlatContinuum, p: np.ndarray) -> np.ndarray:
    """Inverse CDF of the piecewise-flat density."""
    (a0, a1), (b0, b1) = metric.segments()
    mass_neg = metric.density_value * metric.lminus
    q = np.empty_like(p)
    low = p <= mass_neg
    q[low] = a0 + p[low] / metric.density_value
    q[~low] = b0 + (p[~low] - mass_neg) / metric.density_value
    return q


def density(metric: FlatContinuum, x) -> np.ndarray:
    """rho_B(x) for a continuum metric (0 off support)."""
    if not isinstance(metric, FlatContinuum):
        raise MetricError("density is only defined for continuum metrics")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for lo, hi in metric.segments():
        out = np.where((x >= lo) & (x <= hi), metric.density_value, out)
    return out


def green_b(metric: Metric, w) -> complex | np.ndarray:
    """Cauchy transform G_B(w) of the metric's eigenvalue density.

    Satisfies G_B(conj(w)) = conj(G_B(w)) and G_B(w) ~ 1/w at large
    |w|.  For the flat metric the logarithms are taken factor by
    factor with the principal branch, which places a cut from each
    branch point running along the real axis in the negative
    direction; the jump of the imaginary part across the support then
    reproduces the density.

    Raises
    ------
    OnSupportError
        If ``w`` lies exactly on the eigenvalue support.
    """
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if is_atomic(metric):
        vals, wts = atoms(metric)
        if np.any(np.isin(w, vals.astype(complex))):
            raise OnSupportError("w coincides with a metric eigenvalue")
        out = (wts / (w[:, None] - vals)).sum(axis=1)   # each point's sum in 1-point order
    else:
        if np.any((w.imag == 0) & (density(metric, w.real) > 0)):
            raise OnSupportError("w lies on the continuum support")
        out = _green_flat(metric, w)
    return complex(out[0]) if scalar else out


def _green_flat(metric: FlatContinuum, w: np.ndarray) -> np.ndarray:
    (a0, a1), (b0, b1) = metric.segments()
    return metric.density_value * (
        np.log(w - a0) - np.log(w - a1) + np.log(w - b0) - np.log(w - b1)
    )


def to_config(metric: Metric) -> dict:
    """JSON-serializable form used by run-config files."""
    if isinstance(metric, Signature):
        return {"type": "signature", "k": metric.k, "n": metric.n}
    if isinstance(metric, ExplicitDiagonal):
        return {"type": "diagonal", "values": list(metric.mu)}
    return {
        "type": "flat",
        "mu1": metric.mu1,
        "lminus": metric.lminus,
        "mu2": metric.mu2,
        "lplus": metric.lplus,
    }


def from_config(cfg: dict) -> Metric:
    """Parse the run-config metric object."""
    kind = cfg.get("type")
    if kind == "signature":
        return Signature(k=int(cfg["k"]), n=int(cfg["n"]))
    if kind == "diagonal":
        return ExplicitDiagonal(cfg["values"])
    if kind == "flat":
        return FlatContinuum(
            mu1=float(cfg["mu1"]),
            lminus=float(cfg["lminus"]),
            mu2=float(cfg["mu2"]),
            lplus=float(cfg["lplus"]),
        )
    raise MetricError(f"unknown metric type {kind!r}")
