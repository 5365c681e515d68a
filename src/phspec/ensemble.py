"""Sampling of the random hermitian factor A and construction of phi = A*B.

The weight on A is exp(-n m^2 tr A^2 / 2), i.e. every entry has second
moment E|A_ij|^2 = 1/(n m^2) (diagonal included); off-diagonal real and
imaginary parts each carry half of it.

Randomness is fully pinned down:

* per-sample streams come from the counter-based Philox generator,
  keyed by ``mix_seed(master_seed, sample_index)`` (SplitMix64 applied
  to master_seed + index * GOLDEN), so samples are independent of
  evaluation order and safe to draw in parallel;
* normal variates use the cosine branch of Box-Muller,
  z = sqrt(-2 ln(1-u1)) cos(2 pi u2), consuming one full n x n block
  of u1 and then one of u2 per real matrix (first matrix G, then H).

Bit-exact reproducibility is promised within this implementation; a
re-implementation from this description matches distributionally.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import metric as metric_mod
from .metric import Metric

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the SplitMix64 increment


def splitmix64(x: int) -> int:
    """One SplitMix64 output step (Steele/Lea/Flood mixing function)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(master_seed: int, sample_index: int) -> int:
    """Per-sample 64-bit key: SplitMix64 of master_seed + index * GOLDEN."""
    return splitmix64((master_seed + (sample_index * _GOLDEN)) & _MASK64)


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything that determines the Monte Carlo ensemble."""

    n: int
    m: float
    metric: Metric
    master_seed: int
    num_samples: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.m > 0:
            raise ValueError("m must be positive")
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        metric_mod.realize(self.metric, self.n)  # fail fast if not realizable


@dataclass
class PhSample:
    """One realization phi = A * B together with its provenance."""

    phi: np.ndarray
    a_matrix: np.ndarray
    b_diag: np.ndarray
    sample_index: int
    seed: int

    @property
    def n(self) -> int:
        return self.phi.shape[0]


def _standard_normal_matrix(rng: Generator, n: int) -> np.ndarray:
    """sqrt(-2 ln(1-u1)) cos(2 pi u2), computed in the buffers of u1 and u2."""
    u1 = rng.random((n, n))
    u2 = rng.random((n, n))
    r = np.negative(u1, out=u1)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    u2 *= 2.0 * np.pi
    r *= np.cos(u2, out=u2)
    return r


def sample_gue(n: int, m: float, seed: int) -> np.ndarray:
    """Draw one hermitian A with entry variance 1/(n m^2).

    A is hermitian bit-exactly: it is assembled as the symmetric part
    of one real normal matrix plus i times the antisymmetric part of a
    second one, both scaled afterwards.  The parts are written straight
    into A's real and imaginary halves and A is scaled in place; the
    division is numpy's complex one, so the bits are those of
    ``((g + g.T) + 1j * (h - h.T)) / (2 sqrt(n)) / m`` up to the sign of
    an entry that is exactly zero.
    """
    if n < 1 or not m > 0:
        raise ValueError("need n >= 1 and m > 0")
    rng = Generator(Philox(key=seed & _MASK64))
    g = _standard_normal_matrix(rng, n)
    h = _standard_normal_matrix(rng, n)
    # (g+g')/2 has unit-variance diagonal and 1/2-variance off-diagonal,
    # (h-h')/2 has 1/2-variance off-diagonal: exactly the GUE ratios.
    a = np.empty((n, n), dtype=complex)
    np.add(g, g.T, out=a.real)
    np.subtract(h, h.T, out=a.imag)
    a /= 2.0 * np.sqrt(n)
    if m != 1.0:   # dividing by 1.0 leaves every nonzero part as it is
        a /= m
    return a


def make_ph(a: np.ndarray, metric: Metric) -> PhSample:
    """phi = A * diag(realize(metric)).  A must be hermitian."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    b = metric_mod.realize(metric, n)
    phi = a * b[None, :]  # right-multiplication by a diagonal matrix
    return PhSample(phi=phi, a_matrix=a, b_diag=b, sample_index=-1, seed=0)


def draw_sample(config: EnsembleConfig, sample_index: int) -> PhSample:
    """Seeded sample number ``sample_index`` of the configured ensemble."""
    seed = mix_seed(config.master_seed, sample_index)
    a = sample_gue(config.n, config.m, seed)
    s = make_ph(a, config.metric)
    s.sample_index = sample_index
    s.seed = seed
    return s


def trace_statistic(sample: PhSample) -> float:
    """t = Re[(1/n) tr phi].

    tr(AB) is real for hermitian A and real diagonal B; across samples
    t is centered Gaussian with variance u/(n^2 m^2), u = (1/n) tr B^2.
    """
    return float(np.trace(sample.phi).real) / sample.n


_DUMP_MAGIC = b"PHS1"
_DUMP_HEADER = struct.Struct("<4sIdQ")


def dump_sample(sample: PhSample, m: float, path) -> None:
    """Binary dump: header {magic 'PHS1', n:u32, m:f64, seed:u64} + row-major phi."""
    with open(path, "wb") as fh:
        fh.write(_DUMP_HEADER.pack(_DUMP_MAGIC, sample.n, m, sample.seed))
        fh.write(np.ascontiguousarray(sample.phi, dtype="<c16").tobytes())


def load_sample(path) -> tuple[np.ndarray, float, int]:
    """Read a dump written by ``dump_sample``; returns (phi, m, seed)."""
    with open(path, "rb") as fh:
        magic, n, m, seed = _DUMP_HEADER.unpack(fh.read(_DUMP_HEADER.size))
        if magic != _DUMP_MAGIC:
            raise ValueError("not a phi sample dump")
        phi = np.frombuffer(fh.read(16 * n * n), dtype="<c16").reshape(n, n)
    return phi.copy(), m, seed
