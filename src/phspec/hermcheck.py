"""Finite-N verification of the doubling/hermitization constructions.

The product phi = A*B is awkward to average directly, so the analysis
routes through two auxiliary matrices:

* the 2N x 2N doubled matrix H = [[0, A], [B, 0]], whose resolvent
  carries the resolvent of phi in its blocks and whose spectrum is the
  +-sqrt of the spectrum of phi, and
* the 4N x 4N hermitized resolvent at spectral parameter eta = i s,

      Ghat(is; z, z*) = [[is, 0, z, -A], [0, is, -B, z],
                         [z*, -B, is, 0], [-A, z*, 0, is]]^{-1},

  whose sixteen N x N block traces obey exact per-sample identities
  (purely imaginary diagonal traces, equal diagonal sums, z <-> z*
  interrelations) and, after averaging, the self-consistent equations
  that the large-N gap solver assumes.

Ghat is never formed: ``block_traces`` reduces it by two Schur
complements to the inverse of one dense N x N matrix.

Everything here is numerical: the identities are evaluated on random
samples at small N and reported as residuals.  The spectral parameter
is kept strictly nonzero (s in [0.05, 0.5] in the tests); the s -> 0
statements involve distributions with no finite-N numerical meaning and
are probed via the trend in s instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ensemble as ens
from . import gapsolve
from . import metric as metric_mod
from . import spectral
from .metric import Metric


@dataclass
class DoubledMatrix:
    """H = [[0, A], [B, 0]] with its chirality partner."""

    h: np.ndarray
    n: int

    def gamma(self) -> np.ndarray:
        return np.diag(np.concatenate([np.ones(self.n), -np.ones(self.n)]))


def build_doubled(a: np.ndarray, metric: Metric) -> DoubledMatrix:
    """Assemble the 2N x 2N doubled matrix (exact block placement)."""
    n = a.shape[0]
    b = metric_mod.realize(metric, n)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = a
    h[n:, :n] = np.diag(b).astype(complex)
    return DoubledMatrix(h=h, n=n)


def gamma_anticommutator_norm(dm: DoubledMatrix) -> float:
    g = dm.gamma()
    return float(np.linalg.norm(g @ dm.h + dm.h @ g))


def check_block_resolvent(a: np.ndarray, metric: Metric, z: complex) -> dict:
    """Direct inverse of (z - H) against the four closed-form blocks.

    Also checks the trace pairing sum_i [1/(z-sqrt(w_i)) + 1/(z+sqrt(w_i))]
    over eigenvalues w_i of phi, and the half-trace relation
    (1/2N) tr (z-H)^{-1} = z * (1/N) tr (z^2-phi)^{-1}.
    Near-singular shifts (z^2 close to an eigenvalue of phi) are skipped.
    """
    n = a.shape[0]
    sample = ens.make_ph(a, metric)
    phi, b = sample.phi, sample.b_diag
    dm = build_doubled(a, metric)
    shift = z * np.eye(2 * n) - dm.h
    core = z * z * np.eye(n) - phi
    cond = np.linalg.cond(core)
    if cond > 1e12:
        return {"skipped": True, "cond": float(cond)}
    direct = np.linalg.inv(shift)
    core_inv = np.linalg.inv(core)
    core_inv_t = np.linalg.inv(z * z * np.eye(n) - b[:, None] * a)  # (z^2 - B A)^{-1}
    assembled = np.block([
        [z * core_inv, a @ core_inv_t],
        [b[:, None] * core_inv, z * core_inv_t],
    ])
    block_res = np.linalg.norm(direct - assembled) / np.linalg.norm(direct)

    w = np.linalg.eigvals(phi)
    sq = np.sqrt(w.astype(complex))
    trace_pair = np.sum(1.0 / (z - sq) + 1.0 / (z + sq))
    trace_res = abs(np.trace(direct) - trace_pair) / abs(np.trace(direct))

    half_trace = np.trace(direct) / (2 * n)
    g_phi = np.trace(core_inv) / n
    gtilde_res = abs(half_trace - z * g_phi) / max(abs(half_trace), 1e-300)
    return {
        "skipped": False,
        "cond": float(cond),
        "block_residual": float(block_res),
        "trace_pairing_residual": float(trace_res),
        "half_trace_residual": float(gtilde_res),
    }


def check_spectrum_symmetry(a: np.ndarray, metric: Metric) -> dict:
    """Spectrum of H: closed under z -> -z and z -> z*, squares to spec(phi)."""
    dm = build_doubled(a, metric)
    eigs_h = np.linalg.eigvals(dm.h)
    scale = float(np.max(np.abs(eigs_h)) + 1e-300)
    neg = spectral.multiset_distance(eigs_h, -eigs_h) / scale
    conj = spectral.multiset_distance(eigs_h, np.conj(eigs_h)) / scale
    eigs_phi = np.linalg.eigvals(ens.make_ph(a, metric).phi)
    doubled_phi = np.concatenate([eigs_phi, eigs_phi])
    square = spectral.multiset_distance(eigs_h**2, doubled_phi) / max(scale**2, 1e-300)
    return {"negation": float(neg), "conjugation": float(conj), "square_vs_phi": float(square)}


@dataclass
class BlockTraceSet:
    """All sixteen (1/N) tr Ghat_{alpha beta} at one (s, z)."""

    s: float
    z: complex
    traces: np.ndarray      # 4x4 complex

    def t(self, alpha: int, beta: int) -> complex:
        return complex(self.traces[alpha - 1, beta - 1])


def block_traces(a: np.ndarray, metric: Metric, s: float, z: complex) -> BlockTraceSet:
    """The sixteen block traces of Ghat at eta = i s, by Schur reduction.

    Ordered (1, 4 | 2, 3), the (2, 3) block inverts site by site to
    [[d1, d2], [d2, d1]], d1 = eta/(eta^2 - b^2), d2 = b/(eta^2 - b^2).
    Its Schur complement S = [[E, -C1], [-C2, E]], with C1 = A + z^2 d2,
    C2 = A + z*^2 d2 and E = eta - |z|^2 d1 diagonal and nonzero for real
    b and s != 0, inverts through T = E - C2 E^{-1} C1: the (4, 4) block
    of S^{-1} is T^{-1}, and the diagonals of the other three follow by
    row dot products.  The other blocks of Ghat couple S^{-1} to the
    (2, 3) block through diagonals, so theirs are per-site 2 x 2 products.
    """
    if s == 0.0:
        raise ValueError("s must be nonzero (the s -> 0 limit is distributional)")
    n = a.shape[0]
    b = metric_mod.realize(metric, n)
    eta, zc = 1j * s, np.conj(z)
    d1, d2 = eta / (eta * eta - b * b), b / (eta * eta - b * b)
    e = eta - abs(z) ** 2 * d1
    c1, c2 = a + np.diag(z * z * d2), a + np.diag(zc * zc * d2)
    t_inv = np.linalg.inv(np.diag(e) - c2 @ (c1 / e[:, None]))
    x11 = (1.0 + np.einsum("ik,ki->i", c1 @ t_inv, c2) / e) / e
    x = np.array([[x11, np.einsum("ik,ki->i", c1, t_inv) / e],
                  [np.einsum("ik,ki->i", t_inv, c2) / e, np.diagonal(t_inv)]])
    d_inv = np.array([[d1, d2], [d2, d1]])
    q = np.array([[0.0, z], [zc, 0.0]])   # couples (1, 4) to (2, 3) and back
    qd, dq = np.einsum("ab,bci->aci", q, d_inv), np.einsum("abi,bc->aci", d_inv, q)
    outer, inner = [0, 3], [1, 2]
    traces = np.empty((4, 4), dtype=complex)
    traces[np.ix_(outer, outer)] = x.mean(-1)
    traces[np.ix_(outer, inner)] = -np.einsum("abi,bci->ac", x, qd) / n
    traces[np.ix_(inner, outer)] = -np.einsum("abi,bci->ac", dq, x) / n
    traces[np.ix_(inner, inner)] = d_inv.mean(-1) + np.einsum("abi,bci,cdi->ad", dq, x, qd) / n
    return BlockTraceSet(s=float(s), z=complex(z), traces=traces)


def block_trace_identities(a: np.ndarray, metric: Metric, s: float, z: complex) -> dict:
    """Per-sample residuals of the exact block-trace identities.

    * diagonal traces purely imaginary,
    * 11+22 = 33+44 (isospectral positive blocks),
    * 44(is; z, z*) = 11(is; z*, z) and 33(is; z, z*) = 22(is; z*, z),
    * 14 = conj(41) per sample.
    All scaled by the largest diagonal trace magnitude.
    """
    t_z = block_traces(a, metric, s, z)
    t_zc = block_traces(a, metric, s, np.conj(z))
    diag = np.diagonal(t_z.traces)
    scale = float(np.max(np.abs(diag)) + 1e-300)
    return {
        "diag_real_part": float(np.max(np.abs(diag.real))) / scale,
        "equal_sums": abs((t_z.t(1, 1) + t_z.t(2, 2)) - (t_z.t(3, 3) + t_z.t(4, 4))) / scale,
        "interrelation_44_11": abs(t_z.t(4, 4) - t_zc.t(1, 1)) / scale,
        "interrelation_33_22": abs(t_z.t(3, 3) - t_zc.t(2, 2)) / scale,
        "adjoint_14_41": abs(t_z.t(1, 4) - np.conj(t_z.t(4, 1))) / scale,
    }


@dataclass
class GapResidualReport:
    """Monte Carlo test of the averaged self-consistency equations."""

    n: int
    num_samples: int
    s: float
    z: complex
    a_bar: complex
    b_bar: complex
    c_bar: complex
    rel_ac: float
    eq_a_residual: float
    eq_b_residual: float
    eq_c_residual: float
    adjoint_residual: float
    re11_over_mag: float
    re44_over_mag: float

    def as_dict(self) -> dict:
        d = self.__dict__.copy()
        for k in ("z", "a_bar", "b_bar", "c_bar"):
            d[k] = [getattr(self, k).real, getattr(self, k).imag]
        return d


def averaged_gap_residual(config: ens.EnsembleConfig, s: float, z: complex,
                          num_samples: int | None = None) -> GapResidualReport:
    """Estimate the averaged block traces and plug them into the gap equations.

    The self-consistency holds in the limit of vanishing spectral
    parameter, but the traces can only be measured at resolvable s; the
    measured means at s and s/2 are extrapolated linearly to zero (one
    Richardson step -- the quantitative form of checking the trend in
    s).  Then a_bar = -mean(44)/m^2, c_bar = -mean(11)/m^2,
    b_bar = -mean(41)/m^2, and the reported relative residuals shrink
    like O(1/N) + O(1/sqrt(samples)) + O(s^2).
    """
    if num_samples is None:
        num_samples = config.num_samples
    m = config.m
    acc_s = np.zeros((4, 4), dtype=complex)
    acc_half = np.zeros((4, 4), dtype=complex)
    for i in range(num_samples):
        sample = ens.draw_sample(config, i)
        acc_s += block_traces(sample.a_matrix, config.metric, s, z).traces
        acc_half += block_traces(sample.a_matrix, config.metric, s / 2.0, z).traces
    mean = (2.0 * acc_half - acc_s) / num_samples
    a_bar = -mean[3, 3] / (m * m)
    c_bar = -mean[0, 0] / (m * m)
    b_bar = -mean[3, 0] / (m * m)
    t14, t41 = mean[0, 3], mean[3, 0]

    b_diag = metric_mod.realize(config.metric, config.n)
    w = z * z
    denom = a_bar * c_bar - (b_bar + w / b_diag) * (np.conj(b_bar) + np.conj(w) / b_diag)
    tr_inv = np.sum(1.0 / denom) / config.n
    tr_b = np.sum((np.conj(b_bar) + np.conj(w) / b_diag) / denom) / config.n
    eq_a = abs(a_bar + a_bar * tr_inv / (m * m)) / abs(a_bar)
    eq_c = abs(c_bar + c_bar * tr_inv / (m * m)) / abs(c_bar)
    eq_b = abs(b_bar - tr_b / (m * m)) / abs(b_bar)
    return GapResidualReport(
        n=config.n, num_samples=num_samples, s=s, z=complex(z),
        a_bar=complex(a_bar), b_bar=complex(b_bar), c_bar=complex(c_bar),
        rel_ac=abs(a_bar - c_bar) / abs(a_bar),
        eq_a_residual=float(eq_a), eq_b_residual=float(eq_b), eq_c_residual=float(eq_c),
        adjoint_residual=float(abs(t14 - np.conj(t41))),
        re11_over_mag=float(abs(mean[0, 0].real) / abs(mean[0, 0])),
        re44_over_mag=float(abs(mean[3, 3].real) / abs(mean[3, 3])),
    )


def resolvent_vs_formula(config: ens.EnsembleConfig, z: complex,
                         num_samples: int | None = None) -> dict:
    """Monte Carlo (1/N) tr[z/(z^2 - A B)] against the solved z*G(z^2)."""
    if num_samples is None:
        num_samples = config.num_samples
    n = config.n
    acc = 0.0 + 0.0j
    eye = np.eye(n)
    for i in range(num_samples):
        sample = ens.draw_sample(config, i)
        acc += z * np.trace(np.linalg.inv(z * z * eye - sample.phi)) / n
    mc = acc / num_samples
    w = z * z
    sol = gapsolve.classify_phase(config.metric, w, config.m)
    predicted = z * sol.green
    return {
        "mc": complex(mc),
        "predicted": complex(predicted),
        "rel_deviation": float(abs(mc - predicted) / abs(predicted)),
        "phase": sol.phase,
    }
