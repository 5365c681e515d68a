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

The per-sample checks take A as a stack (..., N, N), one matrix being a
stack of shape (), and give each matrix the bits it gets alone: scalar
moduli and products round as Python's, norms and matchings run matrix by
matrix.  ``verify`` runs its identity draws through them as one stack.

Only the averaged checks use workers: they map their draws through
``_blas.map_samples`` (``threads``, all cores by default), one BLAS
thread each, and sum the per-draw traces in sample-index order, so
their residuals are bit-identical for any ``threads``.  Inside a
``_blas.pool_scope``, such as an experiment run, they share its
workers.  A draw allocates only what it reads: the gap traces draw A
alone, and the resolvent builds z^2 - phi in phi's buffer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _blas
from . import ensemble as ens
from . import gapsolve
from . import metric as metric_mod
from . import spectral
from .metric import Metric


def _abs(x):
    """|x| by hypot, as the scalar abs rounds (numpy's vectorised abs may not)."""
    return np.hypot(x.real, x.imag)


def _diag(v: np.ndarray) -> np.ndarray:
    """The stack of diagonal matrices with diagonals ``v`` (..., N)."""
    out = np.zeros(v.shape + v.shape[-1:], dtype=v.dtype)
    np.einsum("...ii->...i", out)[...] = v
    return out


def _per_matrix(fn, *stacks: np.ndarray, ndim: int = 2) -> np.ndarray:
    """``fn`` of each ``ndim``-dimensional item of the stacks, over the stack shape."""
    items = (x.reshape((-1,) + x.shape[-ndim:]) for x in stacks)
    return np.array([fn(*args) for args in zip(*items)]).reshape(stacks[0].shape[:-ndim])


def build_doubled(a: np.ndarray, metric: Metric) -> np.ndarray:
    """The 2N x 2N doubled matrix H = [[0, A], [B, 0]] (exact block placement)."""
    n = a.shape[-1]
    h = np.zeros(a.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    h[..., :n, n:] = a
    h[..., n:, :n] = np.diag(metric_mod.realize(metric, n))
    return h


def gamma_anticommutator_norm(h: np.ndarray) -> np.ndarray:
    """|Gamma H + H Gamma|_F with the chirality Gamma = diag(1_N, -1_N)."""
    n = h.shape[-1] // 2
    g = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    return _per_matrix(np.linalg.norm, g @ h + h @ g)


def check_block_resolvent(a: np.ndarray, metric: Metric, z: complex) -> dict:
    """Direct inverse of (z - H) against the four closed-form blocks.

    Also checks the trace pairing sum_i [1/(z-sqrt(w_i)) + 1/(z+sqrt(w_i))]
    over eigenvalues w_i of phi, and the half-trace relation
    (1/2N) tr (z-H)^{-1} = z * (1/N) tr (z^2-phi)^{-1}.
    Near-singular shifts (z^2 close to an eigenvalue of phi) are
    ``skipped``: their residuals are nan and nothing is inverted.
    """
    n = a.shape[-1]
    b = metric_mod.realize(metric, n)
    core = z * z * np.eye(n) - a * b
    cond = np.linalg.cond(core)
    skipped = cond > 1e12
    kept = ~skipped
    a, core = a[kept], core[kept]
    direct = np.linalg.inv(z * np.eye(2 * n) - build_doubled(a, metric))
    core_inv = np.linalg.inv(core)
    core_inv_t = np.linalg.inv(z * z * np.eye(n) - b[:, None] * a)  # (z^2 - B A)^{-1}
    assembled = np.block([[z * core_inv, a @ core_inv_t],
                          [b[:, None] * core_inv, z * core_inv_t]])
    block_res = (_per_matrix(np.linalg.norm, direct - assembled)
                 / _per_matrix(np.linalg.norm, direct))

    sq = np.sqrt(np.linalg.eigvals(a * b))
    trace_pair = np.sum(1.0 / (z - sq) + 1.0 / (z + sq), axis=-1)
    trace = np.trace(direct, axis1=-2, axis2=-1)
    trace_res = _abs(trace - trace_pair) / _abs(trace)

    half_trace = trace / (2 * n)
    g_phi = np.trace(core_inv, axis1=-2, axis2=-1) / n
    gtilde_res = _abs(half_trace - gapsolve._cmul(z, g_phi)) / np.maximum(_abs(half_trace), 1e-300)
    out = {"skipped": skipped, "cond": cond}
    for key, res in zip(("block_residual", "trace_pairing_residual", "half_trace_residual"),
                        (block_res, trace_res, gtilde_res)):
        out[key] = np.full(skipped.shape, np.nan)
        out[key][kept] = res
    return out


def check_spectrum_symmetry(a: np.ndarray, metric: Metric) -> dict:
    """Spectrum of H: closed under z -> -z and z -> z*, squares to spec(phi)."""
    eigs_h = np.linalg.eigvals(build_doubled(a, metric))
    eigs_phi = np.linalg.eigvals(a * metric_mod.realize(metric, a.shape[-1]))
    scale = np.max(np.abs(eigs_h), axis=-1) + 1e-300
    dist = functools.partial(_per_matrix, spectral.multiset_distance, ndim=1)
    square = dist(eigs_h**2, np.concatenate([eigs_phi, eigs_phi], axis=-1))
    return {"negation": dist(eigs_h, -eigs_h) / scale,
            "conjugation": dist(eigs_h, np.conj(eigs_h)) / scale,
            "square_vs_phi": square / np.maximum(np.float_power(scale, 2), 1e-300)}


def block_traces(a: np.ndarray, metric: Metric, s: float, z: complex | np.ndarray) -> np.ndarray:
    """All sixteen (1/N) tr Ghat_{alpha beta} at eta = i s, entry [..., alpha - 1,
    beta - 1] of a 4 x 4 array per matrix, at one z or one z per matrix.

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
    n = a.shape[-1]
    b = metric_mod.realize(metric, n)
    z = np.asarray(z, dtype=complex)[..., None]   # one per matrix, against the site axis
    eta, zc = 1j * s, np.conj(z)
    d1, d2 = eta / (eta * eta - b * b), b / (eta * eta - b * b)
    e = eta - np.float_power(_abs(z), 2) * d1
    c1, c2 = (a + _diag(gapsolve._cmul(v, v) * d2) for v in (z, zc))
    t_inv = np.linalg.inv(_diag(e) - c2 @ (c1 / e[..., None]))
    row_dot = functools.partial(np.einsum, "...ik,...ki->...i")
    x11 = (1.0 + row_dot(c1 @ t_inv, c2) / e) / e
    x = np.stack([x11, row_dot(c1, t_inv) / e, row_dot(t_inv, c2) / e,
                  np.diagonal(t_inv, 0, -2, -1)], axis=-2).reshape(x11.shape[:-1] + (2, 2, n))
    d_inv = np.array([[d1, d2], [d2, d1]])
    q = np.zeros(z.shape[:-1] + (2, 2), dtype=complex)   # couples (1, 4) to (2, 3) and back
    q[..., 0, 1], q[..., 1, 0] = z[..., 0], zc[..., 0]
    qd = np.einsum("...ab,bci->...aci", q, d_inv)
    dq = np.einsum("abi,...bc->...aci", d_inv, q)
    outer, inner = slice(0, 4, 3), slice(1, 3)   # blocks 1, 4 and 2, 3
    traces = np.empty(x.shape[:-3] + (4, 4), dtype=complex)
    traces[..., outer, outer] = x.mean(-1)
    traces[..., outer, inner] = -np.einsum("...abi,...bci->...ac", x, qd) / n
    traces[..., inner, outer] = -np.einsum("...abi,...bci->...ac", dq, x) / n
    traces[..., inner, inner] = d_inv.mean(-1) + np.einsum("...abi,...bci,...cdi->...ad",
                                                          dq, x, qd) / n
    return traces


def block_trace_identities(a: np.ndarray, metric: Metric, s: float, z) -> dict:
    """Per-sample residuals of the exact block-trace identities.

    * diagonal traces purely imaginary,
    * 11+22 = 33+44 (isospectral positive blocks),
    * 44(is; z, z*) = 11(is; z*, z) and 33(is; z, z*) = 22(is; z*, z),
    * 14 = conj(41) per sample.
    All scaled by the largest diagonal trace magnitude; z as in ``block_traces``.
    """
    t_z = block_traces(a, metric, s, z)
    t_zc = block_traces(a, metric, s, np.conj(z))
    diag = np.diagonal(t_z, 0, -2, -1)
    scale = np.max(np.abs(diag), axis=-1) + 1e-300
    t11, t22, t33, t44 = np.moveaxis(diag, -1, 0)
    return {
        "diag_real_part": np.max(np.abs(diag.real), axis=-1) / scale,
        "equal_sums": _abs((t11 + t22) - (t33 + t44)) / scale,
        "interrelation_44_11": _abs(t44 - t_zc[..., 0, 0]) / scale,
        "interrelation_33_22": _abs(t33 - t_zc[..., 1, 1]) / scale,
        "adjoint_14_41": _abs(t_z[..., 0, 3] - np.conj(t_z[..., 3, 0])) / scale,
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


def _gap_traces(config: ens.EnsembleConfig, s: float, z: complex, idx: int):
    """Block traces of draw ``idx`` at s and at s/2; they read A and B, not phi."""
    a = ens.sample_gue(config.n, config.m, ens.mix_seed(config.master_seed, idx))
    return (block_traces(a, config.metric, s, z),
            block_traces(a, config.metric, s / 2.0, z))


def averaged_gap_residual(config: ens.EnsembleConfig, s: float, z: complex, *,
                          threads: int | None = None) -> GapResidualReport:
    """Estimate the averaged block traces and plug them into the gap equations.

    The self-consistency holds in the limit of vanishing spectral
    parameter, but the traces can only be measured at resolvable s; the
    measured means at s and s/2 are extrapolated linearly to zero (one
    Richardson step -- the quantitative form of checking the trend in
    s).  Then a_bar = -mean(44)/m^2, c_bar = -mean(11)/m^2,
    b_bar = -mean(41)/m^2, and the reported relative residuals shrink
    like O(1/N) + O(1/sqrt(samples)) + O(s^2).

    The ``config.num_samples`` draws are spread over ``threads`` worker
    processes (all cores by default) and their traces summed in
    sample-index order.
    """
    m = config.m
    acc_s = np.zeros((4, 4), dtype=complex)
    acc_half = np.zeros((4, 4), dtype=complex)
    for t_s, t_half in _blas.map_samples(functools.partial(_gap_traces, config, s, z),
                                         config.num_samples, threads):
        acc_s += t_s
        acc_half += t_half
    mean = (2.0 * acc_half - acc_s) / config.num_samples
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
        n=config.n, num_samples=config.num_samples, s=s, z=complex(z),
        a_bar=complex(a_bar), b_bar=complex(b_bar), c_bar=complex(c_bar),
        rel_ac=abs(a_bar - c_bar) / abs(a_bar),
        eq_a_residual=float(eq_a), eq_b_residual=float(eq_b), eq_c_residual=float(eq_c),
        adjoint_residual=float(abs(t14 - np.conj(t41))),
        re11_over_mag=float(abs(mean[0, 0].real) / abs(mean[0, 0])),
        re44_over_mag=float(abs(mean[3, 3].real) / abs(mean[3, 3])),
    )


def _resolvent_trace(config: ens.EnsembleConfig, z: complex, idx: int):
    """(1/N) tr[z/(z^2 - A B)] of draw ``idx``; z^2 - phi is built in phi's buffer."""
    core = ens.draw_sample(config, idx).phi
    np.negative(core, out=core)
    core[np.diag_indices(config.n)] += z * z
    return z * np.trace(np.linalg.inv(core)) / config.n


def resolvent_vs_formula(config: ens.EnsembleConfig, z: complex, *,
                         threads: int | None = None) -> dict:
    """Monte Carlo (1/N) tr[z/(z^2 - A B)] against the solved z*G(z^2).

    The ``config.num_samples`` draws are mapped as in
    ``averaged_gap_residual`` and summed in sample-index order.
    """
    acc = 0.0 + 0.0j
    for trace in _blas.map_samples(functools.partial(_resolvent_trace, config, z),
                                   config.num_samples, threads):
        acc += trace
    mc = acc / config.num_samples
    w = z * z
    sol = gapsolve.classify_phase(config.metric, w, config.m)
    predicted = z * sol.green
    return {
        "mc": complex(mc),
        "predicted": complex(predicted),
        "rel_deviation": float(abs(mc - predicted) / abs(predicted)),
        "phase": str(sol.phase),
    }
