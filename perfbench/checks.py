"""Correctness checks made apart from the program.

Each check recomputes a property the method must have from the
program's written output (or from a redrawn sample) with formulas coded
here, never by comparing against saved output.  A check returns a list
of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# Tolerances, all relative to O(1) quantities at m = 1.
IDENTITY_TOL = 1e-8          # w G = 1 + m^2 (a^2 + b^2) off the real axis
SIDE_LIMIT_TOL = 1e-6        # same on the real axis, where b, G are side limits
MIRROR_TOL = 1e-9            # G(conj w) = conj G(w)
ALPHA2_TOL = 1e-8            # alpha^2 against the signature closed form
GAP_RESIDUAL_TOL = 1e-9      # gap equations recomputed from the atoms
TRACE_TOL = 1e-9             # sum of eigenvalues (and squares) against traces
CONJ_TOL = 1e-6              # spectrum closed under conjugation


def read_grid(path) -> dict:
    """Columns of a gap_grid.csv as arrays; w, b, G complex."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    col = lambda k: np.array([float(r[k]) for r in rows])
    return {
        "w": col("x") + 1j * col("y"),
        "nh": np.array([r["phase"] == "nonholomorphic" for r in rows], dtype=bool),
        "alpha2": col("alpha2"),
        "b": col("re_b") + 1j * col("im_b"),
        "G": col("re_G") + 1j * col("im_G"),
    }


def _index(grid: dict, axis: np.ndarray):
    """Integer (i, j) grid position of every row."""
    h = axis[1] - axis[0]
    i = np.rint((grid["w"].real - axis[0]) / h).astype(int)
    j = np.rint((grid["w"].imag - axis[0]) / h).astype(int)
    return i, j


def structural_identity(grid: dict, m: float) -> list[str]:
    """w G = 1 + m^2 (a^2 + b^2) with a = i alpha, at every row."""
    w, g = grid["w"], grid["G"]
    lhs = w * g
    rhs = 1.0 + m * m * (-grid["alpha2"] + grid["b"] ** 2)
    err = np.abs(lhs - rhs)
    on_axis = w.imag == 0.0
    fails = []
    if np.any(err[~on_axis] > IDENTITY_TOL):
        fails.append(f"w G = 1 + m^2(a^2+b^2) off by {err[~on_axis].max():.3g} off the axis")
    if np.any(on_axis) and np.any(err[on_axis] > SIDE_LIMIT_TOL):
        fails.append(f"w G = 1 + m^2(a^2+b^2) off by {err[on_axis].max():.3g} on the axis")
    return fails


def mirror_symmetry(grid: dict, axis: np.ndarray) -> list[str]:
    """G(conj w) = conj G(w) and equal phases across mirrored rows."""
    i, j = _index(grid, axis)
    n = len(axis)
    slot = np.full((n, n), -1)
    slot[i, j] = np.arange(len(i))
    off = grid["w"].imag != 0.0      # on the axis G is a side limit, not symmetric
    k = np.flatnonzero(off)
    other = slot[i[k], n - 1 - j[k]]
    fails = []
    if np.any(other < 0):
        fails.append(f"{int((other < 0).sum())} rows have no mirrored row")
    k, other = k[other >= 0], other[other >= 0]
    worst = float(np.abs(grid["G"][k] - np.conj(grid["G"][other])).max(initial=0.0))
    if worst > MIRROR_TOL:
        fails.append(f"G(conj w) != conj G(w) by {worst:.3g}")
    flipped = int((grid["nh"][k] != grid["nh"][other]).sum())
    if flipped:
        fails.append(f"{flipped} rows change phase under w -> conj w")
    return fails


def signature_closed_forms(grid: dict, lam: float, m: float) -> list[str]:
    """Closed forms for the +-1 metric inside the blobs, off the real axis.

    alpha^2 = 1/m^2 - (x^2 + y^2 + beta^2), beta = (2 lam - 1)/(2 m^2 y),
    and the resolvent there is m^2 conj(w).
    """
    sel = grid["nh"] & (grid["w"].imag != 0.0)
    w = grid["w"][sel]
    x, y = w.real, w.imag
    beta = (2.0 * lam - 1.0) / (2.0 * m * m * y)
    a2 = 1.0 / (m * m) - (x * x + y * y + beta * beta)
    fails = []
    if not np.any(sel):
        return ["no non-holomorphic rows to check"]
    err = np.abs(grid["alpha2"][sel] - a2).max()
    if err > ALPHA2_TOL:
        fails.append(f"alpha^2 off the closed form by {err:.3g}")
    err_b = np.abs(grid["b"][sel].imag - beta).max()
    if err_b > ALPHA2_TOL:
        fails.append(f"beta off the closed form by {err_b:.3g}")
    err_g = np.abs(grid["G"][sel] - m * m * np.conj(w)).max()
    if err_g > IDENTITY_TOL:
        fails.append(f"G off m^2 conj(w) by {err_g:.3g}")
    return fails


def atom_gap_equations(grid: dict, mu: np.ndarray, wt: np.ndarray, m: float) -> list[str]:
    """The gap equations evaluated from the metric's atoms (mu_j, w_j).

    Holomorphic rows: m^2 b + sum_j w_j / (b + w/mu_j) = 0.
    Non-holomorphic rows, with E_j = x^2 + (y + beta mu_j)^2 + alpha^2 mu_j^2:
    (1/m^2) sum_j w_j mu_j^2 / E_j = 1 and sum_j w_j mu_j / E_j = 0.
    """
    fails = []
    nh = grid["nh"]
    off = grid["w"].imag != 0.0
    hol = ~nh & off
    w, b = grid["w"][hol], grid["b"][hol]
    res = m * m * b + (wt / (b[:, None] + w[:, None] / mu)).sum(axis=1)
    if len(res) and np.abs(res).max() > GAP_RESIDUAL_TOL:
        fails.append(f"holomorphic gap equation off by {np.abs(res).max():.3g}")
    w, beta, a2 = grid["w"][nh], grid["b"][nh].imag, grid["alpha2"][nh]
    e = w.real[:, None] ** 2 + (w.imag[:, None] + beta[:, None] * mu) ** 2 + a2[:, None] * mu * mu
    f1 = (wt * mu * mu / e).sum(axis=1) / (m * m) - 1.0
    f2 = (wt * mu / e).sum(axis=1)
    worst = max(np.abs(f1).max(initial=0.0), np.abs(f2).max(initial=0.0))
    if worst > GAP_RESIDUAL_TOL:
        fails.append(f"non-holomorphic gap equations off by {worst:.3g}")
    if not np.any(hol):
        fails.append("no holomorphic rows to check")
    return fails


def large_w_limit(grid: dict, mu: np.ndarray, wt: np.ndarray, m: float) -> list[str]:
    """w G -> 1 at the largest |w|, at the rate the gap equation predicts.

    Expanding m^2 b + sum_j w_j/(b + w/mu_j) = 0 in 1/w gives
    b = -t/(m^2 w (1 - s/(m^2 w^2))) + O(w^-5) with t = sum w_j mu_j,
    s = sum w_j mu_j^2, so w G - 1 = m^2 b^2 must decay like 1/w^2 with
    that coefficient.  The rows checked are those within 1% of the
    largest |w|; the O(w^-4) remainder is allowed a quarter of the
    prediction.
    """
    r = np.abs(grid["w"])
    far = (r >= 0.99 * r.max()) & ~grid["nh"]
    if not np.any(far):
        return ["no holomorphic rows at the largest |w|"]
    w, g = grid["w"][far], grid["G"][far]
    t, s = (wt * mu).sum(), (wt * mu * mu).sum()
    pred = t * t / (m * m * w * w * (1.0 - s / (m * m * w * w)) ** 2)
    err = np.abs(w * g - 1.0 - pred) / np.abs(pred)
    fails = []
    if err.max() > 0.25:
        fails.append(f"w G - 1 off its large-|w| form by {err.max():.3g} of it")
    if np.abs(w * g - 1.0).max() >= 1.0:
        fails.append("w G is not near 1 at the largest |w|")
    return fails


def histogram_mass(path, fraction: float, total: int) -> list[str]:
    """The real-eigenvalue histogram integrates to the reported real fraction.

    The histogram is normalised by ``total`` = n * samples, so its mass is
    (real eigenvalues in range) / total; the mean real fraction is (all real
    eigenvalues) / total.  They may differ only by a whole number of real
    eigenvalues outside the histogram's range, at most one in a thousand.
    """
    with open(path, newline="") as fh:
        rows = [(float(r["x_center"]), float(r["density"])) for r in csv.DictReader(fh)]
    xc = np.array([r[0] for r in rows])
    dens = np.array([r[1] for r in rows])
    mass = float(dens.sum() * (xc[1] - xc[0]))
    outside = (fraction - mass) * total
    if abs(outside - round(outside)) > 1e-6 or not 0 <= round(outside) <= 1e-3 * fraction * total:
        return [f"histogram mass {mass!r} does not match real fraction {fraction!r}"]
    return []


def spectrum(phi: np.ndarray, eigs: np.ndarray, n_real: int, n_pairs: int,
             min_real: int) -> list[str]:
    """Trace identities, conjugation closure and the real-count bound."""
    n = phi.shape[0]
    scale = max(float(np.abs(eigs).max()), 1e-300)
    fails = []
    tr1 = np.trace(phi)
    tr2 = np.sum(phi * phi.T)          # tr(phi^2)
    if abs(eigs.sum() - tr1) > TRACE_TOL * n * scale:
        fails.append(f"sum of eigenvalues off tr phi by {abs(eigs.sum() - tr1):.3g}")
    if abs((eigs * eigs).sum() - tr2) > TRACE_TOL * n * scale * scale:
        fails.append(f"sum of squares off tr phi^2 by {abs((eigs * eigs).sum() - tr2):.3g}")
    # greedy nearest matching of the spectrum with its conjugate
    free = np.ones(n, dtype=bool)
    target = np.conj(eigs)
    worst = 0.0
    for z in eigs:
        idx = np.flatnonzero(free)
        d = np.abs(target[idx] - z)
        k = int(np.argmin(d))
        worst = max(worst, float(d[k]))
        free[idx[k]] = False
    if worst > CONJ_TOL * scale:
        fails.append(f"spectrum not closed under conjugation (gap {worst:.3g})")
    if n_real + 2 * n_pairs != n:
        fails.append(f"{n_real} real + 2 x {n_pairs} pairs != n = {n}")
    if n_real < min_real:
        fails.append(f"{n_real} real eigenvalues < |n - 2k| = {min_real}")
    return fails


def verification_records(path) -> list[str]:
    """Every record of verification.json passes."""
    with open(path) as fh:
        records = json.load(fh)
    if not records:
        return ["verification.json is empty"]
    return [f"verification record {r['check_name']} failed"
            for r in records if r["pass"] is not True]
