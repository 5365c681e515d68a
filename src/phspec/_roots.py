"""Certified continuation of one root of the pole-sum gap equation.

The holomorphic gap equation of every metric has the form

    f(b; w) = m^2 b + sum_j c_j / (b + w/mu_j) = 0,

with (mu_j, c_j) the atoms of the metric and their weights, or the
quadrature nodes of a continuum density.  Its physical root is selected
by continuity along a path of waypoints from the large-|w| asymptote.

``track`` walks every point along its own waypoints in lockstep, each
from the waypoint value it carries.  A step is an Euler predictor
followed by three Newton corrections, accepted only when Smale's alpha
theory certifies it (Blum, Cucker, Shub and Smale, Complexity and Real
Computation, 1998, ch. 8; Beltran and Leykin, Exp. Math. 2012).  With
q_j = 1/(b + w/mu_j), delta = 1/max_j |q_j| and S2 = sum_j |c_j| |q_j|^2,
every derivative of order k >= 2 is f^(k)/k! = (-1)^k sum_j c_j q_j^(k+1),
so |f^(k) / (k! f')|^(1/(k-1)) <= (S2/|f'|)^(1/(k-1)) / delta.  Over k
the largest of these sits at k = 2 or k -> infinity, which gives

    gamma <= max(S2 / |f'|, 1) / delta,    beta = |f / f'|.

As S2 <= sum_j |c_j| / delta^2 this is never looser than treating every
pole as the nearest one, and equal to it for a single pole.

A step is accepted when the predictor is an approximate zero, alpha =
beta gamma < ALPHA_MAX, and when the root it converges to lies inside
the uniqueness ball of the previous root, |db| + 2 beta < u0 / (2
gamma_prev).  The step doubles after a success, up to MAX_STEP
waypoints, and halves after a failure.  A point whose step falls below
MIN_STEP of a segment is at a branch point, or too close to one to tell
the branches apart, and is reported as collided, never guessed.
"""

from __future__ import annotations

import numpy as np

ALPHA_MAX = 0.1
U0 = (5.0 - np.sqrt(17.0)) / 4.0   # uniqueness-radius constant
MAX_STEP = 16.0                    # waypoints
MIN_STEP = 2.0**-40                # of a segment
NEWTON_STEPS = 3


def gamma_bound(q, fb, c):
    """Bound on Smale's gamma per row of pole terms q = 1/(b + w/mu), shape
    (n, d), with f' = ``fb`` and pole weights ``c``."""
    q_abs = np.abs(q)
    return np.max(q_abs, axis=1) * np.maximum((q_abs * q_abs) @ np.abs(c) / np.abs(fb), 1.0)


def track(mu, c, m: float, paths: np.ndarray, b0: np.ndarray):
    """Follow one root of f(b; w) along per-point waypoints.

    Parameters
    ----------
    mu, c : array_like, shape (d,)
        Pole positions -w/mu_j and weights of the pole sum.
    m : float
        Coupling of the linear term m^2 b.
    paths : ndarray, shape (L, n)
        Waypoints per tracked point; the walk ends at ``paths[-1]``.
    b0 : ndarray, shape (n,)
        Approximate roots at ``paths[0]``, corrected by Newton first.

    Returns
    -------
    b : ndarray, shape (n,)
        Tracked root at ``paths[-1]``, after three more Newton
        corrections there; meaningless where ``collided``.
    collided : ndarray of bool, shape (n,)
        Points whose step fell below MIN_STEP of a segment.
    """
    mu = np.asarray(mu, dtype=float)
    c = np.asarray(c, dtype=float)
    paths = np.asarray(paths, dtype=complex)
    last = paths.shape[0] - 1
    n = paths.shape[1]
    c_mu = c / mu
    m2 = m * m

    def terms(w, b):
        q = 1.0 / (b[:, None] + w[:, None] / mu)
        q2 = q * q
        return q, q2, m2 * b + q @ c, m2 - q2 @ c

    def newton(w, b):
        for _ in range(NEWTON_STEPS):
            _, _, f, fb = terms(w, b)
            b = b - f / fb
        return b

    def waypoint(t, idx):
        j = np.minimum(t.astype(int), last - 1)
        return paths[j, idx] + (t - j) * (paths[j + 1, idx] - paths[j, idx])

    t = np.zeros(n)
    h = np.ones(n)
    collided = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        w_at = waypoint(t, np.arange(n))   # each point's current waypoint value
        b = newton(paths[0], np.asarray(b0, dtype=complex))
        while True:
            idx = np.flatnonzero((t < last) & ~collided)
            if len(idx) == 0:
                break
            w_cur, b_cur = w_at[idx], b[idx]
            q, q2, _, fb = terms(w_cur, b_cur)
            slope = (q2 @ c_mu) / fb                   # db/dw = -f_w / f_b
            t_new = np.minimum(t[idx] + h[idx], last)
            w_new = waypoint(t_new, idx)
            b_pred = b_cur + slope * (w_new - w_cur)
            qp, _, fp, fbp = terms(w_new, b_pred)
            beta = np.abs(fp / fbp)
            ok = ((beta * gamma_bound(qp, fbp, c) < ALPHA_MAX)
                  & (np.abs(b_pred - b_cur) + 2.0 * beta < 0.5 * U0 / gamma_bound(q, fb, c)))
            acc, rej = idx[ok], idx[~ok]
            b[acc] = newton(w_new[ok], b_pred[ok])
            w_at[acc] = w_new[ok]
            t[acc] = t_new[ok]
            h[acc] = np.minimum(2.0 * h[acc], MAX_STEP)
            h[rej] /= 2.0
            collided[rej[h[rej] < MIN_STEP]] = True
        # a step accepted at alpha < 0.1 leaves b about 1e-8/gamma off the root
        b = newton(paths[-1], b)
    return b, collided
