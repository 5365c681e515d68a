"""Certified continuation of one root of the pole-sum gap equation.

The holomorphic gap equation of every metric has the form

    f(b; w) = m^2 b + sum_j c_j / (b + w/mu_j) = 0,

with (mu_j, c_j) the atoms of the metric and their weights, or the
quadrature nodes of a continuum density.  Its physical root is selected
by continuity along a path of waypoints from the large-|w| asymptote.

A path is a ``Paths`` record: per point its target, its start radius
and the angles and row counts of a geometric ray and a circular arc.
No waypoint table is built; ``track`` evaluates, at each step, the two
rows that bracket each active point, so memory grows with the number of
points, not with the number of waypoints.

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

from dataclasses import dataclass, field, fields

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
    # einsum sums each row alone, in an order set by the pole count, where a
    # BLAS product rounds a row by its place in the batch; a reduction along
    # short rows pays per row, so the maximum runs down the transpose
    s2 = np.einsum("ij,j->i", q_abs * q_abs, np.abs(c))
    return np.ascontiguousarray(q_abs.T).max(axis=0) * np.maximum(s2 / np.abs(fb), 1.0)


def _linspace_at(i, num):
    """linspace(0, 1, num)[i], elementwise, with its bits."""
    return np.where(i == num - 1, 1.0, i * (1.0 / (num - 1)))


@dataclass
class Paths:
    """Continuation paths, one entry per point, evaluated row by row.

    Point i's rows are the geometric ray r (start/r)^(1 - t) e^{i theta0} at
    t = linspace(0, 1, ray[i]), then the arc r e^{i (theta0 + t (theta -
    theta0))} at t = linspace(0, 1, arc[i]) (no arc rows when ``arc[i]`` is
    0), and last the target w, row ``last[i]``.  ``start``, ``ray`` and
    ``arc`` may be given as scalars shared by every point.  A row is
    computed by the ufunc sequence of the formula above, so its bits do not
    depend on which rows of which points are evaluated together.
    """

    w: np.ndarray
    r: np.ndarray
    start: np.ndarray
    theta0: np.ndarray
    theta: np.ndarray
    ray: np.ndarray       # rows, at least 2
    arc: np.ndarray       # rows, 0 or at least 2
    direction: np.ndarray = field(init=False, repr=False)   # e^{i theta0}

    def __post_init__(self):
        shape = np.shape(self.w)
        self.start = np.full(shape, self.start, dtype=float)
        self.ray, self.arc = (np.full(shape, v, dtype=np.intp) for v in (self.ray, self.arc))
        self.direction = np.exp(1j * self.theta0)

    @property
    def last(self) -> np.ndarray:
        """Row index of each point's target."""
        return self.ray + self.arc

    def rows(self, k, idx) -> np.ndarray:
        """Row ``k[i]`` of point ``idx[i]``, for integer arrays of one length;
        a row past a point's last is its target."""
        ray, arc = self.ray[idx], self.arc[idx]
        out = self.w[idx]
        on = np.flatnonzero(k < ray)
        p, t = idx[on], _linspace_at(k[on], ray[on])
        r = self.r[p]
        out[on] = (r * (self.start[p] / r) ** (1.0 - t)) * self.direction[p]
        on = np.flatnonzero((k >= ray) & (k < ray + arc))
        if len(on):
            p, t = idx[on], _linspace_at(k[on] - ray[on], arc[on])
            th0 = self.theta0[p]
            out[on] = self.r[p] * np.exp(1j * (th0 + t * (self.theta[p] - th0)))
        return out

    def row(self, k: int) -> np.ndarray:
        """Row ``k`` of every point."""
        n = len(self.w)
        return self.rows(np.full(n, k), np.arange(n))

    @staticmethod
    def concat(parts) -> Paths:
        """The entries of ``parts`` in order, as one record."""
        names = [f.name for f in fields(Paths) if f.init]
        return Paths(*(np.concatenate([getattr(p, k) for p in parts]) for k in names))


def track(mu, c, m: float, paths: Paths, b0: np.ndarray):
    """Follow one root of f(b; w) along per-point waypoints.

    Parameters
    ----------
    mu, c : array_like, shape (d,)
        Pole positions -w/mu_j and weights of the pole sum.
    m : float
        Coupling of the linear term m^2 b.
    paths : Paths
        Waypoints per tracked point, or any record with the same ``w``,
        ``last`` and ``rows``; the walk of point i ends at ``paths.w[i]``,
        row ``paths.last[i]``.
    b0 : ndarray, shape (n,)
        Approximate roots at row 0, corrected by Newton first.

    Returns
    -------
    b : ndarray, shape (n,)
        Tracked root at ``paths.w``, after three more Newton
        corrections there; meaningless where ``collided``.
    collided : ndarray of bool, shape (n,)
        Points whose step fell below MIN_STEP of a segment.
    """
    mu = np.asarray(mu, dtype=float)
    c = np.asarray(c, dtype=float)
    last = paths.last
    n = len(last)
    c_mu = c / mu
    m2 = m * m

    def dot(a, v):
        # numpy multiplies a single row by another kernel that rounds
        # differently; two equal rows keep a point's bits independent of
        # how many points share its step
        return (np.concatenate([a, a]) @ v)[:1] if len(a) == 1 else a @ v

    def terms(w, b):
        q = 1.0 / (b[:, None] + w[:, None] / mu)
        q2 = q * q
        return q, q2, m2 * b + dot(q, c), m2 - dot(q2, c)

    def newton(w, b):
        for _ in range(NEWTON_STEPS):
            _, _, f, fb = terms(w, b)
            b = b - f / fb
        return b

    def waypoint(t, idx):
        j = np.minimum(t.astype(int), last[idx] - 1)
        ends = paths.rows(np.concatenate([j, j + 1]), np.concatenate([idx, idx]))
        lo, hi = ends[:len(idx)], ends[len(idx):]
        return lo + (t - j) * (hi - lo)

    t = np.zeros(n)
    h = np.ones(n)
    collided = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        w_at = waypoint(t, np.arange(n))   # each point's current waypoint value
        b = newton(paths.rows(np.zeros(n, dtype=np.intp), np.arange(n)),
                   np.asarray(b0, dtype=complex))
        while True:
            idx = np.flatnonzero((t < last) & ~collided)
            if len(idx) == 0:
                break
            w_cur, b_cur = w_at[idx], b[idx]
            q, q2, _, fb = terms(w_cur, b_cur)
            slope = dot(q2, c_mu) / fb                   # db/dw = -f_w / f_b
            t_new = np.minimum(t[idx] + h[idx], last[idx])
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
        b = newton(paths.w, b)
    return b, collided
