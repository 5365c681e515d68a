"""Gap-equation solver for an arbitrary invertible diagonal metric.

Two coupled unknowns describe the averaged resolvent of phi = A*B at a
point w of the complex plane:

* the order parameter a = i*alpha, nonzero exactly where complex
  eigenvalues condense (the non-holomorphic region D), and
* the generalized self-energy b, holomorphic outside D, pure imaginary
  i*beta inside.

Outside D the self-consistency collapses to a single equation for b,

    m^2 b + (1/N) tr 1/(b + w B^{-1}) = 0,

a sum of weighted poles in b: one per distinct eigenvalue of an atomic
metric, one per Gauss node of a continuum density.  The physical
branch is fixed by certified continuation (``_roots.track``) from the
large-|w| asymptote b ~ -(tr B / N)/(m^2 w) along waypoints that end at
w; if tr B = 0, the branch on the component of the holomorphic region
containing infinity is b = 0 identically.

Inside D the unknowns (alpha^2, beta) solve two real equations,

    (1/(N m^2)) tr 1/(|i beta + w B^{-1}|^2 + alpha^2) = 1,
    tr B^{-1} / (|i beta + w B^{-1}|^2 + alpha^2) = 0,

handled by one Newton iteration on the sign-free unknowns (alpha^2,
beta), run in lockstep over a batch of points, with each step halved
until the denominators stay positive and the residual drops.  The starts
are (1/m^2 - |w|^2 - beta0^2, beta0) with the continuation-root guess
beta0 = (tr B/N)/(2 m^2 Im w) (0 on the axis), then alpha^2 = 1/(2 m^2)
with beta = beta0, 0, -beta0; points that none of them resolves restart
from (f alpha^2, beta/f) for f = 1.35, 1.7, 2.05, 2.4.  The first
converged start decides, and ``alpha^2 <= 0`` there is the clean
no-solution exit that marks w as holomorphic.  A point with 0 < |Im w| <
TINY_IM is solved as on the axis: beta0 and the first Newton step in
beta, both ~ 1/Im w, would overflow once squared.  At w = 0, where the
equations collapse to one, alpha^2 = 1/m^2, beta = 0 solves them
exactly when tr B^{-1} = 0.

Both phases satisfy one unified identity through the map argument
zeta:  w G = zeta G_B(zeta) = 1 + m^2 (a^2 + b^2).  ``unified_check``
evaluates it as an independent residual against the metric's Cauchy
transform.

``classify_grid`` returns one ``GapSolution`` of arrays, entry i for
point i, which the audit and the CSV writer read as it is.  Its
holomorphic points share one tracker walk, a real-axis point's walk
ending at its side limit just off the axis, and a point whose walk
collides is UNRESOLVED.  Real-axis points off the cut take one more
certified step, back to the axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _roots
from . import metric as metric_mod
from .metric import FlatContinuum, Metric

HOLOMORPHIC = "holomorphic"
NONHOLOMORPHIC = "nonholomorphic"
UNRESOLVED = "unresolved"

PATH_STEPS = 128
# Angle (rad) off the real axis of the ray that walks to a side limit: far
# enough from the axis to pass the band edges without grazing them, inside
# the eigenvalue-free cone of every Signature(k, 256) (the narrowest, k =
# 127, has sin theta0 = |tr B|/N = 0.0078).  A metric whose cone is
# narrower, |tr B|/N -> 0, can put a blob in the ray's way.
LAUNCH_ANGLE = 5e-3
SIDE_ARC_ROWS = 2          # the arc from LAUNCH_ANGLE to the side limit is one chord
START_RADIUS_FACTOR = 100.0
NEWTON_TOL = 1e-10
NEWTON_RESTARTS = 4
NEWTON_ITERS = 40
HALVINGS = 12
TINY_IM = 1e-150
TRACELESS_TOL = 1e-14
FLAT_QUAD_NODES = 64
BOUNDARY_SCAN = 64
BOUNDARY_TOL = 1e-9


class BranchPointProximity(RuntimeError):
    """Two branches could not be told apart along the continuation path."""


@dataclass
class GapSolution:
    """Solved gap-equation data, one array entry per point in input order;
    an UNRESOLVED point has nan numbers.  ``take(i)`` is one point."""

    w: np.ndarray
    phase: np.ndarray             # HOLOMORPHIC, NONHOLOMORPHIC or UNRESOLVED
    b: np.ndarray                 # i*beta in the non-holomorphic phase
    alpha: np.ndarray             # Im a >= 0; zero in the holomorphic phase
    beta: np.ndarray              # Im b
    zeta: np.ndarray              # map argument feeding G_B (inf when b = 0)
    green: np.ndarray
    residual: np.ndarray
    note: np.ndarray              # the real-axis side limit taken, or ""

    @property
    def alpha2(self):
        return self.alpha * self.alpha

    def take(self, idx) -> GapSolution:
        """Entries ``idx`` of every field."""
        return GapSolution(*(v[idx] for v in vars(self).values()))


# ---------------------------------------------------------------------------
# eigenvalue density of B as weighted poles
# ---------------------------------------------------------------------------

_flat_node_cache: dict = {}


def _flat_nodes(metric: FlatContinuum):
    """Gauss-Legendre nodes/weights over the support, weights include rho."""
    key = (metric.mu1, metric.lminus, metric.mu2, metric.lplus)
    if key not in _flat_node_cache:
        base_x, base_w = np.polynomial.legendre.leggauss(FLAT_QUAD_NODES)
        nodes, weights = [], []
        for lo, hi in metric.segments():
            mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
            nodes.append(mid + half * base_x)
            weights.append(half * base_w * metric.density_value)
        _flat_node_cache[key] = (np.concatenate(nodes), np.concatenate(weights))
    return _flat_node_cache[key]


def _terms(metric: Metric):
    """(mu, weight) pairs representing the eigenvalue density of B: the
    atoms of an atomic metric, the Gauss nodes of a continuum one."""
    if metric_mod.is_atomic(metric):
        return metric_mod.atoms(metric)
    return _flat_nodes(metric)


# ---------------------------------------------------------------------------
# holomorphic phase
# ---------------------------------------------------------------------------

def _default_paths(w: np.ndarray, metric: Metric, m: float) -> _roots.Paths:
    """Geometric rays from far outside the spectrum, ending exactly at each target."""
    start = START_RADIUS_FACTOR * max(
        2.0 * metric_mod.support_radius(metric) / m, float(np.max(np.abs(w), initial=0.0))
    )
    r = np.maximum(np.abs(w), 1e-12 * start)   # keep w = 0 off the division
    theta = np.angle(w)
    return _roots.Paths(w, r, start, theta, theta, ray=PATH_STEPS + 1, arc=0)


def _side_limit_paths(limit: np.ndarray, metric: Metric, m: float) -> _roots.Paths:
    """Rays at LAUNCH_ANGLE off the real axis down to |limit|, then arcs at
    |limit| to arg(limit): each side limit is reached from its own side,
    clear of the band-edge branch points on the axis.  Each ray starts at
    START_RADIUS_FACTOR times the larger of 2 rho/m and |limit|, its own
    point's, so a walk does not depend on the batch it shares."""
    r = np.abs(limit)
    start = START_RADIUS_FACTOR * np.maximum(2.0 * metric_mod.support_radius(metric) / m, r)
    theta = np.angle(limit)
    launch = np.sign(theta) * np.where(np.abs(theta) <= np.pi / 2.0, LAUNCH_ANGLE,
                                       np.pi - LAUNCH_ANGLE)
    return _roots.Paths(limit, r, start, launch, theta, ray=PATH_STEPS + 1, arc=SIDE_ARC_ROWS)


def _bh_residual(mu, c, w, b, m: float):
    """Residual m^2 b + sum_j c_j/(b + w/mu_j) of the holomorphic gap equation."""
    return m * m * b + (c / (b[:, None] + w[:, None] / mu)).sum(axis=1)


def _holomorphic_green(mu, c, w, b):
    """G = sum_j c_j/(b mu_j + w) = (1/N) tr 1/(b B + w) for the selected branch."""
    return (c / (b[:, None] * mu + w[:, None])).sum(axis=1)


def solve_holomorphic_batch(metric: Metric, w: np.ndarray, m: float = 1.0,
                            paths: _roots.Paths | None = None):
    """Branch-tracked holomorphic solutions over a batch of points.

    ``paths`` overrides the default straight-ray continuation with other
    paths ending at w (a ``_roots.Paths`` record, one entry per point);
    callers that know the geometry of the non-holomorphic region use this
    to route around it, since continuation through it can end on a wrong
    sheet.

    Returns (b, green, residual, collided) arrays; ``collided`` flags
    points whose track could not tell two branches apart (branch-point
    proximity -- those values are not trustworthy).
    """
    w = np.asarray(w, dtype=complex).ravel()
    return _holomorphic_walk(metric, w, m, paths)


def _holomorphic_walk(metric: Metric, w: np.ndarray, m: float, paths: _roots.Paths | None,
                      b0: np.ndarray | None = None):
    """``solve_holomorphic_batch`` from the roots ``b0`` at row 0 of
    ``paths`` (default: the large-|w| asymptote there)."""
    mu, c = _terms(metric)
    tr = metric_mod.trace_over_n(metric)
    if abs(tr) <= TRACELESS_TOL:
        b = np.zeros_like(w)   # exact: the branch continuous with infinity
        return b, _holomorphic_green(mu, c, w, b), np.zeros(len(w)), np.zeros(len(w), dtype=bool)
    if paths is None:
        paths = _default_paths(w, metric, m)
    if b0 is None:
        b0 = -tr / (m * m * paths.row(0))
    b, collided = _roots.track(mu, c, m, paths, b0)
    res = np.abs(_bh_residual(mu, c, w, b, m))
    return b, _holomorphic_green(mu, c, w, b), res, collided


# ---------------------------------------------------------------------------
# non-holomorphic phase
# ---------------------------------------------------------------------------

def solve_nonholomorphic_batch(metric: Metric, w: np.ndarray, m: float = 1.0):
    """Lockstep Newton solve for (alpha^2, beta) over a batch of points.

    Every point runs the seed schedule of the module docstring until one
    start converges; later starts run only on the points still
    unresolved.  Returns (s, beta, residual, success): ``success`` marks
    points with a converged alpha^2 > 0 solution; everything else
    belongs to the holomorphic phase.
    """
    w = np.asarray(w, dtype=complex).ravel()
    x, y = w.real.copy(), w.imag.copy()
    mu, wt = _terms(metric)
    n = len(w)
    s = np.full(n, np.nan)
    beta = np.full(n, np.nan)
    res = np.full(n, np.inf)
    done = np.zeros(n, dtype=bool)
    if np.all(mu > 0) or np.all(mu < 0):
        return s, beta, res, done  # definite metric: the trace equation has a fixed sign
    # any solution has |w|^2 tr(B^{-2}(...))/N = 1 - m^2(alpha^2+beta^2) < 1 with
    # the trace bounded below by m^2/max(mu)^2, hence |w| < max|mu|/m
    out_of_reach = np.abs(w) >= metric_mod.support_radius(metric) / m
    s[out_of_reach] = -np.inf
    done[out_of_reach] = True
    centre = ~done & (w == 0)
    s[centre] = 1.0 / (m * m) if abs((wt / mu).sum()) <= 1e-12 else -np.inf
    beta[centre], res[centre], done[centre] = 0.0, 0.0, True

    tr = metric_mod.trace_over_n(metric)
    s0 = np.full(n, 1.0 / (2.0 * m * m))
    y[np.abs(y) < TINY_IM] = 0.0   # beta0 ~ 1/y would overflow once squared
    with np.errstate(divide="ignore", invalid="ignore"):
        b_guess = np.where(y != 0.0, tr / (2.0 * m * m * np.where(y != 0.0, y, 1.0)), 0.0)
    s_guess = 1.0 / (m * m) - x * x - y * y - b_guess * b_guess
    seeds = ((s_guess, b_guess), (s0, b_guess), (s0, np.zeros(n)), (s0, -b_guess))
    facs = [1.0 + 0.35 * k for k in range(NEWTON_RESTARTS + 1)]
    for fac, (s_seed, b_seed) in itertools.product(facs, seeds):
        todo = ~done
        if not np.any(todo):
            break
        sj, bj, rj, ok = _newton_batch(mu, wt, x[todo], y[todo], s_seed[todo] * fac,
                                       b_seed[todo] / fac, m)
        idx = np.flatnonzero(todo)[ok]
        s[idx], beta[idx], res[idx] = sj[ok], bj[ok], rj[ok]
        done[idx] = True
    success = done & (s > 0.0) & (res <= NEWTON_TOL)
    return s, beta, res, success


def _newton_batch(mu, wt, x, y, s, beta, m):
    """Lockstep Newton with positivity-guarded step halving.

    Uses the B^2-scaled form of the two real equations, with denominator
    E = x^2 + (y + beta mu)^2 + s mu^2, positive for s > 0.
    """
    n = len(x)
    act = np.ones(n, dtype=bool)
    mu2 = mu * mu
    res = np.full(n, np.inf)

    def residual(s_, beta_, xa, ya):
        shift = ya[:, None] + beta_[:, None] * mu
        e = xa[:, None] ** 2 + shift ** 2 + s_[:, None] * mu2
        bad = np.any(e <= 0.0, axis=1) | ~np.all(np.isfinite(e), axis=1)
        inv = np.where(e > 0.0, 1.0 / np.where(e > 0.0, e, 1.0), 0.0)
        f1 = (wt * mu2 * inv).sum(axis=1) / (m * m) - 1.0
        f2 = (wt * mu * inv).sum(axis=1)
        return f1, f2, bad, inv, shift

    for _ in range(NEWTON_ITERS):
        if not np.any(act):
            break
        ia = np.flatnonzero(act)
        f1, f2, bad, inv, shift = residual(s[ia], beta[ia], x[ia], y[ia])
        norm = np.maximum(np.abs(f1), np.abs(f2))
        res[ia] = np.where(bad, np.inf, norm)
        stop = (norm <= NEWTON_TOL) | bad
        act[ia[stop]] = False
        ia = ia[~stop]
        if len(ia) == 0:
            continue
        f1, f2, inv, shift = (v[~stop] for v in (f1, f2, inv, shift))
        de_db = 2.0 * mu * shift
        inv2 = inv * inv
        j11 = -(wt * mu2 * mu2 * inv2).sum(axis=1) / (m * m)
        j12 = -(wt * mu2 * de_db * inv2).sum(axis=1) / (m * m)
        j21 = -(wt * mu * mu2 * inv2).sum(axis=1)
        j22 = -(wt * mu * de_db * inv2).sum(axis=1)
        del inv, shift, de_db, inv2   # no (n, atoms) array outlives the sums
        det = j11 * j22 - j12 * j21
        sing = np.abs(det) < 1e-300
        det = np.where(sing, 1.0, det)
        ds = (-f1 * j22 + f2 * j12) / det
        db = (-f2 * j11 + f1 * j21) / det
        ds[sing] = 0.0
        db[sing] = 0.0
        act[ia[sing]] = False
        # step halving until the denominators stay positive and residual
        # drops: the full step first, then every halving down to
        # 2^-(HALVINGS-1) at once for the rows it fails, in calls of at most
        # as many rows as the full step's; a row takes its first step that
        # passes, else 2^-HALVINGS
        phi0 = f1 * f1 + f2 * f2

        def fails(t, k):
            i = ia[k]
            g1, g2, bad2, *_ = residual(s[i] + t * ds[k], beta[i] + t * db[k], x[i], y[i])
            return bad2 | (g1 * g1 + g2 * g2 > phi0[k])

        t = np.ones(len(ia))
        k = np.flatnonzero(fails(t, np.arange(len(ia))))
        half = 0.5 ** np.arange(1, HALVINGS)
        chunk = max(len(ia) // len(half), 1)
        for lo in range(0, len(k), chunk):
            kk = k[lo:lo + chunk]
            bad = fails(np.tile(half, len(kk)), np.repeat(kk, len(half))).reshape(len(kk), -1)
            t[kk] = np.where(bad.all(axis=1), 0.5 ** HALVINGS, half[np.argmin(bad, axis=1)])
        s[ia] = s[ia] + t * ds
        beta[ia] = beta[ia] + t * db
    ok = res <= NEWTON_TOL
    return s, beta, res, ok


def _nonholomorphic_green(metric, w, s, beta):
    """G = conj(w) (1/N) tr B^2/E at solved points, atoms on the trailing axis."""
    mu, wt = _terms(metric)
    x, y = w.real[:, None], w.imag[:, None]
    e = x * x + (y + beta[:, None] * mu) ** 2 + s[:, None] * mu * mu
    return np.conj(w) * (wt / e).sum(axis=1)


# ---------------------------------------------------------------------------
# phase classification, boundary, densities, identities
# ---------------------------------------------------------------------------

def classify_phase(metric: Metric, w: complex, m: float = 1.0) -> GapSolution:
    """Classify a single point: entry 0 of ``classify_grid`` of one point.

    A point on a real-axis cut, or nearer to it than the side-limit
    offset, comes back as the side limit on its own side, noted on the
    solution; a real-axis point off the cut as its value on the axis.
    Raises BranchPointProximity where ``classify_grid`` leaves the point
    UNRESOLVED.
    """
    sol = classify_grid(metric, [w], m).take(0)
    if sol.phase == UNRESOLVED:
        raise BranchPointProximity(f"branch collision on the continuation path to w={w}")
    return sol


# the note of a point: none, or the real-axis side limit it was solved as
_NOTES = np.array(["", "real-axis cut: upper side limit", "real-axis cut: lower side limit"])


def classify_grid(metric: Metric, w, m: float = 1.0, paths_fn=None) -> GapSolution:
    """Classify a batch of points into one GapSolution of arrays.

    One ``solve_nonholomorphic_batch`` call settles the non-holomorphic
    points and one ``solve_holomorphic_batch`` call, a single walk, the
    others.  A point counts as on the real axis when |Im w| is below the
    imaginary offset of its side limit, x + eps sign(x) +- 1e-3 eps i,
    just off the axis on the point's own side (above for Im w = 0).  The
    walk takes every off-axis point along ``paths_fn(w_subset) ->
    _roots.Paths`` when given (blob-avoiding paths ending at w, from a
    caller that knows the geometry, e.g. for signature metrics) and along
    default rays otherwise, and every real-axis point once, to its side
    limit, along ``_side_limit_paths``.

    The side limit is on the cut when its root's |Im b| exceeds the square
    root of the offset.  Off the cut b is real on the axis and Im b is
    about b'(x) times the offset, with |b'| growing as d^(-1/2) at a
    distance d from a band edge; on the cut |Im b| grows as d^(1/2).  Both
    reach the square root of the offset at d about the offset, so the test
    can err only that close to a band edge.  A point on the cut returns its
    side limit, marked in ``note``.  A point off the cut takes one certified
    step, a short ray and arc from its side limit, in a second
    ``_roots.track`` call, and returns its value on the axis; where that
    step collides, near a band edge, it keeps the side limit and its note.
    Im G(x + i0) = -pi rho_real(x) <= 0 for every metric, so a side limit
    whose Im G has the other sign ended on another sheet and is UNRESOLVED.
    A point whose walk collides gets phase UNRESOLVED and nan numbers;
    nothing is walked again.
    """
    w = np.asarray(w, dtype=complex).ravel()
    s, beta, res, success = solve_nonholomorphic_batch(metric, w, m)
    rest = np.flatnonzero(~success)
    # Side-limit offset.  It leans mostly along the real axis so the
    # side limit lies deep in the eigenvalue-free cone around the axis.
    eps = 1e-9 * max(1.0, 2.0 * metric_mod.support_radius(metric) / m)
    on_axis = np.abs(w[rest].imag) < 1e-3 * eps
    rest = np.concatenate([rest[~on_axis], rest[on_axis]])   # the real-axis points last
    n_off = len(rest) - np.count_nonzero(on_axis)
    axis = np.arange(n_off, len(rest))
    wr = w[rest]
    lower = wr.imag < 0.0
    limit = (wr[axis].real + eps * np.where(wr[axis].real >= 0.0, 1.0, -1.0)
             + 1j * 1e-3 * eps * np.where(lower[axis], -1.0, 1.0))
    wh = np.concatenate([wr[:n_off], limit])   # where each holomorphic solution is evaluated
    off = wr[:n_off]
    paths = paths_fn(off) if paths_fn else _default_paths(off, metric, m)
    paths = _roots.Paths.concat([paths, _side_limit_paths(limit, metric, m)])
    b, green, hres, collided = solve_holomorphic_batch(metric, wh, m, paths=paths)
    k = axis[~collided[axis] & (np.abs(b[axis].imag) <= np.sqrt(1e-3 * eps))]
    if len(k):                  # off the cut: one ray-and-arc step back to the axis
        x = wr[k]
        r = np.maximum(np.abs(x), 1e-12 * eps)   # keep w = 0 off the division
        step = _roots.Paths(x, r, np.abs(wh[k]), np.angle(wh[k]), np.angle(x), ray=2, arc=2)
        b_x, green_x, res_x, collided_x = _holomorphic_walk(metric, x, m, step, b[k])
        ok = ~collided_x
        b[k[ok]], green[k[ok]], hres[k[ok]], wh[k[ok]] = b_x[ok], green_x[ok], res_x[ok], x[ok]
    # Im G(x + i0) = -pi rho_real(x) <= 0 for every metric: a side limit of
    # the other sign is a walk that ended on another sheet
    collided |= (wh != wr) & (np.where(lower, -green.imag, green.imag) > 0.0)
    nan = np.full(len(w), np.nan)
    sol = GapSolution(w=w, phase=np.where(success, NONHOLOMORPHIC, UNRESOLVED), b=nan + 0j,
                      alpha=nan.copy(), beta=nan.copy(), zeta=nan + 0j, green=nan + 0j,
                      residual=nan.copy(), note=np.zeros_like(_NOTES, shape=len(w)))
    # complex columns are set by parts: 1j * beta would make Re b = -0.0 for beta < 0
    nh = np.flatnonzero(success)
    x, y, s, beta = w.real[nh], w.imag[nh], s[nh], beta[nh]
    denom = s + beta * beta
    sol.b.real[nh], sol.b.imag[nh], sol.alpha[nh], sol.beta[nh] = 0.0, beta, np.sqrt(s), beta
    sol.zeta.real[nh] = -beta * y / denom
    sol.zeta.imag[nh] = np.sqrt(s * (x * x + y * y) + beta * beta * x * x) / denom
    sol.green[nh], sol.residual[nh] = _nonholomorphic_green(metric, w[nh], s, beta), res[nh]
    good = ~collided
    hol = rest[good]
    sol.phase[hol], sol.b[hol], sol.alpha[hol], sol.beta[hol] = (
        HOLOMORPHIC, b[good], 0.0, b[good].imag)
    # zeta = -w/b divided as Python divides (numpy's quotient rounds differently)
    sol.zeta[hol] = [complex(np.inf, np.inf) if bk == 0 else -wk / bk
                     for wk, bk in zip(wh[good].tolist(), b[good].tolist())]
    sol.green[hol], sol.residual[hol] = green[good], hres[good]
    side = good & (wh != wr)    # side limits, solved off the cut
    sol.note[rest[side]] = _NOTES[1 + lower[side]]
    return sol


def phase_boundary(metric: Metric, thetas, m: float = 1.0) -> list[tuple[float, list[float]]]:
    """Radial crossings of the phase boundary along each direction.

    Scans r on every ray at once, at BOUNDARY_SCAN radii out to 1.5 times
    the spectral reach, for changes of non-holomorphic solvability and
    bisects all brackets in lockstep to BOUNDARY_TOL.  Rays that never
    enter the non-holomorphic region contribute an empty crossing list.
    """
    r_max = 1.5 * (2.0 / m) * max(metric_mod.support_radius(metric), 1.0)
    thetas = np.atleast_1d(thetas).astype(float)
    e = np.exp(1j * thetas)
    rs = np.linspace(r_max / BOUNDARY_SCAN, r_max, BOUNDARY_SCAN)
    inside = solve_nonholomorphic_batch(metric, np.outer(e, rs), m)[3].reshape(
        len(e), BOUNDARY_SCAN)
    ray, k = np.nonzero(inside[:, :-1] != inside[:, 1:])
    lo, hi, flo = rs[k], rs[k + 1], inside[ray, k]
    while True:
        act = np.flatnonzero(hi - lo > BOUNDARY_TOL)
        if len(act) == 0:
            break
        mid = (lo[act] + hi[act]) / 2.0
        same = solve_nonholomorphic_batch(metric, mid * e[ray[act]], m)[3] == flo[act]
        lo[act] = np.where(same, mid, lo[act])
        hi[act] = np.where(same, hi[act], mid)
    crossings = (lo + hi) / 2.0
    return [(float(th), crossings[ray == i].tolist()) for i, th in enumerate(thetas)]


def _cmul(a, b):
    """a * b rounded as Python's complex product (numpy's fuses multiply-adds)."""
    return np.stack((a.real * b.real - a.imag * b.imag,
                     a.real * b.imag + a.imag * b.real), axis=-1).view(complex)[..., 0]


def _identity_sides(sol: GapSolution, m: float):
    """(w G, 1 + m^2 (a^2 + b^2)) over a solution's fields, rounded as scalar
    Python rounds them: a^2 + b^2 = -(alpha^2 + beta^2), beta^2 by pow, in D."""
    w, green, b = (np.atleast_1d(np.asarray(v, dtype=complex)) for v in (sol.w, sol.green, sol.b))
    ab2 = np.where(np.asarray(sol.phase) == NONHOLOMORPHIC,
                   -(sol.alpha2 + np.float_power(sol.beta, 2)), _cmul(b, b))
    return _cmul(w, green), 1.0 + m * m * ab2


def structural_check(sol: GapSolution, m: float = 1.0) -> np.ndarray:
    """|w G - (1 + m^2 (a^2 + b^2))| elementwise over a GapSolution (by hypot, as abs)."""
    wg, rhs = _identity_sides(sol, m)
    return np.hypot((wg - rhs).real, (wg - rhs).imag)


def unified_check(sol: GapSolution, metric: Metric, m: float = 1.0):
    """Residual of the unified identity w G = zeta G_B(zeta) = 1 + m^2(a^2+b^2)
    at one point (``take(i)``), or elementwise with one ``green_b`` call."""
    wg, rhs = _identity_sides(sol, m)
    zeta = np.atleast_1d(np.asarray(sol.zeta, dtype=complex))
    zg = np.ones_like(zeta)   # b = 0 branch: zeta at infinity, zeta*G_B -> 1
    fin = np.isfinite(zeta)
    zg[fin] = _cmul(zeta[fin], metric_mod.green_b(metric, zeta[fin]))
    first, second = (np.hypot(d.real, d.imag) for d in (zg - rhs, wg - zg))
    out = np.maximum(first, second)   # exact, and nan where either is nan
    return float(out[0]) if np.ndim(sol.w) == 0 else out
