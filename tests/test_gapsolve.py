import dataclasses
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phspec import _roots
from phspec import gapsolve as G
from phspec import metric as M
from phspec import theory as T
from phspec.harness import experiments as X


SIG_QUARTER = M.Signature(k=16, n=64)     # lam = 1/4
SIG_HALF = M.Signature(k=32, n=64)        # lam = 1/2, traceless
IDENT = M.Signature(k=16, n=16)           # positive definite
FLAT = M.FlatContinuum(mu1=2.0, lminus=1.0, mu2=2.0, lplus=1.0)
SIGNATURES = {lam: M.Signature(k=int(64 * lam), n=64) for lam in (0.125, 0.25, 0.375)}

_OMEGA = np.exp(2j * np.pi / 3.0)


def _cubic_roots(w, lam, m):
    """Closed-form roots of m^2 b^3 + (1 - m^2 w^2) b + w (1 - 2 lam) = 0, shape (n, 3)."""
    p = (1.0 - m * m * w * w) / (m * m)
    q = w * (1.0 - 2.0 * lam) / (m * m)
    s = np.sqrt(q * q + 4.0 * p**3 / 27.0)
    c3 = np.where(np.abs(-q + s) >= np.abs(-q - s), -q + s, -q - s) / 2.0
    ck = (c3 ** (1.0 / 3.0))[:, None] * _OMEGA ** np.arange(3)
    return ck - p[:, None] / (3.0 * ck)


def _oracle_track(path, lam, m=1.0, refine=64):
    """Reference branch of the cubic at ``path[-1]``: the nearest closed-form
    root along ``path`` cut into ``refine`` times finer straight steps, each
    of which must be unambiguous (the root moves by less than half its
    distance to the next root), from the large-|w| asymptote."""
    t = np.linspace(0.0, 1.0, refine, endpoint=False)[:, None, None]
    fine = (path[:-1] + t * np.diff(path, axis=0)).transpose(1, 0, 2).reshape(-1, path.shape[1])
    roots = _cubic_roots(fine[0], lam, m)
    asym = (1.0 - 2.0 * lam) / (m * m * fine[0])
    b = roots[np.arange(len(asym)), np.argmin(np.abs(roots - asym[:, None]), axis=1)]
    for wj in np.concatenate([fine[1:], path[-1:]]):
        roots = _cubic_roots(wj, lam, m)
        dist = np.abs(roots - b[:, None])
        order = np.argsort(dist, axis=1)
        near = np.take_along_axis(roots, order[:, :1], axis=1)[:, 0]
        second = np.take_along_axis(roots, order[:, 1:2], axis=1)[:, 0]
        assert np.all(np.abs(near - b) < 0.5 * np.abs(second - near)), "ambiguous oracle step"
        b = near
    return b


def _table(paths):
    """Every waypoint row of a path record, shape (max last + 1, n), each row
    evaluated by the record's own row evaluator; rows past a point's last
    repeat its target."""
    return np.array([paths.row(k) for k in range(int(paths.last.max()) + 1)])


class _Waypoints:
    """An explicit (L, n) waypoint table behind the path interface of
    ``_roots.track``: every point walks all L rows."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=complex)
        self.w = self.table[-1]
        self.last = np.full(self.table.shape[1], len(self.table) - 1)

    def rows(self, k, idx):
        return self.table[k, idx]


def _oracle_b(w, lam, m=1.0):
    return _oracle_track(_table(X.continuation_paths(w, lam, m)), lam, m)


def _branch_points(lam, m):
    """The six zeros in w of the cubic's discriminant, 4 (1 - u)^3 + 27 (1 - 2 lam)^2 u
    with u = m^2 w^2: the band edges and the blobs' sewing corners."""
    u = np.roots([-4.0, 12.0, 27.0 * (1.0 - 2.0 * lam) ** 2 - 12.0, 4.0]).astype(complex)
    return np.concatenate([np.sqrt(u), -np.sqrt(u)]) / m


def _clearance(table, points):
    """Least distance from each column's waypoint polyline, the rows of
    ``table``, to any of ``points``."""
    a, d = table[:-1, :, None], np.diff(table, axis=0)[:, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.nan_to_num(np.clip(((points - a) * np.conj(d)).real / np.abs(d) ** 2, 0.0, 1.0))
    return np.min(np.abs(points - a - t * d), axis=(0, 2))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.0, 1.0).filter(lambda v: v != 0.5), m=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_rule_matches_the_oracle_walk(lam, m, seed):
    """``theory.holomorphic_b``, one root of the cubic picked by rule, is the
    oracle's nearest-root walk along the signature grid's continuation paths
    to 1e-10: at points of [-2.5, 2.5]^2/m, two of them on Re w = 0, points
    within 1e-2/m of the real axis and points a relative 1e-7 outside the
    inner and outer blob boundary, one pair at |arg w| = pi/2.

    Excluded: points in the blobs or on the axis, outside the rule's
    domain, and points whose path passes within 3e-3/m of a branch point of
    the cubic (a band edge or a sewing corner; at lam in {0, 1} the corners
    sit at +-i/(sqrt 2 m), where b meets the spurious root -+w), where the
    oracle's refined steps cannot tell the roots apart (seen up to 1.1e-3/m)."""
    rng = np.random.default_rng(seed)
    box = rng.uniform(-2.5, 2.5, (3, 8)) / m
    box[0, :2] = 0.0                         # on the line Re w = 0
    w = np.concatenate([box[0] + 1j * box[1], box[2] + 1j * rng.uniform(-1e-2, 1e-2, 8) / m])
    if 0.0 < lam < 1.0:
        th0 = np.arcsin(T.sin_theta0(lam))
        angles = np.append(rng.uniform(th0, np.pi - th0, 3), np.pi / 2.0)
        for th in angles * rng.choice([-1.0, 1.0], 4):
            rm, rp = T.boundary_radii(th, lam, m)
            w = np.append(w, np.array([(1.0 - 1e-7) * rm, (1.0 + 1e-7) * rp]) * np.exp(1j * th))
    w = w[(w.imag != 0.0) & ~T.in_blobs(w, lam, m)]
    table = _table(X.continuation_paths(w, lam, m))
    keep = _clearance(table, _branch_points(lam, m)) >= 3e-3 / m
    assert keep.any()
    ref = _oracle_track(table[:, keep], lam, m)
    assert np.max(np.abs(T.holomorphic_b(w[keep], lam, m) - ref)) <= 1e-10


def _signed_atoms(count):
    v = np.linspace(0.5, 1.5, count)
    v[::4] *= -1.0
    return v


class TestHolomorphic:
    def test_identity_metric_reproduces_hermitian_resolvent(self):
        pts = np.array([3.0 + 0.2j, 2.5j, -4.0 + 1.0j, 0.5 + 3.0j])
        b, g, res, coll = G.solve_holomorphic_batch(IDENT, pts, 1.0)
        assert not coll.any()
        assert np.max(np.abs(g - T.gue_green(pts, 1.0))) <= 1e-10
        # self-energy relation b = -G/m^2 for the unit metric
        assert np.max(np.abs(b + g)) <= 1e-10

    def test_traceless_branch_is_zero(self):
        pts = np.array([1.5 + 0.5j, 3.0j, -2.0 - 1.0j])
        b, g, res, _ = G.solve_holomorphic_batch(SIG_HALF, pts, 1.0)
        assert np.all(b == 0)
        assert np.allclose(g, 1.0 / pts)

    def test_matches_closed_form_cubic(self):
        lam = 0.25
        pts = np.array([2.0 + 0.5j, 0.5 + 0.05j, 3.0j, -1.2 + 0.9j, 0.2 - 1.1j])
        ref = _oracle_b(pts, lam)
        b, g, res, coll = G.solve_holomorphic_batch(SIG_QUARTER, pts, 1.0)
        assert not coll.any()
        assert np.max(np.abs(b - ref)) <= 1e-10
        assert np.max(np.abs(T.holomorphic_b(pts, lam, 1.0) - ref)) <= 1e-10
        g_ref = lam / (ref + pts) - (1.0 - lam) / (ref - pts)
        assert np.max(np.abs(g - g_ref)) <= 1e-10
        assert np.max(np.abs(T.green_holomorphic(pts, lam, 1.0) - g_ref)) <= 1e-10
        assert np.max(res) <= 1e-10

    def test_under_blob_with_waypoints(self):
        # default rays cross the pair region and land on a wrong sheet
        # there; explicit blob-avoiding waypoints recover the branch that
        # is continuous with the boundary values
        lam = 0.25
        pts = np.array([0.1j, 0.05 + 0.2j, -0.04 + 0.22j])
        paths = X.continuation_paths(pts, lam, 1.0)
        b, g, res, coll = G.solve_holomorphic_batch(SIG_QUARTER, pts, 1.0, paths=paths)
        assert not coll.any()
        assert np.max(np.abs(b - _oracle_b(pts, lam))) <= 1e-10

    def test_scalar_wrapper(self):
        sol = G.classify_phase(SIG_QUARTER, 2.0 + 1.0j, 1.0)
        assert sol.phase == G.HOLOMORPHIC
        assert sol.alpha == 0.0
        assert sol.residual <= 1e-10
        assert sol.zeta == pytest.approx(-sol.w / sol.b)

    def test_paths_end_exactly_at_tiny_targets(self):
        pts = np.array([1e-12j, 1e-10j])
        assert np.array_equal(_table(G._default_paths(pts, SIG_QUARTER, 1.0))[-1], pts)
        assert np.array_equal(_table(X.continuation_paths(pts, 0.25, 1.0))[-1], pts)
        _, _, res, coll = G.solve_holomorphic_batch(SIG_QUARTER, pts, 1.0)
        assert not coll.any()
        assert np.max(res) <= 1e-9
        # too close to the branch points at 0 to resolve: flagged, not garbage
        unresolvable = np.array([6.8e-191 * (1 + 1j), 6.8e-191 * (1 - 1j), 1e-300j])
        _, _, res, coll = G.solve_holomorphic_batch(SIG_QUARTER, unresolvable, 1.0)
        assert coll.all()

    def test_band_collision_raises(self):
        # the track to a point on the band cannot tell two branches apart
        _, _, _, coll = G.solve_holomorphic_batch(SIG_QUARTER, np.array([0.5 + 0.0j]), 1.0)
        assert coll[0]

    def test_asymptotic_normalization(self):
        # (1/2 pi i) contour integral of G over a large circle equals 1
        th = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        r = 5.0
        pts = r * np.exp(1j * th)
        for metric in (SIG_QUARTER, M.ExplicitDiagonal([2.0, 2.0, -1.0])):
            _, g, _, coll = G.solve_holomorphic_batch(metric, pts, 1.0)
            assert not coll.any()
            total = np.sum(g * 1j * pts) * (th[1] - th[0]) / (2j * np.pi)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_flat_metric_residual(self):
        pts = np.array([4.0 + 1.0j, 3.5j, -5.0 + 0.5j])
        b, g, res, _ = G.solve_holomorphic_batch(FLAT, pts, 1.0)
        assert np.max(res) <= 1e-9
        # flat metric here is symmetric => traceless => b = 0, G = 1/w
        assert np.allclose(g, 1.0 / pts)

    def test_flat_metric_asymmetric_residual(self):
        flat = M.FlatContinuum(mu1=2.0, lminus=1.0, mu2=3.0, lplus=0.5)
        pts = np.array([5.0 + 1.0j, 4.0j, -6.0 + 2.0j, 3.0 - 2.5j])
        b, g, res, _ = G.solve_holomorphic_batch(flat, pts, 1.0)
        assert np.max(res) <= 1e-9
        assert np.max(np.abs(pts * g - 1.0)) <= 0.6   # ~ 1/w with corrections


class TestNonholomorphic:
    def test_positive_definite_has_no_solution(self):
        pts = np.array([0.3 + 0.4j, 0.1j, 1.0 + 0.2j])
        assert not G.solve_nonholomorphic_batch(IDENT, pts, 1.0)[3].any()
        negative = M.ExplicitDiagonal([-1.0, -2.0])
        assert not G.solve_nonholomorphic_batch(negative, np.array([0.2j]), 1.0)[3][0]

    def test_matches_closed_forms(self):
        lam = 0.25
        for w in (0.3 + 0.4j, 0.05 + 0.55j, -0.2 - 0.6j):
            sol = G.classify_phase(SIG_QUARTER, w, 1.0)
            a2, beta = T.alpha_sq(w, lam, 1.0)
            assert sol.phase == G.NONHOLOMORPHIC
            assert sol.alpha2 == pytest.approx(a2, abs=1e-8)
            assert sol.beta == pytest.approx(beta, abs=1e-8)
            # the closed form inside the blobs: G = m^2 conj(w)
            assert sol.green == pytest.approx(np.conj(w), abs=1e-10)
            assert sol.b.real == 0.0

    def test_outside_blobs_none(self):
        pts = np.array([0.9 + 0.05j, 2.0j, 0.5 + 0.02j])
        assert not G.solve_nonholomorphic_batch(SIG_QUARTER, pts, 1.0)[3].any()

    def test_disk_case(self):
        sol = G.classify_phase(SIG_HALF, 0.3 + 0.4j, 1.0)
        assert sol.phase == G.NONHOLOMORPHIC
        assert sol.alpha2 == pytest.approx(1.0 - 0.25, abs=1e-10)
        assert sol.beta == pytest.approx(0.0, abs=1e-10)

    def test_m_scaling(self):
        m = 2.0
        sol = G.classify_phase(M.Signature(k=16, n=64), (0.05 + 0.25j), m)
        a2, beta = T.alpha_sq(0.05 + 0.25j, 0.25, m)
        assert sol.phase == G.NONHOLOMORPHIC
        assert sol.alpha2 == pytest.approx(a2, abs=1e-8)

    def test_batch_matches_scalar(self):
        pts = np.array([0.3 + 0.4j, 0.9 + 0.05j, 0.05 - 0.55j, 2.0 + 2.0j])
        batch = G.solve_nonholomorphic_batch(SIG_QUARTER, pts, 1.0)
        s, beta, res, ok = batch
        for i, w in enumerate(pts):
            one = G.solve_nonholomorphic_batch(SIG_QUARTER, pts[i:i + 1], 1.0)
            for a, b in zip(batch, one):
                assert np.array_equal(a[i:i + 1], b, equal_nan=True)
            sol = G.classify_phase(SIG_QUARTER, complex(w), 1.0)
            assert ok[i] == (sol.phase == G.NONHOLOMORPHIC)
            if ok[i]:
                assert s[i] == pytest.approx(sol.alpha2, abs=1e-9)

    def test_tiny_imaginary_part_solves_as_on_axis(self):
        # beta0 ~ 1/Im w overflowed once squared below |Im w| ~ 1e-154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = G.solve_nonholomorphic_batch(
                SIG_QUARTER, np.array([0.3 + 1e-200j, 0.3 - 1e-200j]), 1.0)
        axis = G.solve_nonholomorphic_batch(SIG_QUARTER, np.array([0.3, 0.3]), 1.0)
        for a, b in zip(tiny, axis):
            assert np.array_equal(a, b, equal_nan=True)

    def test_nh_equation_equivalence(self):
        # the metric-transform forms of the two real equations hold at the
        # solved point: Im/Re G_B(zeta) expressions against (alpha, beta)
        lam, m = 0.25, 1.0
        w = 0.1 + 0.5j
        sol = G.classify_phase(SIG_QUARTER, w, m)
        assert sol.phase == G.NONHOLOMORPHIC
        x, y = w.real, w.imag
        gb = M.green_b(SIG_QUARTER, sol.zeta)
        bracket = 1.0 - m * m * (sol.alpha2 + sol.beta**2)
        lhs_im = -np.sqrt(sol.alpha2 * (x * x + y * y) + sol.beta**2 * x * x) / (x * x + y * y) * bracket
        lhs_re = -sol.beta * y / (x * x + y * y) * bracket
        assert gb.imag == pytest.approx(lhs_im, abs=1e-8)
        assert gb.real == pytest.approx(lhs_re, abs=1e-8)


class TestClassifyAndBoundary:
    def test_classify_matches_membership(self):
        lam = 0.25
        rng = np.random.default_rng(1)
        pts = rng.normal(size=60) * 0.5 + 1j * rng.normal(size=60) * 0.5
        for w in pts:
            sol = G.classify_phase(SIG_QUARTER, complex(w), 1.0)
            inside = T.in_blobs(w, lam, 1.0)
            assert (sol.phase == G.NONHOLOMORPHIC) == bool(inside)

    def test_classify_cut_side_limit(self):
        sol = G.classify_phase(SIG_QUARTER, 0.5 + 0.0j, 1.0)
        assert sol.phase == G.HOLOMORPHIC
        assert "side limit" in sol.note
        # upper side limit carries the density: Im G = -pi rho
        rho = T.rho_real(0.5, 0.25, 1.0)
        assert sol.green.imag == pytest.approx(-np.pi * rho, abs=1e-4)

    def test_cut_side_limit_collision_is_unresolved(self, monkeypatch):
        # a real-axis point whose walk to its side limit collides, or an
        # off-axis point whose walk collides, is left unresolved instead of
        # aborting the grid, and no step back to the axis is tried
        calls = []

        def collide(mu, c, m, paths, b0):
            calls.append(paths)
            return np.asarray(b0, dtype=complex), np.ones(len(paths.w), dtype=bool)

        monkeypatch.setattr(_roots, "track", collide)
        sol = G.classify_grid(SIG_QUARTER, [0.5 + 0j, 2.0 + 1.0j, 0.3 + 0.4j], 1.0)
        assert len(calls) == 1
        assert sol.phase.tolist() == [G.UNRESOLVED, G.UNRESOLVED, G.NONHOLOMORPHIC]
        for field in (sol.b, sol.alpha, sol.beta, sol.zeta, sol.green, sol.residual):
            assert np.isnan(field).tolist() == [True, True, False]
        assert sol.note.tolist() == ["", "", ""]
        with pytest.raises(G.BranchPointProximity):
            G.classify_phase(SIG_QUARTER, 0.5 + 0j, 1.0)

    def test_off_cut_step_collision_keeps_the_side_limit(self, monkeypatch):
        # 2.0 lies beyond the band edge 1.63: its side limit is continued
        # back to the axis by a second call, and where that step collides
        # the side limit stays, with its note
        on_axis = G.classify_grid(SIG_QUARTER, [2.0 + 0j], 1.0).take(0)
        assert on_axis.phase == G.HOLOMORPHIC and on_axis.note == ""
        assert on_axis.b.imag == 0.0 and on_axis.zeta == -2.0 / complex(on_axis.b)
        calls, track = [], _roots.track

        def step_collides(mu, c, m, paths, b0):
            calls.append(paths)
            b, coll = track(mu, c, m, paths, b0)
            return b, coll | (len(calls) == 2)

        monkeypatch.setattr(_roots, "track", step_collides)
        kept = G.classify_grid(SIG_QUARTER, [2.0 + 0j], 1.0).take(0)
        assert len(calls) == 2 and calls[1].w.tolist() == [2.0 + 0j]
        assert abs(calls[0].w[0] - (2.0 + 2e-9 + 2e-12j)) <= 1e-15    # the side limit
        assert kept.phase == G.HOLOMORPHIC and kept.note == "real-axis cut: upper side limit"
        assert kept.zeta == -complex(calls[0].w[0]) / complex(kept.b)
        assert 0.0 < abs(kept.green - on_axis.green) <= 1e-8    # 2e-9 apart

    def test_many_atom_cut_side_limit_solves(self):
        # 32 signed atoms: the side limit at -1.2 agrees with a point just above
        metric = M.ExplicitDiagonal(list(np.tile(_signed_atoms(32), 8)))
        sol = G.classify_grid(metric, [-1.2 + 0j], 1.0).take(0)
        assert sol.note == "real-axis cut: upper side limit"
        _, g, _, coll = G.solve_holomorphic_batch(metric, np.array([-1.2 + 1e-6j]), 1.0)
        assert not coll[0]
        assert abs(sol.green - g[0]) <= 1e-5

    def test_near_axis_points_take_their_own_side_limit(self):
        metric = M.Signature(k=64, n=256)
        pts = [0.3 + 1e-100j, 0.3 + 1e-15j, 0.3 - 1e-15j, 0.3 + 0j]
        sol = G.classify_grid(metric, pts, 1.0)
        assert sol.w.tolist() == pts
        above, tiny, below, axis = (sol.take(i) for i in range(4))
        for sol in (above, tiny, axis):
            assert sol.note == "real-axis cut: upper side limit"
            assert sol.green == axis.green
        assert below.note == "real-axis cut: lower side limit"
        assert abs(below.green - np.conj(axis.green)) <= 1e-12
        assert axis.green.imag == pytest.approx(-np.pi * T.rho_real(0.3, 0.25, 1.0), abs=1e-4)

    def test_far_points_always_holomorphic(self):
        for w in (3.0 + 3.0j, -5.0j, 10.0 + 0.1j):
            assert G.classify_phase(SIG_QUARTER, w, 1.0).phase == G.HOLOMORPHIC

    def test_boundary_vs_closed_form(self):
        lam = 0.25
        bd = G.phase_boundary(SIG_QUARTER, [np.pi / 2, np.pi / 3], 1.0)
        for theta, crossings in bd:
            rm, rp = T.boundary_radii(theta, lam, 1.0)
            assert len(crossings) == 2
            assert crossings[0] == pytest.approx(rm, abs=1e-6)
            assert crossings[1] == pytest.approx(rp, abs=1e-6)

    def test_boundary_disk(self):
        bd = G.phase_boundary(SIG_HALF, [np.pi / 2], 1.0)
        (theta, crossings) = bd[0]
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(1.0, abs=1e-6)

    def test_boundary_empty_for_definite(self):
        bd = G.phase_boundary(IDENT, [np.pi / 2, np.pi / 4], 1.0)
        assert all(len(c) == 0 for _, c in bd)

    def test_boundary_empty_ray_in_cone(self):
        bd = G.phase_boundary(SIG_QUARTER, [0.05], 1.0)
        assert bd[0][1] == []


_coord = st.floats(-1.2, 1.2)
_point = st.one_of(st.builds(complex, _coord, _coord),
                   st.builds(complex, _coord, st.just(0.0)))    # exact real axis


@settings(max_examples=20, deadline=None)
@given(lam=st.sampled_from(sorted(SIGNATURES)), pts=st.lists(_point, min_size=1, max_size=3))
def test_grid_batch_matches_single_points(lam, pts):
    """A point's solution does not depend on the batch it is solved in,
    and the solution at conj(w) carries the conjugate green."""
    metric = SIGNATURES[lam]
    off_axis = [w for w in pts if w.imag != 0.0]
    batch = pts + [w.conjugate() for w in off_axis]
    grid = G.classify_grid(metric, batch, 1.0)
    sols = [grid.take(i) for i in range(len(batch))]
    for w, sol in zip(batch, sols):
        try:
            one = G.classify_phase(metric, w, 1.0)
        except G.BranchPointProximity:
            one = None
        assert (sol.phase == G.UNRESOLVED) == (one is None)
        if one is not None:
            assert sol.phase == one.phase
            assert abs(sol.alpha2 - one.alpha2) <= 1e-12
            assert abs(sol.green - one.green) <= 1e-12
    mirrored = dict(zip(batch, sols))
    for w in off_axis:
        a, b = mirrored[w], mirrored[w.conjugate()]
        if G.UNRESOLVED not in (a.phase, b.phase):
            assert a.phase == b.phase
            assert abs(b.green - np.conj(a.green)) <= 1e-12


def _collide_at(monkeypatch, target):
    """Patch ``_roots.track`` to flag every track that ends at ``target``;
    returns the list of the paths of every call."""
    calls, track = [], _roots.track

    def patched(mu, c, m, paths, b0):
        calls.append(paths)
        b, coll = track(mu, c, m, paths, b0)
        return b, coll | (paths.w == target)

    monkeypatch.setattr(_roots, "track", patched)
    return calls


def test_a_point_whose_walk_collides_is_unresolved_alone(monkeypatch):
    """An off-axis point whose track collides is UNRESOLVED with nan
    numbers after the one walk; every other point of the 5^2 grid keeps
    its solution bit for bit."""
    xs = np.linspace(-1.2, 1.2, 5)
    W = (xs[:, None] + 1j * xs[None, :]).ravel()
    paths_fn = lambda ws: X.continuation_paths(ws, 0.25, 1.0)
    ref = G.classify_grid(SIG_QUARTER, W, 1.0, paths_fn=paths_fn)
    k = 19                                   # 0.6 + 1.2i, holomorphic
    assert ref.phase[k] == G.HOLOMORPHIC
    calls = _collide_at(monkeypatch, W[k])
    sol = G.classify_grid(SIG_QUARTER, W, 1.0, paths_fn=paths_fn)
    assert len(calls) == 1
    assert np.flatnonzero(sol.phase == G.UNRESOLVED).tolist() == [k]
    assert sol.note[k] == "" and sol.w[k] == W[k]
    others = np.arange(len(W)) != k
    for name, got in vars(sol).items():
        if name != "w" and got.dtype.kind in "fc":
            assert np.isnan(got[k]), name
        assert got[others].tobytes() == getattr(ref, name)[others].tobytes(), name


def _atomic_metric(count, seed):
    """count distinct signed atoms in [0.3, 2], each repeated 1-3 times."""
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.3, 2.0, count) * rng.choice([-1.0, 1.0], count)
    return M.ExplicitDiagonal(list(np.repeat(mags, rng.integers(1, 4, count))))


def _flat_metric(mu1, f1, mu2, f2):
    return M.FlatContinuum(mu1=mu1, lminus=f1 * mu1, mu2=mu2, lplus=f2 * mu2)


_fraction = st.floats(0.1, 0.9)
_metric = st.one_of(
    st.builds(_atomic_metric, st.integers(2, 256), st.integers(0, 2**32 - 1)),
    st.builds(_flat_metric, st.floats(0.5, 2.0), _fraction, st.floats(0.5, 2.0), _fraction))


@settings(max_examples=40, deadline=None)
@given(metric=_metric, m=st.sampled_from([0.5, 1.0, 2.0]),
       radii=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
       angle=st.floats(0.05, np.pi - 0.05))
def test_holomorphic_identities_hold_for_any_metric(metric, m, radii, angle):
    """w G = 1 + m^2 b^2 on the tracked root, G(conj w) = conj G(w), and
    w G -> 1 far away, for atomic metrics with 2-256 atoms and flat ones."""
    scale = M.support_radius(metric) / m
    w = np.array(radii) * scale * np.exp(1j * angle)
    far = 1e3 * scale * np.exp(1j * angle)
    pts = np.concatenate([w, np.conj(w), [far]])
    b, g, res, coll = G.solve_holomorphic_batch(metric, pts, m)
    assert not coll.any()
    assert np.max(res) <= 1e-9
    assert np.max(np.abs(pts * g - 1.0 - m * m * b * b)) <= 1e-9
    k = len(w)
    assert np.max(np.abs(g[k:2 * k] - np.conj(g[:k]))) <= 1e-12 * np.max(np.abs(g[:k]))
    assert abs(far * g[-1] - 1.0) <= 1e-5


def _gamma_nearest(q, fb, c):
    """Smale's gamma bound with every pole at the nearest one's distance
    delta: max(sum |c| / (|f'| delta^3), 1/delta)."""
    delta = 1.0 / np.max(np.abs(q), axis=1)
    return np.maximum(np.abs(c).sum() / (np.abs(fb) * delta**3), 1.0 / delta)


def _gamma_second_moment(q, fb, c):
    """Smale's gamma bound from the second moment S2 = sum |c| |q|^2 of the
    pole terms: max(S2 / |f'|, 1) / delta."""
    s2 = (np.abs(q) ** 2) @ np.abs(c)
    return np.max(np.abs(q), axis=1) * np.maximum(s2 / np.abs(fb), 1.0)


def _plain_track(mu, c, m, paths, b0, gamma):
    """``_roots.track`` with its step written plainly on the materialised
    waypoint table of the path record ``paths``: the current waypoint
    re-interpolated, c/mu and the squared pole terms re-formed on every
    iteration, and Smale's gamma bounded by ``gamma(q, f', c)``.  With the
    tracker's bound the fused tracker must return the same bits."""
    mu, c = np.asarray(mu, dtype=float), np.asarray(c, dtype=float)
    last = paths.last
    paths = _table(paths)
    n = paths.shape[1]
    m2 = m * m

    def dot(a, v):   # a single row as the first of two, as the tracker sums it
        return (np.concatenate([a, a]) @ v)[:1] if len(a) == 1 else a @ v

    def terms(w, b):
        q = 1.0 / (b[:, None] + w[:, None] / mu)
        return q, m2 * b + dot(q, c), m2 - dot(q * q, c)

    def newton(w, b):
        for _ in range(_roots.NEWTON_STEPS):
            _, f, fb = terms(w, b)
            b = b - f / fb
        return b

    def waypoint(t, idx):
        j = np.minimum(t.astype(int), last[idx] - 1)
        return paths[j, idx] + (t - j) * (paths[j + 1, idx] - paths[j, idx])

    t, h, collided = np.zeros(n), np.ones(n), np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        b = newton(paths[0], np.asarray(b0, dtype=complex))
        while True:
            idx = np.flatnonzero((t < last) & ~collided)
            if len(idx) == 0:
                break
            w_cur, b_cur = waypoint(t[idx], idx), b[idx]
            q, _, fb = terms(w_cur, b_cur)
            slope = dot(q * q, c / mu) / fb
            t_new = np.minimum(t[idx] + h[idx], last[idx])
            w_new = waypoint(t_new, idx)
            b_pred = b_cur + slope * (w_new - w_cur)
            qp, fp, fbp = terms(w_new, b_pred)
            beta = np.abs(fp / fbp)
            ok = ((beta * gamma(qp, fbp, c) < _roots.ALPHA_MAX)
                  & (np.abs(b_pred - b_cur) + 2.0 * beta < 0.5 * _roots.U0 / gamma(q, fb, c)))
            acc, rej = idx[ok], idx[~ok]
            b[acc] = newton(w_new[ok], b_pred[ok])
            t[acc] = t_new[ok]
            h[acc] = np.minimum(2.0 * h[acc], _roots.MAX_STEP)
            h[rej] /= 2.0
            collided[rej[h[rej] < _roots.MIN_STEP]] = True
        b = newton(paths[-1], b)
    return b, collided


@settings(max_examples=12, deadline=None)
@given(count=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
       m=st.sampled_from([0.5, 1.0, 2.0]), stride=st.sampled_from([1, 8, 32, 128]),
       points=st.integers(1, 6))
def test_fused_tracker_matches_plain_step_bit_for_bit(count, seed, m, stride, points):
    """Over 2-64 signed atoms, on default rays thinned to every stride-th
    waypoint (stride 128 leaves one chord), ``track`` returns the bits of
    the plain step loop, collided points included: every third target
    lies on the real axis, where tracks into the band collide."""
    metric = _atomic_metric(count, seed)
    mu, c = G._terms(metric)
    rng = np.random.default_rng(seed)
    scale = 1.5 * M.support_radius(metric) / m
    w = scale * (rng.uniform(-1, 1, points)
                 + 1j * rng.uniform(-1, 1, points) * (np.arange(points) % 3 > 0))
    full = G._default_paths(w, metric, m)
    paths = dataclasses.replace(full, ray=G.PATH_STEPS // stride + 1)
    rows = _table(full)
    assert _table(paths).tobytes() == np.concatenate([rows[:-1:stride], rows[-1:]]).tobytes()
    b0 = -(mu * c).sum() / (m * m * paths.row(0))
    b, coll = _roots.track(mu, c, m, paths, b0)
    b_ref, coll_ref = _plain_track(mu, c, m, paths, b0, _gamma_second_moment)
    assert np.array_equal(coll, coll_ref)
    assert b.tobytes() == b_ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       m=st.sampled_from([0.5, 1.0, 2.0]), near_pole=st.booleans())
def test_gamma_bound_is_sound_and_never_looser(count, seed, m, near_pole):
    """Against the true gamma = max_k |f^(k) / (k! f')|^(1/(k-1)), k = 2..80,
    from f^(k)/k! = (-1)^k sum_j c_j q_j^(k+1): the tracker's bound holds,
    never exceeds the nearest-pole bound and equals it for one pole.  Poles
    in +-[0.3, 2] with signed weights; b anywhere or within 1e-3 of a pole."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.3, 2.0, count) * rng.choice([-1.0, 1.0], count)
    c = rng.uniform(0.1, 1.0, count) * rng.choice([-1.0, 1.0], count)
    w = complex(*rng.uniform(-2.0, 2.0, 2))
    if near_pole:
        b = -w / rng.choice(mu) + 10.0 ** rng.uniform(-6, -3) * np.exp(2j * np.pi * rng.random())
    else:
        b = complex(*rng.uniform(-2.0, 2.0, 2))
    q = 1.0 / (b + w / mu)
    fb = m * m - (q * q) @ c
    # |sum_j c_j q_j^(k+1)| = s^(k+1) |sum_j c_j (q_j/s)^(k+1)| with s = max |q|
    s, k = np.max(np.abs(q)), np.arange(2, 81)
    moments = np.abs(((q / s)[None, :] ** (k[:, None] + 1)) @ c)
    with np.errstate(divide="ignore"):
        log_ratio = (k + 1) * np.log(s) + np.log(moments) - np.log(abs(fb))
    true_gamma = np.max(np.exp(log_ratio / (k - 1)))
    bound = _roots.gamma_bound(q[None, :], np.array([fb]), c)[0]
    nearest = _gamma_nearest(q[None, :], np.array([fb]), c)[0]
    assert true_gamma <= bound * (1.0 + 1e-12)
    assert bound <= nearest * (1.0 + 1e-12)
    if count == 1:
        assert bound == pytest.approx(nearest, rel=1e-12)


def _tracker_calls(monkeypatch, metric, points, paths_fn=None, extent=1.2):
    """Every ``_roots.track`` call of ``classify_grid`` on a points^2 grid of
    [-extent, extent]^2, with its arguments and results."""
    calls, track = [], _roots.track

    def recorded(*args):
        b, coll = track(*args)
        calls.append((args, (b.copy(), coll.copy())))   # the caller may update its copy
        return b, coll

    monkeypatch.setattr(_roots, "track", recorded)
    xs = np.linspace(-extent, extent, points)
    G.classify_grid(metric, (xs[:, None] + 1j * xs[None, :]).ravel(), 1.0, paths_fn=paths_fn)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("metric,points,paths_fn,extent,walks", [
    (M.ExplicitDiagonal([_signed_atoms(12)[i % 12] for i in range(48)]), 20, None, 1.2, 1),
    (M.ExplicitDiagonal(list(_signed_atoms(33))), 31, None, 1.2, 1),
    (M.ExplicitDiagonal(list(_signed_atoms(128))), 20, None, 1.2, 1),
    (M.Signature(k=64, n=256), 41, lambda w: X.continuation_paths(w, 0.25, 1.0), 1.2, 1),
    (M.Signature(k=64, n=256), 41, lambda w: X.continuation_paths(w, 0.25, 1.0), 2.5, 2),
], ids=["atoms12", "signed33", "atoms128", "signature", "signature_wide"])
def test_tracker_keeps_the_branches_of_the_nearest_pole_bound(monkeypatch, metric, points,
                                                              paths_fn, extent, walks):
    """The tighter gamma bound takes longer steps but lands on the same
    branch as the plain step loop under the nearest-pole bound, on the grid
    paths, on the side-limit walks that share their one walk and on the
    steps back to the axis of the points off the cut (the wide grid reaches
    past the band edge 1.63), and flags the same points."""
    calls = _tracker_calls(monkeypatch, metric, points, paths_fn, extent)
    assert len(calls) == walks
    for args, (b, coll) in calls:
        b_ref, coll_ref = _plain_track(*args, _gamma_nearest)
        assert np.array_equal(coll, coll_ref)
        assert np.max(np.abs(b - b_ref)[~coll], initial=0.0) <= 1e-12


def _ray_table(w, metric, m):
    """Default rays as one (L, n) array, the formula the path record replaced."""
    start = G.START_RADIUS_FACTOR * max(
        2.0 * M.support_radius(metric) / m, float(np.max(np.abs(w), initial=0.0)))
    t = np.linspace(0.0, 1.0, G.PATH_STEPS + 1)[:, None]
    r = np.maximum(np.abs(w), 1e-12 * start)
    ray = (r[None, :] * (start / r)[None, :] ** (1.0 - t)) * np.exp(1j * np.angle(w))[None, :]
    return np.concatenate([ray, w[None, :]])


def _cone_arc_table(w, lam, m):
    """Blob-avoiding cone ray and arc as one (L, n) array, the formula the
    path record replaced."""
    theta = np.angle(w)
    s0 = T.sin_theta0(lam)
    start_r = X.START_RADIUS_FACTOR / m
    r = np.maximum(np.abs(w), 1e-12 * start_r)
    needs_arc = np.zeros(w.shape, dtype=bool)
    if s0 < 1.0:
        st2 = np.sin(theta) ** 2
        covered = st2 > s0 * s0
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(np.maximum(1.0 - (s0 * s0) / np.where(covered, st2, 1.0), 0.0))
        needs_arc = covered & (r < np.sqrt((1.0 - disc) / 2.0) / m)
    half = 0.5 * np.arcsin(s0) if s0 < 1.0 else 0.25 * np.pi
    theta_c = np.where(np.abs(theta) <= np.pi / 2.0, np.sign(theta) * half,
                       np.sign(theta) * (np.pi - half))
    theta_start = np.where(needs_arc, theta_c, theta)
    t = np.linspace(0.0, 1.0, X.PATH_STEPS + 1)[:, None]
    ray = (r[None, :] * (start_r / r)[None, :] ** (1.0 - t)) * np.exp(1j * theta_start)[None, :]
    arc = r[None, :] * np.exp(1j * (theta_start[None, :] + t * (theta - theta_start)[None, :]))
    return np.concatenate([ray, arc, w[None, :]], axis=0)


def _side_limit_table(limit, metric, m):
    """Rays at the launch angle down to |limit| and arcs at |limit| to
    arg(limit) as one (L, n) array, the walk to each side limit."""
    r = np.abs(limit)
    start = G.START_RADIUS_FACTOR * np.maximum(2.0 * M.support_radius(metric) / m, r)
    theta = np.angle(limit)
    launch = np.sign(theta) * np.where(np.abs(theta) <= np.pi / 2.0, G.LAUNCH_ANGLE,
                                       np.pi - G.LAUNCH_ANGLE)
    t = np.linspace(0.0, 1.0, G.PATH_STEPS + 1)[:, None]
    ray = (r[None, :] * (start / r)[None, :] ** (1.0 - t)) * np.exp(1j * launch)[None, :]
    t = np.linspace(0.0, 1.0, G.SIDE_ARC_ROWS)[:, None]
    arc = r[None, :] * np.exp(1j * (launch[None, :] + t * (theta - launch)[None, :]))
    return np.concatenate([ray, arc, limit[None, :]])


def _step_table(w, limit):
    """The step from each side limit back to its axis point w as one (L, n)
    array: a ray from |limit| to |w| at arg(limit), an arc at |w| to arg(w)."""
    r, start, th0, theta = np.abs(w), np.abs(limit), np.angle(limit), np.angle(w)
    t = np.array([0.0, 1.0])[:, None]
    ray = (r[None, :] * (start / r)[None, :] ** (1.0 - t)) * np.exp(1j * th0)[None, :]
    arc = r[None, :] * np.exp(1j * (th0[None, :] + t * (theta - th0)[None, :]))
    return np.concatenate([ray, arc, w[None, :]])


@pytest.mark.parametrize("lam", [0.125, 0.25, 0.375])
def test_path_records_match_the_waypoint_arrays_bit_for_bit(monkeypatch, lam):
    """The records ``classify_grid`` walks on a signature grid with the exact
    real axis hold, row for row, the bits of the waypoint arrays: cone rays
    and arcs off the axis and launch-angle rays and arcs to the side limits
    in the one walk, then the ray-and-arc steps from the side limits back to
    the real-axis points off the cut, both half-planes of the axis."""
    metric, m = SIGNATURES[lam], 1.0
    xs = np.linspace(-1.2, 1.2, 21)
    w = np.concatenate([(xs[:, None] + 1j * xs[None, :]).ravel(),
                        [0.0, 1e-12j, -1e-300j, 1.9, -1.95, -1.9 - 1e-300j, 1.85 - 0j]])
    paths_fn = lambda ws: X.continuation_paths(ws, lam, m)
    calls, track = [], _roots.track

    def recorded(mu, c, m_, paths, b0):
        calls.append(paths)
        return track(mu, c, m_, paths, b0)

    monkeypatch.setattr(_roots, "track", recorded)
    G.classify_grid(metric, w, m, paths_fn=paths_fn)
    assert len(calls) == 2                   # one walk, one step back, no retry
    first, step = calls
    wr = w[~G.solve_nonholomorphic_batch(metric, w, m)[3]]
    eps = 1e-9 * max(1.0, 2.0 * M.support_radius(metric) / m)
    axis = np.abs(wr.imag) < 1e-3 * eps
    wa, wo = wr[axis], wr[~axis]
    limit = (wa.real + eps * np.where(wa.real >= 0.0, 1.0, -1.0)
             + 1j * 1e-3 * eps * np.where(wa.imag < 0.0, -1.0, 1.0))
    assert first.w.tobytes() == np.concatenate([wo, limit]).tobytes()
    rows = _table(first)
    cone = _cone_arc_table(wo, lam, m)
    assert rows[:len(cone), :len(wo)].tobytes() == cone.tobytes()
    side = _side_limit_table(limit, metric, m)
    assert rows[:len(side), len(wo):].tobytes() == side.tobytes()
    assert (first.last[len(wo):] == len(side) - 1).all()
    off_cut = np.abs(wa.real) > T.band_edge(lam, m)
    assert step.w.tobytes() == wa[off_cut].tobytes()
    assert _table(step).tobytes() == _step_table(wa[off_cut], limit[off_cut]).tobytes()
    assert _table(paths_fn(wr)).tobytes() == _cone_arc_table(wr, lam, m).tobytes()
    assert _table(G._default_paths(wr, metric, m)).tobytes() == _ray_table(wr, metric, m).tobytes()


_BIT_METRICS = {
    "signature": M.Signature(k=16, n=64),
    "atoms12": M.ExplicitDiagonal([_signed_atoms(12)[i % 12] for i in range(48)]),
    "flat": M.FlatContinuum(mu1=1.0, lminus=0.5, mu2=1.5, lplus=1.0),
}


@pytest.mark.parametrize("name", sorted(_BIT_METRICS))
def test_grid_entries_are_single_points_bit_for_bit(name):
    """Entry i of ``classify_grid`` carries the bits of ``classify_phase`` at
    point i, for points with |w| below 2 rho/m (rho the support radius), where
    every start radius is 200 rho/m: a track's bits do not depend on the
    tracks that share its walk.  Real-axis points inside and outside the
    band, so side limits and steps back to the axis, both phases and both
    half-planes."""
    metric, m = _BIT_METRICS[name], 1.0
    reach = 1.8 * M.support_radius(metric) / m
    rng = np.random.default_rng(17)
    r, th = reach * np.sqrt(rng.uniform(0.0, 1.0, 48)), rng.uniform(-np.pi, np.pi, 48)
    w = r * np.exp(1j * th)
    w[::6] = w[::6].real + 0j
    w[1::12] = np.conj(w[1::12]) * 1e-200
    w = np.concatenate([w, [1.75, -1.7 - 1e-300j]])   # past the signature's band edge 1.63
    grid = G.classify_grid(metric, w, m)
    assert set(grid.phase.tolist()) >= {G.HOLOMORPHIC, G.NONHOLOMORPHIC}
    assert any(grid.note)
    assert any((np.abs(w.imag) < 1e-200) & (grid.phase == G.HOLOMORPHIC) & (grid.note == ""))
    for i, wi in enumerate(w):
        if grid.phase[i] == G.UNRESOLVED:
            with pytest.raises(G.BranchPointProximity):
                G.classify_phase(metric, wi, m)
            continue
        one, entry = G.classify_phase(metric, wi, m), grid.take(i)
        for field in vars(one):
            assert (np.asarray(getattr(entry, field)).tobytes()
                    == np.asarray(getattr(one, field)).tobytes()), (i, field)


def _wrong_sign(sol, w):
    """Side limits whose Im G breaks Im G(x + i0) <= 0 <= Im G(x - i0)."""
    return (sol.note != "") & (np.where(w.imag < 0.0, -sol.green.imag, sol.green.imag) > 0.0)


def test_a_side_limit_of_the_wrong_sign_is_unresolved():
    """On this metric (|tr B|/N = 0.0063) the launch ray crosses a blob, and
    108 of the 137 upper side limits of the 301 points walked to Im G > 0,
    a negative density.  Now no resolved side limit has the wrong sign, in
    either half-plane, and those points are UNRESOLVED."""
    x = np.linspace(-1.5, 1.5, 301)
    w = np.concatenate([x + 0j, x - 1e-300j])
    sol = G.classify_grid(_atomic_metric(29, 528855024), w, 1.0)
    assert not _wrong_sign(sol, w).any()
    assert np.count_nonzero(sol.phase[:301] == G.UNRESOLVED) >= 108
    assert (sol.note != "").any()


@settings(max_examples=10, deadline=None)
@given(metric=st.builds(_atomic_metric, st.integers(4, 33), st.integers(0, 2**32 - 1)))
def test_no_resolved_side_limit_has_the_wrong_sign(metric):
    """Im G(x + i0) = -pi rho_real(x) <= 0 for every metric, and its mirror
    below the axis: no side limit of random signed atomic metrics breaks it."""
    x = np.linspace(-1.9, 1.9, 61) * M.support_radius(metric)
    w = np.concatenate([x + 0j, x - 1e-300j])
    assert not _wrong_sign(G.classify_grid(metric, w, 1.0), w).any()


@pytest.mark.parametrize("k", [64, 96, 115, 123])
def test_real_axis_green_matches_the_closed_form_density(k):
    """Im G(x + i0) = -pi rho_real(x) for Signature(k, 256) at 121 points of
    [-1.5, 1.5], less x = 0: side limits, noted, where rho > 0 and values
    on the axis, with no note, where rho = 0.  Off the cut Im G is 0 to
    within 1e-76, hence the absolute floor.  x = 0 is left out because on
    Signature(123, 256) its side limit lands on a root b ~ -8e-11 next to
    the pole of the gap equation, with G ~ 5e8 against -0.039."""
    x = np.delete(np.linspace(-1.5, 1.5, 121), 60)
    sol = G.classify_grid(M.Signature(k=k, n=256), x + 0j, 1.0)
    assert (sol.phase == G.HOLOMORPHIC).all()
    expected = -np.pi * T.rho_real(x, k / 256, 1.0)
    np.testing.assert_allclose(sol.green.imag, expected, rtol=1e-3, atol=1e-12)
    assert ((sol.note != "") == (expected != 0.0)).all()


class _CountedRows:
    """A path record whose ``rows`` calls are counted.  ``_roots.track``
    makes two before its loop and one per lockstep iteration."""

    def __init__(self, paths):
        self.paths, self.w, self.last, self.calls = paths, paths.w, paths.last, 0

    def rows(self, k, idx):
        self.calls += 1
        return self.paths.rows(k, idx)


def test_default_signature_grid_takes_at_most_100_lockstep_iterations(monkeypatch):
    """``gap_grid``'s default 101^2 grid on Signature(64, 256): the walks to
    the 101 real-axis side limits keep clear of the band edge, so every
    tracker call together runs at most 100 lockstep iterations (424 when
    each axis point was walked along the axis and to a side limit grazing
    past the edge)."""
    counted, track = [], _roots.track

    def recorded(mu, c, m, paths, b0):
        counted.append(_CountedRows(paths))
        return track(mu, c, m, counted[-1], b0)

    monkeypatch.setattr(_roots, "track", recorded)
    xs = np.linspace(-1.2, 1.2, 101)
    G.classify_grid(M.Signature(k=64, n=256), (xs[:, None] + 1j * xs[None, :]).ravel(), 1.0,
                    paths_fn=lambda w: X.continuation_paths(w, 0.25, 1.0))
    assert counted and sum(rec.calls - 2 for rec in counted) <= 100


def _two_walk_rule(metric, x, m):
    """The real-axis rule the one walk replaced, kept as an oracle: a default
    ray to x and one to its side limit, in one walk; x's own value where its
    ray does not collide, else the side limit, noted, else UNRESOLVED.
    Returns (b, green, phase, noted, agree): ``agree`` marks the points
    where the two rays tell one story, the axis ray collided or it ends
    within 1e-6 of the side limit."""
    eps = 1e-9 * max(1.0, 2.0 * M.support_radius(metric) / m)
    limit = (x.real + eps * np.where(x.real >= 0.0, 1.0, -1.0)
             + 1j * 1e-3 * eps * np.where(x.imag < 0.0, -1.0, 1.0))
    paths = _roots.Paths.concat([G._default_paths(x, metric, m),
                                 G._default_paths(limit, metric, m)])
    b, g, _, coll = G.solve_holomorphic_batch(metric, np.concatenate([x, limit]), m, paths=paths)
    n = len(x)
    side = coll[:n]
    phase = np.where(side & coll[n:], G.UNRESOLVED, G.HOLOMORPHIC)
    agree = side | (np.abs(b[:n] - b[n:]) <= 1e-6)
    return (np.where(side, b[n:], b[:n]), np.where(side, g[n:], g[:n]), phase,
            side & ~coll[n:], agree)


def _cut_edges(metric, x, m, halvings):
    """Brackets, ``halvings`` times bisected in lockstep, of the points where
    ``classify_grid``'s real-axis answer changes, phase or note, between
    neighbours of the sorted points x."""
    def kind(v):
        sol = G.classify_grid(metric, v + 0j, m)
        return np.char.add(sol.phase.astype(str), sol.note.astype(str))

    k = kind(x)
    j = np.flatnonzero(k[:-1] != k[1:])
    lo, hi, k_lo = x[j], x[j + 1], k[j]
    for _ in range(halvings):
        mid = (lo + hi) / 2.0
        same = kind(mid) == k_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return lo, hi


@settings(max_examples=10, deadline=None)
@given(metric=st.builds(_atomic_metric, st.integers(4, 33), st.integers(0, 2**32 - 1)),
       near=st.lists(st.floats(-9.0, -3.0), min_size=1, max_size=3))
def test_one_walk_matches_the_two_walk_rule_where_that_rule_agrees(metric, near):
    """At real-axis points inside, outside and near the band edges of random
    signed atomic metrics, wherever the two-walk rule's rays agree on a side
    limit of the physical sign, the one walk gives the same phase and note
    and the same b and G to 1e-12.

    The points stay inside 2 rho/m, where every ray of the two-walk rule
    starts at 200 rho/m whatever the batch, and off x = 0, where every
    pole of the gap equation meets at b = 0 and both rules land on a root
    b ~ 1e-11 with G ~ 1/b.  The metrics keep |tr B|/N at least twice
    LAUNCH_ANGLE times rho: the eigenvalue-free cone round the real axis
    narrows as tr B -> 0 (for the +-1 metric sin theta0 = |tr B|/N), and
    a launch ray outside it can cross a blob onto another sheet."""
    m = 1.0
    rho = M.support_radius(metric)
    assume(abs(M.trace_over_n(metric)) >= 2.0 * G.LAUNCH_ANGLE * rho)
    reach = 1.95 * rho / m
    x = np.linspace(-reach, reach, 44)
    lo, hi = _cut_edges(metric, x, m, 12)
    offsets = 10.0 ** np.array(near)
    mid = (lo + hi)[:, None] / 2.0
    x = np.concatenate([x, lo, hi, (mid - offsets).ravel(), (mid + offsets).ravel()])
    x = np.clip(x[x != 0.0], -reach, reach) + 0j
    sol = G.classify_grid(metric, x, m)
    hol = sol.phase != G.NONHOLOMORPHIC
    b, g, phase, noted, agree = _two_walk_rule(metric, x[hol], m)
    one = sol.take(np.flatnonzero(hol))
    # Im G(x + i0) <= 0 <= Im G(x - i0): a two-walk side limit of the other
    # sign ended on another sheet, and is no oracle
    agree &= ~(noted & (np.where(x[hol].imag < 0.0, -g.imag, g.imag) > 0.0))
    assert agree.any()
    assert (one.phase[agree] == phase[agree]).all()
    assert ((one.note != "")[agree] == noted[agree]).all()
    ok = agree & (phase == G.HOLOMORPHIC)
    assert np.max(np.abs(one.b - b)[ok], initial=0.0) <= 1e-12
    assert np.max(np.abs(one.green - g)[ok], initial=0.0) <= 1e-12


@pytest.mark.parametrize("poles", [2, 12, 128])
def test_gamma_bound_of_a_row_does_not_depend_on_its_batch(poles):
    """A row's gamma bound has the same bits alone as inside a 1000-row batch,
    so a step's alpha test does not depend on the points sharing its step."""
    rng = np.random.default_rng(poles)
    mu = rng.uniform(0.3, 2.0, poles) * rng.choice([-1.0, 1.0], poles)
    c = rng.uniform(0.1, 1.0, poles)
    w, b = rng.normal(size=(2, 1000)) + 1j * rng.normal(size=(2, 1000))
    q = 1.0 / (b[:, None] + w[:, None] / mu)
    fb = 1.0 - (q * q) @ c
    batch = _roots.gamma_bound(q, fb, c).view(np.int64)
    alone = [_roots.gamma_bound(q[i:i + 1], fb[i:i + 1], c).view(np.int64)[0] for i in range(1000)]
    assert batch.tolist() == alone


class TestTracker:
    def test_128_atoms_solve_in_milliseconds(self):
        metric = M.ExplicitDiagonal(list(_signed_atoms(128)))
        w = np.array([1.2 + 1.2j])
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            _, _, res, coll = G.solve_holomorphic_batch(metric, w, 1.0)
            times.append(time.perf_counter() - t0)
        assert not coll[0] and res[0] <= 1e-9
        assert min(times) < 0.05


    def test_coarse_rays_are_wrong_only_where_flagged(self):
        # default rays are straight, so every 16th waypoint spans the same
        # path: each point lands where the full path does, or is flagged
        xs = np.linspace(-1.2, 1.2, 21)
        w = (xs[:, None] + 1j * xs[None, :]).ravel()
        paths = G._default_paths(w, SIG_QUARTER, 1.0)
        b, _, _, coll = G.solve_holomorphic_batch(SIG_QUARTER, w, 1.0, paths=paths)
        coarse = dataclasses.replace(paths, ray=G.PATH_STEPS // 16 + 1)
        rows = _table(paths)
        assert _table(coarse).tobytes() == np.concatenate([rows[:-1:16], rows[-1:]]).tobytes()
        bc, _, _, coll_c = G.solve_holomorphic_batch(SIG_QUARTER, w, 1.0, paths=coarse)
        assert np.all(coll_c | (~coll & (np.abs(bc - b) <= 1e-8)))

    def test_coarse_arcs_round_a_branch_point_are_wrong_only_where_flagged(self):
        # arcs of radius 1/4 around the semicircle edge w = 2, each in three
        # chords: a chord may not swap the branch unless the point is flagged
        th1 = np.repeat(np.linspace(0.5, 2.5, 5), 4)
        th2 = th1 + np.tile([-5.0, -4.0, 4.0, 5.0], 5)
        start = 2.0 + 0.25 * np.exp(1j * th1)
        approach = start + (10j - start) * np.linspace(1.0, 0.0, 65)[:, None]
        arc = 2.0 + 0.25 * np.exp(1j * (th1 + np.linspace(0.0, 1.0, 4)[:, None] * (th2 - th1)))
        paths = np.concatenate([approach, arc[1:]])
        b, coll = _roots.track(np.array([1.0]), np.array([1.0]), 1.0, _Waypoints(paths),
                               -1.0 / paths[0])
        assert np.all(coll | (np.abs(b - _oracle_track(paths, 1.0)) <= 1e-8))


def test_identity_checks_round_as_scalar_python():
    """``structural_check`` and ``unified_check`` over a GapSolution of arrays
    give, point by point, the bits of the scalar formulas, on betas where
    pow(beta, 2) and beta * beta round apart and on products where a fused
    multiply-add would."""
    rng = np.random.default_rng(5)
    xs = 4.0 * rng.normal(size=20000)
    betas = [x for x in xs.tolist() if x**2 != x * x][:8] + xs[:8].tolist()
    rows = []
    for k, beta in enumerate(betas):
        w = complex(*rng.normal(size=2))
        if k % 2:
            b = complex(*rng.normal(size=2))
            rows.append((w, G.HOLOMORPHIC, b, 0.0, b.imag, -w / b,
                         complex(*rng.normal(size=2)), 0.0, ""))
        else:
            rows.append((w, G.NONHOLOMORPHIC, complex(0.0, beta), abs(xs[-k]) / 100,
                         beta, complex(*rng.normal(size=2)),
                         complex(*rng.normal(size=2)), 0.0, ""))
    cols = G.GapSolution(*map(np.array, zip(*rows)))
    m = 1.3
    structural, unified = [], []
    # the scalar references run on Python numbers, not on numpy scalars
    for s in (G.GapSolution(*row) for row in zip(*(v.tolist() for v in vars(cols).values()))):
        ab2 = -(s.alpha2 + s.beta**2) if s.phase == G.NONHOLOMORPHIC else complex(s.b) ** 2
        zg = s.zeta * M.green_b(SIG_QUARTER, s.zeta)
        structural.append(abs(s.w * s.green - (1.0 + m * m * ab2)))
        unified.append(max(abs(zg - (1.0 + m * m * ab2)), abs(s.w * s.green - zg)))
    assert G.structural_check(cols, m).tolist() == structural
    assert G.unified_check(cols, SIG_QUARTER, m).tolist() == unified


def rho2_numeric(metric, xs, ys, m=1.0):
    """Pair density by Gauss's law: rho = (1/pi) Re[(dG/dx + i dG/dy)/2].

    Every grid point (and thus a one-cell margin around the returned
    interior) must solve in the non-holomorphic phase; a point that
    does not means the grid touches the phase boundary and is refused.
    """
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    w = (xs[:, None] + 1j * ys[None, :]).ravel()
    s, beta, res, success = G.solve_nonholomorphic_batch(metric, w, m)
    if not np.all(success):
        bad = w[np.argmin(success)]
        raise ValueError(
            f"grid point ({bad.real}, {bad.imag}) is not interior to the non-holomorphic region"
        )
    g = G._nonholomorphic_green(metric, w, s, beta).reshape(len(xs), len(ys))
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    gx = (g[2:, 1:-1] - g[:-2, 1:-1]) / (2.0 * hx)
    gy = (g[1:-1, 2:] - g[1:-1, :-2]) / (2.0 * hy)
    rho = ((gx + 1j * gy) / 2.0 / np.pi).real
    return xs[1:-1], ys[1:-1], rho


class TestDensityAndIdentities:
    def test_rho2_uniform(self):
        # centered stencil around an interior point reproduces m^2/pi
        h = 1e-3
        xs = 0.05 + np.arange(-2, 3) * h
        ys = 0.50 + np.arange(-2, 3) * h
        _, _, rho = rho2_numeric(SIG_QUARTER, xs, ys, 1.0)
        assert np.max(np.abs(rho - 1.0 / np.pi)) <= 1e-4

    def test_rho2_disk(self):
        h = 1e-3
        xs = np.arange(-2, 3) * h
        ys = 0.3 + np.arange(-2, 3) * h
        _, _, rho = rho2_numeric(SIG_HALF, xs, ys, 1.0)
        assert np.max(np.abs(rho - 1.0 / np.pi)) <= 1e-4

    def test_rho2_refuses_boundary_grid(self):
        xs = np.linspace(0.0, 1.2, 5)      # sticks out of the blob
        ys = np.linspace(0.3, 0.9, 5)
        with pytest.raises(ValueError):
            rho2_numeric(SIG_QUARTER, xs, ys, 1.0)

    def test_unified_residuals(self):
        m = 1.0
        for w in (2.0 + 0.5j, 0.3 + 0.4j, 0.5 + 0.02j, -0.1 - 0.5j):
            sol = G.classify_phase(SIG_QUARTER, w, m)
            assert G.unified_check(sol, SIG_QUARTER, m) <= 1e-8

    def test_unified_detects_perturbation(self):
        sol = G.classify_phase(SIG_QUARTER, 2.0 + 0.5j, 1.0)
        assert sol.phase == G.HOLOMORPHIC and not sol.note
        sol.b += 1e-3
        sol.zeta = -sol.w / sol.b
        assert G.unified_check(sol, SIG_QUARTER, 1.0) >= 1e-4

    def test_phase_exclusivity_at_boundary(self):
        # the two phase solutions agree where they meet: no inconsistent
        # pair of converged solutions near the boundary
        lam, m, d = 0.25, 1.0, 1e-6
        for th in (np.pi / 2, 2 * np.pi / 3):
            rm, rp = T.boundary_radii(th, lam, m)
            e = np.exp(1j * th)
            for r_nh, r_hol in ((rp - d, rp + d), (rm + d, rm - d)):
                nh = G.classify_phase(SIG_QUARTER, r_nh * e, m)
                assert nh.phase == G.NONHOLOMORPHIC
                w_hol = np.array([r_hol * e])
                paths = X.continuation_paths(w_hol, lam, m)
                _, g, _, coll = G.solve_holomorphic_batch(SIG_QUARTER, w_hol, m, paths=paths)
                assert not coll[0]
                assert abs(nh.green - g[0]) <= 1e-5

    def test_conjugation_symmetry_of_green(self):
        for w in (0.4 + 0.3j, 0.1 + 0.5j, 1.5 + 1.0j):
            a = G.classify_phase(SIG_QUARTER, w, 1.0)
            b = G.classify_phase(SIG_QUARTER, np.conj(w), 1.0)
            assert b.green == pytest.approx(np.conj(a.green), abs=1e-10)

    def test_grid_classification_matches_closed_membership(self):
        lam = 0.25
        xs = np.linspace(-1.1, 1.1, 21)
        ys = np.linspace(-1.1, 1.1, 21)
        W = (xs[:, None] + 1j * ys[None, :]).ravel()
        sol = G.classify_grid(SIG_QUARTER, W, 1.0,
                              paths_fn=lambda ws: X.continuation_paths(ws, lam, 1.0))
        for w, phase, alpha2 in zip(W, sol.phase, sol.alpha2):
            inside = bool(T.in_blobs(w, lam, 1.0)) if w.imag != 0 else False
            assert (phase == G.NONHOLOMORPHIC) == inside
            if inside:
                a2c, _ = T.alpha_sq(w, lam, 1.0)
                assert alpha2 == pytest.approx(a2c, abs=1e-8)


def island_green(curve, ibeta, w):
    """Cauchy reconstruction b(w) = (1/2 pi i) oint i*beta(w')/(w - w') dw'.

    ``curve`` samples a closed boundary of a holomorphic island (no
    repeated endpoint; traversal must keep the island on the left of
    the kernel's orientation, i.e. clockwise for this kernel sign) and
    ``ibeta`` holds the matching boundary values.  Trapezoidal rule on
    the closed polyline; returns ~0 for w outside the island.
    """
    curve = np.asarray(curve, dtype=complex)
    ibeta = np.asarray(ibeta, dtype=complex)
    if curve.shape != ibeta.shape or curve.ndim != 1 or len(curve) < 3:
        raise ValueError("curve and boundary values must be matching 1-d arrays")
    if np.abs(curve[0] - curve[-1]) < 1e-12 * np.max(np.abs(curve)):
        curve, ibeta = curve[:-1], ibeta[:-1]
    gaps = np.abs(np.diff(np.concatenate([curve, curve[:1]])))
    diameter = np.max(np.abs(curve[:, None] - curve[None, ::7]))
    if np.max(gaps) > 0.25 * diameter:
        raise ValueError("curve does not look closed (a gap is comparable to its diameter)")
    dw = (np.roll(curve, -1) - np.roll(curve, 1)) / 2.0
    return complex(np.sum(ibeta * dw / (w - curve)) / (2j * np.pi))


class TestIslandGreen:
    def test_constant_inside_clockwise(self):
        th = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        circle_cw = 2.0 * np.exp(-1j * th)
        c = 0.7 - 0.2j
        got = island_green(circle_cw, np.full(500, c), 0.3 + 0.1j)
        assert got == pytest.approx(c, abs=1e-4)

    def test_outside_is_zero(self):
        th = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        circle_cw = 2.0 * np.exp(-1j * th)
        got = island_green(circle_cw, np.full(500, 1.0 + 0j), 5.0 + 1.0j)
        assert abs(got) <= 1e-12

    def test_analytic_function_reconstructed(self):
        th = np.linspace(0, 2 * np.pi, 800, endpoint=False)
        circle_cw = 1.5 * np.exp(-1j * th)
        f = lambda z: 1.0 / (z - 4.0) + 0.3
        got = island_green(circle_cw, f(circle_cw), -0.2 + 0.4j)
        assert got == pytest.approx(f(-0.2 + 0.4j), abs=1e-5)

    def test_open_curve_rejected(self):
        half = 2.0 * np.exp(1j * np.linspace(0, np.pi, 100))
        with pytest.raises(ValueError):
            island_green(half, np.ones(100), 0.1 + 0.1j)

    def test_full_plane_reconstruction_from_boundary_data(self):
        # b is holomorphic off the pair blobs and the real band; Cauchy
        # integrals over the blob loops (boundary values i*beta) plus the
        # band-jump integral reconstruct the branch-tracked solution
        lam, m = 0.25, 1.0
        x0 = T.band_edge(lam, m)
        up = T.boundary_curve(lam, m, num=4001)          # ccw upper loop
        lo = np.conj(up)[::-1]                           # ccw lower loop
        ibeta = lambda c: 1j * (2 * lam - 1) / (2 * m * m * c.imag)
        nodes, wts = np.polynomial.legendre.leggauss(600)
        xs = nodes * x0
        ww = wts * x0
        imb = T.holomorphic_b(xs + 1e-8j, lam, m).imag
        for w in (2.0 + 0.5j, 0.2 + 0.15j, 1.26j, -0.9 - 1.05j, 0.1j):
            loops = island_green(up, ibeta(up), w) + island_green(lo, ibeta(lo), w)
            cut = -(1 / np.pi) * np.sum(ww * imb / (w - xs))
            direct = T.holomorphic_b(np.array([w]), lam, m)[0]
            assert abs(loops + cut - direct) <= 1e-5
