import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phspec import gapsolve as G
from phspec import metric as M
from phspec import theory as T


SIG_QUARTER = M.Signature(k=16, n=64)     # lam = 1/4
SIG_HALF = M.Signature(k=32, n=64)        # lam = 1/2, traceless
IDENT = M.Signature(k=16, n=16)           # positive definite
FLAT = M.FlatContinuum(mu1=2.0, lminus=1.0, mu2=2.0, lplus=1.0)
SIGNATURES = {lam: M.Signature(k=int(64 * lam), n=64) for lam in (0.125, 0.25, 0.375)}


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
        b, g, res, coll = G.solve_holomorphic_batch(SIG_QUARTER, pts, 1.0)
        assert not coll.any()
        assert np.max(np.abs(b - T.holomorphic_b(pts, lam, 1.0))) <= 1e-10
        assert np.max(np.abs(g - T.green_holomorphic(pts, lam, 1.0))) <= 1e-10
        assert np.max(res) <= 1e-10

    def test_under_blob_with_waypoints(self):
        # default rays cross the pair region and land on a wrong sheet
        # there; explicit blob-avoiding waypoints recover the branch that
        # is continuous with the boundary values
        lam = 0.25
        pts = np.array([0.1j, 0.05 + 0.2j, -0.04 + 0.22j])
        paths = T.continuation_paths(pts, lam, 1.0)
        b, g, res, coll = G.solve_holomorphic_batch(SIG_QUARTER, pts, 1.0, paths=paths)
        assert not coll.any()
        assert np.max(np.abs(b - T.holomorphic_b(pts, lam, 1.0))) <= 1e-10

    def test_scalar_wrapper(self):
        sol = G.solve_holomorphic(SIG_QUARTER, 2.0 + 1.0j, 1.0)
        assert sol.phase == G.HOLOMORPHIC
        assert sol.alpha == 0.0
        assert sol.residual <= 1e-10
        assert sol.zeta == pytest.approx(-sol.w / sol.b)

    def test_band_collision_raises(self):
        with pytest.raises(G.BranchPointProximity):
            G.solve_holomorphic(SIG_QUARTER, 0.5 + 0.0j, 1.0)

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
        for w in (0.3 + 0.4j, 0.1j, 1.0 + 0.2j):
            assert G.solve_nonholomorphic(IDENT, w, 1.0) is None
        assert G.solve_nonholomorphic(M.ExplicitDiagonal([-1.0, -2.0]), 0.2j, 1.0) is None

    def test_matches_closed_forms(self):
        lam = 0.25
        for w in (0.3 + 0.4j, 0.05 + 0.55j, -0.2 - 0.6j):
            sol = G.solve_nonholomorphic(SIG_QUARTER, w, 1.0)
            a2, beta = T.alpha_sq(w, lam, 1.0)
            assert sol is not None
            assert sol.alpha2 == pytest.approx(a2, abs=1e-8)
            assert sol.beta == pytest.approx(beta, abs=1e-8)
            assert sol.green == pytest.approx(T.green_nonholomorphic(w, 1.0), abs=1e-10)
            assert sol.b.real == 0.0

    def test_outside_blobs_none(self):
        for w in (0.9 + 0.05j, 2.0j, 0.5 + 0.02j):
            assert G.solve_nonholomorphic(SIG_QUARTER, w, 1.0) is None

    def test_disk_case(self):
        sol = G.solve_nonholomorphic(SIG_HALF, 0.3 + 0.4j, 1.0)
        assert sol is not None
        assert sol.alpha2 == pytest.approx(1.0 - 0.25, abs=1e-10)
        assert sol.beta == pytest.approx(0.0, abs=1e-10)

    def test_m_scaling(self):
        m = 2.0
        sol = G.solve_nonholomorphic(M.Signature(k=16, n=64), (0.05 + 0.25j), m)
        a2, beta = T.alpha_sq(0.05 + 0.25j, 0.25, m)
        assert sol.alpha2 == pytest.approx(a2, abs=1e-8)

    def test_batch_matches_scalar(self):
        pts = np.array([0.3 + 0.4j, 0.9 + 0.05j, 0.05 - 0.55j, 2.0 + 2.0j])
        s, beta, res, ok = G.solve_nonholomorphic_batch(SIG_QUARTER, pts, 1.0)
        for i, w in enumerate(pts):
            sol = G.solve_nonholomorphic(SIG_QUARTER, complex(w), 1.0)
            assert ok[i] == (sol is not None)
            if sol is not None:
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
        sol = G.solve_nonholomorphic(SIG_QUARTER, w, m)
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

    def test_cut_side_limit_collision_is_unresolved(self):
        # 32 signed atoms: the side limit's track collides too, which must
        # leave the point unresolved instead of aborting the whole grid
        v = np.linspace(0.5, 1.5, 32)
        v[::4] *= -1.0
        metric = M.ExplicitDiagonal([v[i % 32] for i in range(256)])
        assert G.classify_grid(metric, [-1.2 + 0j], 1.0) == [None]

    def test_far_points_always_holomorphic(self):
        for w in (3.0 + 3.0j, -5.0j, 10.0 + 0.1j):
            assert G.classify_phase(SIG_QUARTER, w, 1.0).phase == G.HOLOMORPHIC

    def test_boundary_vs_closed_form(self):
        lam = 0.25
        bd = G.phase_boundary(SIG_QUARTER, [np.pi / 2, np.pi / 3], 1.0, tol=1e-9)
        for theta, crossings in bd:
            rm, rp = T.boundary_radii(theta, lam, 1.0)
            assert len(crossings) == 2
            assert crossings[0] == pytest.approx(rm, abs=1e-6)
            assert crossings[1] == pytest.approx(rp, abs=1e-6)

    def test_boundary_disk(self):
        bd = G.phase_boundary(SIG_HALF, [np.pi / 2], 1.0, tol=1e-9)
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
# Nonzero points within 1e-6 of the origin are left out: there the
# holomorphic tracker stops short of w and returns an unconverged b
# (residual up to ~1e9), a defect of the tracker outside what this
# property checks.
_point = st.one_of(st.builds(complex, _coord, _coord),
                   st.builds(complex, _coord, st.just(0.0))    # exact real axis
                   ).filter(lambda w: w == 0 or abs(w) >= 1e-6)


@settings(max_examples=20, deadline=None)
@given(lam=st.sampled_from(sorted(SIGNATURES)), pts=st.lists(_point, min_size=1, max_size=3))
def test_grid_batch_matches_single_points(lam, pts):
    """A point's solution does not depend on the batch it is solved in,
    and the solution at conj(w) carries the conjugate green."""
    metric = SIGNATURES[lam]
    off_axis = [w for w in pts if w.imag != 0.0]
    batch = pts + [w.conjugate() for w in off_axis]
    sols = G.classify_grid(metric, batch, 1.0)
    for w, sol in zip(batch, sols):
        try:
            one = G.classify_phase(metric, w, 1.0)
        except G.BranchPointProximity:
            one = None
        assert (sol is None) == (one is None)
        if sol is not None:
            assert sol.phase == one.phase
            assert abs(sol.alpha2 - one.alpha2) <= 1e-12
            assert abs(sol.green - one.green) <= 1e-12
    mirrored = dict(zip(batch, sols))
    for w in off_axis:
        a, b = mirrored[w], mirrored[w.conjugate()]
        if a is not None and b is not None:
            assert a.phase == b.phase
            assert abs(b.green - np.conj(a.green)) <= 1e-12


class TestDensityAndIdentities:
    def test_rho2_uniform(self):
        # centered stencil around an interior point reproduces m^2/pi
        h = 1e-3
        xs = 0.05 + np.arange(-2, 3) * h
        ys = 0.50 + np.arange(-2, 3) * h
        _, _, rho = G.rho2_numeric(SIG_QUARTER, xs, ys, 1.0)
        assert np.max(np.abs(rho - 1.0 / np.pi)) <= 1e-4

    def test_rho2_disk(self):
        h = 1e-3
        xs = np.arange(-2, 3) * h
        ys = 0.3 + np.arange(-2, 3) * h
        _, _, rho = G.rho2_numeric(SIG_HALF, xs, ys, 1.0)
        assert np.max(np.abs(rho - 1.0 / np.pi)) <= 1e-4

    def test_rho2_refuses_boundary_grid(self):
        xs = np.linspace(0.0, 1.2, 5)      # sticks out of the blob
        ys = np.linspace(0.3, 0.9, 5)
        with pytest.raises(G.GapSolveError):
            G.rho2_numeric(SIG_QUARTER, xs, ys, 1.0)

    def test_unified_residuals(self):
        m = 1.0
        for w in (2.0 + 0.5j, 0.3 + 0.4j, 0.5 + 0.02j, -0.1 - 0.5j):
            sol = G.classify_phase(SIG_QUARTER, w, m)
            assert G.unified_check(sol, SIG_QUARTER, m) <= 1e-8

    def test_unified_detects_perturbation(self):
        sol = G.solve_holomorphic(SIG_QUARTER, 2.0 + 0.5j, 1.0)
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
            nh = G.solve_nonholomorphic(SIG_QUARTER, (rp - d) * e, m)
            paths = T.continuation_paths(np.array([(rp + d) * e]), lam, m)
            hol = G.solve_holomorphic(SIG_QUARTER, (rp + d) * e, m, paths=paths)
            assert abs(nh.green - hol.green) <= 1e-5
            nh_in = G.solve_nonholomorphic(SIG_QUARTER, (rm + d) * e, m)
            paths = T.continuation_paths(np.array([(rm - d) * e]), lam, m)
            hol_in = G.solve_holomorphic(SIG_QUARTER, (rm - d) * e, m, paths=paths)
            assert abs(nh_in.green - hol_in.green) <= 1e-5

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
        sols = G.classify_grid(SIG_QUARTER, W, 1.0,
                               paths_fn=lambda ws: T.continuation_paths(ws, lam, 1.0))
        for w, sol in zip(W, sols):
            inside = bool(T.in_blobs(w, lam, 1.0)) if w.imag != 0 else False
            assert (sol.phase == G.NONHOLOMORPHIC) == inside
            if inside:
                a2c, _ = T.alpha_sq(w, lam, 1.0)
                assert sol.alpha2 == pytest.approx(a2c, abs=1e-8)


class TestIslandGreen:
    def test_constant_inside_clockwise(self):
        th = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        circle_cw = 2.0 * np.exp(-1j * th)
        c = 0.7 - 0.2j
        got = G.island_green(circle_cw, np.full(500, c), 0.3 + 0.1j)
        assert got == pytest.approx(c, abs=1e-4)

    def test_outside_is_zero(self):
        th = np.linspace(0, 2 * np.pi, 500, endpoint=False)
        circle_cw = 2.0 * np.exp(-1j * th)
        got = G.island_green(circle_cw, np.full(500, 1.0 + 0j), 5.0 + 1.0j)
        assert abs(got) <= 1e-12

    def test_analytic_function_reconstructed(self):
        th = np.linspace(0, 2 * np.pi, 800, endpoint=False)
        circle_cw = 1.5 * np.exp(-1j * th)
        f = lambda z: 1.0 / (z - 4.0) + 0.3
        got = G.island_green(circle_cw, f(circle_cw), -0.2 + 0.4j)
        assert got == pytest.approx(f(-0.2 + 0.4j), abs=1e-5)

    def test_open_curve_rejected(self):
        half = 2.0 * np.exp(1j * np.linspace(0, np.pi, 100))
        with pytest.raises(ValueError):
            G.island_green(half, np.ones(100), 0.1 + 0.1j)

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
            loops = G.island_green(up, ibeta(up), w) + G.island_green(lo, ibeta(lo), w)
            cut = -(1 / np.pi) * np.sum(ww * imb / (w - xs))
            direct = T.holomorphic_b(np.array([w]), lam, m)[0]
            assert abs(loops + cut - direct) <= 1e-5
