import ast
import itertools
import pathlib

import numpy as np
import pytest
from scipy import integrate

from phspec import theory as T


LAMBDAS = (0.125, 0.25, 0.375, 0.0625)


def _cubic_delta(x, lam, m=1.0):
    """Real-axis discriminant of the branch cubic: positive inside the band
    (one real root and a conjugate pair), negative outside (three real)."""
    xi = -27.0 * m**4 * (1.0 - 2.0 * lam) * x
    return xi * xi + 108.0 * m**6 * (1.0 - m * m * x * x) ** 3


def _green_nonholomorphic(w, m=1.0):
    """Resolvent inside the blobs, G = m^2 conj(w)."""
    return m * m * np.conj(w)


def _rho_real_via_discontinuity(x, lam, m=1.0):
    """Real-axis density from the resolvent jump across the band,
    (1/2 pi) Im[G(x - i eps) - G(x + i eps)] at eps = 1e-6/m, with one
    Richardson step in eps against the leading linear error."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))

    def jump(eps):
        gm = T.green_holomorphic(xv - 1j * eps, lam, m)
        gp = T.green_holomorphic(xv + 1j * eps, lam, m)
        return (gm - gp).imag / (2.0 * np.pi)

    eps = 1e-6 / m
    return float((2.0 * jump(eps / 2.0) - jump(eps))[0])


class TestBandEdge:
    def test_hermitian_limit(self):
        assert T.band_edge(0.0, 1.0) == pytest.approx(2.0, abs=1e-15)
        assert T.band_edge(1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_point(self):
        assert T.band_edge(0.5, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_bisection_oracle(self):
        # sign change of the discriminant located independently by bisection;
        # frozen value for lam = 1/4, m = 1: 1.6269196381764637
        assert T.band_edge(0.25, 1.0) == pytest.approx(1.6269196381764637, abs=1e-12)
        for lam in LAMBDAS:
            lo, hi = 0.5, 3.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if _cubic_delta(mid, lam) > 0:
                    lo = mid
                else:
                    hi = mid
            assert T.band_edge(lam, 1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_scaling_in_m(self):
        for lam in LAMBDAS:
            assert T.band_edge(lam, 2.0) == pytest.approx(T.band_edge(lam, 1.0) / 2.0)

    def test_discriminant_signs(self):
        for lam in (0.125, 0.25):
            x0 = T.band_edge(lam, 1.0)
            assert _cubic_delta(0.9 * x0, lam) > 0
            assert _cubic_delta(1.1 * x0, lam) < 0


class TestRhoReal:
    def test_center_value(self):
        for lam in LAMBDAS:
            assert T.rho_real(0.0, lam, 1.0) == pytest.approx(abs(1 - 2 * lam) / np.pi, rel=1e-12)

    def test_zero_outside_band_and_at_half(self):
        assert T.rho_real(np.array([5.0, -5.0]), 0.25, 1.0).tolist() == [0.0, 0.0]
        xs = np.linspace(-1.5, 1.5, 11)
        assert np.all(T.rho_real(xs, 0.5, 1.0) == 0.0)

    def test_reduces_to_semicircle(self):
        xs = np.linspace(-1.99, 1.99, 101)
        assert np.max(np.abs(T.rho_real(xs, 0.0, 1.0) - T.semicircle_density(xs, 1.0))) < 1e-13

    def test_total_mass_quadrature_oracle(self):
        # integral over the band equals |1-2 lam| (adaptive quadrature)
        for lam in LAMBDAS:
            x0 = T.band_edge(lam, 1.0)
            val, err = integrate.quad(lambda x: T.rho_real(x, lam, 1.0), -x0, x0, limit=200)
            assert val == pytest.approx(abs(1 - 2 * lam), abs=1e-8)

    def test_symmetry_in_lambda(self):
        xs = np.linspace(-1.4, 1.4, 31)
        for lam in LAMBDAS:
            assert np.allclose(T.rho_real(xs, lam, 1.0), T.rho_real(xs, 1 - lam, 1.0),
                               atol=1e-14)
            assert (T.band_edge(lam, 1.3), T.blob_area_and_nu(lam, 1.3), T.sin_theta0(lam)) \
                == (T.band_edge(1 - lam, 1.3), T.blob_area_and_nu(1 - lam, 1.3),
                    T.sin_theta0(1 - lam))

    def test_even_in_x(self):
        xs = np.linspace(0.0, 1.6, 30)
        assert np.allclose(T.rho_real(xs, 0.25, 1.0), T.rho_real(-xs, 0.25, 1.0))

    def test_vanishes_at_edge(self):
        x0 = T.band_edge(0.25, 1.0)
        assert T.rho_real(x0 * (1 - 1e-9), 0.25, 1.0) < 1e-3


class TestBoundary:
    def test_inner_distance_to_axis(self):
        for lam in (0.125, 0.25, 0.375):
            th0 = np.arcsin(abs(2 * lam - 1))
            r = T.boundary_radii(np.pi / 2, lam, 1.0)
            assert r[0] == pytest.approx(np.sin(th0 / 2), abs=1e-14)

    def test_disk_at_half(self):
        r = T.boundary_radii(np.pi / 2, 0.5, 1.0)
        assert r == (pytest.approx(0.0, abs=1e-15), pytest.approx(1.0, abs=1e-15))

    def test_sewing_corner(self):
        lam = 0.25
        th0 = np.arcsin(abs(2 * lam - 1))
        r = T.boundary_radii(th0, lam, 1.0)
        assert r[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert r[1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_absent_in_cone(self):
        assert T.boundary_radii(0.1, 0.25, 1.0) is None

    def test_alpha_zero_on_boundary(self):
        lam = 0.25
        for th in np.linspace(np.arcsin(0.5) + 1e-3, np.pi - np.arcsin(0.5) - 1e-3, 25):
            for r in T.boundary_radii(th, lam, 1.0):
                a2, _ = T.alpha_sq(r * np.exp(1j * th), lam, 1.0)
                assert abs(a2) <= 1e-10

    def test_beta_boundary_matching(self):
        # 2 m^2 y beta + (1 - 2 lam) = 0 at boundary points
        lam, m = 0.375, 1.0
        for th in (np.pi / 3, np.pi / 2, 2 * np.pi / 3):
            for r in T.boundary_radii(th, lam, m):
                w = r * np.exp(1j * th)
                _, beta = T.alpha_sq(w, lam, m)
                assert abs(2 * m * m * w.imag * beta + (1 - 2 * lam)) <= 1e-10

    def test_table_follows_the_radii(self):
        for lam in LAMBDAS + (0.5, 0.75):
            th, r_minus, r_plus = T.boundary_table(lam, 1.3, 41)
            assert len(th) == 41 and np.all(np.diff(th) > 0)
            th0 = np.arcsin(T.sin_theta0(lam))
            assert th[0] == th0 + 1e-9 and th[-1] == np.pi - th0 - 1e-9
            assert [T.boundary_radii(t, lam, 1.3) for t in th] == list(zip(r_minus, r_plus))

    def test_table_empty_without_blobs(self):
        for lam in (0.0, 1.0):
            assert len(T.boundary_curve(lam, 1.0)) == 0
            assert [len(col) for col in T.boundary_table(lam, 1.0, 41)] == [0, 0, 0]


class TestAlphaSq:
    def test_half_is_disk(self):
        a2, beta = T.alpha_sq(0.3 + 0.4j, 0.5, 1.0)
        assert beta == 0.0
        assert a2 == pytest.approx(1.0 - 0.25)

    def test_deep_outside(self):
        a2, _ = T.alpha_sq(2.0 + 1j, 0.25, 1.0)
        assert a2 < 0

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            T.alpha_sq(0.5 + 0j, 0.25, 1.0)

    def test_area_and_nu(self):
        for lam in LAMBDAS + (0.5,):
            area, nu = T.blob_area_and_nu(lam, 1.0)
            assert nu == pytest.approx(1 - abs(1 - 2 * lam))
            assert area == pytest.approx(nu * np.pi)

    def test_area_quadrature_oracle(self):
        # integrate r+^2 - r-^2 over the admissible angles (both blobs)
        lam, m = 0.25, 1.0
        th0 = np.arcsin(abs(2 * lam - 1))

        def width(th):
            r = T.boundary_radii(th, lam, m)
            return r[1] ** 2 - r[0] ** 2

        val, err = integrate.quad(width, th0, np.pi - th0, limit=200)
        area, _ = T.blob_area_and_nu(lam, m)
        assert val == pytest.approx(area, abs=1e-8)


class TestGreens:
    def test_asymptotic_one_over_w(self):
        for lam in (0.125, 0.375):
            for r in (30.0, 100.0):
                w = r * np.exp(0.4j)
                g = T.green_holomorphic(w, lam, 1.0)
                assert abs(w * g - 1.0) <= 4.0 / r

    def test_half_is_exactly_one_over_w(self):
        for w in (1.3 + 0.2j, 2j, -1.5 + 0.9j):
            assert T.green_holomorphic(w, 0.5, 1.0) == pytest.approx(1.0 / w, abs=1e-15)

    def test_reduces_to_hermitian_resolvent(self):
        xs = np.linspace(-3, 3, 10)
        ys = np.array([0.4, 1.0, -0.7, 2.0, -1.5, 0.9, -0.4, 1.1, -2.0, 0.6])
        w = xs + 1j * ys
        got = T.green_holomorphic(w, 0.0, 1.0)
        assert np.max(np.abs(got - T.gue_green(w, 1.0))) <= 1e-10

    def test_identity_w_g(self):
        lam, m = 0.25, 1.0
        pts = np.array([2.0 + 0.3j, 0.4 + 0.05j, 1.5j, -0.8 - 0.9j, 0.05 + 0.1j])
        b = T.holomorphic_b(pts, lam, m)
        g = T.green_holomorphic(pts, lam, m)
        assert np.max(np.abs(pts * g - 1.0 - m * m * b * b)) <= 1e-10

    def test_cubic_residual(self):
        lam, m = 0.375, 1.0
        pts = np.array([1.9 + 0.2j, 0.3 + 0.02j, 1.2j, -2.0 + 1.0j])
        b = T.holomorphic_b(pts, lam, m)
        res = np.abs(m * m * b**3 + (1 - m * m * pts**2) * b + pts * (1 - 2 * lam))
        assert np.all(res <= 1e-12 * (1 + np.abs(pts) ** 3))

    def test_conjugation(self):
        lam = 0.25
        pts = np.array([0.5 + 0.3j, 1.8 - 0.4j, 0.1 + 0.15j])
        g = T.green_holomorphic(pts, lam, 1.0)
        gc = T.green_holomorphic(np.conj(pts), lam, 1.0)
        assert np.max(np.abs(gc - np.conj(g))) <= 1e-12

    def test_nonholomorphic_value(self):
        assert _green_nonholomorphic(0.1 + 0.5j, 1.0) == pytest.approx(0.1 - 0.5j)

    def test_uniform_density_by_wirtinger(self):
        # (1/pi) d(conj w) of G: finite differences around an interior point
        m = 2.0
        w0, h = (0.05 + 0.2j), 1e-5
        gx = (_green_nonholomorphic(w0 + h, m) - _green_nonholomorphic(w0 - h, m)) / (2 * h)
        gy = (_green_nonholomorphic(w0 + 1j * h, m) - _green_nonholomorphic(w0 - 1j * h, m)) / (2 * h)
        rho = ((gx + 1j * gy) / 2.0 / np.pi).real
        assert rho == pytest.approx(m * m / np.pi, rel=1e-9)

    def test_boundary_continuity_both_arcs(self):
        d = 1e-6
        for lam, m, th in itertools.product((0.25, 0.49, 0.499), (1.0, 0.7),
                                            (np.pi / 2, np.pi / 3, 2 * np.pi / 3)):
            rm, rp = T.boundary_radii(th, lam, m)
            e = np.exp(1j * th)
            inner = abs(_green_nonholomorphic((rm + d) * e, m)
                        - T.green_holomorphic((rm - d) * e, lam, m))
            outer = abs(_green_nonholomorphic((rp - d) * e, m)
                        - T.green_holomorphic((rp + d) * e, lam, m))
            assert inner <= 1e-5 and outer <= 1e-5, (lam, m, th)

    def test_just_below_the_inner_arc_near_the_axis(self):
        # a relative 1e-7 under the inner arc at theta = -3.0954, lam = 0.49:
        # a continuation along the cone ray and arc ended on another sheet
        # there, G = -4.498 + 0.208i
        lam, m, th = 0.49, 1.0, -3.0954
        w = (1.0 - 1e-7) * T.boundary_radii(th, lam, m)[0] * np.exp(1j * th)
        assert abs(T.green_holomorphic(w, lam, m) - _green_nonholomorphic(w, m)) <= 1e-6

    def test_mirror_symmetry_and_the_imaginary_axis(self):
        # b(-conj w) = -conj b(w), so b is imaginary on Re w = 0, and there it
        # is the limit from either side
        rng = np.random.default_rng(11)
        for lam in (0.0, 0.1, 0.25, 0.49, 0.75, 1.0):
            for m in (0.7, 1.0):
                w = (rng.uniform(-2.0, 2.0, 300) + 1j * rng.uniform(-2.0, 2.0, 300)) / m
                w[:100] = 1j * w[:100].imag
                w = w[~T.in_blobs(w, lam, m)]
                b = T.holomorphic_b(w, lam, m)
                assert np.array_equal(T.holomorphic_b(-np.conj(w), lam, m), -np.conj(b))
                line = w.real == 0.0
                assert line.sum() >= 20 and np.all(b[line].real == 0.0)
                side = T.holomorphic_b(w[line] + 1e-9 / m, lam, m)
                assert np.max(np.abs(side - b[line])) <= 1e-6
                if lam in (0.0, 1.0):
                    g = T.green_holomorphic(w[line], lam, m)
                    assert np.max(np.abs(g - T.gue_green(w[line], m))) <= 1e-12

    def test_real_axis_rejected(self):
        for w in (0.3 + 0j, 2.5 + 1e-20j, -1.0 - 0j):
            with pytest.raises(ValueError):
                T.holomorphic_b(w, 0.25, 1.0)

    def test_inside_blob_rejected(self):
        with pytest.raises(ValueError):
            T.holomorphic_b(0.1 + 0.5j, 0.25, 1.0)

    def test_rho_via_discontinuity(self):
        lam, m = 0.25, 1.0
        for x in (0.3, 0.8, -1.1):
            got = _rho_real_via_discontinuity(x, lam, m)
            assert got == pytest.approx(T.rho_real(x, lam, m), abs=1e-4)

    def test_rho_via_discontinuity_outside(self):
        assert _rho_real_via_discontinuity(2.5, 0.25, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_normalization_total_mass(self):
        # band mass + uniform-density blob mass = 1
        for lam in LAMBDAS:
            x0 = T.band_edge(lam, 1.0)
            band, _ = integrate.quad(lambda x: T.rho_real(x, lam, 1.0), -x0, x0, limit=200)
            area, _ = T.blob_area_and_nu(lam, 1.0)
            assert band + area / np.pi == pytest.approx(1.0, abs=1e-8)


class TestSemicircle:
    def test_values(self):
        assert T.semicircle_density(0.0, 1.0) == pytest.approx(1 / np.pi)
        assert T.semicircle_density(2.0, 1.0) == 0.0

    def test_normalization(self):
        val, _ = integrate.quad(lambda x: T.semicircle_density(x, 1.3), -2 / 1.3, 2 / 1.3)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_cdf_matches_quadrature(self):
        for x in (-1.5, -0.2, 0.7, 1.9):
            val, _ = integrate.quad(lambda t: T.semicircle_density(t, 1.0), -2.0, x)
            assert T.semicircle_cdf(x, 1.0) == pytest.approx(val, abs=1e-10)

    def test_gue_green_is_stieltjes_transform(self):
        # independent oracle: numerical Stieltjes transform of the density
        w = 0.7 + 0.9j
        re, _ = integrate.quad(lambda x: (T.semicircle_density(x, 1.0) / (w - x)).real, -2, 2)
        im, _ = integrate.quad(lambda x: (T.semicircle_density(x, 1.0) / (w - x)).imag, -2, 2)
        assert T.gue_green(w, 1.0) == pytest.approx(complex(re, im), abs=1e-8)


class TestCdf:
    def test_real_band_cdf_endpoints(self):
        cdf = T.real_band_cdf(0.25, 1.0)
        x0 = T.band_edge(0.25, 1.0)
        assert cdf(-x0 - 1) == 0.0 and cdf(x0 + 1) == 1.0
        assert cdf(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_real_band_cdf_vs_quadrature(self):
        lam = 0.375
        cdf = T.real_band_cdf(lam, 1.0)
        x0 = T.band_edge(lam, 1.0)
        for x in (-0.8, 0.1, 0.9):
            val, _ = integrate.quad(lambda t: T.rho_real(t, lam, 1.0), -x0, x, limit=200)
            assert cdf(x) == pytest.approx(val / abs(1 - 2 * lam), abs=1e-6)

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            T.real_band_cdf(0.5, 1.0)


def test_closed_forms_share_no_code_with_the_solver():
    tree = ast.parse(pathlib.Path(T.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    assert not {name.rsplit(".", 1)[-1] for name in names} & {"_roots", "gapsolve"}
    assert not hasattr(T, "s0_half_angle")
