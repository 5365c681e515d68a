import numpy as np
import pytest
from scipy import integrate

from phspec import metric as M


FLAT = M.FlatContinuum(mu1=2.0, lminus=1.0, mu2=2.0, lplus=1.0)


def flat_density(x):
    if -2.0 <= x <= -1.0 or 1.0 <= x <= 2.0:
        return 0.5
    return 0.0


class TestRealize:
    def test_signature(self):
        assert M.realize(M.Signature(k=2, n=4), 4).tolist() == [1, 1, -1, -1]

    def test_all_minus(self):
        assert M.realize(M.Signature(k=0, n=3), 3).tolist() == [-1, -1, -1]

    def test_flat_quantile_midpoints(self):
        # equal-mass midpoints of the piecewise-flat CDF, computed by hand
        got = M.realize(FLAT, 4)
        assert got.tolist() == [-1.75, -1.25, 1.25, 1.75]

    def test_flat_quantiles_vs_quadrature_oracle(self):
        # each point must sit at CDF value (i - 1/2)/n per the quadrature CDF
        n = 17
        pts = M.realize(FLAT, n)
        for i, p in enumerate(pts):
            mass, _ = integrate.quad(flat_density, -2.5, p, points=[-2, -1, 1, 2])
            assert mass == pytest.approx((i + 0.5) / n, abs=1e-10)

    def test_flat_cdf_sup_deviation(self):
        # empirical CDF within 1/(2n) of the analytic CDF everywhere
        n = 64
        pts = M.realize(FLAT, n)
        xs = np.linspace(-2.2, 2.2, 2001)
        emp = np.searchsorted(np.sort(pts), xs, side="right") / n
        ana = np.array([integrate.quad(flat_density, -2.5, x, points=[-2, -1, 1, 2])[0]
                        for x in xs])
        assert np.max(np.abs(emp - ana)) <= 1 / (2 * n) + 1e-12

    def test_size_mismatch(self):
        with pytest.raises(M.MetricError):
            M.realize(M.Signature(k=2, n=4), 8)
        with pytest.raises(M.MetricError):
            M.realize(M.ExplicitDiagonal([1.0, 2.0]), 3)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(M.MetricError):
            M.ExplicitDiagonal([1.0, 0.0])

    def test_flat_needs_gap_at_zero(self):
        with pytest.raises(M.MetricError):
            M.FlatContinuum(mu1=1.0, lminus=1.5, mu2=2.0, lplus=1.0)


class TestGreenB:
    def test_single_atom(self):
        metric = M.ExplicitDiagonal([1.0])
        for w in (2.0 + 0j, 1j, -3.0 + 0.5j):
            assert M.green_b(metric, w) == pytest.approx(1.0 / (w - 1.0))

    def test_signature_half_at_2i(self):
        # (1/2)(1/(2i-1) + 1/(2i+1)) = -2i/5, rational arithmetic
        got = M.green_b(M.Signature(k=2, n=4), 2j)
        assert got == pytest.approx(-0.4j, abs=1e-15)

    def test_flat_asymptotics(self):
        # w G_B - 1 = O(1/w): check C/|w| bound on a ray out to large radius
        for r in (20.0, 40.0, 80.0):
            w = r * np.exp(0.3j)
            err = abs(w * M.green_b(FLAT, w) - 1.0)
            assert err <= 5.0 / r

    def test_reflection(self):
        rng = np.random.default_rng(3)
        for metric in (M.Signature(k=1, n=4), M.ExplicitDiagonal([2.0, -0.5, 1.0]), FLAT):
            for _ in range(20):
                w = complex(rng.normal(), rng.normal() + 0.1)
                assert M.green_b(metric, np.conj(w)) == pytest.approx(
                    np.conj(M.green_b(metric, w)), abs=1e-14)

    def test_flat_green_vs_quadrature_oracle(self):
        w = 0.3 + 0.7j
        def re_part(mu):
            return (0.5 * (w - mu) / abs(w - mu) ** 2).real
        def im_part(mu):
            return (0.5 / (w - mu)).imag
        re, _ = integrate.quad(lambda mu: re_part(mu), -2, -1)
        re2, _ = integrate.quad(lambda mu: re_part(mu), 1, 2)
        im, _ = integrate.quad(lambda mu: im_part(mu), -2, -1)
        im2, _ = integrate.quad(lambda mu: im_part(mu), 1, 2)
        assert M.green_b(FLAT, w) == pytest.approx(complex(re + re2, im + im2), abs=1e-10)

    def test_pole_is_hard_error(self):
        with pytest.raises(M.OnSupportError):
            M.green_b(M.Signature(k=2, n=4), 1.0 + 0j)
        with pytest.raises(M.OnSupportError):
            M.green_b(FLAT, 1.5 + 0j)


class TestSummary:
    """(1/N) tr B, the one aggregate of a metric the solvers read."""

    def test_all_plus(self):
        assert M.trace_over_n(M.Signature(k=5, n=5)) == 1.0

    def test_balanced(self):
        assert M.trace_over_n(M.Signature(k=3, n=6)) == 0.0

    def test_explicit(self):
        assert M.trace_over_n(M.ExplicitDiagonal([2.0, 2.0, -1.0])) == pytest.approx(1.0)

    def test_signature_invariants(self):
        assert M.trace_over_n(M.Signature(k=3, n=4)) == pytest.approx(2 * 0.75 - 1)

    def test_flat_moments_vs_quadrature(self):
        m1 = integrate.quad(lambda mu: mu * 0.5, -2, -1)[0] + integrate.quad(lambda mu: mu * 0.5, 1, 2)[0]
        assert M.trace_over_n(FLAT) == pytest.approx(m1, abs=1e-12)


def test_config_roundtrip():
    for metric in (M.Signature(k=2, n=8), M.ExplicitDiagonal([1.0, -2.0]), FLAT):
        assert M.from_config(M.to_config(metric)) == metric
