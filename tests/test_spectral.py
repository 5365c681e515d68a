import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phspec import ensemble as E
from phspec import metric as M
from phspec import spectral


def sample_spectra(n, k, num, seed=123, m=1.0):
    cfg = E.EnsembleConfig(n=n, m=m, metric=M.Signature(k=k, n=n),
                           master_seed=seed, num_samples=num)
    out = []
    for i in range(num):
        s = E.draw_sample(cfg, i)
        out.append(spectral.classify(spectral.eigenvalues(s.phi), seed=s.seed))
    return out


class TestEigenvalues:
    def test_diagonal(self):
        got = np.sort_complex(spectral.eigenvalues(np.diag([3.0, -1.0, 1j, -1j])))
        assert np.allclose(got, np.sort_complex(np.array([3, -1, 1j, -1j])))

    def test_trace_identity(self):
        s = E.draw_sample(E.EnsembleConfig(n=48, m=1.0, metric=M.Signature(k=12, n=48),
                                           master_seed=5, num_samples=1), 0)
        eigs = spectral.eigenvalues(s.phi)
        assert np.sum(eigs) == pytest.approx(np.trace(s.phi), abs=1e-10 * np.linalg.norm(s.phi))

    def test_nonfinite_rejected(self):
        with pytest.raises(spectral.EigensolveError):
            spectral.eigenvalues(np.array([[np.nan, 0], [0, 1.0]]))


class TestClassify:
    def test_pure_pair(self):
        s = spectral.classify(np.array([1j, -1j]))
        assert len(s.real_eigs) == 0 and len(s.pair_eigs) == 1

    def test_pure_real(self):
        s = spectral.classify(np.array([3.0 + 0j, -1.0 + 0j]))
        assert len(s.real_eigs) == 2 and len(s.pair_eigs) == 0

    def test_count_conservation_and_bound(self):
        for s in sample_spectra(64, 16, 20):
            assert len(s.real_eigs) + 2 * len(s.pair_eigs) == 64
            assert len(s.real_eigs) >= 64 - 2 * 16

    def test_lower_bound_large(self):
        for s in sample_spectra(256, 64, 3, seed=88):
            assert len(s.real_eigs) >= 128

    def test_conjugation_symmetry(self):
        for s in sample_spectra(64, 16, 10, seed=6):
            scale = np.max(np.abs(s.eigs))
            assert spectral.multiset_distance(s.eigs, np.conj(s.eigs)) <= 1e-8 * scale

    def test_spectral_radius_bound(self):
        cfg = E.EnsembleConfig(n=48, m=1.0, metric=M.Signature(k=12, n=48),
                               master_seed=3, num_samples=5)
        for i in range(5):
            smp = E.draw_sample(cfg, i)
            eigs = spectral.eigenvalues(smp.phi)
            bound = np.linalg.norm(smp.a_matrix, 2) * np.max(np.abs(smp.b_diag))
            assert np.max(np.abs(eigs)) <= bound + 1e-9

    def test_split_pair_reclassified(self):
        # one eigenvalue just above the real tolerance with no partner
        eigs = np.array([1.0 + 1e-7j, 2.0 + 0j, 3.0 + 0j])
        with pytest.warns(RuntimeWarning):
            s = spectral.classify(eigs)
        assert len(s.real_eigs) == 3
        assert s.forced_real == 1

    @given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                       allow_infinity=False), min_size=1, max_size=12),
           st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_property_counts(self, pairs, reals):
        # a conjugate-symmetric multiset classifies with exact count balance
        pairs = [p for p in pairs if abs(p.imag) > 1e-3]
        eigs = np.array(reals + [v for p in pairs for v in (p, p.conjugate())])
        s = spectral.classify(eigs)
        assert len(s.real_eigs) + 2 * len(s.pair_eigs) == len(eigs)
        assert np.all(s.pair_eigs.imag > 0)


class TestHistograms:
    def test_edge_rule(self):
        s = spectral.SpectrumSample(eigs=np.zeros(2, complex), real_eigs=np.zeros(2),
                                    pair_eigs=np.empty(0, complex), tol_used=0.0)
        h = spectral.empirical_density_1d([s], 2, (-1.0, 1.0))
        assert h.counts.tolist() == [0, 2]   # half-open bins, 0.0 falls right

    def test_mass_normalization(self):
        samples = sample_spectra(64, 16, 10)
        h = spectral.empirical_density_1d(samples, 50, (-3.0, 3.0))
        total_real = sum(len(s.real_eigs) for s in samples)
        assert h.mass == pytest.approx(total_real / (64 * 10))

    def test_empty_real_set(self):
        s = spectral.classify(np.array([1j, -1j]))
        h = spectral.empirical_density_1d([s], 4, (-1.0, 1.0))
        assert h.counts.sum() == 0

    def test_2d_mirror_symmetry(self):
        samples = sample_spectra(64, 16, 6, seed=21)
        h = spectral.empirical_density_2d(samples, (8, 8), (-1.2, 1.2), (-1.2, 1.2))
        assert np.array_equal(h.counts, h.counts[:, ::-1])  # exact per construction

    def test_2d_far_cells_empty(self):
        samples = sample_spectra(64, 16, 6, seed=21)
        h = spectral.empirical_density_2d(samples, (6, 6), (4.0, 6.0), (4.0, 6.0))
        assert h.counts.sum() == 0


class TestAggregates:
    def test_real_fraction_definite_metric(self):
        samples = sample_spectra(32, 0, 5, seed=9)
        mean, err = spectral.real_fraction(samples)
        assert mean == 1.0 and err == 0.0

    def test_ks_distance_exact(self):
        # hand computation: D+ = max(1/3-1/4, 2/3-1/2, 1-3/4) = 1/4 = D-
        vals = np.array([0.25, 0.5, 0.75])
        d = spectral.ks_distance(vals, lambda x: np.clip(x, 0, 1))
        assert d == pytest.approx(0.25, abs=1e-15)

    def test_ks_against_own_cdf_is_small(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(size=4000)
        d = spectral.ks_distance(vals, lambda x: np.clip(x, 0, 1))
        assert d <= 0.035
