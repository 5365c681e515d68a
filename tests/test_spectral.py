import warnings

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


def _loop_classify(eigs):
    """The pairing loop ``classify`` ran on its own before the matcher was
    shared: (real_eigs, pair_eigs, forced_real)."""
    scale = float(np.max(np.abs(eigs)))
    tol = spectral.REAL_TOL_FACTOR * scale
    real_mask = np.abs(eigs.imag) <= tol
    reals = list(eigs[real_mask].real)
    rest = eigs[~real_mask]
    upper = np.array(sorted(rest[rest.imag > 0], key=lambda z: (z.real, z.imag)))
    lower = rest[rest.imag <= 0]
    taken = np.zeros(len(lower), dtype=bool)
    pairs, forced = [], 0
    for lam in upper:
        free = np.flatnonzero(~taken)
        if len(free):
            dist = np.abs(lam - np.conj(lower[free]))
            j = int(np.argmin(dist))
            if dist[j] <= spectral.PAIR_TOL_FACTOR * scale:
                taken[free[j]] = True
                pairs.append(lam)
                continue
        reals.append(lam.real)
        forced += 1
    for mu in lower[~taken]:
        reals.append(mu.real)
        forced += 1
    return np.array(sorted(reals)), np.array(pairs, dtype=complex), forced


def _loop_distance(u, v):
    """The loop ``multiset_distance`` ran on its own before the matcher was shared."""
    free = np.ones(len(v), dtype=bool)
    worst = 0.0
    for x in u:
        idx = np.flatnonzero(free)
        diff = v[idx] - x
        d = np.hypot(diff.real, diff.imag)
        j = int(np.argmin(d))
        worst = max(worst, float(d[j]))
        free[idx[j]] = False
    return worst


_ANCHOR = 8.0                                  # the largest |eig|: fixes the scale
_PAIR_TOL = spectral.PAIR_TOL_FACTOR * _ANCHOR
_TICK = 2.0**-20                               # exact offsets, below _PAIR_TOL
_dyadic = st.integers(-300, 300).map(lambda k: k / 64.0)
_upper = st.builds(complex, _dyadic, st.integers(1, 300).map(lambda k: k / 64.0))


@st.composite
def _mixed_spectra(draw):
    """Exact reals, exact conjugate pairs, pairs split by noise well inside
    or well outside the pairing tolerance, and equal-distance ties."""
    eigs = [_ANCHOR + 0j] + [complex(x) for x in draw(st.lists(_dyadic, max_size=6))]
    for p in draw(st.lists(_upper, max_size=5)):
        eigs += [p, p.conjugate()]
    for p, factor, angle in draw(st.lists(st.tuples(
            _upper, st.one_of(st.floats(0.05, 0.5), st.floats(2.0, 20.0)),
            st.floats(0.0, 2.0 * np.pi)), max_size=5)):
        eigs += [p, p.conjugate() + factor * _PAIR_TOL * np.exp(1j * angle)]
    for p, k, kind in draw(st.lists(st.tuples(_upper, st.integers(1, 8), st.integers(0, 3)),
                                    max_size=4)):
        d = k * _TICK * (1j if kind % 2 else 1.0)
        if kind < 2:     # one upper, two lower partners at the same distance
            eigs += [p, p.conjugate() + d, p.conjugate() - d]
        else:            # two uppers at the same distance from one lower partner
            eigs += [p + d, p - d, p.conjugate()]
    order = draw(st.permutations(range(len(eigs))))
    return np.array(eigs, dtype=complex)[list(order)]


@settings(max_examples=150, deadline=None)
@given(eigs=_mixed_spectra())
def test_one_matcher_agrees_with_both_loops_bit_for_bit(eigs):
    """``classify`` and ``multiset_distance`` share one greedy matcher and
    give the bits of the two loops it replaced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = spectral.classify(eigs)
    real_eigs, pair_eigs, forced = _loop_classify(eigs)
    assert got.real_eigs.tobytes() == real_eigs.tobytes()
    assert got.pair_eigs.tobytes() == pair_eigs.tobytes()
    assert got.forced_real == forced
    for other in (np.conj(eigs), -eigs, eigs[::-1] ** 2):
        assert spectral.multiset_distance(eigs, other) == _loop_distance(eigs, other)


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
