import numpy as np
import pytest

from phspec import ensemble as E
from phspec import metric as M


SIG8 = M.Signature(k=2, n=8)


def _intertwining_residual(sample):
    """|phi^dag B - B phi|_F / |phi|_F, zero for exact pseudo-hermiticity."""
    phi, b = sample.phi, sample.b_diag
    lhs = phi.conj().T * b[None, :]
    rhs = b[:, None] * phi
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(phi))


class TestSampleGue:
    def test_hermitian_bit_exact(self):
        a = E.sample_gue(16, 1.0, 42)
        assert np.array_equal(a, a.conj().T)

    def test_deterministic(self):
        assert np.array_equal(E.sample_gue(8, 1.0, 7), E.sample_gue(8, 1.0, 7))
        assert not np.array_equal(E.sample_gue(8, 1.0, 7), E.sample_gue(8, 1.0, 8))

    def test_scaling_in_m(self):
        a1 = E.sample_gue(8, 1.0, 3)
        a2 = E.sample_gue(8, 2.0, 3)
        assert np.array_equal(a2, a1 / 2.0)

    def test_second_moment_oracle(self):
        # E[(1/n) tr A^2] = 1/m^2; 10^4-draw oracle at n=8
        n, draws = 8, 10_000
        acc = 0.0
        for i in range(draws):
            a = E.sample_gue(n, 1.0, E.mix_seed(123, i))
            acc += float(np.sum(np.abs(a) ** 2)) / n     # tr A^2 for hermitian A
        mean = acc / draws
        assert mean == pytest.approx(1.0, abs=5 * np.sqrt(2.0 / draws))

    def test_entry_variances(self):
        # diagonal variance 1/(n m^2); off-diagonal re/im each half of it
        n, draws, m = 4, 4000, 1.5
        diag, offr, offi = [], [], []
        for i in range(draws):
            a = E.sample_gue(n, m, E.mix_seed(9, i))
            diag.append(a[0, 0].real)
            offr.append(a[0, 1].real)
            offi.append(a[0, 1].imag)
        v = 1.0 / (n * m * m)
        assert np.var(diag) == pytest.approx(v, rel=0.15)
        assert np.var(offr) == pytest.approx(v / 2, rel=0.15)
        assert np.var(offi) == pytest.approx(v / 2, rel=0.15)


def _sample_gue_out_of_place(n, m, seed):
    """``sample_gue`` as it was written before it worked in place."""
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))

    def normal():
        u1 = rng.random((n, n))
        u2 = rng.random((n, n))
        r = np.sqrt(-2.0 * np.log1p(-u1))
        return r * np.cos(2.0 * np.pi * u2)

    g = normal()
    h = normal()
    base = ((g + g.T) + 1j * (h - h.T)) / (2.0 * np.sqrt(n))
    return base / m


@pytest.mark.parametrize("n", [1, 2, 8, 64, 129])
@pytest.mark.parametrize("m", [1.0, 0.7, 3.0])
def test_sample_gue_bits_match_the_out_of_place_formula(n, m):
    for i in range(20):
        seed = E.mix_seed(2024, i)
        got, want = E.sample_gue(n, m, seed), _sample_gue_out_of_place(n, m, seed)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, m, i)


class TestMakePh:
    def test_identity_metric_is_plain_hermitian(self):
        a = E.sample_gue(4, 1.0, 5)
        s = E.make_ph(a, M.Signature(k=4, n=4))
        assert np.array_equal(s.phi, a)

    def test_two_by_two_example(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        s = E.make_ph(a, M.ExplicitDiagonal([1.0, -1.0]))
        assert np.array_equal(s.phi, np.array([[0.0, -1.0], [1.0, 0.0]]))
        eigs = sorted(np.linalg.eigvals(s.phi), key=lambda z: z.imag)
        assert np.allclose(eigs, [-1j, 1j])

    def test_intertwining_residual(self):
        for i in range(10):
            s = E.draw_sample(E.EnsembleConfig(n=32, m=1.0, metric=M.Signature(k=8, n=32),
                                               master_seed=17, num_samples=10), i)
            assert _intertwining_residual(s) <= 1e-10

    def test_real_characteristic_polynomial(self):
        s = E.draw_sample(E.EnsembleConfig(n=16, m=1.0, metric=M.Signature(k=4, n=16),
                                           master_seed=2, num_samples=1), 0)
        coeffs = np.poly(s.phi)
        assert np.max(np.abs(coeffs.imag)) <= 1e-9 * np.max(np.abs(coeffs))


class TestStatistics:
    def test_trace_statistic_moments(self):
        n, draws = 128, 2000
        cfg = E.EnsembleConfig(n=n, m=1.0, metric=M.Signature(k=32, n=n),
                               master_seed=99, num_samples=draws)
        ts = np.array([E.trace_statistic(E.draw_sample(cfg, i)) for i in range(draws)])
        assert abs(ts.mean()) <= 4 * ts.std() / np.sqrt(draws)
        # u = (1/n) tr B^2 = 1 for a signature metric
        assert ts.var() == pytest.approx(1.0 / n**2, rel=0.15)


class TestSeedsAndDump:
    def test_mix_seed_is_splitmix(self):
        # frozen reference: SplitMix64 of 0 advances to 0xE220A8397B1DCDAF
        assert E.splitmix64(0) == 0xE220A8397B1DCDAF
        assert E.mix_seed(0, 0) == 0xE220A8397B1DCDAF

    def test_per_sample_seeds_differ(self):
        seeds = {E.mix_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_dump_roundtrip(self, tmp_path):
        cfg = E.EnsembleConfig(n=6, m=1.5, metric=M.Signature(k=2, n=6),
                               master_seed=77, num_samples=1)
        s = E.draw_sample(cfg, 0)
        path = tmp_path / "phi.bin"
        E.dump_sample(s, cfg.m, path)
        phi, m, seed = E.load_sample(path)
        assert np.array_equal(phi, s.phi)
        assert (m, seed) == (1.5, s.seed)
        header = path.read_bytes()[:4]
        assert header == b"PHS1"
