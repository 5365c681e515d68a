import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phspec import ensemble as E
from phspec import hermcheck as H
from phspec import metric as M
from phspec import theory as T


SIG8 = M.Signature(k=2, n=8)


class TestDoubled:
    def test_one_by_one_example(self):
        dm = H.build_doubled(np.array([[2.0 + 0j]]), M.ExplicitDiagonal([-1.0]))
        assert dm.h.tolist() == [[0.0, 2.0], [-1.0, 0.0]]
        eigs = sorted(np.linalg.eigvals(dm.h), key=lambda z: z.imag)
        assert np.allclose(eigs, [-1j * np.sqrt(2), 1j * np.sqrt(2)])

    def test_gamma_anticommutes_exactly(self):
        a = E.sample_gue(8, 1.0, 1)
        assert H.gamma_anticommutator_norm(H.build_doubled(a, SIG8)) == 0.0

    def test_spectrum_symmetries(self):
        for i in range(20):
            a = E.sample_gue(8, 1.0, E.mix_seed(55, i))
            rep = H.check_spectrum_symmetry(a, SIG8)
            assert rep["negation"] <= 1e-8
            assert rep["conjugation"] <= 1e-8
            assert rep["square_vs_phi"] <= 1e-7

    def test_square_identity_at_n64(self):
        a = E.sample_gue(64, 1.0, 1234)
        rep = H.check_spectrum_symmetry(a, M.Signature(k=16, n=64))
        assert rep["square_vs_phi"] <= 1e-7


class TestBlockResolvent:
    def test_residuals(self):
        a = E.sample_gue(8, 1.0, 99)
        rep = H.check_block_resolvent(a, SIG8, 3.0 + 0.5j)
        assert not rep["skipped"]
        assert rep["block_residual"] <= 1e-10
        assert rep["trace_pairing_residual"] <= 1e-10
        assert rep["half_trace_residual"] <= 1e-10

    def test_near_singular_skipped(self):
        a = E.sample_gue(8, 1.0, 7)
        b = M.realize(SIG8, 8)
        w = np.linalg.eigvals(a * b[None, :])[0]
        z = np.sqrt(w.astype(complex)) + 1e-13
        rep = H.check_block_resolvent(a, SIG8, complex(z))
        assert rep["skipped"]


class TestBlockTraces:
    def test_zero_s_rejected(self):
        a = E.sample_gue(4, 1.0, 1)
        with pytest.raises(ValueError):
            H.block_traces(a, M.Signature(k=1, n=4), 0.0, 0.3 + 0.4j)

    def test_identities_over_draws(self):
        # property sweep: every random draw satisfies the exact identities
        for i in range(100):
            a = E.sample_gue(8, 1.0, E.mix_seed(500, i))
            z = (0.3 + 0.4j) * (1 + 0.1 * (i % 5))
            for s in (0.05, 0.1, 0.5):
                ids = H.block_trace_identities(a, SIG8, s, z)
                for name, value in ids.items():
                    assert value <= 1e-9, (name, value, i, s)

    def test_imaginary_sign_flips_with_s(self):
        a = E.sample_gue(8, 1.0, 11)
        tp = H.block_traces(a, SIG8, 0.1, 0.3 + 0.4j)
        tm = H.block_traces(a, SIG8, -0.1, 0.3 + 0.4j)
        for al in range(1, 5):
            assert np.sign(tp.t(al, al).imag) == -np.sign(tm.t(al, al).imag)
            assert tp.t(al, al).imag < 0  # -i s (positive trace) at s > 0

    def test_off_diagonal_limit_is_resolvent(self):
        # small s: the 31-block trace approaches (1/N)tr[z/(z^2-phi)]
        a = E.sample_gue(8, 1.0, 3)
        b = M.realize(SIG8, 8)
        phi = a * b[None, :]
        z = 1.3 + 0.9j
        target = np.trace(z * np.linalg.inv(z * z * np.eye(8) - phi)) / 8
        prev = None
        for s in (0.2, 0.1, 0.05, 0.025):
            t31 = H.block_traces(a, SIG8, s, z).t(3, 1)
            err = abs(t31 - target)
            if prev is not None:
                assert err < prev * 0.7   # shrinks roughly like s^2
            prev = err
        assert err <= 1e-3


def _dense_block_traces(a, b, s, z):
    """Reference: the sixteen block traces from the full 4N x 4N inverse."""
    n = a.shape[0]
    bm = np.diag(b).astype(complex)
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    eta = 1j * s
    inv = np.linalg.inv(np.block([
        [eta * eye, zero, z * eye, -a],
        [zero, eta * eye, -bm, z * eye],
        [np.conj(z) * eye, -bm, eta * eye, zero],
        [-a, np.conj(z) * eye, zero, eta * eye],
    ]))
    return np.array([[np.trace(inv[al * n:(al + 1) * n, be * n:(be + 1) * n]) / n
                      for be in range(4)] for al in range(4)])


def _diagonal_metric(mu):
    """ExplicitDiagonal without its nonzero check, so that b_i = 0 (where the
    (2, 3) block decouples) reaches the reduction too."""
    metric = object.__new__(M.ExplicitDiagonal)
    object.__setattr__(metric, "mu", tuple(mu))
    return metric


_coord = st.floats(-1.5, 1.5)


@settings(max_examples=30, deadline=None)
@given(mu=st.lists(st.one_of(st.just(0.0), st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0)),
                   min_size=2, max_size=24),
       seed=st.integers(0, 2**32 - 1),
       s=st.builds(lambda mag, sign: sign * mag, st.floats(0.01, 1.0), st.sampled_from([-1, 1])),
       z=st.one_of(st.just(0j), st.builds(complex, _coord, st.just(0.0)),
                   st.builds(complex, _coord, _coord)))
def test_block_traces_match_dense_inverse(mu, seed, s, z):
    """The Schur-reduced traces equal those of the dense 4N x 4N inverse."""
    a = E.sample_gue(len(mu), 1.0, seed)
    got = H.block_traces(a, _diagonal_metric(mu), s, z).traces
    ref = _dense_block_traces(a, np.array(mu), s, z)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestAveragedGap:
    def test_small_scale_residuals(self):
        cfg = E.EnsembleConfig(n=32, m=1.0, metric=M.Signature(k=8, n=32),
                               master_seed=5, num_samples=150)
        w = 0.05 + 0.55j
        rep = H.averaged_gap_residual(cfg, 0.1, np.sqrt(w), 150)
        assert rep.rel_ac <= 1e-12          # exact per-sample for real diagonal B
        assert rep.adjoint_residual <= 1e-12
        assert rep.re11_over_mag <= 1e-12
        assert rep.eq_a_residual <= 0.1
        assert rep.eq_b_residual <= 0.1

    def test_order_parameter_approaches_closed_form(self):
        cfg = E.EnsembleConfig(n=64, m=1.0, metric=M.Signature(k=16, n=64),
                               master_seed=6, num_samples=200)
        w = 0.05 + 0.55j
        rep = H.averaged_gap_residual(cfg, 0.1, np.sqrt(w), 200)
        a2, beta = T.alpha_sq(w, 0.25, 1.0)
        assert rep.a_bar.imag == pytest.approx(np.sqrt(a2), abs=0.05)
        assert rep.b_bar.imag == pytest.approx(beta, abs=0.05)

    def test_far_outside_order_parameter_vanishes(self):
        cfg = E.EnsembleConfig(n=32, m=1.0, metric=M.Signature(k=8, n=32),
                               master_seed=8, num_samples=100)
        z = 3.0 + 0.1j           # w = z^2 far outside the spectrum
        acc = np.zeros((4, 4), dtype=complex)
        for i in range(100):
            smp = E.draw_sample(cfg, i)
            acc += H.block_traces(smp.a_matrix, cfg.metric, 0.1, z).traces
        mean = acc / 100
        assert abs(mean[3, 3]) <= 0.05    # 44 ~ 0: holomorphic region
        assert abs(mean[0, 0]) <= 0.05


class TestResolventMc:
    def test_identity_metric_closed_form(self):
        cfg = E.EnsembleConfig(n=64, m=1.0, metric=M.Signature(k=64, n=64),
                               master_seed=10, num_samples=200)
        z = np.sqrt(3.0)
        rep = H.resolvent_vs_formula(cfg, z, 200)
        assert rep["phase"] == "holomorphic"
        assert rep["predicted"] == pytest.approx(z * T.gue_green(3.0 + 0j, 1.0), abs=1e-10)
        assert rep["rel_deviation"] <= 0.03

    def test_large_w_trivial(self):
        cfg = E.EnsembleConfig(n=32, m=1.0, metric=M.Signature(k=8, n=32),
                               master_seed=12, num_samples=50)
        z = 4.0 + 0.0j
        rep = H.resolvent_vs_formula(cfg, z, 50)
        assert rep["mc"] == pytest.approx(1.0 / z, abs=0.01)
