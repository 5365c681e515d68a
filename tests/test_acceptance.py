"""Acceptance suite: every exit criterion at its pinned parameters.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch).
The full module takes 4.5-6 minutes on 2 cores (criterion 4 alone
3-4); the heavy Monte Carlo fixtures are shared between criteria
that reuse the same runs.
"""

import numpy as np
import pytest

from phspec import _blas
from phspec import ensemble as E
from phspec import gapsolve as G
from phspec import hermcheck as H
from phspec import metric as M
from phspec import spectral
from phspec import theory as T
from phspec.harness import experiments as X
from phspec.harness.config import RunConfig
from phspec.harness.thresholds import THRESHOLDS
from phspec.metric import Signature

SEED = 20260810
LAMS = ((0.125, 32), (0.25, 64), (0.375, 96))     # (lam, k) at n = 256


def announce(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}  {detail}")


@pytest.fixture(scope="session")
def real_density_runs(tmp_path_factory):
    """Criteria 1 and 2 share these runs: n=256, 500 samples, m=1."""
    out = {}
    for lam, k in LAMS:
        cfg = RunConfig(experiment="real_density", metric=Signature(k=k, n=256),
                        n=256, m=1.0, seed=SEED, samples=500,
                        out_dir=str(tmp_path_factory.mktemp(f"rd_{k}")))
        out[lam] = X.run_real_density(cfg)
    return out


@pytest.fixture(scope="session")
def trace_moment_stats():
    """Criteria 9 and 10 share one sampling pass: lam=1/2, n=128, 2000 samples."""
    n, draws = 128, 2000
    cfg = E.EnsembleConfig(n=n, m=1.0, metric=Signature(k=64, n=n),
                           master_seed=SEED, num_samples=draws)
    traces = np.empty(draws)
    moments = np.empty((draws, 4), dtype=complex)
    with _blas.single_thread():   # n = 128 matmuls gain nothing from BLAS threads
        for i in range(draws):
            s = E.draw_sample(cfg, i)
            traces[i] = E.trace_statistic(s)
            acc = s.phi.copy()
            for order in range(1, 5):
                moments[i, order - 1] = np.sum(s.b_diag * np.diagonal(acc)) / n
                if order < 4:
                    acc = acc @ s.phi
    return traces, moments


def test_criterion_1_real_density_ks(real_density_runs):
    """Real-axis density: KS <= 0.02 for lam in {1/8, 1/4, 3/8}."""
    ok = True
    details = []
    for lam, rep in real_density_runs.items():
        ks = rep.metrics["ks_real_density"]
        ok &= rep.checks["ks_real_density"]
        details.append(f"lam={lam}: KS={ks:.4f}")
    announce("criterion 1: real density KS <= 0.02", ok, "; ".join(details))
    assert ok


def test_criterion_2_real_fraction(real_density_runs):
    """|mean fraction - |1-2 lam|| <= 0.01; per-sample lower bound is hard."""
    ok = True
    details = []
    for (lam, k) in LAMS:
        rep = real_density_runs[lam]
        mean = rep.metrics["real_fraction_mean"]
        target = abs(1 - 2 * lam)
        frac_ok = abs(mean - target) <= THRESHOLDS["fraction_abs_err"]
        bound_ok = rep.checks["real_count_lower_bound"]
        ok &= frac_ok and bound_ok
        details.append(f"lam={lam}: |{mean:.4f}-{target}|, bound={'ok' if bound_ok else 'VIOLATED'}")
    announce("criterion 2: real fraction + per-sample bound", ok, "; ".join(details))
    assert ok


def test_criterion_3_complex_support(tmp_path):
    """n=1024, 20 samples, lam=1/4: <= 1% outliers beyond the inflated boundary."""
    cfg = RunConfig(experiment="complex_scatter", metric=Signature(k=256, n=1024),
                    n=1024, m=1.0, seed=SEED, samples=20, out_dir=str(tmp_path))
    rep = X.run_complex_scatter(cfg)
    frac = rep.metrics["outlier_fraction"]
    ok = rep.checks["outlier_fraction"] and rep.checks["mirror_counts"]
    announce("criterion 3: complex support outliers <= 1%", ok,
             f"outlier fraction {frac:.5f} ({rep.runtime_seconds:.0f}s)")
    assert ok


def test_criterion_4_uniform_blob_density(tmp_path):
    """n=1024, 200 samples, lam=3/8: interior cells within 10% of m^2/pi."""
    cfg = RunConfig(experiment="uniformity", metric=Signature(k=384, n=1024),
                    n=1024, m=1.0, seed=SEED, samples=200, out_dir=str(tmp_path))
    rep = X.run_uniformity(cfg)
    ok = rep.checks["uniformity_max_rel_dev"] and rep.checks["complex_mass"]
    announce("criterion 4: uniform pair density", ok,
             f"max rel dev {rep.metrics['uniformity_max_rel_dev']:.4f} over "
             f"{rep.metrics['interior_cells']} cells; mass "
             f"{rep.metrics['complex_mass']['mass']:.4f} vs nu="
             f"{rep.metrics['complex_mass']['nu']}; ({rep.runtime_seconds:.0f}s)")
    assert ok


def test_criterion_5_hermitian_reduction(tmp_path):
    """lam=0 semicircle KS <= 0.02; identity metric matches the closed
    resolvent to 1e-10 on a 50-point grid."""
    cfg = RunConfig(experiment="semicircle", metric=Signature(k=0, n=256),
                    n=256, m=1.0, seed=SEED, samples=100, out_dir=str(tmp_path))
    rep = X.run_semicircle(cfg)
    ok = rep.passed
    announce("criterion 5: hermitian reduction", ok,
             f"KS={rep.metrics['ks_semicircle']:.4f}, "
             f"pointwise={rep.metrics['identity_metric_pointwise']:.2e}")
    assert ok


def test_criterion_6_solver_vs_closed_form(tmp_path):
    """101x101 grids for lam in {1/8,1/4,3/8}: alpha^2 to 1e-8 interior,
    classification off only in a one-cell boundary band, boundary
    bisection to 1e-6."""
    ok = True
    details = []
    for lam, k in LAMS:
        cfg = RunConfig(experiment="gap_grid", metric=Signature(k=k, n=256),
                        n=256, m=1.0, seed=SEED, samples=1,
                        grid_points=101, out_dir=str(tmp_path / f"g{k}"))
        rep = X.run_gap_grid(cfg)
        this = (rep.checks["alpha2_vs_closed_form"]
                and rep.checks["classification_boundary_band"]
                and rep.checks["boundary_bisection"]
                and rep.checks["unresolved_fraction"])
        ok &= this
        details.append(f"lam={lam}: a2err={rep.metrics['alpha2_vs_closed_form']:.1e} "
                       f"bnd={rep.metrics['boundary_bisection']:.1e} "
                       f"({rep.runtime_seconds:.0f}s)")
    announce("criterion 6: solver vs closed form", ok, "; ".join(details))
    assert ok


def test_criterion_7_finite_n_identities():
    """n=8, 100 draws, s in {0.05,0.1,0.5}, 5 z-points: residuals <= 1e-9."""
    tol = THRESHOLDS["finite_n_identity"]
    metric = Signature(k=2, n=8)
    z_points = (0.3 + 0.4j, -0.7 + 0.2j, 1.1 - 0.6j, 0.05 + 1.0j, -0.4 - 0.9j)
    worst = 0.0
    skipped = 0
    for i in range(100):
        a = E.sample_gue(8, 1.0, E.mix_seed(SEED, i))
        worst = max(worst, H.gamma_anticommutator_norm(H.build_doubled(a, metric)))
        sym = H.check_spectrum_symmetry(a, metric)
        worst = max(worst, sym["negation"], sym["conjugation"], sym["square_vs_phi"])
        for z in z_points:
            res = H.check_block_resolvent(a, metric, z)
            if res.get("skipped"):
                skipped += 1
                continue
            worst = max(worst, res["block_residual"], res["trace_pairing_residual"],
                        res["half_trace_residual"])
            for s in (0.05, 0.1, 0.5):
                ids = H.block_trace_identities(a, metric, s, z)
                worst = max(worst, *ids.values())
    ok = worst <= tol
    announce("criterion 7: finite-N identities <= 1e-9", ok,
             f"worst residual {worst:.2e}, skipped shifts {skipped}")
    assert ok


def test_criterion_8_averaged_gap_equations():
    """n=64, 500 samples, s=0.1, w inside the pair region for lam=1/4:
    |a-c|/|a| <= 0.05 and self-consistency residuals <= 0.05."""
    w = 0.05 + 0.55j    # alpha^2(w) = 0.488 > 0: inside the pair region
    a2, _ = T.alpha_sq(w, 0.25, 1.0)
    assert a2 > 0
    cfg = E.EnsembleConfig(n=64, m=1.0, metric=Signature(k=16, n=64),
                           master_seed=SEED, num_samples=500)
    rep = H.averaged_gap_residual(cfg, 0.1, np.sqrt(w))
    tol = THRESHOLDS["averaged_gap_rel"]
    ok = (rep.rel_ac <= tol and rep.eq_a_residual <= tol
          and rep.eq_b_residual <= tol and rep.eq_c_residual <= tol)
    announce("criterion 8: averaged gap equations", ok,
             f"|a-c|/|a|={rep.rel_ac:.2e}, eq_a={rep.eq_a_residual:.4f}, "
             f"eq_b={rep.eq_b_residual:.4f}, eq_c={rep.eq_c_residual:.4f}")
    assert ok


def test_criterion_9_vanishing_moments(trace_moment_stats):
    """lam=1/2, n=128, 2000 samples: |mean (1/n) tr(B phi^k)| <= 4 stderr."""
    _, moments = trace_moment_stats
    ok = True
    details = []
    for order in range(1, 5):
        vals = moments[:, order - 1]
        mean = vals.mean()
        err = max(vals.real.std(), vals.imag.std()) / np.sqrt(len(vals))
        this = abs(mean) <= THRESHOLDS["moment_sigma_factor"] * err
        ok &= this
        details.append(f"k={order}: |{abs(mean):.2e}| vs 4x{err:.2e}")
    announce("criterion 9: vanishing moments", ok, "; ".join(details))
    assert ok


def test_criterion_10_trace_statistic(trace_moment_stats):
    """Sample variance of t = Re tr(phi)/n within 10% of u/(n^2 m^2), u=1."""
    traces, _ = trace_moment_stats
    target = 1.0 / 128**2
    var = traces.var()
    ok = abs(var / target - 1.0) <= THRESHOLDS["trace_var_rel"]
    announce("criterion 10: trace statistic variance", ok,
             f"var={var:.3e} target={target:.3e} rel={abs(var/target-1):.3f}")
    assert ok


def test_criterion_11_structural_identities():
    """w G = 1 + m^2 b^2 (holomorphic), w G = 1 - m^2(alpha^2+beta^2)
    (non-holomorphic), and the unified map identity, all <= 1e-8."""
    m = 1.0
    metric = Signature(k=16, n=64)
    rng = np.random.default_rng(7)
    pts = list(0.4 * rng.normal(size=40) + 1j * 0.4 * rng.normal(size=40))
    pts += [2.0 + 0.5j, 3.0j, 0.5 + 0.02j, -1.5 - 0.8j]
    worst = 0.0
    tol = THRESHOLDS["structural_identity"]
    for w in pts:
        sol = G.classify_phase(metric, complex(w), m)
        if sol.note:
            continue
        if sol.phase == G.NONHOLOMORPHIC:
            res = abs(sol.w * sol.green - (1.0 - m * m * (sol.alpha2 + sol.beta**2)))
        else:
            res = abs(sol.w * sol.green - (1.0 + m * m * sol.b**2))
        worst = max(worst, res, G.unified_check(sol, metric, m))
    ok = worst <= tol
    announce("criterion 11: structural identities <= 1e-8", ok, f"worst {worst:.2e}")
    assert ok
