import concurrent.futures
import contextlib
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from phspec import _blas, _roots, cli, spectral
from phspec import ensemble as E
from phspec import gapsolve as G
from phspec import metric as M
from phspec import theory as T
from phspec.harness import config as C
from phspec.harness import experiments as X
from phspec.harness import io
from phspec.harness.sampling import map_spectra
from phspec.harness.thresholds import THRESHOLDS

SIGNED_ATOMS_12 = [(-1.0 if j % 4 == 0 else 1.0) * v
                   for j, v in enumerate(np.linspace(0.5, 1.5, 12).tolist())]


def make_cfg(tmp_path, **kw):
    base = {
        "experiment": "real_density",
        "metric": {"type": "signature", "k": 8, "n": 32},
        "n": 32, "m": 1.0, "seed": 11, "samples": 20,
        "out_dir": str(tmp_path / "out"),
    }
    base.update(kw)
    return C.from_dict(base)


def _scalar_unified(sol, metric, m):
    """Residual of the unified identity at one solution, in scalar arithmetic."""
    if sol.phase == G.NONHOLOMORPHIC:
        ab2 = -(sol.alpha2 + sol.beta**2)
    else:
        ab2 = complex(sol.b) ** 2
    rhs = 1.0 + m * m * ab2
    if not np.isfinite(sol.zeta):
        zg = 1.0 + 0.0j
    else:
        zg = sol.zeta * M.green_b(metric, sol.zeta)
    return float(max(abs(zg - rhs), abs(sol.w * sol.green - zg)))


def _points(sol):
    """The entries of a GapSolution of arrays as one-point GapSolutions of
    Python numbers, the operands of scalar reference arithmetic."""
    return [G.GapSolution(*row) for row in zip(*(v.tolist() for v in vars(sol).values()))]


def _scalar_audit(metric, m, w, sols, step):
    """The checks of ``run_gap_grid``'s audit as a loop over the grid points
    in scalar arithmetic: name -> (passed, value)."""
    out = {}
    res_max = max(s.residual for s in sols if s.phase != G.UNRESOLVED)
    out["solver_residual"] = (res_max <= THRESHOLDS["solver_residual"], res_max)
    worst_structural = 0.0
    worst_unified = 0.0
    for idx, s in enumerate(sols):
        if s.phase == G.UNRESOLVED or s.note:
            continue
        if s.phase == G.NONHOLOMORPHIC:
            lhs = s.w * s.green - (1.0 - m * m * (s.alpha2 + s.beta**2))
        else:
            lhs = s.w * s.green - (1.0 + m * m * s.b**2)
        worst_structural = max(worst_structural, abs(lhs))
        if idx % 7 == 0:
            worst_unified = max(worst_unified, _scalar_unified(s, metric, m))
    tol = THRESHOLDS["structural_identity"]
    out["structural_identity"] = (worst_structural <= tol, worst_structural)
    out["unified_invariant"] = (worst_unified <= tol, worst_unified)
    if isinstance(metric, M.Signature):
        lam = metric.lam
        cell_diag = np.sqrt(2.0) * step
        curve = T.boundary_curve(lam, m, num=2001)
        curve_full = np.concatenate([curve, np.conj(curve)]) if len(curve) else curve
        worst_a2 = 0.0
        misclass_far = 0
        for wpt, s in zip(w, sols):
            if s.phase == G.UNRESOLVED:
                continue
            inside = bool(T.in_blobs(wpt, lam, m)) if wpt.imag != 0 else False
            if (s.phase == G.NONHOLOMORPHIC) != inside:
                d = (np.min(np.abs(curve_full - wpt)) if len(curve_full) else np.inf)
                if d > cell_diag:
                    misclass_far += 1
            if inside:
                a2c, _ = T.alpha_sq(wpt, lam, m)
                if a2c > 1e-3 / (m * m):
                    worst_a2 = max(worst_a2, abs(s.alpha2 - a2c))
        out["alpha2_vs_closed_form"] = (worst_a2 <= THRESHOLDS["gap_alpha2_abs"], worst_a2)
        out["classification_boundary_band"] = (misclass_far == 0, misclass_far)
    return out


@contextlib.contextmanager
def parent_blas_threads(count):
    """Run the block with this process's OpenBLAS on ``count`` threads."""
    controls = _blas._thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)


class TestConfig:
    def test_roundtrip_and_hash_stability(self, tmp_path):
        cfg = make_cfg(tmp_path)
        again = C.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.content_hash() == cfg.content_hash()
        assert cfg.content_hash() != make_cfg(tmp_path, seed=12).content_hash()

    def test_hash_ignores_threads_and_out_dir(self, tmp_path):
        cfg = make_cfg(tmp_path)
        other = make_cfg(tmp_path, threads=3, out_dir=str(tmp_path / "elsewhere"))
        assert other.content_hash() == cfg.content_hash()
        assert other.to_dict()["threads"] == 3 and cfg.to_dict()["threads"] is None

    def test_load_with_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(make_cfg(tmp_path).to_dict()))
        cfg = C.load(p, samples=5, seed=99)
        assert cfg.samples == 5 and cfg.seed == 99

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError):
            make_cfg(tmp_path, experiment="nope")

    def test_unrealizable_metric(self, tmp_path):
        with pytest.raises(Exception):
            make_cfg(tmp_path, metric={"type": "signature", "k": 2, "n": 8}, n=32)

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_grid_needs_two_points_per_axis(self, tmp_path, points):
        with pytest.raises(C.ConfigError):
            make_cfg(tmp_path, experiment="gap_grid", grid_points=points)
        assert make_cfg(tmp_path, experiment="gap_grid", grid_points=2).grid_points == 2

    def test_sweep_needs_lambdas(self, tmp_path):
        with pytest.raises(ValueError):
            make_cfg(tmp_path, experiment="real_fraction_sweep")

    @pytest.mark.parametrize("experiment,metric", [
        ("real_density", {"type": "diagonal", "values": [1.0, -1.0] * 16}),
        ("complex_scatter", {"type": "flat", "mu1": 1.0, "lminus": 0.5,
                             "mu2": 1.0, "lplus": 0.5}),
        ("uniformity", {"type": "diagonal", "values": [1.0, -1.0] * 16}),
        ("complex_scatter", {"type": "signature", "k": 0, "n": 32}),
        ("uniformity", {"type": "signature", "k": 32, "n": 32}),
        ("semicircle", {"type": "signature", "k": 8, "n": 32}),
    ])
    def test_experiment_metric_mismatch(self, tmp_path, experiment, metric):
        # refused while parsing, before any sampling starts; still a ValueError
        with pytest.raises(C.ConfigError):
            make_cfg(tmp_path, experiment=experiment, metric=metric)
        assert issubclass(C.ConfigError, ValueError)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,metric", [
        ("semicircle", {"type": "signature", "k": 32, "n": 32}),
        ("semicircle", {"type": "diagonal", "values": [1.0, -1.0] * 16}),
        ("verify", {"type": "diagonal", "values": [1.0, -1.0] * 16}),
        ("uniformity", {"type": "signature", "k": 8, "n": 32}),
    ])
    def test_experiment_metric_fits(self, tmp_path, experiment, metric):
        assert make_cfg(tmp_path, experiment=experiment, metric=metric).metric is not None

    @pytest.mark.parametrize("overrides,error", [
        ({"metric": {"type": "diagonal", "values": [1.0, -1.0] * 15 + [1.0, np.nan]}},
         M.MetricError),
        ({"metric": {"type": "diagonal", "values": [1.0, -1.0] * 15 + [1.0, np.inf]}},
         M.MetricError),
        ({"metric": {"type": "diagonal", "values": [1.0, -1.0] * 15 + [1.0, -np.inf]}},
         M.MetricError),
        ({"metric": {"type": "flat", "mu1": np.inf, "lminus": 0.5, "mu2": 1.0, "lplus": 0.5}},
         M.MetricError),
        ({"m": np.inf}, C.ConfigError),
        ({"grid_extent": np.nan}, C.ConfigError),
    ], ids=["diagonal_nan", "diagonal_inf", "diagonal_minus_inf", "flat_mu1_inf", "m_inf",
            "grid_extent_nan"])
    def test_non_finite_values_fail_typed_when_parsed(self, tmp_path, overrides, error):
        # refused by from_dict, before the grid solve could fill a report with nan
        with pytest.raises(error):
            make_cfg(tmp_path, experiment="gap_grid", **overrides)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"experiment": "real_density", "hist_range": [np.nan, 1.0]},
        {"experiment": "real_density", "hist_range": [-1.0, np.inf]},
        {"experiment": "real_density", "hist_range": [1.0, 1.0]},
        {"experiment": "real_density", "hist_range": [1.0, -1.0]},
        {"experiment": "real_fraction_sweep", "lambdas": [np.nan]},
        {"experiment": "real_fraction_sweep", "lambdas": [0.25, np.inf]},
        {"experiment": "real_fraction_sweep", "lambdas": [1.5]},
        {"experiment": "real_fraction_sweep", "lambdas": [-0.25]},
    ], ids=["hist_range_nan", "hist_range_inf", "hist_range_empty", "hist_range_reversed",
            "lambdas_nan", "lambdas_inf", "lambdas_above_one", "lambdas_below_zero"])
    def test_bad_ranges_fail_typed_when_parsed(self, tmp_path, overrides):
        # refused by from_dict, before any sample is drawn
        with pytest.raises(C.ConfigError):
            make_cfg(tmp_path, **overrides)
        assert not (tmp_path / "out").exists()


class TestSampling:
    def test_threads_reduction_identical(self, tmp_path):
        # from n ~ 128 on, eigenvalue bits depend on the BLAS thread count;
        # every eigensolve runs on one thread, whatever the parent's count
        for n, k, num in ((32, 8, 8), (256, 64, 4)):
            met = M.Signature(k=k, n=n)
            cfg = E.EnsembleConfig(n=n, m=1.0, metric=met, master_seed=5, num_samples=num)
            with _blas.single_thread():
                ref = [spectral.eigenvalues(E.draw_sample(cfg, i).phi) for i in range(num)]
            with parent_blas_threads(2):
                runs = [map_spectra(met, n, 1.0, 5, num, threads=t) for t in (1, 2, None)]
            for samples, skipped in runs:
                assert skipped == 0
                for i, s in enumerate(samples):
                    assert s.sample_index == i
                    assert np.array_equal(s.eigs, ref[i])
                    assert np.array_equal(s.real_eigs, runs[0][0][i].real_eigs)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_parent_blas_threads_restored(self, threads):
        if _blas.num_threads() is None:
            pytest.skip("numpy is not linked to a bundled OpenBLAS")
        with parent_blas_threads(2):
            map_spectra(M.Signature(k=8, n=32), 32, 1.0, 5, 4, threads=threads)
            assert _blas.num_threads() == 2


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        cfg1 = make_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg2 = make_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        X.run_real_density(cfg1)
        X.run_real_density(cfg2)
        for name in ("real_density_hist.csv", "real_density_theory.csv"):
            b1 = (tmp_path / "a" / name).read_bytes()
            b2 = (tmp_path / "b" / name).read_bytes()
            assert b1 == b2

    def test_header_and_roundtrip(self, tmp_path):
        p = tmp_path / "x.csv"
        io.write_csv(p, ["a", "b"], [(1.0 / 3.0, 0.1), (2, -3)])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[0]) == 1.0 / 3.0   # shortest round trip


class TestExperiments:
    def test_real_density_small(self, tmp_path):
        cfg = make_cfg(tmp_path, samples=30)
        rep = X.run_real_density(cfg)
        assert rep.checks["real_count_lower_bound"]
        assert "ks_real_density" in rep.checks
        assert (tmp_path / "out" / "report.json").exists()
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["config_hash"] == cfg.content_hash()
        assert data["config"] == cfg.to_dict()

    def test_real_density_half_reports_counts_only(self, tmp_path):
        cfg = make_cfg(tmp_path, metric={"type": "signature", "k": 16, "n": 32})
        rep = X.run_real_density(cfg)
        assert rep.metrics["ks_real_density"] is None
        assert "ks_real_density" not in rep.checks

    def test_fraction_sweep_small(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="real_fraction_sweep",
                       lambdas=[0.25], samples=40)
        rep = X.run_fraction_sweep(cfg)
        assert rep.checks["lower_bound[lam=0.25]"]
        csv = (tmp_path / "out" / "fraction_sweep.csv").read_text().splitlines()
        assert csv[0] == "lambda,fraction,err,theory"
        assert len(csv) == 2

    def test_gap_grid_small_flat(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="gap_grid",
                       metric={"type": "flat", "mu1": 2.0, "lminus": 1.0,
                               "mu2": 2.0, "lplus": 1.0},
                       n=16, grid_points=11)
        rep = X.run_gap_grid(cfg)
        assert rep.checks["solver_residual"]
        assert rep.checks["unresolved_fraction"]
        lines = (tmp_path / "out" / "gap_grid.csv").read_text().splitlines()
        assert lines[0] == "x,y,phase,alpha2,re_b,im_b,re_G,im_G,residual"
        assert len(lines) == 11 * 11 + 1

    def test_gap_grid_asymmetric_flat(self, tmp_path):
        # the continuum metric's real-axis points sit on the cut of b and
        # must come back as flagged side limits, not as a wrong branch
        cfg = make_cfg(tmp_path, experiment="gap_grid",
                       metric={"type": "flat", "mu1": 1.0, "lminus": 0.5,
                               "mu2": 1.5, "lplus": 1.0},
                       n=64, grid_points=41)
        rep = X.run_gap_grid(cfg)
        assert rep.passed, rep.checks

    def test_gap_grid_small_signature(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="gap_grid", grid_points=21)
        rep = X.run_gap_grid(cfg)
        assert rep.passed, rep.checks

    @pytest.mark.parametrize("metric,n,points", [
        ({"type": "signature", "k": 8, "n": 32}, 32, 21),
        ({"type": "diagonal", "values": SIGNED_ATOMS_12}, 12, 12),
    ])
    def test_gap_grid_laps_cover_the_run(self, tmp_path, metric, n, points):
        cfg = make_cfg(tmp_path, experiment="gap_grid", metric=metric, n=n, grid_points=points)
        rep = X.run_gap_grid(cfg)
        assert set(rep.timings) == {"classify", "io", "audit", "boundary"}
        assert abs(sum(rep.timings.values()) - rep.runtime_seconds) <= 0.05 * rep.runtime_seconds

    @pytest.mark.parametrize("metric,n,points", [
        ({"type": "signature", "k": 16, "n": 64}, 64, 21),
        ({"type": "diagonal", "values": SIGNED_ATOMS_12}, 12, 12),
        ({"type": "flat", "mu1": 1.0, "lminus": 0.5, "mu2": 1.5, "lplus": 1.0}, 64, 15),
    ])
    def test_gap_grid_audit_matches_scalar_loop(self, tmp_path, monkeypatch, metric, n, points):
        grids = []
        classify = G.classify_grid

        def recorded(metric, w, m, paths_fn=None):
            grids.append((w, classify(metric, w, m, paths_fn=paths_fn)))
            return grids[-1][1]

        monkeypatch.setattr(G, "classify_grid", recorded)
        cfg = make_cfg(tmp_path, experiment="gap_grid", metric=metric, n=n, grid_points=points)
        rep = X.run_gap_grid(cfg)
        (w, sol), = grids
        xs = np.linspace(-1.2, 1.2, points)
        expected = _scalar_audit(cfg.metric, 1.0, w, _points(sol), xs[1] - xs[0])
        assert len(expected) == (5 if isinstance(cfg.metric, M.Signature) else 3)
        for name, (ok, value) in expected.items():
            assert rep.checks[name] == ok, name
            assert repr(rep.metrics[name]) == repr(value), name   # type and bits

    @pytest.mark.parametrize("field,failing", [
        ("residual", {"solver_residual"}),
        ("green", {"structural_identity", "unified_invariant"}),
        ("alpha", {"structural_identity", "unified_invariant", "alpha2_vs_closed_form"}),
    ])
    def test_gap_grid_audit_fails_on_nan(self, tmp_path, monkeypatch, field, failing):
        # one solution past the first, plain, sampled for the unified check
        # and deep inside a blob, with a nan in ``field``
        classify = G.classify_grid

        def with_nan(metric, w, m, paths_fn=None):
            sol = classify(metric, w, m, paths_fn=paths_fn)
            idx = np.flatnonzero((sol.phase != G.UNRESOLVED) & (sol.note == ""))
            deep = max((i for i in idx[1:] if i % 7 == 0), key=lambda i: sol.alpha2[i])
            getattr(sol, field)[deep] = np.nan
            return sol

        monkeypatch.setattr(G, "classify_grid", with_nan)
        cfg = make_cfg(tmp_path, experiment="gap_grid", grid_points=21)
        rep = X.run_gap_grid(cfg)
        assert {name for name, ok in rep.checks.items() if not ok} == failing
        assert all(np.isnan(rep.metrics[name]) for name in failing)

    def test_gap_grid_without_solutions_reports_unresolved(self, tmp_path, monkeypatch):
        # a definite metric has no non-holomorphic points, and every track collides
        monkeypatch.setattr(_roots, "track", lambda mu, c, m, paths, b0: (
            np.asarray(b0, dtype=complex), np.ones(len(paths.w), dtype=bool)))
        cfg = make_cfg(tmp_path, experiment="gap_grid", grid_points=5,
                       metric={"type": "signature", "k": 32, "n": 32})
        rep = X.run_gap_grid(cfg)
        assert not rep.checks["unresolved_fraction"]
        assert rep.metrics["unresolved_fraction"] == 1.0
        out = tmp_path / "out"
        assert (out / "gap_grid.csv").read_text() == "x,y,phase,alpha2,re_b,im_b,re_G,im_G,residual\n"
        assert json.loads((out / "report.json").read_text())["checks"] == rep.checks

    def test_gap_grid_omits_an_unresolved_point(self, tmp_path, monkeypatch):
        # the track to one point of a 5^2 grid collides on both attempts
        xs = np.linspace(-1.2, 1.2, 5)
        target = (xs[:, None] + 1j * xs[None, :]).ravel()[19]     # 0.6 + 1.2i
        track = _roots.track

        def collide_at_target(mu, c, m, paths, b0):
            b, coll = track(mu, c, m, paths, b0)
            return b, coll | (paths.w == target)

        ref = X.run_gap_grid(make_cfg(tmp_path, experiment="gap_grid", grid_points=5,
                                      out_dir=str(tmp_path / "ref")))
        monkeypatch.setattr(_roots, "track", collide_at_target)
        rep = X.run_gap_grid(make_cfg(tmp_path, experiment="gap_grid", grid_points=5))
        lines = (tmp_path / "out" / "gap_grid.csv").read_text().splitlines()
        ref_lines = (tmp_path / "ref" / "gap_grid.csv").read_text().splitlines()
        x, y = float(target.real), float(target.imag)
        assert ref_lines[20].startswith(f"{x!r},{y!r},holomorphic,")
        assert lines == ref_lines[:20] + ref_lines[21:]
        assert rep.metrics["unresolved_fraction"] == 1 / 25
        assert not rep.checks["unresolved_fraction"]
        audit = ("solver_residual", "structural_identity", "unified_invariant",
                 "alpha2_vs_closed_form", "classification_boundary_band")
        for name in audit:
            assert not np.isnan(rep.metrics[name]), name
            assert rep.checks[name] == ref.checks[name], name

    def test_semicircle_small(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="semicircle",
                       metric={"type": "signature", "k": 0, "n": 32}, samples=60)
        rep = X.run_semicircle(cfg)
        assert rep.checks["all_real"]
        assert rep.checks["identity_metric_pointwise"]

    def test_scatter_small(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="complex_scatter", n=64,
                       metric={"type": "signature", "k": 16, "n": 64}, samples=10)
        rep = X.run_complex_scatter(cfg)
        assert rep.checks["mirror_counts"]
        lines = (tmp_path / "out" / "scatter.csv").read_text().splitlines()
        assert lines[0] == "re,im,is_real"
        assert len(lines) == 64 * 10 + 1

    @pytest.mark.parametrize("experiment,extra", [
        ("real_density", {}),
        ("real_fraction_sweep", {"lambdas": [0.25, 0.375]}),
        ("complex_scatter", {"samples": 4}),
        ("uniformity", {"n": 128, "metric": {"type": "signature", "k": 48, "n": 128},
                        "samples": 20}),
        ("semicircle", {"metric": {"type": "signature", "k": 0, "n": 32}}),
        ("gap_grid", {"grid_points": 11}),
    ])
    def test_sampling_timings_and_provenance(self, tmp_path, experiment, extra):
        cfg = make_cfg(tmp_path, experiment=experiment, threads=2, **extra)
        rep = X.run(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        if experiment == "gap_grid":   # solved in this process, no sampling
            assert set(data["timings"]) == {"classify", "io", "audit", "boundary"}
        else:
            assert {"sampling", "reduce"} <= set(data["timings"])
        total = sum(data["timings"].values())
        assert abs(total - rep.runtime_seconds) <= 0.05 * rep.runtime_seconds
        prov = data["provenance"]
        assert prov["workers"] == (1 if experiment == "gap_grid" else 2)
        assert prov["cpu_count"] == os.cpu_count()
        assert prov["numpy"] == np.__version__
        assert prov["blas_threads"] == (None if _blas.num_threads() is None else 1)
        assert set(prov) == {"numpy", "blas", "cpu_count", "workers", "blas_threads"}

    @pytest.mark.parametrize("metric,n,points", [
        ({"type": "diagonal", "values": SIGNED_ATOMS_12}, 12, 12),
        ({"type": "flat", "mu1": 1.0, "lminus": 0.5, "mu2": 1.5, "lplus": 1.0}, 64, 15),
    ])
    def test_gap_grid_bytes_independent_of_parent_blas_threads(
            self, tmp_path, monkeypatch, metric, n, points):
        seen = []
        classify = G.classify_grid

        def recorded(*args, **kwargs):
            seen.append(_blas.num_threads())
            return classify(*args, **kwargs)

        monkeypatch.setattr(G, "classify_grid", recorded)
        grids = []
        for count in (2, 1):
            out = tmp_path / f"t{count}"
            with parent_blas_threads(count):
                X.run_gap_grid(make_cfg(tmp_path, experiment="gap_grid", metric=metric,
                                        n=n, grid_points=points, out_dir=str(out)))
                assert _blas.num_threads() in (count, None)   # restored after the run
            grids.append((out / "gap_grid.csv").read_bytes())
        assert grids[0] == grids[1]
        # the solver itself ran on one BLAS thread both times
        assert seen == [None if _blas.num_threads() is None else 1] * 2

    def test_registry_names_the_config_experiments(self):
        assert sorted(X._RUNNERS) == sorted(C.EXPERIMENTS)
        for name, runner in X._RUNNERS.items():
            assert getattr(X, runner.__name__) is runner, name

    def test_verify_records_tolerances_and_timings(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="verify", samples=4, threads=2)
        rep = X.run_verify(cfg)
        records = json.loads((tmp_path / "out" / "verification.json").read_text())
        tol = {r["check_name"]: r["tolerance"] for r in records}
        assert tol["avg_adjoint_14_41"] == 1e-10
        assert tol["avg_re11_re44"] == 1e-10
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(data["timings"]) == {"identities", "averaged_gap", "resolvent"}
        total = sum(data["timings"].values())
        assert abs(total - rep.runtime_seconds) <= 0.05 * rep.runtime_seconds
        prov = data["provenance"]
        assert prov["workers"] == 2
        assert prov["blas_threads"] == (None if _blas.num_threads() is None else 1)

    def test_verify_independent_of_threads(self, tmp_path):
        reports, arrays = [], []
        with parent_blas_threads(2):
            for threads in (1, 2, None):
                out = tmp_path / f"t{threads}"
                X.run_verify(make_cfg(tmp_path, experiment="verify", samples=12,
                                      threads=threads, out_dir=str(out)))
                arrays.append((out / "verification.json").read_bytes())
                reports.append(json.loads((out / "report.json").read_text()))
        assert arrays[0] == arrays[1] == arrays[2]
        for data in reports[1:]:
            assert data["metrics"] == reports[0]["metrics"]
            assert data["skip_counts"] == reports[0]["skip_counts"]
        assert [data["provenance"]["workers"] for data in reports] == \
            [1, 2, min(os.cpu_count(), 12)]


def test_single_thread_scopes_blas_threads():
    controls = _blas._thread_controls()
    if controls is None:
        pytest.skip("numpy is not linked to a bundled OpenBLAS")
    get, _ = controls
    before = get()
    with pytest.raises(RuntimeError):
        with _blas.single_thread():
            assert get() == 1
            raise RuntimeError
    assert get() == before


class TestPoolScope:
    """One worker pool per run, shut down before ``experiments.run`` returns."""

    @pytest.fixture
    def pools_built(self, monkeypatch):
        built = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        return built

    def test_verify_starts_one_pool_and_leaves_no_worker(self, tmp_path, pools_built):
        X.run(make_cfg(tmp_path, experiment="verify", samples=12, threads=2))
        assert pools_built == [2]          # three maps, one pool
        assert multiprocessing.active_children() == []

    def test_sweep_starts_one_pool(self, tmp_path, pools_built):
        X.run(make_cfg(tmp_path, experiment="real_fraction_sweep", samples=4, threads=2,
                       lambdas=[0.25, 0.375, 0.5]))
        assert pools_built == [2]          # one map per lambda, one pool
        assert multiprocessing.active_children() == []

    def test_a_failing_sample_reaches_the_caller_and_stops_the_run(self, tmp_path,
                                                                   monkeypatch):
        # patched before the run, so the workers forked at its first map see it
        calls = tmp_path / "calls"
        calls.mkdir()
        draw = E.draw_sample

        def failing_draw(config, idx):
            (calls / str(idx)).touch()
            if idx == 3:
                raise ValueError(f"draw {idx}")
            time.sleep(0.02)
            return draw(config, idx)

        monkeypatch.setattr(E, "draw_sample", failing_draw)
        with pytest.raises(ValueError, match="draw 3$"):
            X.run(make_cfg(tmp_path, experiment="verify", samples=64, threads=2))
        assert multiprocessing.active_children() == []
        # the map's 64 draws go out in chunks of two; the chunks still queued
        # behind the failure are cancelled, not run
        assert 4 <= len(list(calls.iterdir())) <= 32

    def test_nested_scopes_share_one_pool(self, pools_built):
        with _blas.pool_scope():
            with _blas.pool_scope():
                assert _blas.map_samples(abs, 4, 2) == [0, 1, 2, 3]
            assert multiprocessing.active_children() != []   # the outer scope holds it
            assert _blas.map_samples(abs, 6, 2) == list(range(6))
        assert pools_built == [2]
        assert multiprocessing.active_children() == []
        assert _blas.map_samples(abs, 4, 2) == [0, 1, 2, 3]   # alone: its own pool
        assert pools_built == [2, 2]
        assert multiprocessing.active_children() == []


class TestCli:
    def _write_cfg(self, tmp_path, **kw):
        cfg = make_cfg(tmp_path, **kw)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        return p

    def test_sample_command(self, tmp_path):
        p = self._write_cfg(tmp_path, samples=3, dump_samples=True)
        assert cli.main(["sample", "--config", str(p)]) == 0
        out = tmp_path / "out"
        assert (out / "eigenvalues.csv").exists()
        assert (out / "phi_000000.bin").exists()

    def test_sample_matches_map_spectra(self, tmp_path):
        # n = 128: large enough for the bits to depend on BLAS threads
        met = {"type": "signature", "k": 32, "n": 128}
        p = self._write_cfg(tmp_path, samples=3, n=128, metric=met)
        with parent_blas_threads(2):
            assert cli.main(["sample", "--config", str(p), "--threads", "2"]) == 0
            samples, _ = map_spectra(M.from_config(met), 128, 1.0, 11, 3, threads=1)
        lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
        assert lines[0] == "sample,re,im"
        rows = [line.split(",") for line in lines[1:]]
        expected = [(str(s.sample_index), v.real, v.imag) for s in samples for v in s.eigs]
        assert [(i, float(re), float(im)) for i, re, im in rows] == expected

    def test_theory_command(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        assert cli.main(["theory", "--config", str(p)]) == 0
        data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert data["lambda"] == 0.25
        assert (tmp_path / "out" / "rho_real.csv").exists()
        assert (tmp_path / "out" / "boundary.csv").exists()

    @pytest.mark.parametrize("k", [0, 32])
    def test_theory_command_on_definite_signature(self, tmp_path, capsys, k):
        # lam in {0, 1}: no blobs, so no boundary rows
        p = self._write_cfg(tmp_path, metric={"type": "signature", "k": k, "n": 32})
        assert cli.main(["theory", "--config", str(p)]) == 0
        data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert data["blob_area"] == 0.0 and data["nu"] == 0.0
        assert (tmp_path / "out" / "boundary.csv").read_text() == "theta,r_minus,r_plus\n"
        assert len((tmp_path / "out" / "rho_real.csv").read_text().splitlines()) == 802

    def test_compare_exit_code(self, tmp_path):
        # gap_grid is deterministic and passes at small scale; KS-style
        # experiments need large N to meet their thresholds
        p = self._write_cfg(tmp_path, experiment="gap_grid", grid_points=15)
        assert cli.main(["compare", "--config", str(p)]) == 0

    def test_compare_failure_exit_code(self, tmp_path):
        # statistical thresholds are not attainable at tiny N: nonzero exit
        p = self._write_cfg(tmp_path, samples=10)
        assert cli.main(["compare", "--config", str(p)]) == 1

    def test_gap_solve_command(self, tmp_path):
        p = self._write_cfg(tmp_path, grid_points=15)
        assert cli.main(["gap-solve", "--config", str(p)]) == 0

    def test_override_flags(self, tmp_path):
        p = self._write_cfg(tmp_path, experiment="gap_grid")
        out2 = str(tmp_path / "bis")
        assert cli.main(["compare", "--config", str(p), "--out-dir", out2,
                         "--seed", "123"]) == 0
        rep = json.loads((tmp_path / "bis" / "report.json").read_text())
        assert rep["config"]["seed"] == 123
        assert rep["config"]["out_dir"] == out2
