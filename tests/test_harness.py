import json
import os

import numpy as np
import pytest

from phspec import _blas, cli
from phspec import metric as M
from phspec.harness import config as C
from phspec.harness import experiments as X
from phspec.harness import io
from phspec.harness.sampling import map_spectra


def make_cfg(tmp_path, **kw):
    base = {
        "experiment": "real_density",
        "metric": {"type": "signature", "k": 8, "n": 32},
        "n": 32, "m": 1.0, "seed": 11, "samples": 20,
        "out_dir": str(tmp_path / "out"),
    }
    base.update(kw)
    return C.from_dict(base)


class TestConfig:
    def test_roundtrip_and_hash_stability(self, tmp_path):
        cfg = make_cfg(tmp_path)
        again = C.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.content_hash() == cfg.content_hash()
        assert cfg.content_hash() != make_cfg(tmp_path, seed=12).content_hash()

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

    def test_sweep_needs_lambdas(self, tmp_path):
        with pytest.raises(ValueError):
            make_cfg(tmp_path, experiment="real_fraction_sweep")


class TestSampling:
    def test_threads_reduction_identical(self, tmp_path):
        met = M.Signature(k=8, n=32)
        s1, k1 = map_spectra(met, 32, 1.0, 5, 8, threads=1)
        s2, k2 = map_spectra(met, 32, 1.0, 5, 8, threads=2)
        assert k1 == k2 == 0
        for a, b in zip(s1, s2):
            assert np.array_equal(a.eigs, b.eigs)
            assert np.array_equal(a.real_eigs, b.real_eigs)


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
        io.write_csv(p, ["a", "b"], [(1.0 / 3.0, 2), (0.1, -3)])
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

    def test_gap_grid_small_signature(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="gap_grid", grid_points=21)
        rep = X.run_gap_grid(cfg)
        assert rep.passed, rep.checks

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

    def test_verify_records_tolerances_and_timings(self, tmp_path):
        cfg = make_cfg(tmp_path, experiment="verify", samples=4)
        rep = X.run_verify(cfg)
        records = json.loads((tmp_path / "out" / "verification.json").read_text())
        tol = {r["check_name"]: r["tolerance"] for r in records}
        assert tol["avg_adjoint_14_41"] == 1e-10
        assert tol["avg_re11_re44"] == 1e-10
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(data["timings"]) == {"identities", "averaged_gap", "resolvent"}
        total = sum(data["timings"].values())
        assert abs(total - rep.runtime_seconds) <= 0.05 * rep.runtime_seconds


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

    def test_theory_command(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        assert cli.main(["theory", "--config", str(p)]) == 0
        data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert data["lambda"] == 0.25
        assert (tmp_path / "out" / "rho_real.csv").exists()
        assert (tmp_path / "out" / "boundary.csv").exists()

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
