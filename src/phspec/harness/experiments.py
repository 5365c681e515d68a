"""The experiments: each one samples, compares against predictions, and
emits CSV data plus a ComparisonReport."""

from __future__ import annotations

import json
import os

import numpy as np

from .. import _blas
from .. import ensemble as ens
from .. import gapsolve
from .. import hermcheck
from .. import metric as metric_mod
from .. import spectral
from .. import theory
from ..metric import Signature
from . import io
from .config import RunConfig
from .report import ComparisonReport, Stopwatch
from .sampling import map_spectra
from .thresholds import THRESHOLDS


def _new_report(cfg: RunConfig) -> ComparisonReport:
    return ComparisonReport(experiment=cfg.experiment, config=cfg.to_dict(),
                            config_hash=cfg.content_hash())


def _require_signature(cfg: RunConfig) -> float:
    if not isinstance(cfg.metric, Signature):
        raise ValueError(f"{cfg.experiment} needs a signature metric")
    return cfg.metric.lam


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def run(cfg: RunConfig) -> ComparisonReport:
    fn = {
        "real_density": run_real_density,
        "real_fraction_sweep": run_fraction_sweep,
        "complex_scatter": run_complex_scatter,
        "uniformity": run_uniformity,
        "gap_grid": run_gap_grid,
        "verify": run_verify,
        "semicircle": run_semicircle,
    }[cfg.experiment]
    return fn(cfg)


# ---------------------------------------------------------------------------
# real-axis density
# ---------------------------------------------------------------------------

def run_real_density(cfg: RunConfig) -> ComparisonReport:
    """KS comparison of the real-eigenvalue distribution with its closed form."""
    lam = _require_signature(cfg)
    rep = _new_report(cfg)
    with Stopwatch() as sw:
        samples, skipped = map_spectra(cfg.metric, cfg.n, cfg.m, cfg.seed,
                                       cfg.samples, cfg.threads)
        rep.skip_counts["eigensolve"] = skipped
        reals = np.concatenate([s.real_eigs for s in samples])
        frac_mean, frac_err = spectral.real_fraction(samples)
        rep.metrics["real_fraction_mean"] = frac_mean
        rep.metrics["real_fraction_err"] = frac_err

        bound = abs(cfg.n - 2 * cfg.metric.k)
        ok_bound = all(len(s.real_eigs) >= bound for s in samples)
        rep.add_check("real_count_lower_bound", ok_bound, bound)

        if lam != 0.5:
            x0 = theory.band_edge(lam, cfg.m)
            cdf = theory.real_band_cdf(lam, cfg.m)
            ks = spectral.ks_distance(reals, cdf)
            rep.add_check("ks_real_density", ks <= THRESHOLDS["real_density_ks"], ks)
            span = cfg.hist_range or (-1.05 * x0, 1.05 * x0)
        else:
            # the prediction is identically zero: no KS, counts only
            rep.metrics["ks_real_density"] = None
            span = cfg.hist_range or (-1.2 / cfg.m, 1.2 / cfg.m)
        hist = spectral.empirical_density_1d(samples, cfg.bins, span)
        io.write_hist1d_csv(_out(cfg, "real_density_hist.csv"), hist)
        xs = np.linspace(span[0], span[1], 801)
        io.write_theory_curve_csv(_out(cfg, "real_density_theory.csv"),
                                  xs, theory.rho_real(xs, lam, cfg.m))
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    return rep


# ---------------------------------------------------------------------------
# real-fraction sweep
# ---------------------------------------------------------------------------

def run_fraction_sweep(cfg: RunConfig) -> ComparisonReport:
    """Mean real-eigenvalue fraction across a list of metric signatures.

    Each requested fraction is snapped to a realizable k/n; the snap is
    recorded in the report.
    """
    rep = _new_report(cfg)
    rows = []
    with Stopwatch() as sw:
        for lam_req in cfg.lambdas:
            k = round(lam_req * cfg.n)
            lam = k / cfg.n
            metric = Signature(k=k, n=cfg.n)
            samples, skipped = map_spectra(metric, cfg.n, cfg.m, cfg.seed,
                                           cfg.samples, cfg.threads)
            mean, err = spectral.real_fraction(samples)
            th = abs(1.0 - 2.0 * lam)
            rows.append((lam, mean, err, th))
            tag = f"lam={lam:g}"
            rep.metrics[tag] = {"requested": lam_req, "snapped": lam,
                                "fraction": mean, "err": err, "theory": th,
                                "skipped": skipped}
            bound = abs(cfg.n - 2 * k)
            rep.add_check(f"lower_bound[{tag}]",
                          all(len(s.real_eigs) >= bound for s in samples))
            if lam <= 0.4375:   # away from the degenerate point
                rep.add_check(f"fraction_err[{tag}]",
                              abs(mean - th) <= THRESHOLDS["fraction_abs_err"],
                              abs(mean - th))
            else:
                # near lam = 1/2 the theory is only a lower bound at finite n
                rep.add_check(f"fraction_above_theory[{tag}]",
                              mean >= th - 3.0 * err, mean - th)
    io.write_fraction_csv(_out(cfg, "fraction_sweep.csv"), rows)
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    return rep


# ---------------------------------------------------------------------------
# complex scatter and support
# ---------------------------------------------------------------------------

def _distance_to_curve(points: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Pointwise distance to a dense polyline (vertex approximation)."""
    return np.min(np.abs(points[:, None] - curve[None, :]), axis=1)


def run_complex_scatter(cfg: RunConfig) -> ComparisonReport:
    """Scatter data and the fraction of complex outliers beyond the boundary."""
    lam = _require_signature(cfg)
    if lam <= 0.0 or lam >= 1.0:
        raise ValueError("complex_scatter needs an indefinite signature (0 < lam < 1)")
    rep = _new_report(cfg)
    with Stopwatch() as sw:
        samples, skipped = map_spectra(cfg.metric, cfg.n, cfg.m, cfg.seed,
                                       cfg.samples, cfg.threads)
        rep.skip_counts["eigensolve"] = skipped
        eigs = np.concatenate([s.eigs for s in samples])
        is_real = np.concatenate([np.abs(s.eigs.imag) <= s.tol_used for s in samples])
        io.write_scatter_csv(_out(cfg, "scatter.csv"), eigs.real, eigs.imag, is_real)

        pairs = np.concatenate([s.pair_eigs for s in samples])
        upper = pairs  # representatives in the upper half plane
        delta = 4.0 / (cfg.m * np.sqrt(cfg.n))
        curve = theory.boundary_curve(lam, cfg.m, num=2001)
        inside = theory.in_blobs(upper, lam, cfg.m)
        dist = _distance_to_curve(upper, curve)
        outliers = (~inside) & (dist > delta)
        frac = float(outliers.sum() / max(len(upper), 1))
        rep.add_check("outlier_fraction", frac <= THRESHOLDS["outlier_fraction"], frac)

        mirror_ok = all(
            int((s.eigs.imag > s.tol_used).sum()) == int((s.eigs.imag < -s.tol_used).sum())
            for s in samples
        )
        rep.add_check("mirror_counts", mirror_ok)
        th = np.linspace(np.arcsin(theory.sin_theta0(lam)) + 1e-9,
                         np.pi - np.arcsin(theory.sin_theta0(lam)) - 1e-9, 181) \
            if lam != 0.5 else np.linspace(1e-3, np.pi - 1e-3, 181)
        radii = [theory.boundary_radii(t, lam, cfg.m) for t in th]
        io.write_boundary_csv(_out(cfg, "boundary_theory.csv"), th,
                              [r[0] for r in radii], [r[1] for r in radii])
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    return rep


# ---------------------------------------------------------------------------
# uniformity of the pair density
# ---------------------------------------------------------------------------

def run_uniformity(cfg: RunConfig) -> ComparisonReport:
    """Interior-cell density against the uniform value m^2/pi."""
    lam = _require_signature(cfg)
    if lam <= 0.0 or lam >= 1.0:
        raise ValueError("uniformity needs an indefinite signature")
    rep = _new_report(cfg)
    with Stopwatch() as sw:
        samples, skipped = map_spectra(cfg.metric, cfg.n, cfg.m, cfg.seed,
                                       cfg.samples, cfg.threads)
        rep.skip_counts["eigensolve"] = skipped
        total_eigs = sum(s.n for s in samples)
        pairs = np.concatenate([s.pair_eigs for s in samples])
        both = np.concatenate([pairs, np.conj(pairs)])

        nu = 1.0 - abs(1.0 - 2.0 * lam)
        mass = len(both) / total_eigs
        rep.add_check("complex_mass",
                      abs(mass - nu) <= THRESHOLDS["complex_mass_abs_err"],
                      {"mass": mass, "nu": nu})

        upper_mass = len(pairs) / total_eigs
        rep.metrics["blob_mass_asymmetry"] = abs(2 * upper_mass - mass)

        margin = 3.0 / (cfg.m * np.sqrt(cfg.n))
        target = max(THRESHOLDS["uniformity_min_expected"],
                     min(4000.0, len(both) / 40.0))
        density = cfg.m**2 / np.pi
        cell = np.sqrt(target / (density * total_eigs))
        extent = 1.2 / cfg.m
        ncell = max(2, int(np.floor(2 * extent / cell)))
        hist = spectral.empirical_density_2d(
            samples, (ncell, ncell), (-extent, extent), (-extent, extent))
        rep.metrics["cells_per_axis"] = ncell

        curve = theory.boundary_curve(lam, cfg.m, num=2001)
        curve_full = np.concatenate([curve, np.conj(curve)])
        xc = 0.5 * (hist.x_edges[:-1] + hist.x_edges[1:])
        yc = 0.5 * (hist.y_edges[:-1] + hist.y_edges[1:])
        expected = density * hist.cell_area * total_eigs
        worst = 0.0
        used = 0
        for i, x in enumerate(xc):
            for j, y in enumerate(yc):
                half = 0.5 * (hist.x_edges[1] - hist.x_edges[0])
                corners = np.array([complex(x + sx * half, y + sy * half)
                                    for sx in (-1, 1) for sy in (-1, 1)] + [complex(x, y)])
                if not np.all(theory.in_blobs(corners, lam, cfg.m)):
                    continue
                if np.min(_distance_to_curve(corners, curve_full)) < margin:
                    continue
                if expected < THRESHOLDS["uniformity_min_expected"]:
                    continue
                used += 1
                worst = max(worst, abs(hist.density[i, j] / density - 1.0))
        if used == 0:
            raise RuntimeError("no interior cells left after coarsening; "
                               "increase samples or reduce the margin")
        rep.metrics["interior_cells"] = used
        rep.metrics["expected_per_cell"] = expected
        rep.add_check("uniformity_max_rel_dev",
                      worst <= THRESHOLDS["uniformity_max_rel_dev"], worst)
        io.write_hist2d_csv(_out(cfg, "pair_density.csv"), hist)
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    return rep


# ---------------------------------------------------------------------------
# gap-equation grid
# ---------------------------------------------------------------------------

def run_gap_grid(cfg: RunConfig) -> ComparisonReport:
    """Classify a w-grid with the gap solver; closed-form audit for signatures."""
    rep = _new_report(cfg)
    m = cfg.m
    extent = cfg.grid_extent if cfg.grid_extent is not None else 1.2 / m
    npts = cfg.grid_points
    xs = np.linspace(-extent, extent, npts)
    ys = np.linspace(-extent, extent, npts)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = (X + 1j * Y).ravel()
    is_sig = isinstance(cfg.metric, Signature)
    lam = cfg.metric.lam if is_sig else None
    with Stopwatch() as sw:
        paths_fn = (lambda ws: theory.continuation_paths(ws, lam, m)) if is_sig else None
        sols = gapsolve.classify_grid(cfg.metric, W, m, paths_fn=paths_fn)
        unresolved = sum(1 for s in sols if s is None)
        rep.add_check("unresolved_fraction",
                      unresolved / len(W) <= THRESHOLDS["unresolved_fraction"],
                      unresolved / len(W))
        io.write_gap_grid_csv(_out(cfg, "gap_grid.csv"), [s for s in sols if s is not None])

        res_max = max(s.residual for s in sols if s is not None)
        rep.add_check("solver_residual", res_max <= THRESHOLDS["solver_residual"], res_max)

        # structural identities at every solved point, unified form sampled
        worst_structural = 0.0
        worst_unified = 0.0
        for idx, s in enumerate(sols):
            if s is None or s.note:
                continue
            if s.phase == gapsolve.NONHOLOMORPHIC:
                lhs = s.w * s.green - (1.0 - m * m * (s.alpha2 + s.beta**2))
            else:
                lhs = s.w * s.green - (1.0 + m * m * s.b**2)
            worst_structural = max(worst_structural, abs(lhs))
            if idx % 7 == 0:
                worst_unified = max(worst_unified,
                                    gapsolve.unified_check(s, cfg.metric, m))
        rep.add_check("structural_identity",
                      worst_structural <= THRESHOLDS["structural_identity"],
                      worst_structural)
        rep.add_check("unified_invariant",
                      worst_unified <= THRESHOLDS["structural_identity"],
                      worst_unified)

        if is_sig:
            cell_diag = np.sqrt(2.0) * (xs[1] - xs[0])
            curve = theory.boundary_curve(lam, m, num=2001)
            curve_full = np.concatenate([curve, np.conj(curve)]) if len(curve) else curve
            worst_a2 = 0.0
            misclass_far = 0
            for wpt, s in zip(W, sols):
                if s is None:
                    continue
                inside = bool(theory.in_blobs(wpt, lam, m)) if wpt.imag != 0 else False
                if (s.phase == gapsolve.NONHOLOMORPHIC) != inside:
                    d = (np.min(np.abs(curve_full - wpt)) if len(curve_full) else np.inf)
                    if d > cell_diag:
                        misclass_far += 1
                if inside:
                    a2c, _ = theory.alpha_sq(wpt, lam, m)
                    if a2c > 1e-3 / (m * m):   # interior, away from the boundary
                        worst_a2 = max(worst_a2, abs(s.alpha2 - a2c))
            rep.add_check("alpha2_vs_closed_form",
                          worst_a2 <= THRESHOLDS["gap_alpha2_abs"], worst_a2)
            rep.add_check("classification_boundary_band", misclass_far == 0, misclass_far)

            worst_bd = 0.0
            if 0.0 < lam < 1.0:
                for th in (np.pi / 2, np.pi / 3, 2 * np.pi / 3):
                    radii = theory.boundary_radii(th, lam, m)
                    if radii is None:
                        continue
                    found = gapsolve.phase_boundary(cfg.metric, [th], m, tol=1e-9)[0][1]
                    for r_closed in radii:
                        worst_bd = max(worst_bd,
                                       min(abs(r_closed - r) for r in found)
                                       if found else np.inf)
                rep.add_check("boundary_bisection",
                              worst_bd <= THRESHOLDS["boundary_abs"], worst_bd)
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    return rep


# ---------------------------------------------------------------------------
# finite-N verification suite
# ---------------------------------------------------------------------------

def run_verify(cfg: RunConfig) -> ComparisonReport:
    """Exact finite-N identities at small N plus the averaged gap equations."""
    rep = _new_report(cfg)
    tolerances = {}

    def check(name, value, tol):
        tolerances[name] = tol
        rep.add_check(name, value <= tol, value)

    # thousands of small dense problems: one BLAS thread keeps them steady
    with _blas.single_thread(), Stopwatch() as sw:
        n_small = 8
        metric_small = Signature(k=2, n=n_small)
        worst = {"gamma": 0.0, "block": 0.0, "trace_pair": 0.0, "half_trace": 0.0,
                 "sym_neg": 0.0, "sym_conj": 0.0, "square": 0.0,
                 "diag_imag": 0.0, "equal_sums": 0.0, "inter_44_11": 0.0,
                 "inter_33_22": 0.0, "adjoint": 0.0}
        z_points = (0.3 + 0.4j, -0.7 + 0.2j, 1.1 - 0.6j, 0.05 + 1.0j, -0.4 - 0.9j)
        num_draws = min(cfg.samples, 100)
        for i in range(num_draws):
            a = ens.sample_gue(n_small, cfg.m, ens.mix_seed(cfg.seed, i))
            dm = hermcheck.build_doubled(a, metric_small)
            worst["gamma"] = max(worst["gamma"], hermcheck.gamma_anticommutator_norm(dm))
            sym = hermcheck.check_spectrum_symmetry(a, metric_small)
            worst["sym_neg"] = max(worst["sym_neg"], sym["negation"])
            worst["sym_conj"] = max(worst["sym_conj"], sym["conjugation"])
            worst["square"] = max(worst["square"], sym["square_vs_phi"])
            for z in z_points:
                res = hermcheck.check_block_resolvent(a, metric_small, z)
                if res.get("skipped"):
                    rep.skip_counts["near_singular_shift"] = \
                        rep.skip_counts.get("near_singular_shift", 0) + 1
                    continue
                worst["block"] = max(worst["block"], res["block_residual"])
                worst["trace_pair"] = max(worst["trace_pair"], res["trace_pairing_residual"])
                worst["half_trace"] = max(worst["half_trace"], res["half_trace_residual"])
            for s in (0.05, 0.1, 0.5):
                ids = hermcheck.block_trace_identities(a, metric_small, s, z_points[i % 5])
                worst["diag_imag"] = max(worst["diag_imag"], ids["diag_real_part"])
                worst["equal_sums"] = max(worst["equal_sums"], ids["equal_sums"])
                worst["inter_44_11"] = max(worst["inter_44_11"], ids["interrelation_44_11"])
                worst["inter_33_22"] = max(worst["inter_33_22"], ids["interrelation_33_22"])
                worst["adjoint"] = max(worst["adjoint"], ids["adjoint_14_41"])
        for name, value in worst.items():
            check(f"identity[{name}]", value, THRESHOLDS["finite_n_identity"])
        sw.lap("identities")

        # averaged self-consistency at a point inside the pair-support region
        n_avg = 64
        metric_avg = Signature(k=n_avg // 4, n=n_avg)
        cfg_avg = ens.EnsembleConfig(n=n_avg, m=cfg.m, metric=metric_avg,
                                     master_seed=cfg.seed, num_samples=min(cfg.samples, 500))
        w = (0.05 + 0.55j) / cfg.m**2
        gap = hermcheck.averaged_gap_residual(cfg_avg, 0.1, np.sqrt(w), cfg_avg.num_samples)
        rel_tol = THRESHOLDS["averaged_gap_rel"]
        check("avg_a_equals_c", gap.rel_ac, rel_tol)
        check("avg_eq_a", gap.eq_a_residual, rel_tol)
        check("avg_eq_b", gap.eq_b_residual, rel_tol)
        check("avg_eq_c", gap.eq_c_residual, rel_tol)
        check("avg_adjoint_14_41", gap.adjoint_residual, 1e-10)
        check("avg_re11_re44", max(gap.re11_over_mag, gap.re44_over_mag), 1e-10)
        rep.metrics["averaged_gap"] = gap.as_dict()
        sw.lap("averaged_gap")

        mc = hermcheck.resolvent_vs_formula(
            ens.EnsembleConfig(n=128, m=cfg.m, metric=Signature(k=32, n=128),
                               master_seed=cfg.seed + 1, num_samples=min(cfg.samples, 500)),
            z=np.sqrt(3.0 + 0.0j) / cfg.m)
        check("resolvent_mc", mc["rel_deviation"], THRESHOLDS["resolvent_mc_rel"])
        sw.lap("resolvent")
    rep.timings = sw.laps
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    _write_verification_array(cfg, rep, tolerances)
    return rep


def _write_verification_array(cfg: RunConfig, rep: ComparisonReport,
                              tolerances: dict) -> None:
    """Flat check array: {check_name, params, residual, tolerance, pass}."""
    records = []
    for name, ok in sorted(rep.checks.items()):
        val = rep.metrics.get(name)
        records.append({
            "check_name": name,
            "params": {"n": cfg.n, "m": cfg.m, "seed": cfg.seed, "samples": cfg.samples},
            "residual": val if isinstance(val, (int, float)) else None,
            "tolerance": tolerances[name],
            "pass": ok,
        })
    with open(_out(cfg, "verification.json"), "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# hermitian reduction
# ---------------------------------------------------------------------------

def run_semicircle(cfg: RunConfig) -> ComparisonReport:
    """Definite-metric reduction: semicircle law and the closed resolvent."""
    rep = _new_report(cfg)
    with Stopwatch() as sw:
        metric = cfg.metric if isinstance(cfg.metric, Signature) else Signature(0, cfg.n)
        if metric.lam not in (0.0, 1.0):
            raise ValueError("semicircle experiment needs a definite signature (k=0 or k=n)")
        samples, skipped = map_spectra(metric, cfg.n, cfg.m, cfg.seed,
                                       cfg.samples, cfg.threads)
        rep.skip_counts["eigensolve"] = skipped
        reals = np.concatenate([s.real_eigs for s in samples])
        rep.add_check("all_real", all(len(s.pair_eigs) == 0 for s in samples))
        ks = spectral.ks_distance(reals, lambda x: theory.semicircle_cdf(x, cfg.m))
        rep.add_check("ks_semicircle", ks <= THRESHOLDS["semicircle_ks"], ks)

        # identity metric through the generic solver vs the closed form,
        # on a 50-point segment kept clear of the eigenvalue band
        ident = Signature(k=cfg.n, n=cfg.n)
        t = np.linspace(0.0, 1.0, 50)
        ww = ((2.5 + 4.0 * t) + 1j * (-1.0 + 2.0 * t)) / cfg.m
        b, g, res, collided = gapsolve.solve_holomorphic_batch(ident, ww, cfg.m)
        worst = float(np.max(np.abs(g - theory.gue_green(ww, cfg.m))))
        rep.add_check("identity_metric_pointwise",
                      (not collided.any()) and worst <= THRESHOLDS["gue_pointwise"], worst)
        hist = spectral.empirical_density_1d(samples, cfg.bins,
                                             cfg.hist_range or (-2.2 / cfg.m, 2.2 / cfg.m))
        io.write_hist1d_csv(_out(cfg, "semicircle_hist.csv"), hist)
        xs = np.linspace(-2.2 / cfg.m, 2.2 / cfg.m, 801)
        io.write_theory_curve_csv(_out(cfg, "semicircle_theory.csv"),
                                  xs, theory.semicircle_density(xs, cfg.m))
    rep.runtime_seconds = sw.seconds
    rep.write(_out(cfg, "report.json"))
    return rep
