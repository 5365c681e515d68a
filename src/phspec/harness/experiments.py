"""The experiments: each one samples or solves, compares against
predictions, and emits CSV data plus a ComparisonReport.

``@experiment(name)`` registers ``fn(cfg, rep, sw)``, which keeps only the
science: checks and metrics into the report ``rep``, laps on the
``Stopwatch`` ``sw``, and its CSVs.  The name is bound to a runner
``fn(cfg) -> ComparisonReport``, also reached through ``run``, that builds
the report and its provenance, runs ``fn`` under one ``Stopwatch`` on one
BLAS thread, records the laps and the runtime, and writes ``report.json``.
Sampling workers run on one BLAS thread too (``_blas.map_samples``), so
no experiment's bits depend on the thread or core count of the machine.
The runner holds one ``_blas.pool_scope`` around ``fn``: every map of a
run shares one set of workers, started at the run's first map and shut
down before the runner returns.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .. import _blas
from .. import _roots
from .. import ensemble as ens
from .. import gapsolve
from .. import hermcheck
from .. import spectral
from .. import theory
from ..metric import Signature
from . import io
from .config import RunConfig
from .report import ComparisonReport, Stopwatch, provenance
from .sampling import map_spectra
from .thresholds import THRESHOLDS

_RUNNERS: dict = {}   # experiment name -> runner


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def experiment(name: str):
    """Register ``fn(cfg, rep, sw)`` as the experiment ``name``; the
    decorated name is bound to its runner ``fn(cfg) -> ComparisonReport``."""
    def register(fn):
        @functools.wraps(fn)
        def runner(cfg: RunConfig) -> ComparisonReport:
            with _blas.single_thread(), _blas.pool_scope(), Stopwatch() as sw:
                rep = ComparisonReport(experiment=cfg.experiment, config=cfg.to_dict(),
                                       config_hash=cfg.content_hash(),
                                       provenance=provenance(1))
                fn(cfg, rep, sw)
            rep.timings = sw.laps
            rep.runtime_seconds = sw.seconds
            rep.write(_out(cfg, "report.json"))
            return rep

        _RUNNERS[name] = runner
        return runner
    return register


def run(cfg: RunConfig) -> ComparisonReport:
    """Run the experiment that ``cfg`` names."""
    return _RUNNERS[cfg.experiment](cfg)


def _spectra(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch, metric=None):
    """``map_spectra`` over cfg's ensemble, with ``metric`` in place of cfg's
    if given.  Adds the skipped eigensolves to the report, records the
    workers in its provenance and closes the ``sampling`` lap."""
    samples, skipped = map_spectra(cfg.metric if metric is None else metric, cfg.n,
                                   cfg.m, cfg.seed, cfg.samples, cfg.threads)
    rep.skip_counts["eigensolve"] = rep.skip_counts.get("eigensolve", 0) + skipped
    rep.provenance = provenance(_blas.num_workers(cfg.threads, cfg.samples))
    sw.lap("sampling")
    return samples, skipped


# ---------------------------------------------------------------------------
# real-axis density
# ---------------------------------------------------------------------------

@experiment("real_density")
def run_real_density(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """KS comparison of the real-eigenvalue distribution with its closed form."""
    lam = cfg.metric.lam
    samples, _ = _spectra(cfg, rep, sw)
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
    sw.lap("reduce")


# ---------------------------------------------------------------------------
# real-fraction sweep
# ---------------------------------------------------------------------------

@experiment("real_fraction_sweep")
def run_fraction_sweep(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """Mean real-eigenvalue fraction across a list of metric signatures.

    Each requested fraction is snapped to a realizable k/n; the snap is
    recorded in the report.
    """
    rows = []
    for lam_req in cfg.lambdas:
        k = round(lam_req * cfg.n)
        lam = k / cfg.n
        samples, skipped = _spectra(cfg, rep, sw, Signature(k=k, n=cfg.n))
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
        sw.lap("reduce")
    io.write_fraction_csv(_out(cfg, "fraction_sweep.csv"), rows)
    sw.lap("reduce")


# ---------------------------------------------------------------------------
# complex scatter and support
# ---------------------------------------------------------------------------

def _distance_to_curve(points: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Pointwise distance to a dense polyline (vertex approximation); inf
    for an empty curve."""
    return np.min(np.abs(points[:, None] - curve[None, :]), axis=1, initial=np.inf)


def _mirrored_boundary(lam: float, m: float) -> np.ndarray:
    """The upper blob boundary and its mirror image; empty for lam in {0, 1}."""
    curve = theory.boundary_curve(lam, m, num=2001)
    return np.concatenate([curve, np.conj(curve)])


@experiment("complex_scatter")
def run_complex_scatter(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """Scatter data and the fraction of complex outliers beyond the boundary."""
    lam = cfg.metric.lam
    samples, _ = _spectra(cfg, rep, sw)
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
    io.write_boundary_csv(_out(cfg, "boundary_theory.csv"),
                          *theory.boundary_table(lam, cfg.m, 181))
    sw.lap("reduce")


# ---------------------------------------------------------------------------
# uniformity of the pair density
# ---------------------------------------------------------------------------

@experiment("uniformity")
def run_uniformity(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """Interior-cell density against the uniform value m^2/pi."""
    lam = cfg.metric.lam
    samples, _ = _spectra(cfg, rep, sw)
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

    curve_full = _mirrored_boundary(lam, cfg.m)
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
    sw.lap("reduce")


# ---------------------------------------------------------------------------
# gap-equation grid
# ---------------------------------------------------------------------------

def _worst(values: np.ndarray) -> float:
    """Largest of 0 and ``values``; nan when any of them is nan."""
    return float(np.max(values, initial=0.0))


def _audit_gap_grid(rep: ComparisonReport, cfg: RunConfig, sol: gapsolve.GapSolution,
                    index: np.ndarray, spacing: float):
    """Audit the resolved points ``sol`` of a gap grid, at grid positions
    ``index``: solver residual, the structural and unified identities and,
    for signatures, the closed forms."""
    m = cfg.m
    res_max = _worst(sol.residual)
    rep.add_check("solver_residual", res_max <= THRESHOLDS["solver_residual"], res_max)
    # identities where a point was solved where it stands
    plain = sol.note == ""
    worst_structural = _worst(gapsolve.structural_check(sol, m)[plain])
    worst_unified = _worst(gapsolve.unified_check(sol.take(plain & (index % 7 == 0)),
                                                  cfg.metric, m))
    rep.add_check("structural_identity",
                  worst_structural <= THRESHOLDS["structural_identity"], worst_structural)
    rep.add_check("unified_invariant",
                  worst_unified <= THRESHOLDS["structural_identity"], worst_unified)
    if isinstance(cfg.metric, Signature):
        lam = cfg.metric.lam
        inside = (sol.w.imag != 0) & theory.in_blobs(sol.w, lam, m)
        disagree = sol.w[(sol.phase == gapsolve.NONHOLOMORPHIC) != inside]
        dist = _distance_to_curve(disagree, _mirrored_boundary(lam, m))
        misclass_far = int(np.count_nonzero(dist > np.sqrt(2.0) * spacing))
        a2c = theory.alpha_sq(sol.w[inside], lam, m)[0]
        deep = a2c > 1e-3 / (m * m)   # interior, away from the boundary
        worst_a2 = _worst(np.abs(sol.alpha2[inside][deep] - a2c[deep]))
        rep.add_check("alpha2_vs_closed_form",
                      worst_a2 <= THRESHOLDS["gap_alpha2_abs"], worst_a2)
        rep.add_check("classification_boundary_band", misclass_far == 0, misclass_far)


# blob-avoiding continuation paths, the signature grid's paths_fn
PATH_STEPS = 64
START_RADIUS_FACTOR = 100.0   # continuation starts at 100/m


def continuation_paths(w: np.ndarray, lam: float, m: float) -> _roots.Paths:
    """Per-point blob-avoiding paths from the start radius to w, as a record.

    Ray-only where the straight ray stays clear of the blobs; cone ray
    plus circular arc for targets below a blob, launched at half the
    cone's opening angle.  Every point gets PATH_STEPS + 1 ray rows and as
    many arc rows (a constant arc where it needs none), then w itself.
    The ray and arc keep a radius of at least 1e-12 of the start radius.
    """
    theta = np.angle(w)
    s0 = theory.sin_theta0(lam)
    start_r = START_RADIUS_FACTOR / m
    r = np.maximum(np.abs(w), 1e-12 * start_r)   # keep w = 0 off the division

    needs_arc = np.zeros(w.shape, dtype=bool)
    if s0 < 1.0:
        st2 = np.sin(theta) ** 2
        covered = st2 > s0 * s0          # ray direction crosses the blob sector
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(np.maximum(1.0 - (s0 * s0) / np.where(covered, st2, 1.0), 0.0))
        r_minus = np.sqrt((1.0 - disc) / 2.0) / m
        needs_arc = covered & (r < r_minus)

    # launch angle inside the cone, on the same side and half as the target
    half = 0.5 * np.arcsin(s0) if s0 < 1.0 else 0.25 * np.pi
    theta_c = np.where(np.abs(theta) <= np.pi / 2.0, np.sign(theta) * half,
                       np.sign(theta) * (np.pi - half))
    theta_start = np.where(needs_arc, theta_c, theta)
    return _roots.Paths(w, r, start_r, theta_start, theta, ray=PATH_STEPS + 1,
                        arc=PATH_STEPS + 1)


@experiment("gap_grid")
def run_gap_grid(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """Classify a w-grid with the gap solver; CSV and audit (closed forms for
    signatures) of its resolved points.  ``timings``: classify, io, audit, boundary."""
    m = cfg.m
    extent = cfg.grid_extent if cfg.grid_extent is not None else 1.2 / m
    xs = np.linspace(-extent, extent, cfg.grid_points)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = (X + 1j * Y).ravel()
    is_sig = isinstance(cfg.metric, Signature)
    lam = cfg.metric.lam if is_sig else None
    paths_fn = (lambda ws: continuation_paths(ws, lam, m)) if is_sig else None
    sol = gapsolve.classify_grid(cfg.metric, W, m, paths_fn=paths_fn)
    sw.lap("classify")
    resolved = np.flatnonzero(sol.phase != gapsolve.UNRESOLVED)
    unresolved = len(W) - len(resolved)
    rep.add_check("unresolved_fraction",
                  unresolved / len(W) <= THRESHOLDS["unresolved_fraction"],
                  unresolved / len(W))
    solved = sol.take(resolved)
    io.write_gap_grid_csv(_out(cfg, "gap_grid.csv"), solved)
    sw.lap("io")

    if len(resolved):
        _audit_gap_grid(rep, cfg, solved, resolved, xs[1] - xs[0])
    sw.lap("audit")

    if is_sig and 0.0 < lam < 1.0:
        worst_bd = 0.0
        rays = [th for th in (np.pi / 2, np.pi / 3, 2 * np.pi / 3)
                if theory.boundary_radii(th, lam, m) is not None]
        # one lockstep scan; each ray's brackets bisect on their own
        for th, found in gapsolve.phase_boundary(cfg.metric, rays, m):
            for r_closed in theory.boundary_radii(th, lam, m):
                worst_bd = max(worst_bd,
                               min(abs(r_closed - r) for r in found)
                               if found else np.inf)
        rep.add_check("boundary_bisection",
                      worst_bd <= THRESHOLDS["boundary_abs"], worst_bd)
    sw.lap("boundary")


# ---------------------------------------------------------------------------
# finite-N verification suite
# ---------------------------------------------------------------------------

_N_SMALL = 8
_METRIC_SMALL = Signature(k=2, n=_N_SMALL)
_Z_POINTS = (0.3 + 0.4j, -0.7 + 0.2j, 1.1 - 0.6j, 0.05 + 1.0j, -0.4 - 0.9j)
# identity in the report -> the hermcheck residual it reads
_IDENTITIES = dict(gamma="gamma", block="block_residual", trace_pair="trace_pairing_residual",
                   half_trace="half_trace_residual", sym_neg="negation", sym_conj="conjugation",
                   square="square_vs_phi", diag_imag="diag_real_part", equal_sums="equal_sums",
                   inter_44_11="interrelation_44_11", inter_33_22="interrelation_33_22",
                   adjoint="adjoint_14_41")


def _identity_stage(seed: int, m: float, count: int) -> tuple[dict, int]:
    """Worst residual of each exact identity over draws 0..count-1 at n = 8,
    and the number of near-singular shifts skipped.  Each check takes the
    draws as one stack: the block resolvent once per shift z, the block
    traces once per s, with draw i at ``_Z_POINTS[i % 5]``."""
    a = np.stack([ens.sample_gue(_N_SMALL, m, ens.mix_seed(seed, i)) for i in range(count)])
    shifts = [hermcheck.check_block_resolvent(a, _METRIC_SMALL, z) for z in _Z_POINTS]
    z_rows = np.array(_Z_POINTS)[np.arange(count) % len(_Z_POINTS)]
    h = hermcheck.build_doubled(a, _METRIC_SMALL)
    found = [{"gamma": hermcheck.gamma_anticommutator_norm(h)},
             hermcheck.check_spectrum_symmetry(a, _METRIC_SMALL)]
    found += [{key: value[~res["skipped"]] for key, value in res.items()} for res in shifts]
    found += [hermcheck.block_trace_identities(a, _METRIC_SMALL, s, z_rows)
              for s in (0.05, 0.1, 0.5)]
    worst = {name: _worst(np.concatenate([res[key] for res in found if key in res]))
             for name, key in _IDENTITIES.items()}
    return worst, sum(int(np.count_nonzero(res["skipped"])) for res in shifts)


@experiment("verify")
def run_verify(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """Exact finite-N identities at small N plus the averaged gap equations.

    The identities run in this process (``_identity_stage``); the averaged
    stages map their draws over the run's ``cfg.threads`` workers and reduce
    them in draw order, so every residual is bit-identical for any ``threads``.
    """
    tolerances = {}

    def check(name, value, tol):
        tolerances[name] = tol
        rep.add_check(name, value <= tol, value)

    num_draws, num_avg = min(cfg.samples, 100), min(cfg.samples, 500)
    rep.provenance = provenance(_blas.num_workers(cfg.threads, num_avg))
    worst, skipped = _identity_stage(cfg.seed, cfg.m, num_draws)
    if skipped:
        rep.skip_counts["near_singular_shift"] = skipped
    for name, value in worst.items():
        check(f"identity[{name}]", value, THRESHOLDS["finite_n_identity"])
    sw.lap("identities")

    # averaged self-consistency at a point inside the pair-support region
    cfg_avg = ens.EnsembleConfig(n=64, m=cfg.m, metric=Signature(k=16, n=64),
                                 master_seed=cfg.seed, num_samples=num_avg)
    gap = hermcheck.averaged_gap_residual(cfg_avg, 0.1, np.sqrt((0.05 + 0.55j) / cfg.m**2),
                                          threads=cfg.threads)
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
                           master_seed=cfg.seed + 1, num_samples=num_avg),
        z=np.sqrt(3.0 + 0.0j) / cfg.m, threads=cfg.threads)
    check("resolvent_mc", mc["rel_deviation"], THRESHOLDS["resolvent_mc_rel"])
    _write_verification_array(cfg, rep, tolerances)
    sw.lap("resolvent")   # with the write, as other runs' last laps hold theirs


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

@experiment("semicircle")
def run_semicircle(cfg: RunConfig, rep: ComparisonReport, sw: Stopwatch) -> None:
    """Definite-metric reduction: semicircle law and the closed resolvent."""
    # RunConfig refuses indefinite signatures; other metrics stand in for k = 0
    metric = cfg.metric if isinstance(cfg.metric, Signature) else Signature(0, cfg.n)
    samples, _ = _spectra(cfg, rep, sw, metric)
    reals = np.concatenate([s.real_eigs for s in samples])
    rep.add_check("all_real", all(len(s.pair_eigs) == 0 for s in samples))
    ks = spectral.ks_distance(reals, lambda x: theory.semicircle_cdf(x, cfg.m))
    rep.add_check("ks_semicircle", ks <= THRESHOLDS["semicircle_ks"], ks)
    hist = spectral.empirical_density_1d(samples, cfg.bins,
                                         cfg.hist_range or (-2.2 / cfg.m, 2.2 / cfg.m))
    io.write_hist1d_csv(_out(cfg, "semicircle_hist.csv"), hist)
    xs = np.linspace(-2.2 / cfg.m, 2.2 / cfg.m, 801)
    io.write_theory_curve_csv(_out(cfg, "semicircle_theory.csv"),
                              xs, theory.semicircle_density(xs, cfg.m))
    sw.lap("reduce")

    # identity metric through the generic solver vs the closed form,
    # on a 50-point segment kept clear of the eigenvalue band
    ident = Signature(k=cfg.n, n=cfg.n)
    t = np.linspace(0.0, 1.0, 50)
    ww = ((2.5 + 4.0 * t) + 1j * (-1.0 + 2.0 * t)) / cfg.m
    b, g, res, collided = gapsolve.solve_holomorphic_batch(ident, ww, cfg.m)
    worst = float(np.max(np.abs(g - theory.gue_green(ww, cfg.m))))
    rep.add_check("identity_metric_pointwise",
                  (not collided.any()) and worst <= THRESHOLDS["gue_pointwise"], worst)
    sw.lap("identity_metric")
