"""The benchmark's workloads: phspec experiments driven through plain configs.

A workload is a list of operations per pass.  An operation is one call of
``phspec.harness.experiments.run`` on a config dict, the number of items
it attempts (random matrices drawn, or gap-equation points classified)
and a check of its output made apart from the program (``checks``).
Every pass of a workload attempts the same operations; only the master
seeds of the Monte Carlo workloads change from pass to pass.
"""

from __future__ import annotations

import contextlib
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from phspec import ensemble, spectral
from phspec.harness import config as config_mod
from phspec.harness import experiments
from phspec.metric import Signature

import checks

M = 1.0


def signed_atoms(count: int) -> list[float]:
    """+-linspace(0.5, 1.5, count), negative at every index j with j mod 4 = 0."""
    v = np.linspace(0.5, 1.5, count)
    v[::4] *= -1.0
    return [float(x) for x in v]


ATOMS_12 = signed_atoms(12)
ATOMS_128 = signed_atoms(128)
ATOMS_12_N = 48                     # B_i = ATOMS_12[i mod 12], 4 copies of each


@dataclass
class Op:
    label: str
    config: dict
    items: int
    check: Callable[[object, str], list]   # (report, out_dir) -> failure messages


@dataclass
class OpResult:
    seconds: float
    items: int
    failed: int
    fails: list          # failed checks of an operation that ran
    error: str = ""      # set when the operation raised


def pass_seed(seed: int, p: int) -> int:
    """Master seed of pass p, a function of the benchmark seed only."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# mc_spectra: Monte Carlo real-eigenvalue density, Signature lam = 3/8
# ---------------------------------------------------------------------------

MC_N, MC_K, MC_SAMPLES = 512, 192, 8


def mc_spectra(seed: int, p: int, out: str) -> list[Op]:
    master = pass_seed(seed, p)
    redraw = int(np.random.default_rng([seed, p]).integers(MC_SAMPLES))
    cfg = {"experiment": "real_density",
           "metric": {"type": "signature", "k": MC_K, "n": MC_N},
           "n": MC_N, "m": M, "seed": master, "samples": MC_SAMPLES,
           "out_dir": os.path.join(out, "real_density")}
    min_real = abs(MC_N - 2 * MC_K)

    def check(rep, out_dir):
        fails = []
        frac = rep.metrics["real_fraction_mean"]
        fails += checks.histogram_mass(os.path.join(out_dir, "real_density_hist.csv"),
                                       frac, MC_N * MC_SAMPLES)
        if frac < min_real / MC_N:
            fails.append(f"mean real fraction {frac} below |n - 2k|/n")
        # one sample redrawn through the public API and checked on its own
        ens_cfg = ensemble.EnsembleConfig(n=MC_N, m=M, metric=Signature(k=MC_K, n=MC_N),
                                          master_seed=master, num_samples=MC_SAMPLES)
        phi = ensemble.draw_sample(ens_cfg, redraw).phi
        eigs = spectral.eigenvalues(phi)
        spec = spectral.classify(eigs)
        fails += checks.spectrum(phi, eigs, len(spec.real_eigs), len(spec.pair_eigs), min_real)
        return fails

    return [Op("real_density", cfg, MC_SAMPLES, check)]


# ---------------------------------------------------------------------------
# gap_signature: 101^2 gap grid, Signature lam = 1/4, with the exact real axis
# ---------------------------------------------------------------------------

SIG_N, SIG_K = 256, 64
GRID_DEFAULT = 101                  # RunConfig.grid_points default, left unset


def gap_signature(seed: int, p: int, out: str) -> list[Op]:
    cfg = {"experiment": "gap_grid",
           "metric": {"type": "signature", "k": SIG_K, "n": SIG_N},
           "n": SIG_N, "m": M, "seed": seed, "out_dir": os.path.join(out, "gap_grid")}
    axis = np.linspace(-1.2 / M, 1.2 / M, GRID_DEFAULT)

    def check(rep, out_dir):
        grid = checks.read_grid(os.path.join(out_dir, "gap_grid.csv"))
        return (checks.structural_identity(grid, M)
                + checks.mirror_symmetry(grid, axis)
                + checks.signature_closed_forms(grid, SIG_K / SIG_N, M))

    return [Op("gap_grid", cfg, GRID_DEFAULT ** 2, check)]


# ---------------------------------------------------------------------------
# gap_atoms: 12-atom diagonal metric on an even grid, plus 128-atom points
# ---------------------------------------------------------------------------

ATOMS_GRID = 20
WIDE_GRID = 2


def _atom_weights(values: list[float]):
    mu, counts = np.unique(np.array(values), return_counts=True)
    return mu, counts / counts.sum()


def _atoms_op(label, values, n, points, seed, out) -> Op:
    cfg = {"experiment": "gap_grid",
           "metric": {"type": "diagonal", "values": values},
           "n": n, "m": M, "seed": seed, "grid_points": points,
           "out_dir": os.path.join(out, label)}
    axis = np.linspace(-1.2 / M, 1.2 / M, points)
    mu, wt = _atom_weights(values)

    def check(rep, out_dir):
        grid = checks.read_grid(os.path.join(out_dir, "gap_grid.csv"))
        return (checks.structural_identity(grid, M)
                + checks.mirror_symmetry(grid, axis)
                + checks.atom_gap_equations(grid, mu, wt, M)
                + checks.large_w_limit(grid, mu, wt, M))

    return Op(label, cfg, points * points, check)


def gap_atoms(seed: int, p: int, out: str) -> list[Op]:
    values12 = [ATOMS_12[i % 12] for i in range(ATOMS_12_N)]
    return [
        _atoms_op("atoms12", values12, ATOMS_12_N, ATOMS_GRID, seed, out),
        _atoms_op("atoms128", ATOMS_128, len(ATOMS_128), WIDE_GRID, seed, out),
    ]


# ---------------------------------------------------------------------------
# verify: the finite-N identity suite
# ---------------------------------------------------------------------------

VERIFY_SAMPLES = 500


def verify(seed: int, p: int, out: str) -> list[Op]:
    cfg = {"experiment": "verify",
           "metric": {"type": "signature", "k": 2, "n": 8},
           "n": 8, "m": M, "seed": pass_seed(seed, p), "samples": VERIFY_SAMPLES,
           "out_dir": os.path.join(out, "verify")}
    # matrices drawn: 100 at n = 8, then VERIFY_SAMPLES at n = 64 and at n = 128
    drawn = min(VERIFY_SAMPLES, 100) + 2 * VERIFY_SAMPLES

    def check(rep, out_dir):
        return checks.verification_records(os.path.join(out_dir, "verification.json"))

    return [Op("verify", cfg, drawn, check)]


# name -> (operations of pass p, wall seconds of one pass with its checks
# on the reference box); a run makes round(--seconds / those seconds)
# passes, so every run of a workload attempts the same work
WORKLOADS = {
    "mc_spectra": (mc_spectra, 6.0),
    "gap_signature": (gap_signature, 12.5),
    "gap_atoms": (gap_atoms, 6.0),
    "verify": (verify, 11.0),
}


def run_op(op: Op, tracer=None) -> OpResult:
    """Parse, run and check one operation; only the run is timed."""
    cfg = config_mod.from_dict(op.config)
    t0 = time.perf_counter()
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            rep = experiments.run(cfg)
            seconds = time.perf_counter() - t0
    except Exception as exc:   # a failed operation is counted, not fatal
        seconds = time.perf_counter() - t0
        msg = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return OpResult(seconds, op.items, op.items, [], f"{op.label} raised {msg}")
    fails = [f"{op.label}: own check {k} failed" for k, ok in rep.checks.items() if not ok]
    unresolved = 0
    if cfg.experiment == "gap_grid":
        unresolved = round(rep.metrics["unresolved_fraction"] * op.items)
    skipped = rep.skip_counts.get("eigensolve", 0)
    fails += [f"{op.label}: {f}" for f in op.check(rep, cfg.out_dir)]
    return OpResult(seconds, op.items, unresolved + skipped, fails)
