"""Command-line entry point.

Subcommands map onto the experiments:

    phspec sample    --config cfg.json     raw spectra CSV (+ optional dumps)
    phspec theory    --config cfg.json     closed-form curves as CSV
    phspec compare   --config cfg.json     the experiment named in the config
    phspec gap-solve --config cfg.json     gap-equation grid classification
    phspec verify    --config cfg.json     finite-N identity suite
    phspec sweep     --config cfg.json     real-fraction sweep over lambdas

Every command accepts --seed/--samples/--out-dir/--threads overrides.
Exit status is 0 exactly when all enabled checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import ensemble as ens
from . import theory
from .harness import config as config_mod
from .harness import experiments, io
from .harness.sampling import map_spectra
from .metric import Signature


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--threads", type=int, default=None)


def _load(args, force_experiment=None):
    overrides = {
        "seed": args.seed,
        "samples": args.samples,
        "out_dir": args.out_dir,
        "threads": args.threads,
    }
    if force_experiment is not None:
        overrides["experiment"] = force_experiment
    return config_mod.load(args.config, **overrides)


def cmd_sample(args) -> int:
    cfg = _load(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    samples, _ = map_spectra(cfg.metric, cfg.n, cfg.m, cfg.seed, cfg.samples, cfg.threads)
    eigs = np.concatenate([s.eigs for s in samples]) if samples else np.empty(0, complex)
    index = np.repeat([s.sample_index for s in samples], [len(s.eigs) for s in samples])
    if cfg.dump_samples:
        ens_cfg = ens.EnsembleConfig(n=cfg.n, m=cfg.m, metric=cfg.metric,
                                     master_seed=cfg.seed, num_samples=cfg.samples)
        for i in range(cfg.samples):
            ens.dump_sample(ens.draw_sample(ens_cfg, i), cfg.m,
                            os.path.join(cfg.out_dir, f"phi_{i:06d}.bin"))
    io.write_csv(os.path.join(cfg.out_dir, "eigenvalues.csv"),
                 ["sample", "re", "im"], (index, eigs.real, eigs.imag))
    print(f"wrote {len(eigs)} eigenvalues from {cfg.samples} samples to {cfg.out_dir}")
    return 0


def cmd_theory(args) -> int:
    cfg = _load(args)
    if not isinstance(cfg.metric, Signature):
        print("theory curves are closed-form only for signature metrics", file=sys.stderr)
        return 2
    lam = cfg.metric.lam
    os.makedirs(cfg.out_dir, exist_ok=True)
    x0 = theory.band_edge(lam, cfg.m)
    xs = np.linspace(-x0, x0, 801)
    io.write_theory_curve_csv(os.path.join(cfg.out_dir, "rho_real.csv"),
                              xs, theory.rho_real(xs, lam, cfg.m))
    io.write_boundary_csv(os.path.join(cfg.out_dir, "boundary.csv"),
                          *theory.boundary_table(lam, cfg.m, 361))
    area, nu = theory.blob_area_and_nu(lam, cfg.m)
    print(json.dumps({"lambda": lam, "x0": x0, "nu": nu, "blob_area": area}))
    return 0


def _run_and_report(cfg) -> int:
    rep = experiments.run(cfg)
    for name, ok in sorted(rep.checks.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')} "
          f"({rep.runtime_seconds:.1f}s)")
    return 0 if rep.passed else 1


def cmd_compare(args) -> int:
    return _run_and_report(_load(args))


def cmd_gap_solve(args) -> int:
    return _run_and_report(_load(args, force_experiment="gap_grid"))


def cmd_verify(args) -> int:
    return _run_and_report(_load(args, force_experiment="verify"))


def cmd_sweep(args) -> int:
    return _run_and_report(_load(args, force_experiment="real_fraction_sweep"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="phspec", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sample", cmd_sample), ("theory", cmd_theory),
                     ("compare", cmd_compare), ("gap-solve", cmd_gap_solve),
                     ("verify", cmd_verify), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
