"""Golden outputs: the SHA-256 of every output file of eight small runs.

``RUNS`` lists the runs: three gap grids, two sampling experiments,
``verify`` and the CLI's ``sample`` and ``theory`` commands.  Every CSV,
``verification.json`` and sample dump enters byte for byte.  A
``report.json`` enters only through its ``checks``, ``metrics`` and
``skip_counts``, since its timings and provenance change from run to run.
``phspec theory`` also enters through the JSON line it prints.

The bits depend on the numpy build and the CPU (for example FMA complex
products where numpy dispatches to AVX-512), so the manifest records the
platform that made it, and ``tests/test_golden.py`` skips on any other.

Rewrite the manifest from the current tree with

    PYTHONPATH=src python tests/golden/regen.py [--keep DIR]

``--keep DIR`` runs in DIR and leaves the outputs there, so that two
trees' outputs can be diffed row by row.  Every rewrite changes what the
test guards: name in CHANGES.md the outputs and rows that moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from phspec import cli
from phspec.harness import config as config_mod
from phspec.harness import experiments

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.json")

SIGNED_ATOMS_12 = [(-1.0 if j % 4 == 0 else 1.0) * v
                   for j, v in enumerate(np.linspace(0.5, 1.5, 12).tolist())]

_SIG64 = {"type": "signature", "k": 16, "n": 64}

# run name -> (how it runs, config); "run" is ``experiments.run``, the
# others are CLI commands
RUNS = {
    "gap_signature": ("run", {"experiment": "gap_grid", "metric": _SIG64,
                              "n": 64, "grid_points": 21}),
    "gap_atoms": ("run", {"experiment": "gap_grid",
                          "metric": {"type": "diagonal", "values": SIGNED_ATOMS_12},
                          "n": 12, "grid_points": 12}),
    "gap_flat": ("run", {"experiment": "gap_grid",
                         "metric": {"type": "flat", "mu1": 1.0, "lminus": 0.5,
                                    "mu2": 1.5, "lplus": 1.0},
                         "n": 64, "grid_points": 15}),
    "real_density": ("run", {"experiment": "real_density", "metric": _SIG64,
                             "n": 64, "samples": 6}),
    "semicircle": ("run", {"experiment": "semicircle",
                           "metric": {"type": "signature", "k": 0, "n": 64},
                           "n": 64, "samples": 6}),
    "verify": ("run", {"experiment": "verify",
                       "metric": {"type": "signature", "k": 2, "n": 8},
                       "n": 8, "samples": 12}),
    "sample": ("sample", {"experiment": "real_density", "metric": _SIG64,
                          "n": 64, "samples": 3, "dump_samples": True}),
    "theory": ("theory", {"experiment": "real_density", "metric": _SIG64, "n": 64}),
}

_COMMON = {"m": 1.0, "seed": 7}


def fingerprint() -> dict:
    """The platform whose bits the manifest holds: numpy, its BLAS build,
    the machine and the SIMD targets numpy dispatches to on this CPU."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    simd = info.get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "machine": platform.machine(),
        "simd_baseline": list(simd.get("baseline", [])),
        "simd_found": list(simd.get("found", [])),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_part(path: str) -> bytes:
    with open(path) as fh:
        data = json.load(fh)
    part = {key: data[key] for key in ("checks", "metrics", "skip_counts")}
    return json.dumps(part, indent=2, sort_keys=True).encode()


def _run(how: str, cfg: dict, workdir: str) -> str:
    """Run one entry of ``RUNS``; returns what it printed to stdout."""
    if how == "run":
        experiments.run(config_mod.from_dict(cfg))
        return ""
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        cli.main([how, "--config", path])
    return printed.getvalue()


def outputs(workdir: str, names=tuple(RUNS), threads: int = 1) -> dict:
    """"<run>/<file>" -> SHA-256 of every output of the ``RUNS`` in ``names``,
    run in ``workdir`` on ``threads`` worker processes (the manifest's on one)."""
    hashes = {}
    for name in names:
        how, cfg = RUNS[name]
        out_dir = os.path.join(workdir, name)
        printed = _run(how, {**cfg, **_COMMON, "threads": threads, "out_dir": out_dir},
                       workdir)
        if how == "theory":
            hashes[f"{name}/stdout"] = _sha256(printed.encode())
        for fname in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, fname)
            if fname == "report.json":
                data = _report_part(path)
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            hashes[f"{name}/{fname}"] = _sha256(data)
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden manifest.")
    parser.add_argument("--keep", metavar="DIR",
                        help="run in DIR and leave the outputs there")
    keep = parser.parse_args(argv).keep
    if keep:
        os.makedirs(keep, exist_ok=True)
        hashes = outputs(keep)
    else:
        with tempfile.TemporaryDirectory() as workdir:
            hashes = outputs(workdir)
    with open(MANIFEST, "w") as fh:
        json.dump({"platform": fingerprint(), "outputs": hashes}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
