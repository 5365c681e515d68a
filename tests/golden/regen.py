"""Golden outputs: the SHA-256 of every output file of eight small runs.

``RUNS`` lists the runs: three gap grids, two sampling experiments,
``verify`` and the CLI's ``sample`` and ``theory`` commands.  Every CSV,
``verification.json`` and sample dump enters byte for byte.  A
``report.json`` enters only through its ``checks``, ``metrics`` and
``skip_counts``, since its timings and provenance change from run to run.
``phspec theory`` also enters through the JSON line it prints, kept as
the file ``theory/stdout``.

The bits depend on the numpy build and the CPU (for example FMA complex
products where numpy dispatches to AVX-512), so the manifest records the
platform that made it, and ``tests/test_golden.py`` skips on any other.

Rewrite the manifest from the current tree with

    PYTHONPATH=src python tests/golden/regen.py [--keep DIR]

``--keep DIR`` runs in DIR and leaves the outputs there.  Two such trees,
say of the parent and of a change, are compared with

    PYTHONPATH=src python tests/golden/regen.py --diff OLD NEW

which prints every output whose hash differs: for a CSV the line numbers
that moved and the largest |delta| of each numeric column, for
``report.json`` the ``checks``, ``metrics`` and ``skip_counts`` keys that
differ, for ``verification.json`` the checks whose ``residual`` or
``pass`` moved.  It prints nothing for equal trees.  Every rewrite changes what the
test guards: name in CHANGES.md the outputs and rows that moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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


_REPORT_KEYS = ("checks", "metrics", "skip_counts")


def _report_part(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return {key: data[key] for key in _REPORT_KEYS}


def _hashed_bytes(path: str) -> bytes:
    """What enters the manifest of an output file: a ``report.json`` through
    its ``_REPORT_KEYS``, every other file byte for byte."""
    if os.path.basename(path) == "report.json":
        return json.dumps(_report_part(path), indent=2, sort_keys=True).encode()
    with open(path, "rb") as fh:
        return fh.read()


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
            with open(os.path.join(out_dir, "stdout"), "wb") as fh:
                fh.write(printed.encode())
        for fname in sorted(os.listdir(out_dir)):
            hashes[f"{name}/{fname}"] = _sha256(_hashed_bytes(os.path.join(out_dir, fname)))
    return hashes


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_diff(old: str, new: str) -> list[str]:
    """The moved line numbers (1 is the header) and, per changed column, the
    largest |delta|, or "text" where a changed field is not a number."""
    rows = []
    for path in (old, new):
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(fh)))
    a, b = rows
    moved = [i + 1 for i in range(max(len(a), len(b)))
             if i >= len(a) or i >= len(b) or a[i] != b[i]]
    out = [f"  lines {', '.join(map(str, moved))}"]
    if len(a) != len(b):
        out.append(f"  {len(a)} lines against {len(b)}")
    worst: dict = {}
    for ra, rb in zip(a[1:], b[1:]):
        for j, (fa, fb) in enumerate(zip(ra, rb)):
            if fa == fb:
                continue
            xa, xb = _number(fa), _number(fb)
            delta = "text" if xa is None or xb is None else abs(xa - xb)
            if delta != delta:                     # nan on one side only
                delta = float("inf")
            prev = worst.get(j)
            worst[j] = "text" if "text" in (prev, delta) else max(prev or 0.0, delta)
    header = a[0] if a else []
    for j in sorted(worst):
        name = header[j] if j < len(header) else f"column {j + 1}"
        value = worst[j] if worst[j] == "text" else repr(worst[j])
        out.append(f"  {name}: max |delta| {value}")
    return out


def _report_diff(old: str, new: str) -> list[str]:
    """The ``_REPORT_KEYS`` entries that differ, old value then new."""
    a, b = _report_part(old), _report_part(new)
    out = []
    for part in _REPORT_KEYS:
        for key in sorted(set(a[part]) | set(b[part])):
            va, vb = a[part].get(key), b[part].get(key)
            if va != vb:
                out.append(f"  {part}.{key}: {json.dumps(va)} -> {json.dumps(vb)}")
    return out


def _verification_diff(old: str, new: str) -> list[str]:
    """The ``verification.json`` records whose ``residual`` or ``pass``
    differ, by check name, old value then new."""
    records = []
    for path in (old, new):
        with open(path) as fh:
            records.append({r["check_name"]: r for r in json.load(fh)})
    a, b = records
    out = []
    for name in sorted(set(a) | set(b)):
        for field in ("residual", "pass"):
            va, vb = a.get(name, {}).get(field), b.get(name, {}).get(field)
            if va != vb:
                out.append(f"  {name}.{field}: {json.dumps(va)} -> {json.dumps(vb)}")
    return out


def _tree(root: str) -> set:
    """"<run>/<file>" of every output in a ``--keep`` tree."""
    return {f"{run}/{fname}" for run in os.listdir(root)
            if os.path.isdir(os.path.join(root, run))
            for fname in os.listdir(os.path.join(root, run))}


def diff(old: str, new: str) -> list[str]:
    """Lines naming every output of two ``--keep`` trees whose hash differs."""
    a, b = _tree(old), _tree(new)
    out = []
    for name in sorted(a | b):
        if name not in a or name not in b:
            out.append(f"{name}: only in {old if name in a else new}")
            continue
        pa, pb = os.path.join(old, name), os.path.join(new, name)
        if _hashed_bytes(pa) == _hashed_bytes(pb):
            continue
        out.append(f"{name}: differs")
        if name.endswith(".csv"):
            out += _csv_diff(pa, pb)
        elif name.endswith("/report.json"):
            out += _report_diff(pa, pb)
        elif name.endswith("/verification.json"):
            out += _verification_diff(pa, pb)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite the golden manifest.")
    parser.add_argument("--keep", metavar="DIR",
                        help="run in DIR and leave the outputs there")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="print how two --keep trees differ; write nothing")
    args = parser.parse_args(argv)
    if args.diff:
        for line in diff(*args.diff):
            print(line)
        return 0
    keep = args.keep
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
