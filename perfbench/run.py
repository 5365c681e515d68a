"""phspec benchmark: one workload, timed for a given number of seconds.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are listed in BENCHMARK.json and defined in workloads.py.  A
run sets up phspec several times in fresh interpreters (``setup_s``),
then makes round(--seconds / nominal pass seconds) passes over the
workload.  Every pass attempts the same operations, and the pass count
does not depend on how fast the machine or the program is, so every run
of a workload attempts the same work and the share of failed operations
is the same in every run.  Only on a host so slow that the next pass
would end after OVERRUN x --seconds is the run cut short, by whole passes.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  With ``--trace 1`` passes alternate
between untraced and traced, starting untraced, and the JSON carries the
per-layer metrics (medians over the traced passes) plus the tracing
overhead: median traced minus median untraced pass time.  Outputs, spans
and provenance go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
OVERRUN = 1.2           # a slow host may stretch a run to this share of --seconds


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, or None if not found."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k.endswith("_NUM_THREADS")},
    }


def time_setup(configs: list[dict]) -> float:
    """Median seconds of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, probe, SRC], input=json.dumps(configs),
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest child.

    Taken after set-up and the first pass, so that it does not depend on
    the number of passes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0    # Linux reports KiB


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "phspec", "__init__.py")):
        fail(f"no phspec sources under {SRC}")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    make_ops, pass_seconds = workloads.WORKLOADS[args.workload]
    num_passes = max(2 if args.trace else 1, round(args.seconds / pass_seconds))
    import phspec

    if os.path.dirname(os.path.abspath(phspec.__file__)) != os.path.join(SRC, "phspec"):
        fail(f"phspec imported from {phspec.__file__}, not from {SRC}")

    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    with open(os.path.join(out, "provenance.json"), "w") as fh:
        json.dump(provenance(), fh, indent=2)

    setup_s = time_setup([op.config for op in make_ops(args.seed, 0, out)])

    passes = []          # (seconds, items, failed, traced, tracer)
    fails, errors = [], set()
    start = time.perf_counter()
    walls = []
    for p in range(num_passes):
        # passes 0 and 1 always run, so a traced run has a traced pass
        if p > 1 and (time.perf_counter() - start + statistics.median(walls)
                      > OVERRUN * args.seconds):
            break
        t_pass = time.perf_counter()
        traced = bool(args.trace) and p % 2 == 1
        tracer = Tracer() if traced else None
        seconds = items = failed = 0
        for op in make_ops(args.seed, p, out):
            res = workloads.run_op(op, tracer)
            seconds += res.seconds
            items += res.items
            failed += res.failed
            fails += res.fails
            if res.error:
                errors.add(res.error)
        passes.append((seconds, items, failed, traced, tracer))
        walls.append(time.perf_counter() - t_pass)
        if p == 0:
            rss = peak_rss_mib()
        print(f"pass {p}{' traced' if traced else ''}: {seconds:.3f} s, "
              f"{items} items, {failed} failed", file=sys.stderr)

    for p, q in enumerate(passes):
        if q[4] is not None:
            q[4].write(os.path.join(out, "spans.csv"), str(p))
    for e in sorted(errors):
        print(f"failed operation: {e}", file=sys.stderr)
    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    plain = [q for q in passes if not q[3]]
    run_s = statistics.median(q[0] for q in plain)
    if args.trace:
        traced_passes = [q for q in passes if q[3]]
        summaries = [q[4].summary() for q in traced_passes]
        values = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                v = statistics.median(q[0] for q in traced_passes) - run_s
            else:
                v = statistics.median(s.get(name, 0) for s in summaries)
            values[name] = {"value": v, "unit": m["unit"]}
    else:
        measured = {
            "setup_s": setup_s,
            "run_s": run_s,
            "ops_per_s": statistics.median((q[1] - q[2]) / q[0] for q in plain),
            "peak_rss_mb": rss,
        }
        values = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not fails,
        "attempted": sum(q[1] for q in passes),
        "failed": sum(q[2] for q in passes),
        "metrics": values,
    }))


if __name__ == "__main__":
    main()
