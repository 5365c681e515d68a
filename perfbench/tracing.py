"""Spans around the public functions of phspec's layers, recorded from outside.

``Tracer.installed()`` replaces every public function of the traced
modules with a wrapper that records one span per call (name, start, end,
parent) in memory, and restores the originals on exit.  References that
other phspec modules hold to the same function object (``from .sampling
import map_spectra``) are replaced too, so calls are seen whichever name
they go through.  Nothing inside ``src/`` is changed.

Calls made in worker processes are not seen: a wrapper exists only in
the process that installed it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# traced module -> layer prefix of its span names
LAYERS = {
    "phspec.ensemble": "ensemble",
    "phspec.spectral": "spectral",
    "phspec.harness.sampling": "sampling",
    "phspec.gapsolve": "gapsolve",
    "phspec._roots": "roots",
    "phspec.theory": "theory",
    "phspec.hermcheck": "hermcheck",
    "phspec.harness.io": "io",
    "phspec.harness.experiments": "experiments",
}

# modules whose functions are traced only when listed here; the run_*
# dispatch targets of experiments.run stay inside its self time
ONLY = {"phspec.harness.experiments": ("run",)}


# Counters read from a call's arguments and result, keyed by span name.
def _count_forced(c, args, kwargs, out):
    c["spectral.classify.forced_real"] += out.forced_real


def _count_skipped(c, args, kwargs, out):
    c["sampling.skipped"] += out[1]


def _count_nh_batch(c, args, kwargs, out):
    success = out[3]
    c["gapsolve.solve_nonholomorphic_batch.succeeded"] += int(success.sum())
    c["gapsolve.solve_nonholomorphic_batch.points"] += len(success)


def _count_holo_batch(c, args, kwargs, out):
    collided = out[3]
    c["gapsolve.solve_holomorphic_batch.points"] += len(collided)
    c["gapsolve.solve_holomorphic_batch.collided"] += int(collided.sum())


def _count_polys(c, args, kwargs, out):
    coeffs = args[0] if args else kwargs["coeffs"]
    c["roots.roots_batch.polys"] += len(coeffs)


def _count_bytes(c, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    c["io.bytes_written"] += os.path.getsize(path)


HOOKS = {
    "spectral.classify": _count_forced,
    "sampling.map_spectra": _count_skipped,
    "gapsolve.solve_nonholomorphic_batch": _count_nh_batch,
    "gapsolve.solve_holomorphic_batch": _count_holo_batch,
    "roots.roots_batch": _count_polys,
    "io.write_csv": _count_bytes,
}


def traced_functions():
    """(module, attribute, span name) for every function to be wrapped."""
    out = []
    for modname, layer in LAYERS.items():
        mod = sys.modules[modname]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != modname or attr not in ONLY.get(modname, (attr,)):
                continue
            out.append((mod, attr, f"{layer}.{attr}"))
    return out


class Tracer:
    """In-memory spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        wrappers = {}                     # id(original) -> (original, wrapper)
        for mod, attr, name in traced_functions():
            fn = getattr(mod, attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        restore = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "phspec":
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for mod, attr, obj in restore:
                setattr(mod, attr, obj)

    def summary(self) -> dict:
        """Per-name calls, busy seconds and self seconds, plus the counters.

        Busy time counts a span only when no ancestor has the same name,
        so recursion is not counted twice; self time is a span's duration
        minus the durations of its direct children.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += t1 - t0
        out.update(self.counters)
        pts = self.counters.get("gapsolve.solve_nonholomorphic_batch.points", 0)
        if pts:
            out["gapsolve.solve_nonholomorphic_batch.success_ratio"] = (
                self.counters["gapsolve.solve_nonholomorphic_batch.succeeded"] / pts)
        return dict(out)

    def write(self, path, tag: str) -> None:
        """Append this tracer's spans to a CSV file (one row per span)."""
        new = not os.path.exists(path)
        with open(path, "a", newline="") as fh:
            w = csv.writer(fh)
            if new:
                w.writerow(["pass", "span", "parent", "name", "start_s", "end_s"])
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                w.writerow([tag, i, parent, name, repr(t0), repr(t1)])
