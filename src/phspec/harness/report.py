"""Comparison report: the one JSON artifact every experiment emits."""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import _blas


@dataclass
class ComparisonReport:
    experiment: str
    config: dict
    config_hash: str
    checks: dict = field(default_factory=dict)        # name -> bool
    metrics: dict = field(default_factory=dict)       # name -> number/str
    skip_counts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)       # section -> seconds
    provenance: dict = field(default_factory=dict)    # see ``provenance``
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def add_check(self, name: str, ok: bool, value=None):
        self.checks[name] = bool(ok)
        if value is not None:
            self.metrics[name] = value

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed,
                "metrics": _plain(self.metrics)}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@functools.cache
def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count()}


def provenance(workers: int) -> dict:
    """Where a run's numerics ran: numpy and BLAS builds, the machine's
    core count, the worker processes used, and the BLAS threads of the
    calling process (None where the count cannot be read), which inside
    an experiment's runner are one, as in every sampling worker."""
    return {**_environment(), "workers": workers, "blas_threads": _blas.num_threads()}


def _plain(obj):
    """Recursively convert numpy scalars/complex to JSON-safe values."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "item"):
        return _plain(obj.item())
    return obj


class Stopwatch:
    """Wall time of a ``with`` block, split into named laps by ``lap``."""

    def __enter__(self):
        self.t0 = self.t_lap = time.perf_counter()
        self.laps = {}
        return self

    def lap(self, name: str):
        """Add the time since the previous lap (or the start) to ``name``."""
        now = time.perf_counter()
        self.laps[name] = self.laps.get(name, 0.0) + now - self.t_lap
        self.t_lap = now

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False
