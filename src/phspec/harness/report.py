"""Comparison report: the one JSON artifact every experiment emits."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class ComparisonReport:
    experiment: str
    config: dict
    config_hash: str
    checks: dict = field(default_factory=dict)        # name -> bool
    metrics: dict = field(default_factory=dict)       # name -> number/str
    skip_counts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)       # section -> seconds
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def add_check(self, name: str, ok: bool, value=None):
        self.checks[name] = bool(ok)
        if value is not None:
            self.metrics[name] = value

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "checks": self.checks,
            "metrics": _plain(self.metrics),
            "skip_counts": self.skip_counts,
            "timings": self.timings,
            "runtime_seconds": self.runtime_seconds,
            "config": self.config,
            "config_hash": self.config_hash,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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
        """Record the time since the previous lap (or the start) as ``name``."""
        now = time.perf_counter()
        self.laps[name] = now - self.t_lap
        self.t_lap = now

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False
