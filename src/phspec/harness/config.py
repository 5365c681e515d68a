"""Run configuration: one JSON object drives one experiment."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .. import metric as metric_mod
from ..metric import Metric, Signature

EXPERIMENTS = (
    "real_density",
    "real_fraction_sweep",
    "complex_scatter",
    "uniformity",
    "gap_grid",
    "verify",
    "semicircle",
)


class ConfigError(ValueError):
    """A run configuration that is malformed, or whose experiment and
    metric do not fit together."""


@dataclass
class RunConfig:
    experiment: str
    metric: Metric
    n: int = 256
    m: float = 1.0
    seed: int = 1
    samples: int = 100
    bins: int = 101
    hist_range: tuple | None = None      # 1d histogram range, default band-fitted
    grid_points: int = 101               # per axis, gap_grid
    grid_extent: float | None = None     # half-width, default 1.2/m
    lambdas: tuple = ()                  # real_fraction_sweep points
    out_dir: str = "out"
    threads: int | None = None           # sampling worker processes, None = all cores
    dump_samples: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}")
        if (self.n < 2 or self.samples < 1 or not 0 < self.m < math.inf
                or (self.threads is not None and self.threads < 1)):
            raise ConfigError("n >= 2, samples >= 1, finite m > 0, threads >= 1 required")
        if self.grid_extent is not None and not math.isfinite(self.grid_extent):
            raise ConfigError("grid_extent must be finite")
        if self.experiment == "real_fraction_sweep" and not self.lambdas:
            raise ConfigError("real_fraction_sweep needs a nonempty 'lambdas' list")
        if not all(0.0 <= lam <= 1.0 for lam in self.lambdas):   # false for nan
            raise ConfigError(f"every 'lambdas' entry must lie in [0, 1]: {self.lambdas}")
        if self.hist_range is not None and not (
                len(self.hist_range) == 2 and all(map(math.isfinite, self.hist_range))
                and self.hist_range[0] < self.hist_range[1]):
            raise ConfigError(f"hist_range must be two finite numbers lo < hi: {self.hist_range}")
        if self.bins < 2:
            raise ConfigError("bins must be >= 2")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be >= 2")
        self._check_metric_fits()
        if self.experiment != "real_fraction_sweep":
            metric_mod.realize(self.metric, self.n)   # realizability check up front

    def _check_metric_fits(self):
        """The closed forms an experiment compares against exist only for
        some metrics; refuse the others before anything runs."""
        is_sig = isinstance(self.metric, Signature)
        if self.experiment in ("real_density", "complex_scatter", "uniformity") and not is_sig:
            raise ConfigError(f"{self.experiment} needs a signature metric")
        if (self.experiment in ("complex_scatter", "uniformity")
                and not 0.0 < self.metric.lam < 1.0):
            raise ConfigError(f"{self.experiment} needs an indefinite signature (0 < lam < 1)")
        # a non-signature metric is replaced by the definite Signature(0, n)
        if self.experiment == "semicircle" and is_sig and self.metric.lam not in (0.0, 1.0):
            raise ConfigError("semicircle needs a definite signature (k = 0 or k = n)")

    def to_dict(self) -> dict:
        d = {
            "experiment": self.experiment,
            "metric": metric_mod.to_config(self.metric),
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "samples": self.samples,
            "bins": self.bins,
            "grid_points": self.grid_points,
            "out_dir": self.out_dir,
            "threads": self.threads,
            "dump_samples": self.dump_samples,
        }
        if self.hist_range is not None:
            d["hist_range"] = list(self.hist_range)
        if self.grid_extent is not None:
            d["grid_extent"] = self.grid_extent
        if self.lambdas:
            d["lambdas"] = list(self.lambdas)
        return d

    def content_hash(self) -> str:
        """Git-style sha1 of the canonical JSON form, without the keys that
        cannot change results (``threads``, ``out_dir``)."""
        d = self.to_dict()
        del d["threads"], d["out_dir"]
        blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha1(b"blob %d\0" % len(blob) + blob).hexdigest()


def from_dict(d: dict, **overrides) -> RunConfig:
    d = dict(d)
    d.update({k: v for k, v in overrides.items() if v is not None})
    metric = metric_mod.from_config(d["metric"])
    return RunConfig(
        experiment=d["experiment"],
        metric=metric,
        n=int(d.get("n", 256)),
        m=float(d.get("m", 1.0)),
        seed=int(d.get("seed", 1)),
        samples=int(d.get("samples", 100)),
        bins=int(d.get("bins", 101)),
        hist_range=tuple(d["hist_range"]) if "hist_range" in d else None,
        grid_points=int(d.get("grid_points", 101)),
        grid_extent=float(d["grid_extent"]) if "grid_extent" in d else None,
        lambdas=tuple(d.get("lambdas", ())),
        out_dir=str(d.get("out_dir", "out")),
        threads=None if d.get("threads") is None else int(d["threads"]),
        dump_samples=bool(d.get("dump_samples", False)),
    )


def load(path, **overrides) -> RunConfig:
    with open(path) as fh:
        return from_dict(json.load(fh), **overrides)
