"""Time phspec's set-up in a fresh interpreter: imports, config parsing and
metric realisation for the config dicts read as JSON from stdin.

Usage: python3 setup_probe.py <src dir> < configs.json
Prints the seconds taken.  Interpreter start-up itself is not counted.
"""

import json
import sys
import time

if __name__ == "__main__":
    configs = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    from phspec import metric
    from phspec.harness import config, experiments  # noqa: F401  (import cost)

    for d in configs:
        cfg = config.from_dict(d)
        metric.realize(cfg.metric, cfg.n)
    print(repr(time.perf_counter() - t0))
