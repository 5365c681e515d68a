"""The benchmark's tracer still sees the calls its counters read.

``perfbench/tracing.py`` reads the shapes of a few phspec calls: the
collided and success flags at index 3 of the two batch solvers' results,
and the ``path`` argument of ``io.write_csv``.  A small ``gap_grid`` and
``verify`` run under its tracer must leave those counters positive.
"""

import importlib.util
import pathlib

from phspec.harness import config as C
from phspec.harness import experiments as X

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_counters_see_the_solvers_and_the_writer(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        X.run(C.from_dict({"experiment": "gap_grid",
                           "metric": {"type": "signature", "k": 16, "n": 64},
                           "n": 64, "grid_points": 11, "out_dir": str(tmp_path / "grid")}))
        X.run(C.from_dict({"experiment": "verify",
                           "metric": {"type": "signature", "k": 2, "n": 8},
                           "n": 8, "samples": 6, "threads": 1,
                           "out_dir": str(tmp_path / "verify")}))
    counters = tracer.summary()
    for name in ("gapsolve.solve_holomorphic_batch.points",
                 "gapsolve.solve_nonholomorphic_batch.points",
                 "io.bytes_written"):
        assert counters.get(name, 0) > 0, name
