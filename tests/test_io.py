import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phspec import gapsolve as G
from phspec import metric as M
from phspec.harness import io


def _value_text(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def _write_by_value(path, header, rows):
    """Reference writer: every value formatted on its own, one write per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_value_text(v) for v in row) + "\n")


def _same_bytes(tmp_path, header, rows):
    """``write_csv`` of the columns of ``rows`` against the reference writer."""
    io.write_csv(tmp_path / "a.csv", header, list(zip(*rows)) or [()] * len(header))
    _write_by_value(tmp_path / "b.csv", header, rows)
    return (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1.0 / 3.0]


def test_mixed_rows_match_value_formatting(tmp_path):
    rows = []
    for i, x in enumerate(SPECIAL):
        rows.append((
            i if i % 2 else np.int64(-i),                       # ints of both kinds
            f"s{i}",                                            # strings
            x if i % 2 else np.float64(x),                      # floats of both kinds
            [7, np.int32(-3), "txt", -0.0, np.float64(x), True][i % 6],  # everything
            np.float32(0.1) if i % 3 == 0 else x,               # float32 among floats
        ))
    assert _same_bytes(tmp_path, ["i", "s", "f", "mixed", "f32"], rows)
    text = (tmp_path / "a.csv").read_text().splitlines()
    assert text[1].split(",")[2] == "nan" and text[4].split(",")[2] == "-0.0"


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
       ints=st.integers(-10**20, 10**20))
def test_float_columns_match_value_formatting(tmp_path_factory, values, ints):
    tmp = tmp_path_factory.mktemp("csv")
    rows = [(v, np.float64(v), ints + k, -v) for k, v in enumerate(values)]
    assert _same_bytes(tmp, ["a", "b", "c", "d"], rows)


def test_header_only_and_ragged_rows(tmp_path):
    assert _same_bytes(tmp_path, ["a", "b"], [])
    with pytest.raises(ValueError):
        io.write_csv(tmp_path / "c.csv", ["a", "b"], [(1.0, 3.0), (2.0,)])


def test_blocks_match_value_formatting(tmp_path, monkeypatch):
    # blocks of 4 rows: a column's type mix differs from block to block
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 4)
    rows = [(i, [7, "txt", -0.0, np.float64(x), True][i % 5] if i < 6 else x, x)
            for i, x in enumerate(SPECIAL)]
    assert _same_bytes(tmp_path, ["i", "mixed", "f"], rows)
    for count in (0, 1, 4, 8, 9):
        assert _same_bytes(tmp_path, ["a"], [(x,) for x in SPECIAL[:count]])


def test_gap_grid_rows_match_value_formatting(tmp_path):
    # both phases, and real-axis side limits of a continuum metric
    metric = M.FlatContinuum(mu1=1.0, lminus=0.5, mu2=1.5, lplus=1.0)
    xs = np.linspace(-1.2, 1.2, 5)
    sol = G.classify_grid(metric, (xs[:, None] + 1j * xs[None, :]).ravel(), 1.0)
    assert set(sol.phase.tolist()) == {G.HOLOMORPHIC, G.NONHOLOMORPHIC}
    assert any(sol.note)
    io.write_gap_grid_csv(tmp_path / "grid.csv", sol)
    points = [sol.take(i) for i in range(len(sol.w))]
    _write_by_value(tmp_path / "ref.csv",
                    ["x", "y", "phase", "alpha2", "re_b", "im_b", "re_G", "im_G", "residual"],
                    [(s.w.real, s.w.imag, s.phase, s.alpha2, s.b.real, s.b.imag,
                      s.green.real, s.green.imag, s.residual) for s in points])
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
