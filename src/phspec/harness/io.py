"""Deterministic CSV emitters (shortest round-trip floats, '.' decimals).

``write_csv`` takes columns and formats them a block of CSV_BLOCK_ROWS
rows at a time: ints by ``str``, strings as they are, anything else by
``repr`` of each distinct float.  Only one block is held as text, so a
large grid costs no more memory to write than its arrays.
"""

from __future__ import annotations

import os

import numpy as np

CSV_BLOCK_ROWS = 2048


def _column_text(col: list):
    kinds = set(map(type, col))
    if all(issubclass(k, str) for k in kinds):
        return col
    if all(issubclass(k, (int, np.integer)) for k in kinds):
        return map(str, map(int, col))
    if any(issubclass(k, (int, np.integer, str)) for k in kinds):   # mixed: value by value
        return [list(_column_text((v,)))[0] for v in col]
    keys = np.array(col, dtype=float).view(np.int64).tolist()   # grids repeat values:
    text = dict.fromkeys(keys)                                  # one repr per bit pattern
    text.update(zip(text, map(repr, np.array(list(text), dtype=np.int64).view(float).tolist())))
    return map(text.__getitem__, keys)


def write_csv(path, header: list[str], columns) -> None:
    """Write ``header`` and ``columns`` (sequences of equal length), one
    write per block of CSV_BLOCK_ROWS rows."""
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError("CSV columns differ in length")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
            block = [c[lo:lo + CSV_BLOCK_ROWS] for c in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            fh.write("\n".join(map(",".join, zip(*map(_column_text, block)))) + "\n")


def write_hist1d_csv(path, hist) -> None:
    write_csv(path, ["x_center", "density"], (hist.centers, hist.density))


def write_hist2d_csv(path, hist) -> None:
    xc = 0.5 * (hist.x_edges[:-1] + hist.x_edges[1:])
    yc = 0.5 * (hist.y_edges[:-1] + hist.y_edges[1:])
    write_csv(path, ["x_center", "y_center", "density"],
              (np.repeat(xc, len(yc)), np.tile(yc, len(xc)), hist.density.ravel()))


def write_theory_curve_csv(path, xs, rho) -> None:
    write_csv(path, ["x", "rho1"], (xs, rho))


def write_boundary_csv(path, thetas, r_minus, r_plus) -> None:
    write_csv(path, ["theta", "r_minus", "r_plus"], (thetas, r_minus, r_plus))


def write_scatter_csv(path, re, im, is_real) -> None:
    write_csv(path, ["re", "im", "is_real"], (re, im, np.asarray(is_real, dtype=int)))


def write_gap_grid_csv(path, sol) -> None:
    """One row per entry of the GapSolution ``sol``."""
    write_csv(path, ["x", "y", "phase", "alpha2", "re_b", "im_b", "re_G", "im_G", "residual"],
              (sol.w.real, sol.w.imag, sol.phase, sol.alpha2, sol.b.real, sol.b.imag,
               sol.green.real, sol.green.imag, sol.residual))


def write_fraction_csv(path, rows) -> None:
    write_csv(path, ["lambda", "fraction", "err", "theory"], zip(*rows))
