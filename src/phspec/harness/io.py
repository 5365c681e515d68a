"""Deterministic CSV emitters (shortest round-trip floats, '.' decimals).

``write_csv`` formats a column at a time: ints by ``str``, strings as
they are, anything else by ``repr`` of each distinct value as a float.
"""

from __future__ import annotations

import os

import numpy as np


def _column_text(col: tuple):
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


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` (sequences of equal length) in one write."""
    rows = list(rows)
    if len(set(map(len, rows))) > 1:
        raise ValueError("CSV rows differ in length")
    lines = map(",".join, zip(*map(_column_text, zip(*rows))))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def write_hist1d_csv(path, hist) -> None:
    write_csv(path, ["x_center", "density"],
              zip(hist.centers, hist.density))


def write_hist2d_csv(path, hist) -> None:
    xc = 0.5 * (hist.x_edges[:-1] + hist.x_edges[1:])
    yc = 0.5 * (hist.y_edges[:-1] + hist.y_edges[1:])
    write_csv(path, ["x_center", "y_center", "density"],
              zip(np.repeat(xc, len(yc)), np.tile(yc, len(xc)), hist.density.ravel()))


def write_theory_curve_csv(path, xs, rho) -> None:
    write_csv(path, ["x", "rho1"], zip(xs, rho))


def write_boundary_csv(path, thetas, r_minus, r_plus) -> None:
    write_csv(path, ["theta", "r_minus", "r_plus"], zip(thetas, r_minus, r_plus))


def write_scatter_csv(path, re, im, is_real) -> None:
    write_csv(path, ["re", "im", "is_real"],
              zip(re, im, (int(v) for v in is_real)))


def write_gap_grid_csv(path, solutions) -> None:
    write_csv(path, ["x", "y", "phase", "alpha2", "re_b", "im_b", "re_G", "im_G", "residual"],
              [(s.w.real, s.w.imag, s.phase, s.alpha2, s.b.real, s.b.imag,
                s.green.real, s.green.imag, s.residual) for s in solutions])


def write_fraction_csv(path, rows) -> None:
    write_csv(path, ["lambda", "fraction", "err", "theory"], rows)
