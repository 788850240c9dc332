"""CSV writing/reading with round-trippable floats and LF line endings."""

from __future__ import annotations

import numpy as np


def fmt(value) -> str:
    """17 significant digits: enough to round-trip any double."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _words(col, end=""):
    """(words, index): the fmt text of each distinct value of a column once,
    followed by end, and the index array of each cell's word.  A float's
    word is its magnitude's, with "-" for a set sign bit (not on a NaN, as
    fmt)."""
    col = np.asarray(col)
    if col.dtype.kind != "f":
        values, index = np.unique(col, return_inverse=True)
        return [fmt(v) + end for v in values], index
    values, index = np.unique(np.abs(col), return_inverse=True)
    words = [format(v, ".17g") + end for v in values.tolist()]
    negative = np.signbit(col) & ~np.isnan(col)
    if negative.any():
        index = index + len(words) * negative
        words += ["-" + w for w in words]
    return words, index


def write_csv(path, header, columns) -> None:
    """Columns of numbers, written by fmt, 1024 rows per write: no
    whole-file string."""
    ends = [","] * (len(columns) - 1) + ["\n"]
    parts = [_words(c, end) for c, end in zip(columns, ends)]
    n = len(parts[0][1])
    if any(len(index) != n for _, index in parts):
        raise ValueError("all columns must have equal length")
    # one table of all columns' words; cells[r, k] is row r's entry of col k
    table, cells = [], np.empty((n, len(parts)), dtype=np.intp)
    for k, (words, index) in enumerate(parts):
        np.add(index, len(table), out=cells[:, k])
        table += words
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(0, n, 1024):
            rows = cells[r:r + 1024].ravel().tolist()
            fh.write("".join([table[i] for i in rows]))


def read_csv(path):
    """Return (header, columns-as-float-arrays)."""
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = [np.array([float(r[i]) for r in rows]) for i in range(len(header))]
    return header, cols
