"""CSV writing/reading with round-trippable floats and LF line endings."""

from __future__ import annotations

import numpy as np


def fmt(value) -> str:
    """17 significant digits: enough to round-trip any double."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def column_text(col) -> list:
    """fmt applied to every cell of a column, one pass per column; a text
    column, a list of str, is kept as it is."""
    if isinstance(col, list) and all(isinstance(v, str) for v in col):
        return col
    col = np.asarray(col)
    if col.dtype.kind in "iu":
        return [str(v) for v in col.tolist()]
    if col.dtype.kind in "fb":
        return [format(v, ".17g") for v in col.tolist()]
    return [fmt(v) for v in col]


def write_csv(path, header, columns) -> None:
    """Columns of numbers, written by fmt, or of text (lists of str),
    written as given."""
    texts = [column_text(c) for c in columns]
    n = len(texts[0])
    if any(len(c) != n for c in texts):
        raise ValueError("all columns must have equal length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*texts))


def read_csv(path):
    """Return (header, columns-as-float-arrays)."""
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = [np.array([float(r[i]) for r in rows]) for i in range(len(header))]
    return header, cols
