"""CSV writing/reading with round-trippable floats and LF line endings."""

from __future__ import annotations

import functools

import numpy as np

# A float column with at least this many distinct magnitudes gets its words
# from array arithmetic (_digit_words); a smaller one calls format once per
# magnitude.  Measured on a 2-vCPU x86-64 box: once _tables is built, the
# array path costs about 55 us per call plus 0.2 us per magnitude against
# 0.6 us for format, even at about 190 magnitudes; but the first call of a
# process also builds _tables and touches fresh memory, about 2.4 ms, which
# a column repays only from about 4096 magnitudes.  So grid-sized columns
# keep format, and only large columns (spectral, manifold and planar
# trajectories) take the array path.
VECTOR_MIN = 4096
# magnitudes per pass of _digit_words, to bound its temporaries
CHUNK = 4096
# long double's machine epsilon: the two roundings of y in _digit_words
# move it by at most eps y, and its digits are accepted only at twice that
# distance from a tie.  Where long double is plain double no value passes,
# and format writes every word.
_EPS = np.finfo(np.longdouble).eps
# P10[q - _Q0] is 10**q; q = 16 - X covers every decimal exponent X of a
# positive finite double, and one step either side
_Q0, _Q1 = -300, 350
# A word's source row in _digit_words is eight 4-byte cells: six groups of
# three digits (the 17 digits after a leading "0") and the three exponent
# digits, each closed by a NUL byte, then ".", "e", the end byte and the
# exponent's sign.  _DIGIT[m] is the row byte of digit m.
_DIGIT = [4 * (p // 3) + p % 3 for p in range(1, 18)]
_ZERO, _NUL, _EXP, _POINT, _E, _END, _SIGN = 0, 3, 24, 28, 29, 30, 31
# the longest word: 17 digits, ".", "e-308" and the end byte
_WIDTH = 24
# rows per block of write_csv, to bound its buffers
BLOCK = 4096


def fmt(value) -> str:
    """17 significant digits: enough to round-trip any double."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _layout(cls, k):
    """The row bytes of a word of layout class cls with k significant
    digits, as Python's %.17g lays them out: cls = X + 4 is fixed notation
    of decimal exponent X in -4..16, 21 and 22 are scientific with two and
    three exponent digits.  Trailing zeros are stripped, and the point when
    no digit follows it; the row's end byte closes the word."""
    digits = _DIGIT[:k]
    if cls < 4:
        out = [_ZERO, _POINT] + [_ZERO] * (3 - cls) + digits
    else:
        head = 1 if cls > 20 else cls - 3
        out = _DIGIT[:head] + ([_POINT] + digits[head:] if k > head else [])
    if cls > 20:
        out += [_E, _SIGN] + list(range(_EXP + 22 - cls, _EXP + 3))
    out.append(_END)
    return out + [_NUL] * (_WIDTH - len(out))


@functools.cache
def _tables():
    """(P10, CELLS, ZEROS, LAYOUT), built on first use: P10 holds 10**q for
    q in _Q0.._Q1-1, each correctly rounded to long double by numpy's parser;
    CELLS[g] the cell of the three ASCII digits of g < 1000 and ZEROS[g]
    their trailing zeros; LAYOUT[17 cls + k - 1] the _layout of every
    class and digit count."""
    p10 = np.array([f"1e{q}" for q in range(_Q0, _Q1)], dtype=np.longdouble)
    g = np.arange(1000)
    text = np.zeros((1000, 4), dtype=np.uint8)
    text[:, :3] = np.stack([g // 100, g // 10 % 10, g % 10], axis=1) + ord("0")
    zeros = (g % 10 == 0) + (g % 100 == 0).astype(int) + (g == 0)
    layout = np.array([_layout(c, k) for c in range(23)
                       for k in range(1, 18)], dtype=np.intp)
    return p10, text.view(np.uint32).ravel(), zeros, layout


def _scaled(a, X, p10):
    """(y, d): a 10**(16 - X) in long double, and y rounded to an integer."""
    y = a * p10[16 - _Q0 - X]
    return y, np.rint(y)


def _digit_words(a, end):
    """(words, undecided): the %.17g word of each positive finite double
    of a, followed by end, and the indices whose word is left to format.

    With X = floor(log10(a)), y = a 10**(16 - X) must lie in
    [10**16, 10**17) (X is moved one step when not), and d = rint(y) is
    then the 17-digit string of a; d = 10**17 is the carry to X + 1.  y
    carries two roundings, so d is the exact rounding of a 10**(16 - X)
    unless y lies within 2 eps y of a half-integer: those are undecided.
    d is split into six groups of three digits by scalar divisions, and
    one gather through LAYOUT lays out each word."""
    p10, cells, zeros, layout = _tables()
    n = len(a)
    X = np.floor(np.log10(a)).astype(np.intp)
    a = a.astype(np.longdouble)
    y, d = _scaled(a, X, p10)
    off = np.flatnonzero((y < 1e16) | (y >= 1e17))
    if off.size:
        X[off] += np.where(y[off] < 1e16, -1, 1)
        y[off], d[off] = _scaled(a[off], X[off], p10)
    # y - d is exact, and rounding it (or y) to double cannot reach the
    # margin; a y still out of range is undecided too
    ok = np.abs(np.abs((y - d).astype(float)) - 0.5) > float(
        2 * _EPS) * y.astype(float)
    ok[off] &= (y[off] >= 1e16) & (y[off] < 1e17)
    carry = d == 1e17
    X += carry
    d = np.where(carry, 1e16, d).astype(np.int64)
    groups = np.empty((6, n), dtype=np.int64)
    for i in range(5, 0, -1):
        q = d // 1000
        groups[i] = d - 1000 * q
        d = q
    groups[0] = d
    rows = np.empty((n, 8), dtype=np.uint32)
    rows[:, :6] = cells[groups.T]
    rows[:, 6] = cells[np.abs(X)]
    tail = b".e" + (end.encode() or b"\0")
    signs = np.frombuffer(tail + b"+" + tail + b"-", dtype=np.uint32)
    rows[:, 7] = signs[(X < 0).view(np.int8)]
    # significant digits: up to the last nonzero digit of the last nonzero
    # group (group 0 holds the leading "0" and the first two digits)
    last = 5 - np.argmax(groups[::-1] != 0, axis=0)
    k = 3 * last + 2 - zeros[groups[last, np.arange(n)]]
    cls = np.where((X < -4) | (X > 16), 21 + (np.abs(X) >= 100), X + 4)
    index = layout[17 * cls + k - 1]
    index += 32 * np.arange(n)[:, None]
    out = rows.view(np.uint8).reshape(-1)[index]
    return out.view(f"S{_WIDTH}").ravel(), np.flatnonzero(~ok)


def _float_words(values, end):
    """The %.17g word plus end of each sorted distinct magnitude of a
    float column, one NUL-padded bytes array: from _digit_words when there
    are at least VECTOR_MIN, with format for 0, inf, NaN and every
    undecided value; else from format alone (b"%.17g" % v, as format)."""
    tpl = b"%.17g" + end.encode()
    if len(values) < VECTOR_MIN:
        return np.array([tpl % v for v in values.tolist()], dtype="S")
    lo = int(np.searchsorted(values, 0.0, side="right"))
    hi = int(np.searchsorted(values, np.inf))
    undecided = [*range(lo), *range(hi, len(values))]
    words = np.empty(len(values), dtype=f"S{_WIDTH}")
    for c in range(lo, hi, CHUNK):
        stop = min(c + CHUNK, hi)
        words[c:stop], left = _digit_words(values[c:stop], end)
        undecided += (left + c).tolist()
    words[undecided] = [tpl % v for v in values[undecided].tolist()]
    return words


def _words(col, end=""):
    """(words, index, negative): the fmt bytes plus end of each distinct
    magnitude of a column once, one NUL-padded bytes array; each cell's
    word index; and whether each cell takes "-", None when none does: a
    float with a set sign bit does (not a NaN, as fmt)."""
    col = np.asarray(col)
    if col.dtype.kind != "f":
        values, index = np.unique(col, return_inverse=True)
        tpl = b"%d" + end.encode()
        return (np.array([tpl % v for v in values.tolist()], dtype="S"),
                index, None)
    values, index = np.unique(np.abs(col), return_inverse=True)
    words = _float_words(values.astype(np.float64, copy=False), end)
    negative = np.signbit(col) & ~np.isnan(col)
    return words, index, negative if negative.any() else None


def write_csv(path, header, columns) -> None:
    """Columns of numbers, written by fmt from one (rows, width) byte
    block per BLOCK rows, no Python object per cell: each column's slice is
    a sign byte ("-" or NUL) if it has a negative cell, then its words by
    np.take; the block is written without its NUL bytes."""
    ends = [","] * (len(columns) - 1) + ["\n"]
    parts = [_words(c, end) for c, end in zip(columns, ends)]
    n = len(parts[0][1])
    if any(len(index) != n for _, index, _ in parts):
        raise ValueError("all columns must have equal length")
    width = sum(w.itemsize + (neg is not None) for w, _, neg in parts)
    block = np.empty((min(n, BLOCK), width), dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for r in range(0, n, BLOCK):
            rows, k = block[:n - r], 0
            for words, index, negative in parts:
                if negative is not None:
                    np.multiply(negative[r:r + BLOCK], ord("-"),
                                out=rows[:, k], dtype=np.uint8)
                    k += 1
                # "clip": the indices are in range, and "raise" buffers out
                w = words.itemsize
                np.take(words.view((np.uint8, w)), index[r:r + BLOCK], 0,
                        rows[:, k:k + w], "clip")
                k += w
            fh.write(rows.tobytes().translate(None, b"\0"))


def read_csv(path):
    """Return (header, columns-as-float-arrays)."""
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = [np.array([float(r[i]) for r in rows]) for i in range(len(header))]
    return header, cols
