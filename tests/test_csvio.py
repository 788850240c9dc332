import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfkpp import csvio

# -0.0, both infinities, a NaN of either sign bit, subnormals
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
           -5e-324, 1.5e-310, -2.2250738585072014e-308]
CELLS = {
    np.float64: st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL),
    np.float32: st.floats(width=32) | st.sampled_from(SPECIAL),
    np.bool_: st.booleans(),
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.uint64: st.integers(0, 2**64 - 1) | st.integers(2**63, 2**64 - 1),
}


@st.composite
def columns(draw, size=None):
    """A column of one dtype; its cells are drawn from a small pool, so
    that values repeat."""
    dtype = draw(st.sampled_from(list(CELLS)))
    pool = draw(st.lists(CELLS[dtype], min_size=1, max_size=6))
    n = draw(st.integers(0, 24)) if size is None else size
    cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(cells, dtype=dtype)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csvio") / "cols.csv"


def test_special_cells_cover_both_nan_signs():
    cells = np.array(SPECIAL)
    assert np.signbit(cells[np.isnan(cells)]).tolist() == [False, True]


@settings(max_examples=300, deadline=None)
@given(columns())
def test_words_are_per_cell_fmt_formatted_once(col):
    # the per-value path, and the array path on every column
    for cutoff in (csvio.VECTOR_MIN, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "VECTOR_MIN", cutoff)
            words, index, negative = csvio._words(col)
        assert words.dtype.kind == "S"
        signs = [False] * len(col) if negative is None else negative.tolist()
        assert negative is None or any(signs)
        text = [b"-" * sign + words[i]
                for sign, i in zip(signs, index.tolist())]
        assert text == [csvio.fmt(v).encode() for v in col]
        # one word per distinct magnitude, so each was formatted once; a
        # word holds no NUL byte, which pads it alone
        assert len(set(words.tolist())) == len(words)
        assert all(b"\0" not in word for word in words.tolist())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=200),
       st.integers(0, 2**32 - 1))
def test_raw_bit_patterns_are_per_cell_fmt(csv_path, bits, seed):
    # the drawn bit patterns (hypothesis favours the edges of the range)
    # within a column of random patterns sized past the cutoff
    fill = np.random.default_rng(seed).integers(
        0, 2**64 - 1, csvio.VECTOR_MIN + 64, dtype=np.uint64, endpoint=True)
    col = np.concatenate([np.array(bits, dtype=np.uint64), fill]).view(
        np.float64)
    assert len(np.unique(np.abs(col))) >= csvio.VECTOR_MIN
    cols = [col, col[::-1]]
    csvio.write_csv(csv_path, ["a", "b"], cols)
    expected = "a,b\n" + "".join(
        f"{csvio.fmt(a)},{csvio.fmt(b)}\n" for a, b in zip(*cols))
    assert csv_path.read_bytes() == expected.encode()


def edge_values():
    """Values at the seams of the digit arithmetic: the ends of the
    double range, powers of ten and their neighbours, the fixed/scientific
    switch at 1e-4 and 1e17, and three-digit exponents."""
    tens = 10.0 ** np.arange(-323, 309)
    return np.concatenate([
        [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
         1e17, 9.9999999999999998e16, 1e22, 1e23, 0.1, 0.3, 1.0,
         123456789012345678.0, 9.9999999999999999e-5, 1e-5, 2.5, 0.5],
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])


def test_edge_values_are_fmt_on_the_array_path(tmp_path):
    values = np.unique(edge_values())
    words, undecided = csvio._digit_words(values, "\n")
    # most edges are decided by the array arithmetic itself
    assert len(undecided) < len(values) // 10
    decided = np.setdiff1d(np.arange(len(values)), undecided).tolist()
    assert [words[i] for i in decided] == [
        (csvio.fmt(values[i]) + "\n").encode() for i in decided]
    path = tmp_path / "edges.csv"
    col = np.concatenate([values, -values])
    csvio.write_csv(path, ["x"], [col])
    assert path.read_bytes() == ("x\n" + "".join(
        csvio.fmt(v) + "\n" for v in col)).encode()


def test_every_value_can_fall_back_to_format(tmp_path, monkeypatch):
    # with double's epsilon no digit string is decided, so format writes
    # every word, and the bytes are the same
    rng = np.random.default_rng(5)
    col = rng.standard_normal(3 * csvio.VECTOR_MIN) * 10.0 ** rng.integers(
        -30, 30, 3 * csvio.VECTOR_MIN)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    csvio.write_csv(fast, ["x"], [col])
    monkeypatch.setattr(csvio, "_EPS", np.finfo(np.float64).eps)
    values = np.unique(np.abs(col))
    assert len(csvio._digit_words(values, ",")[1]) == len(values)
    csvio.write_csv(slow, ["x"], [col])
    assert slow.read_bytes() == fast.read_bytes() == ("x\n" + "".join(
        csvio.fmt(v) + "\n" for v in col)).encode()


def test_powers_of_ten_are_correctly_rounded():
    p10 = csvio._tables()[0]
    assert len(p10) == csvio._Q1 - csvio._Q0
    for q, p in zip(range(csvio._Q0, csvio._Q1), p10):
        exact = Fraction(10) ** q
        err = abs(Fraction(*p.as_integer_ratio()) - exact)
        # no long double is nearer: neither neighbour of p
        for nb in (np.nextafter(p, p.dtype.type(0)),
                   np.nextafter(p, p.dtype.type(np.inf))):
            assert err < abs(Fraction(*nb.as_integer_ratio()) - exact), q


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(columns(size=n), min_size=1, max_size=4)))
def test_write_csv_is_per_cell_fmt(csv_path, cols):
    header = [f"c{i}" for i in range(len(cols))]
    csvio.write_csv(csv_path, header, cols)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(csvio.fmt(c[i]) for c in cols) + "\n"
        for i in range(len(cols[0])))
    assert csv_path.read_bytes() == expected.encode()


def test_write_csv_rows_past_one_block(tmp_path):
    # write_csv writes 1024 rows at a time; the rows across the seams of
    # several blocks are those of per-cell fmt, in order
    rng = np.random.default_rng(3)
    n = 3 * 1024 + 5
    cols = [np.arange(n), rng.standard_normal(n).round(2),
            -rng.random(n) * 1e-300]
    path = tmp_path / "long.csv"
    csvio.write_csv(path, ["i", "x", "y"], cols)
    expected = "i,x,y\n" + "".join(
        f"{i},{csvio.fmt(cols[1][i])},{csvio.fmt(cols[2][i])}\n"
        for i in range(n))
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", [csvio.BLOCK + 1, 2 * csvio.BLOCK,
                               2 * csvio.BLOCK + 3])
def test_write_csv_block_seams(tmp_path, n):
    # rows across the seams of BLOCK-row blocks, with words of three widths
    # in one file (integers, format words, digit-path words) and negatives
    # only in the second block or only in the last rows (an integer's sign
    # is part of its word)
    rng = np.random.default_rng(n)
    block = np.arange(n) // csvio.BLOCK
    cols = [np.arange(n) - 3 * (block == 1),
            np.where(block == 1, -1.0, 1.0) * rng.integers(0, 50, n) / 8,
            rng.random(n) * np.where(np.arange(n) >= n - 2, -1e-7, 1e5)]
    assert len({csvio._words(c)[0].itemsize for c in cols}) == 3
    assert [csvio._words(c)[2] is None for c in cols] == [True, False, False]
    path = tmp_path / "seams.csv"
    csvio.write_csv(path, ["i", "x", "y"], cols)
    expected = "i,x,y\n" + "".join(
        ",".join(csvio.fmt(c[i]) for c in cols) + "\n" for i in range(n))
    assert path.read_bytes() == expected.encode()


def test_zero_rows_write_the_header_alone(tmp_path):
    path = tmp_path / "empty.csv"
    csvio.write_csv(path, ["i", "x"], [np.array([], dtype=np.int64), []])
    assert path.read_bytes() == b"i,x\n"
