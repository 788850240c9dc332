import math

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
    words, index = csvio._words(col)
    text = [words[i] for i in index.tolist()]
    assert text == [csvio.fmt(v) for v in col]
    # equal cells share one str: each distinct value was formatted once
    assert len({id(word) for word in text}) == len(set(text))


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
