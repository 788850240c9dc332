import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfkpp import analysis, exact, gridsim
from conftest import richardson_order, sampled


S512 = -math.pi + 2.0 * math.pi * np.arange(512) / 512


def count_peaks_walk(profile, prominence: float = 0.05) -> int:
    """Oracle for ``analysis.count_peaks``: the same rule as a literal loop,
    walking downhill from each candidate maximum one node at a time."""
    rho = np.asarray(profile, dtype=float)
    n = len(rho)
    if n < 8:
        raise ValueError(f"profile too short for peak counting: {n} < 8")
    mean = float(np.mean(rho))
    if mean <= 0:
        return 0
    threshold = prominence * mean
    left = np.roll(rho, 1)
    right = np.roll(rho, -1)
    # collapse plateaus: a candidate is the left edge of a flat top
    cand = np.flatnonzero((rho > left) & (rho >= right))
    count = 0
    for k in cand:
        # skip interior/right edges of plateaus
        if rho[(k + 1) % n] == rho[k]:
            m = (k + 1) % n
            while rho[m] == rho[k]:
                m = (m + 1) % n
            if rho[m] > rho[k]:
                continue
        lo_l = rho[k]
        i = k
        while True:
            i = (i - 1) % n
            if rho[i] > lo_l:
                break
            lo_l = min(lo_l, rho[i])
            if i == k:
                break
        lo_r = rho[k]
        i = k
        while True:
            i = (i + 1) % n
            if rho[i] > lo_r:
                break
            lo_r = min(lo_r, rho[i])
            if i == k:
                break
        if rho[k] - max(lo_l, lo_r) >= threshold:
            count += 1
    return count


class TestCountPeaks:
    def test_constant_profile(self):
        assert analysis.count_peaks(np.ones(64)) == 0

    def test_cosine_mode_count(self):
        assert analysis.count_peaks(1.0 + 0.5 * np.cos(4 * S512)) == 4
        assert analysis.count_peaks(1.0 + 0.5 * np.cos(7 * S512)) == 7

    def test_subthreshold_ripple_ignored(self):
        profile = 1.0 + 0.01 * np.cos(6 * S512)  # 1% < 5% prominence
        assert analysis.count_peaks(profile) == 0
        assert analysis.count_peaks(profile, prominence=0.005) == 6

    def test_peak_straddling_the_seam(self):
        # maximum at s = -pi must still be a single periodic peak
        assert analysis.count_peaks(1.0 + 0.5 * np.cos(S512 - math.pi)) == 1

    def test_short_profile_rejected(self):
        with pytest.raises(ValueError):
            analysis.count_peaks(np.ones(4))

    @given(st.integers(min_value=0, max_value=511),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_rotation_and_scaling_invariance(self, shift, scale):
        profile = 1.0 + 0.5 * np.cos(3 * S512) + 0.2 * np.cos(5 * S512)
        base = analysis.count_peaks(profile)
        assert analysis.count_peaks(scale * np.roll(profile, shift)) == base

    # small integers force ties, so plateaus (also across the seam) are common
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=8,
                    max_size=64),
           st.integers(min_value=0, max_value=63),
           st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=400, deadline=None)
    def test_matches_downhill_walk(self, values, shift, prominence):
        profile = np.roll(np.array(values, dtype=float), shift)
        assert analysis.count_peaks(profile, prominence) == \
            count_peaks_walk(profile, prominence)

    def test_plateau_ending_rising_is_no_peak(self):
        profile = np.array([1.0, 2.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0])
        assert analysis.count_peaks(profile) == count_peaks_walk(profile) == 1

    def test_plateau_ending_falling_is_one_peak(self):
        profile = np.array([1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
        assert analysis.count_peaks(profile) == count_peaks_walk(profile) == 1

    def test_plateau_across_the_seam(self):
        profile = np.array([3.0, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0])
        assert analysis.count_peaks(profile) == count_peaks_walk(profile) == 2

    def test_all_nan_profile(self):
        profile = np.full(16, np.nan)
        assert analysis.count_peaks(profile) == count_peaks_walk(profile) == 0

    def test_single_inf_spike(self):
        profile = np.ones(16)
        profile[5] = np.inf
        assert analysis.count_peaks(profile) == count_peaks_walk(profile) == 1

    def test_matches_downhill_walk_on_grid_frames(self, unit_kernel):
        # frames of a circle-grid run with several real, unequal peaks
        rec = gridsim.integrate(sampled("cutoff", 128, edge=2.0), unit_kernel,
                                1.0, 0.2, 0.0, 0.05, 15.0, "rk4",
                                store_every=10)
        for rho in rec.frames[1:]:  # every 0.5 in time
            for prominence in (0.0, 0.05):
                assert analysis.count_peaks(rho, prominence) == \
                    count_peaks_walk(rho, prominence)


def special_row(kind: str, n: int) -> np.ndarray:
    """A row of n values with a NaN, an inf spike, no variation or a flat
    top across the seam."""
    row = np.ones(n)
    if kind == "nan":
        row[n // 3] = np.nan
    elif kind == "inf_spike":
        row[n // 2] = np.inf
    elif kind == "constant":
        row[:] = 2.5
    else:  # seam_plateau
        row[[0, 1, -1]] = 3.0
        row[n // 2] = 2.0
    return row


@st.composite
def stacks(draw):
    """(runs, n) stacks of small-integer rows (ties, plateaus, peaks in
    numbers that differ from row to row) and of float rows (whose sums
    round, so their order shows) mixed with the special rows."""
    n = draw(st.integers(min_value=8, max_value=160))
    kinds = st.sampled_from(["nan", "inf_spike", "constant", "seam_plateau"])
    ints = st.lists(st.integers(min_value=0, max_value=4), min_size=n,
                    max_size=n)
    floats = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=n,
                      max_size=n)
    rows = draw(st.lists(st.one_of(kinds, ints, floats), min_size=1,
                         max_size=6))
    shift = draw(st.integers(min_value=0, max_value=n - 1))
    return np.roll(np.array([special_row(r, n) if isinstance(r, str) else r
                             for r in rows], dtype=float), shift, axis=1)


def same_value(a, b) -> bool:
    return type(a) is type(b) and (a == b or (a != a and b != b))


# NaN and inf rows warn in numpy's arithmetic, as they do one at a time
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBatchedDiagnostics:
    @given(stacks(), st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_each_row_counts_as_the_downhill_walk(self, stack, prominence):
        counts = analysis.count_peaks(stack, prominence)
        assert counts.shape == (len(stack),)
        for row, count in zip(stack, counts):
            assert count == count_peaks_walk(row, prominence) == \
                analysis.count_peaks(row, prominence)

    @given(stacks(), st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_each_row_diagnosed_as_alone(self, stack, prominence):
        stack = stack + 1.0  # no zero-mean row
        ds = 2.0 * math.pi / stack.shape[1]
        batch = analysis.diagnose(stack, ds, prominence)
        assert len(batch) == len(stack)
        for row, got in zip(stack, batch):
            want = analysis.diagnose(row, ds, prominence)
            assert type(got.n_peaks) is int
            for name in ("n_peaks", "homogeneity", "mass"):
                assert same_value(getattr(got, name), getattr(want, name)), name
            assert same_value(analysis.homogeneity(row), want.homogeneity)

    def test_wide_stack_with_plateaus_counts_as_the_downhill_walk(self):
        # the flat shifts' row-end fix-ups on a (64, 512) stack: rows of
        # small integers (ties everywhere) and of wide steps rolled so that
        # plateaus straddle the seam, checked row by row
        rng = np.random.default_rng(11)
        stack = rng.integers(0, 4, (64, 512)).astype(float)
        steps = np.repeat(rng.integers(0, 5, (32, 32)), 16, axis=1)
        stack[::2] = [np.roll(r, k) for r, k in
                      zip(steps, rng.integers(0, 16, 32))]
        for prominence in (0.0, 0.05, 0.5):
            counts = analysis.count_peaks(stack, prominence)
            assert counts.tolist() == [
                count_peaks_walk(row, prominence) for row in stack]

    def test_rows_with_different_peak_counts(self):
        stack = np.array([1.0 + 0.5 * np.cos(k * S512 + 0.1)
                          for k in range(1, 8)])
        assert analysis.count_peaks(stack).tolist() == list(range(1, 8))
        batch = analysis.diagnose(stack, 0.1)
        assert [d.n_peaks for d in batch] == list(range(1, 8))
        assert batch == [analysis.diagnose(row, 0.1) for row in stack]
        assert np.allclose(analysis.homogeneity(stack), 1.0, atol=1e-4)

    def test_zero_mean_row_raises(self):
        stack = np.ones((3, 16))
        stack[1] = 0.0
        with pytest.raises(ValueError, match="zero-mean"):
            analysis.diagnose(stack, 0.1)
        with pytest.raises(ValueError, match="zero-mean"):
            analysis.homogeneity(stack)
        # a zero-mean row has no peaks
        assert analysis.count_peaks(stack).tolist() == [0, 0, 0]

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="stack"):
            analysis.count_peaks(np.ones((2, 2, 16)))
        with pytest.raises(ValueError, match="too short"):
            analysis.diagnose(np.ones((2, 4)), 0.1)

    def test_diagnostics_serialise_as_python_numbers(self):
        # manifest.json holds them: json rejects numpy integers
        d = analysis.diagnose(np.vstack([1.0 + 0.5 * np.cos(3 * S512)] * 2),
                              0.1)[1]
        assert json.loads(json.dumps(dataclasses.asdict(d))) == \
            dataclasses.asdict(d)
        assert [type(v) for v in dataclasses.asdict(d).values()] == \
            [int, float, float]


class TestHomogeneity:
    def test_constant_is_exactly_zero(self):
        assert analysis.homogeneity(np.full(32, 2.7)) == 0.0

    def test_small_cosine(self):
        for eps in (0.01, 0.05, 0.1):
            h = analysis.homogeneity(1.0 + eps * np.cos(S512))
            assert h == pytest.approx(2.0 * eps, abs=1e-12)


class TestRelative:
    def test_ratio(self):
        assert analysis.relative(1.0, 4.0) == 0.25
        assert analysis.relative_linf([1.0, -3.0], [2.0, -4.0]) == 0.25

    def test_zero_reference(self):
        # equal to a zero reference is no error; any departure is infinite
        assert analysis.relative(0.0, 0.0) == 0.0
        assert analysis.relative(1e-300, 0.0) == math.inf
        assert analysis.relative_linf(np.zeros(8), np.zeros(8)) == 0.0
        assert analysis.relative_linf(np.full(8, 1e-3), np.zeros(8)) == math.inf


class TestSteadyStateTime:
    def test_exact_homogeneous_detection(self):
        m = exact.HomogeneousModel(1.0, 0.2, 2.926453923110091, 1.0)
        alpha = 0.95
        t = np.arange(0.0, 20.0, 0.01)
        profiles = np.outer(exact.rho0(t, m), np.ones(16))
        # deviation threshold from the alpha criterion: |drho/dt| at T_c
        t_c = exact.t_quasi_steady(alpha, m)
        tol = float(exact.rho0_dt(t_c, m))
        detected = analysis.steady_state_time(t, profiles, tol)
        assert abs(detected - t_c) <= 0.02

    def test_growth_never_steady(self):
        t = np.arange(0.0, 5.0, 0.1)
        profiles = np.outer(np.exp(t), np.ones(8))
        assert analysis.steady_state_time(t, profiles, 1e-6) == \
            analysis.NEVER_STEADY

    def test_constant_input_is_steady_at_start(self):
        t = np.arange(0.0, 1.0, 0.1)
        profiles = np.ones((len(t), 8))
        assert analysis.steady_state_time(t, profiles, 1e-6) == 0.0


class TestRichardsonOrder:
    def test_exact_orders(self):
        assert richardson_order(4.0, 1.0, 2.0) == pytest.approx(2.0)
        assert richardson_order(16.0, 1.0, 2.0) == pytest.approx(4.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            richardson_order(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            richardson_order(1.0, 1.0, 1.0)


class TestDiagnostics:
    def test_diagnose_bundle(self):
        profile = 1.0 + 0.5 * np.cos(4 * S512)
        ds = 2.0 * math.pi / 512
        d = analysis.diagnose(profile, ds)
        assert d.n_peaks == 4
        assert d.mass == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert d.homogeneity == pytest.approx(1.0, abs=1e-6)
