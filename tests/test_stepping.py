import numpy as np
import pytest

from nlfkpp import gridsim, manifold, planar, spectral, stepping
from nlfkpp.config import ConfigError
from nlfkpp.kernel import CircleKernelParams

KERNEL = CircleKernelParams(1.0, 1.0, 1.0)


def run_grid(t0, t_end, dt):
    return gridsim.integrate(gridsim.GridState(16, np.ones(16), t0), KERNEL,
                             1.0, 0.2, 0.0, dt, t_end)


def run_spectral(t0, t_end, dt):
    return spectral.integrate(np.eye(3)[0], KERNEL, 1.0, 0.2, 0.0, dt, t_end,
                              t0=t0)


def run_manifold(t0, t_end, dt):
    spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                   b=manifold.gaussian_influence(1.0, 1.0),
                                   kappa=0.2)
    return manifold.integrate(manifold.circle_state(1.0, 16, np.ones_like, t0),
                              spec, t_end, dt)


def run_planar(t0, t_end, dt):
    return planar.run2d(planar.Field2D(3.0, 16, np.ones((16, 16)), t0),
                        planar.GaussianKernel2D(1.0, 1.0), 1.0, 0.2, dt, t_end)


RUNNERS = pytest.mark.parametrize(
    "run", [run_grid, run_spectral, run_manifold, run_planar],
    ids=["grid", "spectral", "manifold", "planar"])


@RUNNERS
def test_every_solver_returns_the_drivers_record(run):
    rec = run(2.0, 3.0, 0.01)
    assert isinstance(rec, stepping.Record)
    assert rec.t == 3.0


@RUNNERS
@pytest.mark.parametrize("t0, t_end, dt, message", [
    (0.0, 1.0, -0.01, "must be positive"),
    (0.0, 1.0, 0.0, "must be positive"),
    (0.0, 1.0, np.inf, "must be positive and finite"),
    (5.0, 1.0, 0.01, "must be >= 0"),
    (0.0, np.inf, 0.01, "must be finite"),
    (0.0, 1.005, 0.01, "is not a whole number of steps"),
], ids=["negative_dt", "zero_dt", "infinite_dt", "t_end_before_t0",
        "infinite_t_end", "off_grid"])
def test_run_length_checked(run, t0, t_end, dt, message):
    # the shared driver derives the step count, so every solver rejects a
    # run it cannot take in whole steps of dt
    with pytest.raises(ValueError, match=message):
        run(t0, t_end, dt)


@pytest.mark.parametrize("D", [-0.1, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("run", [
    lambda D: gridsim.integrate(gridsim.GridState(16, np.ones(16)), KERNEL,
                                1.0, 0.2, D, 0.01, 0.1),
    lambda D: spectral.integrate(np.eye(3)[0], KERNEL, 1.0, 0.2, D, 0.01, 0.1),
    lambda D: planar.run2d(planar.gaussian_ring(3.0, 16, 1.0, 0.3, D=D),
                           planar.GaussianKernel2D(1.0, 1.0), 1.0, 0.2, 0.01,
                           0.1),
], ids=["grid", "spectral", "planar"])
def test_negative_diffusion_rejected(run, D):
    # a library call gets no ConfigError from the CLI's validation, so each
    # solver rejects a negative (or NaN) D itself instead of running it as 0
    with pytest.raises(ValueError, match="must be >= 0"):
        run(D)


def test_single_step_late_in_a_run():
    # t + dt rounds at the scale of t, not of dt: one step is still one
    t, dt = 10.0, 1e-7
    grid = gridsim.step(gridsim.GridState(16, np.ones(16), t), KERNEL,
                        1.0, 0.2, 0.0, dt)
    field = planar.run2d(planar.Field2D(3.0, 16, np.ones((16, 16)), t),
                         planar.GaussianKernel2D(1.0, 1.0), 1.0, 0.2, dt,
                         t + dt)
    assert grid.t == field.t == t + dt


def with_value(shape, index, value):
    y = np.ones(shape)
    y[index] = value
    return y


CIRCLE = manifold.circle_state(1.0, 16, np.ones_like)


def manifold_run(value, part):
    """A static 16-node circle run from a state whose part, "rho" or "X",
    holds value at node 3."""
    spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                   b=manifold.gaussian_influence(1.0, 1.0),
                                   kappa=0.2)
    X, rho = CIRCLE.X.copy(), CIRCLE.rho.copy()
    (rho if part == "rho" else X)[3] = value
    return manifold.integrate(manifold.ManifoldState(CIRCLE.s, X, rho), spec,
                              0.1, 0.01)


NONFINITE_RUNS = {
    "grid": lambda v: gridsim.integrate(
        gridsim.GridState(16, with_value(16, 3, v)), KERNEL, 1.0, 0.2, 0.0,
        0.01, 0.1, "euler"),
    "spectral": lambda v: spectral.integrate(
        with_value(3, 1, v) + 0j, KERNEL, 1.0, 0.2, 0.0, 0.01, 0.1),
    "manifold_rho": lambda v: manifold_run(v, "rho"),
    "manifold_X": lambda v: manifold_run(v, "X"),
    "planar": lambda v: planar.run2d(
        planar.Field2D(3.0, 16, with_value((16, 16), (4, 5), v)),
        planar.GaussianKernel2D(1.0, 1.0), 1.0, 0.2, 0.01, 0.1),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name in NONFINITE_RUNS for value in (np.nan, np.inf)])
def test_nonfinite_initial_state_rejected(name, value):
    # a NaN passes the hard-negative and discontinuity checks, so the driver
    # rejects it before the first step instead of reporting a blow-up
    with pytest.raises(ValueError, match="initial state is not finite"):
        NONFINITE_RUNS[name](value)


def clamp_step(y, density=lambda y: y):
    """One euler step of dt = 1 from max(y, 0) to y itself: only the clamp
    acts, on the negatives of y, which the step makes."""
    return stepping.march(np.maximum(y, 0.0), 0.0, 1.0, 1.0,
                          lambda x, t: np.minimum(y, 0.0), "euler",
                          density=density)


class TestBatchedClamp:
    def test_each_run_clamped_against_its_own_max(self):
        y = np.array([[1.0, -1e-12, -1e-12, 1.0],
                      [1e-4, -1e-15, 1e-4, 1e-4]])
        rec = clamp_step(y)
        assert rec.clamped.tolist() == [2, 1]
        assert np.all(rec.y >= 0.0)
        assert rec.row(1).clamped == 1

    def test_round_off_beside_a_large_run_is_hard_beside_a_small_one(self):
        # -1e-12 lies in the band of a max of 1 but below that of 1e-4
        y = np.array([[1.0, 1.0, 1.0, 1.0],
                      [1e-4, -1e-12, 1e-4, 1e-4]])
        assert stepping.hard_negative(y)
        with pytest.raises(RuntimeError, match="hard negative"):
            clamp_step(y)
        # one run over the whole array: judged against the max of it all
        assert not stepping.hard_negative(y.reshape(1, -1))
        rec = clamp_step(y, lambda y: y.reshape(1, -1))
        assert rec.clamped.tolist() == [1]
        assert rec.y[1, 1] == 0.0

    def test_planar_field_is_one_run(self):
        # a (n, n) field keeps its field-wide max: a row of small values
        # does not make its round-off negatives hard
        u = np.ones((16, 16))
        u[0] = 1e-4
        u[0, 3] = -1e-12
        field = planar.Field2D(3.0, 16, u)
        out = planar.run2d(field, planar.GaussianKernel2D(1.0, 1.0), 1.0,
                           0.2, 0.01, field.t + 0.01)
        assert out.y[0, 3] >= 0.0
        assert out.clamped.tolist() == [1]


def constant_rhs(row, value):
    """An rhs that adds value / dt per step to row `row` of a batch."""
    def rhs(y, t):
        out = np.zeros_like(y)
        out[row] = value
        return out
    return rhs


class TestFusedReductions:
    # march takes one row max and one min of the density view per step for
    # the blow-up guard, the clamp and the stability check

    def test_nan_trips_the_blow_up_guard(self):
        y = np.ones((3, 8))
        for density in (lambda y: y, lambda y: y.reshape(1, -1), None):
            with pytest.raises(RuntimeError) as err:
                stepping.march(y, 0.0, 1.0, 1.0, constant_rhs(1, np.nan),
                               "euler", density=density)
            assert str(err.value) == "solution blew up at t=1.0: max|y| = nan"

    @pytest.mark.parametrize("value, text", [(np.inf, "inf"),
                                             (-1e13, "1.000e+13"),
                                             (2e12, "2.000e+12")])
    def test_blow_up_either_sign(self, value, text):
        with pytest.raises(RuntimeError) as err:
            stepping.march(np.ones((2, 8)), 0.0, 1.0, 1.0,
                           constant_rhs(1, value), "euler",
                           density=lambda y: y)
        assert str(err.value) == f"solution blew up at t=1.0: max|y| = {text}"

    @pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf"),
                                             (-np.inf, "inf")])
    def test_blow_up_outside_a_partial_view(self, value, text):
        # the view holds y[:2] alone, so max|y| is taken over all of y
        def rhs(y, t):
            out = np.zeros_like(y)
            out[2:] = value
            return out
        with pytest.raises(RuntimeError) as err:
            stepping.march(np.ones(4), 0.0, 1.0, 1.0, rhs, "euler",
                           density=lambda y: y[None, :2])
        assert str(err.value) == f"solution blew up at t=1.0: max|y| = {text}"

    def test_hard_negative_in_one_row(self):
        y = np.ones((3, 8))
        with pytest.raises(RuntimeError) as err:
            stepping.march(y, 0.0, 1.0, 1.0, constant_rhs(2, -1.5), "euler",
                           density=lambda y: y)
        assert str(err.value) == ("density has a hard negative value -0.5 at "
                                  "t=1.0; the scheme is unstable")

    def test_clamp_counts_per_row_as_alone(self):
        rng = np.random.default_rng(3)
        y = rng.random((5, 32)) * np.array([[1.0], [1e-4], [1.0], [1e3], [1.0]])
        for i, k in ((0, 3), (0, 9), (1, 4), (3, 0), (3, 31), (3, 17)):
            y[i, k] = -1e-12 * y[i].max() * rng.random()
        y[4, 5] = -0.0
        rec = clamp_step(y)
        assert rec.clamped.tolist() == [2, 1, 0, 3, 0]
        for i in range(5):
            alone = clamp_step(y[i], lambda y: y[None])
            assert alone.clamped.tolist() == [rec.clamped[i]]
            assert np.array_equal(alone.y, rec.y[i])

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_stability_message(self, unit_kernel, scheme):
        # explicit diffusion: bound 0.8 ds^2 / (2 D) from the first step
        n, D, dt = 64, 50.0, 0.01
        ds = 2.0 * np.pi / n
        with pytest.raises(ConfigError) as err:
            gridsim.integrate_batch(np.ones((2, n)), [unit_kernel] * 2,
                                    (1.0, 1.0), (0.2, 0.2), (0.1, D), dt,
                                    0.1, scheme)
        assert str(err.value) == (
            f"numerics.dt: dt={dt} violates the stability bound "
            f"{0.8 * ds**2 / (2.0 * D):.3e} for scheme {scheme!r}")

    def test_stability_bound_read_from_each_rows_max(self, unit_kernel):
        # the run with a = 50 grows from 0.01 until a + kappa lam0 max rho
        # breaks the reaction bound mid-run; the batch fails where that run
        # fails alone
        args = ((50.0, 1.0), (0.001, 0.001), (0.0, 0.0), 0.01, 1.0, "euler")
        rho0 = np.vstack([np.full(32, 1.0), np.full(32, 0.01)])
        with pytest.raises(ConfigError) as batch:
            gridsim.integrate_batch(rho0[::-1], [unit_kernel] * 2, *args)
        with pytest.raises(ConfigError) as alone:
            gridsim.integrate_batch(rho0[1:], [unit_kernel], args[0][:1],
                                    args[1][:1], args[2][:1], *args[3:])
        assert str(batch.value) == str(alone.value)
        # the initial bound is 0.8 / (50 + kappa lam0 0.01) > 0.0159; one
        # euler step grows max rho by at most 1 + 50 dt, so the first bound
        # under dt is above 0.8 / (50 + 1.5 (80 - 50))
        bound = float(str(alone.value).split("bound ")[1].split()[0])
        assert 0.8 / 95.0 < bound < 0.01

    def test_limit_reads_the_views_row_maxima(self):
        # before each step, limit gets the state and the row maxima of its
        # density view, taken before the clamp
        seen = []

        def limit(y, top):
            seen.append((y.copy(), top.copy()))
            return 1.0

        y0 = np.array([[1.0, 2.0, 0.5], [3.0, -1e-12, 1.0]])
        rec = stepping.march(y0, 0.0, 2.0, 1.0, lambda y, t: 0.0 * y,
                             "euler", limit=limit, density=lambda y: y)
        assert [top.tolist() for _, top in seen] == [[2.0, 3.0]] * 2
        assert seen[1][0][1, 1] == 0.0  # the first step's clamp
        assert rec.clamped.tolist() == [0, 1]

    def test_hard_negative_initial_density_rejected(self, unit_kernel):
        # the driver checks the initial view, for every solver alike
        rho0 = np.ones((2, 16))
        rho0[1, 3] = -0.5
        message = "density has a hard negative value -0.5; the scheme is " \
                  "unstable"
        with pytest.raises(ValueError) as direct:
            stepping.march(rho0, 0.0, 1.0, 1.0, lambda y, t: 0.0 * y,
                           "euler", density=lambda y: y)
        with pytest.raises(ValueError) as batch:
            gridsim.integrate_batch(rho0, [unit_kernel] * 2, (1.0, 1.0),
                                    (0.2, 0.2), (0.0, 0.0), 0.01, 0.1)
        assert str(direct.value) == str(batch.value) == message


@pytest.mark.parametrize("run, clamped", [
    (lambda: gridsim.integrate_batch(np.ones((3, 16)), [KERNEL] * 3,
                                     [1.0] * 3, [0.2] * 3, [0.0] * 3, 0.01,
                                     0.1), [0, 0, 0]),
    (lambda: run_planar(0.0, 0.1, 0.01), [0]),
    (lambda: run_manifold(0.0, 0.1, 0.01), [0]),
    (lambda: run_spectral(0.0, 0.1, 0.01), 0),
], ids=["grid", "planar", "manifold", "spectral"])
def test_clamp_count_per_run_of_the_density_view(run, clamped):
    # one count per run of the view; a state without a view counts 0
    assert np.asarray(run().clamped).tolist() == clamped


def grid_batch(steps, store_every, reduce=None, kinds=("gaussian_bump",
                                                       "cutoff"), D=0.1):
    """An imex batch of one N = 64 run per initial kind, stepped from 0 by
    steps of 0.01 and stored every store_every steps."""
    rho0 = [gridsim.make_initial(kind, 64).rho for kind in kinds]
    runs = len(kinds)
    return gridsim.integrate_batch(rho0, [KERNEL] * runs, [1.0] * runs,
                                   [0.2] * runs, [D] * runs, 0.01,
                                   steps * 0.01, "imex",
                                   store_every=store_every, reduce=reduce)


def recording(calls):
    """A reduce that records the size of each stack it gets and keeps a
    copy of each state as its frame, so its frames are the per-frame
    result of storing each state as it is."""
    def reduce(stack):
        calls.append(len(stack))
        return [state.copy() for state in stack]
    return reduce


class TestBlockReduce:
    """reduce maps a (k, *y.shape) stack of stored states to their k frames,
    one call per REDUCE_BLOCK of them and one for what remains."""

    @pytest.mark.parametrize("frames, steps, store_every", [
        (1, 0, 1), (15, 14, 1), (16, 15, 1), (17, 16, 1), (401, 2000, 5),
    ])
    def test_frames_equal_the_per_frame_results(self, frames, steps,
                                                store_every):
        calls = []
        got = grid_batch(steps, store_every, recording(calls))
        want = grid_batch(steps, store_every)
        assert got.times == want.times
        assert len(got.frames) == len(want.frames) == frames
        for block, alone in zip(got.frames, want.frames):
            assert np.array_equal(block, alone)
        assert max(calls) <= stepping.REDUCE_BLOCK
        assert len(calls) == -(-frames // stepping.REDUCE_BLOCK)
        assert sum(calls) == frames
        for i in range(2):
            row, alone = got.row(i), want.row(i)
            assert (row.t, row.clamped, row.times) == \
                (alone.t, alone.clamped, alone.times)
            assert np.array_equal(row.y, alone.y)
            for block, frame in zip(row.frames, alone.frames):
                assert np.array_equal(block, frame)

    def test_a_batch_the_clamp_changes(self):
        # weak diffusion of the cutoff's jump leaves round-off negatives,
        # which the clamp zeroes before the state is stored
        calls = []
        got = grid_batch(100, 3, recording(calls), D=0.001)
        want = grid_batch(100, 3, D=0.001)
        assert got.clamped[1] > 0
        assert len(got.frames) == len(want.frames) == 35
        for block, alone in zip(got.frames, want.frames):
            assert np.array_equal(block, alone)
        assert calls == [16, 16, 3]

    def test_no_frames_no_calls(self):
        calls = []
        rec = grid_batch(10, 0, recording(calls))
        assert (rec.times, rec.frames, calls) == ([], [], [])
