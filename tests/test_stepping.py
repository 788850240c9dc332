import numpy as np
import pytest

from nlfkpp import gridsim, manifold, planar, spectral, stepping
from nlfkpp.config import ConfigError
from nlfkpp.kernel import CircleKernelParams

KERNEL = CircleKernelParams(1.0, 1.0, 1.0)


def run_grid(t0, t_end, dt):
    return gridsim.run(gridsim.GridState(16, np.ones(16), t0), KERNEL,
                       1.0, 0.2, 0.0, dt, t_end)


def run_spectral(t0, t_end, dt):
    return spectral.integrate(spectral.SpectralState(2, np.eye(5)[2], t0),
                              spectral.DiffusiveRates(1.0), KERNEL, 0.2,
                              t_end, dt)


def run_manifold(t0, t_end, dt):
    spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                   b=manifold.gaussian_influence(1.0, 1.0),
                                   kappa=0.2)
    return manifold.integrate(manifold.circle_state(1.0, 16, np.ones_like, t0),
                              spec, t_end, dt)


def run_planar(t0, t_end, dt):
    return planar.run2d(planar.Field2D(3.0, 16, np.ones((16, 16)), t0),
                        planar.GaussianKernel2D(1.0, 1.0), 1.0, 0.2, dt, t_end)


@pytest.mark.parametrize("run", [run_grid, run_spectral, run_manifold,
                                 run_planar],
                         ids=["grid", "spectral", "manifold", "planar"])
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


def test_single_step_late_in_a_run():
    # t + dt rounds at the scale of t, not of dt: one step is still one
    t, dt = 10.0, 1e-7
    grid = gridsim.step(gridsim.GridState(16, np.ones(16), t), KERNEL,
                        1.0, 0.2, 0.0, dt)
    field = planar.step2d(planar.Field2D(3.0, 16, np.ones((16, 16)), t),
                          planar.GaussianKernel2D(1.0, 1.0), 1.0, 0.2, dt)
    assert grid.t == field.t == t + dt


def zero_step(y, batched):
    # one euler step that leaves y as it is, so only the clamp acts; a
    # batched state is its own density
    return stepping.march(y, 0.0, 1.0, 1.0, lambda y, t: np.zeros_like(y),
                          "euler", density=None if batched else (lambda y: y),
                          batched=batched)


class TestBatchedClamp:
    def test_each_run_clamped_against_its_own_max(self):
        y = np.array([[1.0, -1e-12, -1e-12, 1.0],
                      [1e-4, -1e-15, 1e-4, 1e-4]])
        rec = zero_step(y, batched=True)
        assert rec.clamped.tolist() == [2, 1]
        assert np.all(rec.y >= 0.0)
        assert rec.row(1).clamped == 1

    def test_round_off_beside_a_large_run_is_hard_beside_a_small_one(self):
        # -1e-12 lies in the band of a max of 1 but below that of 1e-4
        y = np.array([[1.0, 1.0, 1.0, 1.0],
                      [1e-4, -1e-12, 1e-4, 1e-4]])
        assert stepping.hard_negative(y, batched=True)
        with pytest.raises(RuntimeError, match="hard negative"):
            zero_step(y, batched=True)
        # one run over the whole array: judged against the max of it all
        assert not stepping.hard_negative(y)
        rec = zero_step(y, batched=False)
        assert rec.clamped == 1
        assert rec.y[1, 1] == 0.0

    def test_planar_field_is_one_run(self):
        # a (n, n) field keeps its field-wide max: a row of small values
        # does not make its round-off negatives hard
        u = np.ones((16, 16))
        u[0] = 1e-4
        u[0, 3] = -1e-12
        field = planar.Field2D(3.0, 16, u)
        out = planar.step2d(field, planar.GaussianKernel2D(1.0, 1.0), 1.0,
                            0.2, 0.01)
        assert out.u[0, 3] >= 0.0


def constant_rhs(row, value):
    """An rhs that adds value / dt per step to row `row` of a batch."""
    def rhs(y, t):
        out = np.zeros_like(y)
        out[row] = value
        return out
    return rhs


class TestFusedReductions:
    # a batched march takes one row max and one min per step for the
    # blow-up guard, the clamp and the stability check

    def test_nan_trips_the_blow_up_guard(self):
        y = np.ones((3, 8))
        for batched in (True, False):
            with pytest.raises(RuntimeError) as err:
                stepping.march(y, 0.0, 1.0, 1.0, constant_rhs(1, np.nan),
                               "euler", batched=batched)
            assert str(err.value) == "solution blew up at t=1.0: max|y| = nan"

    @pytest.mark.parametrize("value, text", [(np.inf, "inf"),
                                             (-1e13, "1.000e+13"),
                                             (2e12, "2.000e+12")])
    def test_blow_up_either_sign(self, value, text):
        with pytest.raises(RuntimeError) as err:
            stepping.march(np.ones((2, 8)), 0.0, 1.0, 1.0,
                           constant_rhs(1, value), "euler", batched=True)
        assert str(err.value) == f"solution blew up at t=1.0: max|y| = {text}"

    def test_hard_negative_in_one_row(self):
        y = np.ones((3, 8))
        with pytest.raises(RuntimeError) as err:
            stepping.march(y, 0.0, 1.0, 1.0, constant_rhs(2, -1.5), "euler",
                           batched=True)
        assert str(err.value) == ("density has a hard negative value -0.5 at "
                                  "t=1.0; the scheme is unstable")

    def test_clamp_counts_per_row_as_alone(self):
        rng = np.random.default_rng(3)
        y = rng.random((5, 32)) * np.array([[1.0], [1e-4], [1.0], [1e3], [1.0]])
        for i, k in ((0, 3), (0, 9), (1, 4), (3, 0), (3, 31), (3, 17)):
            y[i, k] = -1e-12 * y[i].max() * rng.random()
        y[4, 5] = -0.0
        rec = zero_step(y.copy(), batched=True)
        assert rec.clamped.tolist() == [2, 1, 0, 3, 0]
        for i in range(5):
            alone = zero_step(y[i].copy(), batched=False)
            assert alone.clamped == rec.clamped[i]
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

    def test_batched_state_is_its_own_density(self):
        with pytest.raises(ValueError, match="density must be None"):
            stepping.march(np.ones((2, 8)), 0.0, 1.0, 1.0,
                           lambda y, t: 0 * y, "euler",
                           density=lambda y: y, batched=True)
