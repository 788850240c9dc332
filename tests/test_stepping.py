import numpy as np
import pytest

from nlfkpp import gridsim, manifold, planar, spectral, stepping
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
    # one euler step that leaves y as it is, so only the clamp acts
    return stepping.march(y, 0.0, 1.0, 1.0, lambda y, t: np.zeros_like(y),
                          "euler", density=lambda y: y, batched=batched)


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
