import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, special

from nlfkpp import analysis, gridsim, manifold, stepping
from nlfkpp.kernel import SQRT_TWO_PI, CircleKernelParams, grid_nodes

from conftest import (bits, circulant_term, gaussian_influence_oracle,
                      richardson_order)


def bump(s):
    return 1.0 / SQRT_TWO_PI + 0.1 * np.exp(-np.asarray(s) ** 2 / 0.6)


def zero_influence(X):
    return np.zeros((len(X), len(X)))


def history(rec, n=64):
    """(times, rho history, X history) of the stored frames of a record."""
    return (np.array(rec.times),) + manifold.unpack(np.array(rec.frames), n)


@pytest.fixture
def circle():
    return manifold.circle_state(1.0, 64, bump)


@pytest.fixture
def static_spec():
    return manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                   b=manifold.gaussian_influence(1.0, 1.0),
                                   kappa=0.2)


class TestEeRhs:
    def test_frozen_manifold_without_convection(self, circle, static_spec):
        _, X_dot = manifold.ee_rhs(circle, static_spec)
        assert np.max(np.abs(X_dot)) == 0.0

    def test_density_rate_matches_grid_solver(self, circle, static_spec):
        # on the static circle the influence reduces to the angular kernel
        kern = CircleKernelParams(1.0, 1.0, 1.0)
        rho_dot, _ = manifold.ee_rhs(circle, static_spec)
        rho = bump(grid_nodes(64))
        expected = 1.0 * rho - 0.2 * rho * circulant_term(rho, kern)
        assert np.max(np.abs(rho_dot - expected)) < 1e-12

    def test_linear_drag_velocity(self, circle):
        spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                       b=zero_influence,
                                       kappa=0.0,
                                       V_x=manifold.linear_drag(0.03))
        _, X_dot = manifold.ee_rhs(circle, spec)
        np.testing.assert_allclose(X_dot, -0.03 * circle.X, rtol=1e-14)

    def test_nonlocal_velocity_contracts_uniform_circle(self):
        # W_x(X_k, X_l) = X_l - X_k sums to m (xbar - X_k); the uniform
        # circle's centroid xbar is 0 to rounding, so X_dot = -kappa m X
        state = manifold.circle_state(1.3, 64, lambda s: np.full_like(s, 0.7))
        spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                       b=manifold.gaussian_influence(1.0, 1.0),
                                       kappa=0.2,
                                       W_x=lambda X, t: X - X[:, None])
        _, X_dot = manifold.ee_rhs(state, spec)
        m = float(np.sum(state.weights() * state.rho))
        assert m == pytest.approx(2.0 * math.pi * 0.7, rel=1e-14)
        assert np.max(np.abs(X_dot + 0.2 * m * state.X)) < 1e-12

    def test_nonfinite_model_aborts(self, circle):
        spec = manifold.ConvectionSpec(a=lambda x, t: math.nan,
                                       b=manifold.gaussian_influence(1.0, 1.0),
                                       kappa=0.2)
        with pytest.raises(RuntimeError):
            manifold.ee_rhs(circle, spec)


def nonlocal_velocity_by_node(w, kappa, state):
    """Oracle for the W_x term of ee_rhs: kappa sum_l w_l rho_l
    w(X_k, X_l, t), one node k at a time, of the pairwise velocity w."""
    mass = state.weights() * state.rho
    return np.array([kappa * mass @ w(x, state.X, state.t) for x in state.X])


class TestModelFunctionContract:
    def test_nonlocal_velocity_equals_per_node_sum(self):
        rng = np.random.default_rng(7)
        s = manifold.grid_nodes(48)
        X = np.column_stack([np.cos(s), np.sin(s), np.zeros(48)])
        X += 0.02 * rng.standard_normal(X.shape)
        state = manifold.ManifoldState(s, X, rng.random(48), 0.3)

        def w(x, y, t):
            d = y - x
            return (1.0 + t) * d * np.exp(-np.sum(d * d, axis=-1))[..., None]

        spec = manifold.ConvectionSpec(a=manifold.constant_rate(1.0),
                                       b=zero_influence, kappa=0.2,
                                       W_x=lambda X, t: w(X[:, None], X, t))
        _, X_dot = manifold.ee_rhs(state, spec)
        expected = nonlocal_velocity_by_node(w, 0.2, state)
        assert np.max(np.abs(X_dot - expected)) <= \
            1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name, model", [
        ("a", dict(a=lambda x, t: np.ones((len(x), 1)))),
        # b written for one node at a time: shape (N,), not the matrix
        ("b", dict(b=lambda X: np.exp(-np.sum(X ** 2, axis=1)))),
        ("V_x", dict(V_x=lambda x, t: -x[:, :1])),
        # W_x summed over the source nodes already
        ("W_x", dict(W_x=lambda X, t: np.sum(X - X[:, None], axis=1))),
    ])
    def test_wrong_shape_rejected(self, circle, static_spec, name, model):
        spec = dataclasses.replace(static_spec, **model)
        with pytest.raises(ValueError,
                           match=rf"model function {name} returned shape"):
            manifold.ee_rhs(circle, spec)


class TestGaussianInfluence:
    @pytest.mark.parametrize("n_dim", [2, 3, 1])
    def test_equals_summed_square_formula(self, n_dim):
        rng = np.random.default_rng(23 + n_dim)
        X = rng.standard_normal((96, n_dim))
        b0, gamma = 1.3, 0.7
        b = manifold.gaussian_influence(b0, gamma)
        d = X[None, :, :] - X[:, None, :]
        expected = b0 * np.exp(-np.sum(d * d, axis=-1) / (2.0 * gamma**2))
        assert np.array_equal(b(X), expected)

    def test_drag_run_matches_allocating_oracle(self, circle):
        # linear drag moves X in every RK4 stage, so B is rebuilt each time
        runs = [manifold.integrate(circle, manifold.ConvectionSpec(
                    a=manifold.constant_rate(1.0), b=b, kappa=0.2,
                    V_x=manifold.linear_drag(0.03)), 1.0, 0.05, store_every=5)
                for b in (manifold.gaussian_influence(1.0, 1.0),
                          gaussian_influence_oracle(1.0, 1.0))]
        got, want = (np.array(rec.frames) for rec in runs)
        assert got.shape == (5, 3 * 64)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_results_never_alias_each_other(self, n_dim):
        rng = np.random.default_rng(41 + n_dim)
        b = manifold.gaussian_influence(1.3, 0.7)
        oracle = gaussian_influence_oracle(1.3, 0.7)
        X, Y = rng.standard_normal((2, 64, n_dim))
        first = b(X)
        kept = first.copy()
        second = b(Y)
        assert np.array_equal(bits(first), bits(kept))  # not overwritten
        assert not np.shares_memory(first, second)
        assert np.array_equal(bits(second), bits(oracle(Y)))

    @pytest.mark.parametrize("block", [64, 7, 1])
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 64, 100, 257])
    def test_upper_triangle_build_equals_full_build(self, monkeypatch, n,
                                                    n_dim, block):
        # B is built from row blocks of its upper triangle
        monkeypatch.setattr(manifold, "INFLUENCE_BLOCK", block)
        rng = np.random.default_rng(100 * n + n_dim)
        X = rng.standard_normal((n, n_dim))
        B = manifold.gaussian_influence(1.3, 0.7)(X)
        assert np.array_equal(bits(B),
                              bits(gaussian_influence_oracle(1.3, 0.7)(X)))
        assert np.array_equal(bits(B), bits(B.T))

    def test_one_closure_serves_two_sizes(self):
        rng = np.random.default_rng(43)
        b = manifold.gaussian_influence(1.3, 0.7)
        oracle = gaussian_influence_oracle(1.3, 0.7)
        for n in (64, 32, 64, 5):
            X = rng.standard_normal((n, 2))
            got = b(X)
            assert got.shape == (n, n)
            assert np.array_equal(bits(got), bits(oracle(X)))


class TestIntegrate:
    def test_compression_law(self, circle, static_spec):
        spec = manifold.ConvectionSpec(a=static_spec.a, b=static_spec.b,
                                       kappa=0.2,
                                       V_x=manifold.linear_drag(0.03))
        _, X = manifold.unpack(manifold.integrate(circle, spec, 20.0, 0.05).y,
                               64)
        radii = np.linalg.norm(X, axis=1)
        assert np.max(np.abs(radii - math.exp(-0.03 * 20.0))) < 1e-8

    def test_reduction_identity_with_grid_sim(self, circle, static_spec):
        # same stepper, same grid: trajectories must agree to roundoff scale
        kern = CircleKernelParams(1.0, 1.0, 1.0)
        rho, _ = manifold.unpack(
            manifold.integrate(circle, static_spec, 20.0, 0.01).y, 64)
        out = gridsim.integrate(bump(grid_nodes(64)), kern, 1.0, 0.2, 0.0,
                                0.01, 20.0, "rk4")
        assert np.max(np.abs(rho - out.y)) < 1e-8

    def test_pure_growth_with_zero_influence(self, circle):
        spec = manifold.ConvectionSpec(
            a=manifold.constant_rate(0.7),
            b=zero_influence, kappa=0.2)
        rho, X = manifold.unpack(manifold.integrate(circle, spec, 3.0, 0.01).y,
                                 64)
        np.testing.assert_allclose(rho, circle.rho * math.exp(0.7 * 3.0),
                                   rtol=1e-9)
        np.testing.assert_allclose(X, circle.X, rtol=0)

    def test_stored_times_are_exact_multiples_of_dt(self, circle, static_spec):
        rec = manifold.integrate(circle, static_spec, 1.0, 0.01,
                                 store_every=10)
        assert rec.times == [k * 0.01 for k in range(0, 101, 10)]
        assert rec.times[-1] == rec.t == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 * stepping.BLOWUP_LIMIT])
    def test_blowup_guard_catches_bad_update(self, circle, static_spec,
                                             monkeypatch, bad):
        # an update of bad / dt on every node puts about bad into rho
        dt = 0.01
        monkeypatch.setattr(manifold, "_rhs", lambda spec, w, X, rho, t, B:
                            np.concatenate([np.full_like(rho, bad / dt),
                                            np.zeros(X.size)]))
        with pytest.raises(RuntimeError, match="blew up"):
            manifold.integrate(circle, static_spec, dt, dt)

    @pytest.mark.parametrize("field, bad", [("a", math.nan),
                                            ("V_x", math.inf)])
    def test_nonfinite_model_blows_up(self, circle, field, bad):
        # integrate leaves a non-finite derivative to march's blow-up guard
        model = {"a": manifold.constant_rate(1.0),
                 "V_x": lambda x, t: np.zeros(np.shape(x))}
        model[field] = {"a": lambda x, t: np.full(len(x), bad),
                        "V_x": lambda x, t: np.full(np.shape(x), bad)}[field]
        spec = manifold.ConvectionSpec(b=manifold.gaussian_influence(1.0, 1.0),
                                       kappa=0.2, **model)
        with (np.errstate(invalid="ignore"),
              pytest.raises(RuntimeError, match="blew up")):
            manifold.integrate(circle, spec, 0.1, 0.05)

    def test_mass_law_consistency(self, circle, static_spec):
        # d/dt int rho ds from the trajectory vs int rho_dot ds from the rhs
        dt = 1e-3
        times, rho_hist, _ = history(manifold.integrate(circle, static_spec,
                                                        2 * dt, dt))
        ds = circle.s[1] - circle.s[0]
        fd = ds * np.sum(rho_hist[2] - rho_hist[0]) / (2 * dt)
        mid = manifold.ManifoldState(circle.s, circle.X, rho_hist[1], dt)
        rho_dot, _ = manifold.ee_rhs(mid, static_spec)
        assert fd == pytest.approx(ds * np.sum(rho_dot), rel=1e-6)


def rk4_on_ee_rhs(state0, spec, t_end, dt):
    """integrate's RK4 written out on the public ee_rhs, which builds the
    influence matrix on every call."""
    n_steps = int(round((t_end - state0.t) / dt))
    rho, X, t = state0.rho.copy(), state0.X.copy(), float(state0.t)
    times, rho_hist, X_hist = [t], [rho.copy()], [X.copy()]

    def f(r, x, t_now):
        return manifold.ee_rhs(manifold.ManifoldState(state0.s, x, r, t_now),
                               spec)

    for i in range(n_steps):
        kr1, kx1 = f(rho, X, t)
        kr2, kx2 = f(rho + 0.5 * dt * kr1, X + 0.5 * dt * kx1, t + 0.5 * dt)
        kr3, kx3 = f(rho + 0.5 * dt * kr2, X + 0.5 * dt * kx2, t + 0.5 * dt)
        kr4, kx4 = f(rho + dt * kr3, X + dt * kx3, t + dt)
        rho = rho + (dt / 6.0) * (kr1 + 2 * kr2 + 2 * kr3 + kr4)
        X = X + (dt / 6.0) * (kx1 + 2 * kx2 + 2 * kx3 + kx4)
        t = state0.t + (i + 1) * dt
        assert rho.min() >= 0  # no clamp to replicate
        times.append(t)
        rho_hist.append(rho.copy())
        X_hist.append(X.copy())
    return np.array(times), np.array(rho_hist), np.array(X_hist)


class TestInfluenceReuse:
    @staticmethod
    def spec(drag, b=None):
        return manifold.ConvectionSpec(
            a=manifold.constant_rate(1.0),
            b=b or manifold.gaussian_influence(1.0, 1.0), kappa=0.2,
            V_x=manifold.linear_drag(0.03) if drag else None)

    @pytest.mark.parametrize("drag", [False, True])
    def test_trajectory_equals_rk4_on_ee_rhs(self, circle, drag):
        spec = self.spec(drag)
        got = history(manifold.integrate(circle, spec, 0.5, 0.05))
        expected = rk4_on_ee_rhs(circle, spec, 0.5, 0.05)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

    @pytest.mark.parametrize("drag, calls_per_run", [(False, 1), (True, 40)])
    def test_influence_built_once_per_position_set(self, circle, drag,
                                                   calls_per_run):
        # stationary X: one build per run; drag moves X in every RK4 stage
        inner = manifold.gaussian_influence(1.0, 1.0)
        calls = []

        def b(X):
            calls.append(1)
            return inner(X)

        manifold.integrate(circle, self.spec(drag, b), 0.5, 0.05)
        assert len(calls) == calls_per_run


class TestClamping:
    @staticmethod
    def one_step(monkeypatch, spec, change):
        """One RK4 step from rho = 1 with rho[3] = 0, under a constant
        derivative that is zero except change / dt at node 3."""
        dt = 0.01

        def rhs(spec, w, X, rho, t, B):
            y_dot = np.zeros(len(rho) + X.size)  # packed [rho_dot, X_dot]
            y_dot[3] = change / dt
            return y_dot

        monkeypatch.setattr(manifold, "_rhs", rhs)
        state = manifold.circle_state(
            1.0, 64, lambda s: np.where(np.arange(len(s)) == 3, 0.0, 1.0))
        return manifold.integrate(state, spec, dt, dt)

    def test_roundoff_band_clamped(self, monkeypatch, static_spec):
        rec = self.one_step(monkeypatch, static_spec, -1e-12)
        rho, _ = manifold.unpack(rec.y, 64)
        assert rho[3] == 0.0
        assert np.all(np.delete(rho, 3) == 1.0)
        assert rec.clamped == 1

    def test_hard_negative_aborts(self, monkeypatch, static_spec):
        with pytest.raises(RuntimeError, match="hard negative"):
            self.one_step(monkeypatch, static_spec, -0.5)


class TestInitialCorrespondence:
    def test_symmetric_density_centroid(self):
        state = manifold.circle_state(1.0, 128, lambda s: np.ones_like(s))
        m, xbar = manifold.initial_correspondence(state)
        assert m == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert np.max(np.abs(xbar)) < 1e-14

    def test_narrow_bump_centroid_approaches_point(self):
        prev_gap = None
        for width in (0.3, 0.1, 0.03):
            state = manifold.circle_state(
                1.0, 1024, lambda s: np.exp(-s**2 / width))
            _, xbar = manifold.initial_correspondence(state)
            gap = np.linalg.norm(xbar - np.array([1.0, 0.0]))
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 0.01

    def test_bump_mass_quadrature(self):
        state = manifold.circle_state(1.0, 4096, bump)
        m, _ = manifold.initial_correspondence(state)
        expected = SQRT_TWO_PI + 0.1 * math.sqrt(0.6 * math.pi)
        assert m == pytest.approx(expected, abs=1e-7)

    def test_zero_mass_rejected(self):
        state = manifold.circle_state(1.0, 64, lambda s: np.zeros_like(s))
        with pytest.raises(ValueError):
            manifold.initial_correspondence(state)


class TestValidation:
    def test_discontinuous_sampling_rejected(self):
        s = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        X = np.column_stack([np.cos(s), np.sin(s)])
        X[10] = (50.0, 0.0)
        with pytest.raises(ValueError):
            manifold.ManifoldState(s, X, np.ones(64))

    def test_nonuniform_sampling_rejected(self):
        # 48 nodes on [-pi, 0) and 16 on [0, pi): the largest gap is 3x the
        # median, so the discontinuity check passes, but rectangle weights
        # of the first spacing would sum to 4.19, not 2 pi
        s = np.concatenate([np.linspace(-math.pi, 0.0, 48, endpoint=False),
                            np.linspace(0.0, math.pi, 16, endpoint=False)])
        X = np.column_stack([np.cos(s), np.sin(s)])
        with pytest.raises(ValueError, match="uniform"):
            manifold.ManifoldState(s, X, np.ones(64))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["s", "X", "rho"])
    def test_nonfinite_state_rejected(self, monkeypatch, part, value):
        # a NaN gap passes the discontinuity check and an infinite one
        # fails it; either is rejected as non-finite before the state exists
        circle = manifold.circle_state(1.0, 64, bump)
        parts = {"s": circle.s.copy(), "X": circle.X.copy(),
                 "rho": circle.rho.copy()}
        parts[part][10] = value
        reached = []
        monkeypatch.setattr(manifold, "initial_correspondence", reached.append)
        with pytest.raises(ValueError, match="initial state is not finite"):
            manifold.initial_correspondence(manifold.ManifoldState(**parts))
        assert reached == []

    def test_compression_reduces_or_keeps_peaks(self):
        # k0 > 0 shrinks the circle, lowering the effective interaction
        # ratio mu; peak counts cannot increase under compression here
        results = {}
        for k0 in (0.0, 0.03):
            spec = manifold.ConvectionSpec(
                a=manifold.constant_rate(1.0),
                b=manifold.gaussian_influence(1.0, 1.0), kappa=0.2,
                V_x=manifold.linear_drag(k0) if k0 else None)
            state = manifold.circle_state(1.0, 64,
                                          lambda s: np.exp(-s**2 / 0.6))
            rho, _ = manifold.unpack(manifold.integrate(state, spec, 30.0,
                                                        0.05).y, 64)
            results[k0] = analysis.count_peaks(rho)
        assert results[0.03] <= results[0.0]


class TestMovingManifoldReference:
    """Uniform rho0 on a circle under linear drag: by symmetry rho stays
    uniform and the circle shrinks to radius R e^{-k0 t}, where the Gaussian
    kernel's mode j has the eigenvalue
    lambda_j(t) = 2 pi b0 e^{-mu} I_j(mu), mu = (R e^{-k0 t} / gamma)^2.  Then
    rho' = rho (a - kappa lambda0(t) rho) is a Bernoulli equation:

        1/rho(t) = e^{-a t} (1/rho0 + kappa int_0^t e^{a u} lambda0(u) du).

    Linearized about it, the amplitude of a perturbation delta_j cos(j s)
    obeys delta_j' = (a - kappa rho(t) (lambda0(t) + lambda_j(t))) delta_j;
    since (log rho)' = a - kappa lambda0 rho, that integrates to

        delta_j(t) = delta_j(0) (rho(t)/rho0) exp(-kappa int_0^t rho lambda_j du).
    """

    a, b0, gamma, R, kappa, k0, rho0, T, N = (1.0, 1.0, 1.0, 1.0, 0.2, 0.03,
                                               0.3, 20.0, 32)

    def lambda0(self, u):
        mu = (self.R * math.exp(-self.k0 * u) / self.gamma) ** 2
        return 2.0 * math.pi * self.b0 * special.i0e(mu)

    def lambda_j(self, j, u):
        mu = (self.R * math.exp(-self.k0 * u) / self.gamma) ** 2
        return 2.0 * math.pi * self.b0 * special.ive(j, mu)

    def reference(self, times):
        """rho at each of the increasing times, from one quad per interval."""
        pieces = [integrate.quad(lambda u: math.exp(self.a * u)
                                 * self.lambda0(u), lo, hi, epsabs=0.0,
                                 epsrel=1e-13)[0]
                  for lo, hi in zip(times[:-1], times[1:])]
        integral = np.concatenate([[0.0], np.cumsum(pieces)])
        return np.exp(self.a * times) / (1.0 / self.rho0
                                         + self.kappa * integral)

    def mode_reference(self, j, delta0, times):
        """delta_j at each of the increasing times; rho(u) inside the
        integral is reference([0, u])."""
        pieces = [integrate.quad(lambda u: self.reference(np.array([0.0, u]))[1]
                                 * self.lambda_j(j, u), lo, hi, epsabs=0.0,
                                 epsrel=1e-12)[0]
                  for lo, hi in zip(times[:-1], times[1:])]
        integral = np.concatenate([[0.0], np.cumsum(pieces)])
        return (delta0 * self.reference(times) / self.rho0
                * np.exp(-self.kappa * integral))

    def run(self, dt, rho_phi):
        """(times, rho frames, s) of a drag run with a frame every time unit."""
        spec = manifold.ConvectionSpec(
            a=manifold.constant_rate(self.a),
            b=manifold.gaussian_influence(self.b0, self.gamma),
            kappa=self.kappa, V_x=manifold.linear_drag(self.k0))
        state = manifold.circle_state(self.R, self.N, rho_phi)
        rec = manifold.integrate(state, spec, self.T, dt,
                                 store_every=round(1.0 / dt))
        rho, _ = manifold.unpack(np.array(rec.frames), self.N)
        return np.array(rec.times), rho, state.s

    def max_rel_error(self, dt):
        times, rho, _ = self.run(dt, lambda s: np.full_like(s, self.rho0))
        want = self.reference(times)
        return float(np.max(np.abs(rho / want[:, None] - 1.0)))

    def mode_rel_error(self, j, dt, delta0=1e-6):
        """Largest error of the cos(j s) amplitude of a run from
        rho0 + delta0 cos(j s), relative to the largest reference amplitude."""
        times, rho, s = self.run(dt, lambda s: self.rho0
                                 + delta0 * np.cos(j * s))
        delta = (2.0 / self.N) * rho @ np.cos(j * s)
        want = self.mode_reference(j, delta0, times)
        return float(np.max(np.abs(delta - want)) / np.max(np.abs(want)))

    def test_fourth_order_convergence(self):
        errors = [self.max_rel_error(dt) for dt in (0.1, 0.05, 0.025)]
        orders = [richardson_order(coarse, fine, 2.0)
                  for coarse, fine in zip(errors, errors[1:])]
        assert all(3.8 <= p <= 4.2 for p in orders), (errors, orders)

    def test_linearized_mode_fourth_order_convergence(self):
        # the amplitude grows 4.7-fold by t = 5, then relaxes; at dt = 0.025
        # the error would meet the round-off of a density of O(1)
        errors = [self.mode_rel_error(3, dt) for dt in (0.2, 0.1, 0.05)]
        orders = [richardson_order(coarse, fine, 2.0)
                  for coarse, fine in zip(errors, errors[1:])]
        assert all(3.8 <= p <= 4.2 for p in orders), (errors, orders)


class TestRk4Modes:
    """On a static circle (no velocity) the influence matrix B is
    circulant, so about the uniform steady state
    rho* = a / (kappa sum_l B[0, l] w) a small mode cos(j s) relaxes at
    sigma_j = -kappa rho* w Re rfft(B[0])[j]: the rectangle-rule coupling's
    eigenvalue, with the reaction a cancelled by the l = 0 sum.  Each RK4
    step multiplies its amplitude by R(sigma_j dt), R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24."""

    @pytest.mark.parametrize("j", [1, 3, 8])
    def test_mode_amplitude_ratio(self, j):
        # gamma = 0.3 keeps mode 8's relaxation visible over the run, and
        # dt = 0.25 tells R^k from exp(k z) by up to 9e-5 relative
        N, a, kappa, dt, k = 64, 1.0, 0.5, 0.25, 12
        spec = manifold.ConvectionSpec(a=manifold.constant_rate(a),
                                       b=manifold.gaussian_influence(1.0, 0.3),
                                       kappa=kappa)
        circle = manifold.circle_state(1.0, N, np.ones_like)
        w = circle.weights()[0]
        B0 = spec.b(circle.X)[0]
        rho_star = a / (kappa * np.sum(B0) * w)
        state = manifold.circle_state(
            1.0, N, lambda s: rho_star * (1.0 + 1e-7 * np.cos(j * s)))
        rho, X = manifold.unpack(manifold.integrate(state, spec, k * dt,
                                                    dt).y, N)
        z = -kappa * rho_star * w * np.fft.rfft(B0)[j].real * dt
        R = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        ratio = np.fft.rfft(rho)[j].real / np.fft.rfft(state.rho)[j].real
        assert np.array_equal(X, state.X)
        assert ratio == pytest.approx(R**k, rel=1e-6)
        assert R**k < 0.9  # the mode decays visibly over the k steps
