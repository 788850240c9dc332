import math

import numpy as np
import pytest

from nlfkpp import exact
from nlfkpp.exact import HomogeneousModel
from nlfkpp.kernel import SQRT_TWO_PI

LAMBDA0 = 2.926453923110091  # 2 pi e^{-1} I_0(1), quadrature oracle


@pytest.fixture
def model():
    return HomogeneousModel(a=1.0, kappa=0.2, lambda0=LAMBDA0, beta00=1.0)


class TestBeta0:
    def test_initial_value(self, model):
        assert exact.beta0(0.0, model) == pytest.approx(1.0, abs=1e-15)

    def test_logistic_ode_residual(self, model):
        # dbeta0/dt = a beta0 - kappa lambda0 v0 beta0^2, centered differences
        h = 1e-6
        for t in (0.5, 2.0, 10.0):
            lhs = (exact.beta0(t + h, model) - exact.beta0(t - h, model)) / (2 * h)
            b = exact.beta0(t, model)
            rhs = model.a * b - model.kappa * model.lambda0 * model.v0 * b**2
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_kappa_zero_pure_growth(self):
        m = HomogeneousModel(1.0, 0.0, LAMBDA0, 2.0)
        assert exact.beta0(3.0, m) == pytest.approx(2.0 * math.exp(3.0), rel=1e-14)

    def test_limit_value(self, model):
        # beta0(inf) = a sqrt(2 pi) / (kappa lambda0)
        expected = model.a * SQRT_TWO_PI / (model.kappa * model.lambda0)
        assert exact.beta0(300.0, model) == pytest.approx(expected, rel=1e-14)

    def test_overflow_free_large_times(self, model):
        vals = exact.beta0(np.array([0.0, 100.0, 500.0, 1000.0]), model)
        assert np.all(np.isfinite(vals))

    def test_rejects_negative_time(self, model):
        with pytest.raises(ValueError):
            exact.beta0(-0.1, model)


class TestRho0:
    def test_is_scaled_beta0(self, model):
        t = np.linspace(0.0, 20.0, 7)
        np.testing.assert_allclose(exact.rho0(t, model),
                                   exact.beta0(t, model) / SQRT_TWO_PI,
                                   rtol=1e-15)

    def test_derivative_finite_difference(self, model):
        h = 1e-6
        for t in (0.1, 1.0, 5.0):
            fd = (exact.rho0(t + h, model) - exact.rho0(t - h, model)) / (2 * h)
            assert exact.rho0_dt(t, model) == pytest.approx(fd, rel=1e-8)

    def test_monotone_when_below_limit(self, model):
        t = np.linspace(0.0, 30.0, 200)
        assert np.all(np.diff(exact.rho0(t, model)) > 0)

    def test_decreasing_when_above_limit(self):
        m = HomogeneousModel(1.0, 0.2, LAMBDA0, 8.0)  # saturation > 1
        t = np.linspace(0.0, 30.0, 200)
        assert np.all(np.diff(exact.rho0(t, m)) < 0)


class TestLimits:
    def test_rho_lim_value(self, model):
        assert exact.rho_lim(model) == pytest.approx(
            1.0 / (0.2 * LAMBDA0), rel=1e-15)

    def test_rho_lim_rejects_kappa_zero(self):
        m = HomogeneousModel(1.0, 0.0, LAMBDA0, 1.0)
        with pytest.raises(ValueError):
            exact.rho_lim(m)

    def test_t_max_frozen_value(self, model):
        # (1/a) log(1/c - 1) with c = kappa lambda0 v0 / a; derived oracle
        assert exact.t_max(model) == pytest.approx(1.1886680404172518, abs=1e-12)

    def test_t_max_is_inflection(self, model):
        # growth rate rho0_dt is maximal there
        t0 = exact.t_max(model)
        h = 1e-4
        assert exact.rho0_dt(t0, model) > exact.rho0_dt(t0 - h, model)
        assert exact.rho0_dt(t0, model) > exact.rho0_dt(t0 + h, model)

    def test_t_max_requires_small_saturation(self):
        m = HomogeneousModel(0.1, 0.2, LAMBDA0, 1.0)  # saturation > 1/2
        with pytest.raises(ValueError):
            exact.t_max(m)


class TestQuasiSteadyTime:
    def test_frozen_value_from_below(self, model):
        assert exact.t_quasi_steady(0.95, model) == pytest.approx(
            4.133107019583692, abs=1e-12)

    def test_reaches_target_density(self, model):
        for alpha in (0.5, 0.9, 0.95, 0.99):
            t_c = exact.t_quasi_steady(alpha, model)
            assert exact.rho0(t_c, model) == pytest.approx(
                alpha * exact.rho_lim(model), rel=1e-12)

    def test_from_above_regime(self):
        m = HomogeneousModel(0.1, 0.2, LAMBDA0, 1.0)  # saturation approx 2.33
        t_c = exact.t_quasi_steady(1.05, m)
        assert t_c == pytest.approx(24.854329852928085, abs=1e-10)
        assert exact.rho0(t_c, m) == pytest.approx(
            1.05 * exact.rho_lim(m), rel=1e-12)

    def test_regime_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            exact.t_quasi_steady(1.05, model)  # from below needs alpha < 1
        m = HomogeneousModel(0.1, 0.2, LAMBDA0, 1.0)
        with pytest.raises(ValueError):
            exact.t_quasi_steady(0.95, m)

    def test_alpha_one_rejected(self, model):
        with pytest.raises(ValueError):
            exact.t_quasi_steady(1.0, model)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_nonpositive_alpha_rejected(self, model, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            exact.t_quasi_steady(alpha, model)

    @pytest.mark.parametrize("beta00, alpha", [
        (4.15, 0.95), (4.4, 1.05), (4.282705862607738, 0.95),
        (4.282705862607738, 1.05)], ids=["below", "above", "at_1_from_below",
                                         "at_1_from_above"])
    def test_start_within_the_band_is_already_there(self, beta00, alpha):
        # c = rho0(0) / rho_lim lies between alpha and 1 (or is 1, where
        # rho0 stays at rho_lim): the formula's time would be negative, or
        # its logarithm's argument 0
        m = HomogeneousModel(1.0, 0.2, LAMBDA0, beta00)
        assert abs(m.saturation - 1.0) < 0.05
        assert exact.t_quasi_steady(alpha, m) == 0.0

    def test_start_at_the_target_is_continuous(self):
        # c = alpha exactly is where the formula's time reaches 0
        for alpha in (0.95, 1.05):
            m = HomogeneousModel(1.0, 0.2, LAMBDA0, 1.0)
            m = HomogeneousModel(1.0, 0.2, LAMBDA0, alpha / m.saturation)
            assert exact.t_quasi_steady(alpha, m) == pytest.approx(0.0,
                                                                   abs=1e-12)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HomogeneousModel(-1.0, 0.2, LAMBDA0, 1.0)
        with pytest.raises(ValueError):
            HomogeneousModel(1.0, -0.2, LAMBDA0, 1.0)
        with pytest.raises(ValueError):
            HomogeneousModel(1.0, 0.2, 0.0, 1.0)
        with pytest.raises(ValueError):
            HomogeneousModel(1.0, 0.2, LAMBDA0, 0.0)

    def test_saturation_definition(self, model):
        assert model.saturation == pytest.approx(
            0.2 * LAMBDA0 / (SQRT_TWO_PI * 1.0), rel=1e-15)
