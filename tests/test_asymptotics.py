import dataclasses
import math

import numpy as np
import pytest

from nlfkpp import asymptotics, exact, gridsim, spectral
from nlfkpp.kernel import SQRT_TWO_PI, CircleKernelParams, eigenvalue

LAMBDA0 = 2.926453923110091


def tilde_phi(s):
    return np.exp(-np.asarray(s) ** 2 / 0.6)


@pytest.fixture
def expansion(unit_kernel):
    beta1 = asymptotics.beta1_initial(tilde_phi, 10)
    return asymptotics.AsymptoticExpansion(10.0, 1.0, beta1, unit_kernel,
                                           1.0, 0.2, 0.1)


class TestBeta1Initial:
    def test_zero_mode_is_scaled_mass(self):
        beta1 = asymptotics.beta1_initial(tilde_phi, 4)
        # (2 pi)^{-1/2} int exp(-s^2/0.6) ds; the full-line value differs
        # from the circle integral only by the 1e-8 Gaussian tail at |s|=pi
        expected = math.sqrt(0.6 * math.pi) / SQRT_TWO_PI
        assert beta1[4] == pytest.approx(expected, abs=1e-8)

    def test_conjugate_symmetry(self):
        beta1 = asymptotics.beta1_initial(tilde_phi, 8)
        np.testing.assert_allclose(beta1, beta1[::-1].conj(), atol=1e-15)


class TestBeta1Evolution:
    def test_initial_value(self, expansion):
        for j in (-3, 0, 2):
            assert asymptotics.beta1_evolution(j, 0.0, expansion) == \
                pytest.approx(expansion.beta1[j + 10], abs=1e-15)

    def test_linearized_ode_residual(self, expansion):
        # dbeta1_j/dt = (a_j - kappa v0 (lambda0 + lambda_j) beta0) beta1_j
        m = expansion.model
        h = 1e-6
        for j in (0, 1, 4):
            lam_j = eigenvalue(j, expansion.kernel)
            for t in (0.5, 3.0):
                fd = (asymptotics.beta1_evolution(j, t + h, expansion)
                      - asymptotics.beta1_evolution(j, t - h, expansion)) / (2 * h)
                b1 = asymptotics.beta1_evolution(j, t, expansion)
                a_j = expansion.a - expansion.D * j**2
                rate = a_j - expansion.kappa * m.v0 * (m.lambda0 + lam_j) \
                    * exact.beta0(t, m)
                assert fd == pytest.approx(rate * b1, rel=1e-6)

    def test_overflow_free(self, expansion):
        t = np.array([0.0, 50.0, 200.0, 500.0])
        vals = asymptotics.beta1_evolution(0, t, expansion)
        assert np.all(np.isfinite(vals))

    def test_decay_at_large_times(self, expansion):
        # every mode dies: the homogeneous state is attracting
        for j in range(-10, 11):
            late = abs(asymptotics.beta1_evolution(j, 100.0, expansion))
            assert late < 1e-6


class TestCompositeDensity:
    def test_reduces_to_initial_data(self, expansion):
        s = np.linspace(-math.pi, math.pi, 257)
        rho = asymptotics.composite_density(0.0, s, expansion)
        target = 1.0 / SQRT_TWO_PI + tilde_phi(s) / 10.0
        np.testing.assert_allclose(rho, target, atol=1e-7)  # J=10 truncation

    def test_limits_to_homogeneous_value(self, expansion):
        s = np.linspace(-math.pi, math.pi, 64)
        rho = asymptotics.composite_density(300.0, s, expansion)
        np.testing.assert_allclose(rho, exact.rho_lim(expansion.model),
                                   rtol=1e-12)

    def test_agrees_with_spectral_solver_at_large_T(self, unit_kernel):
        # expansion error is O(1/T^2) with constant about 2.5 on this data
        T = 80.0
        J = 10
        rho_phi = lambda s: 1.0 / SQRT_TWO_PI + tilde_phi(s) / T
        beta0 = spectral.project_initial(rho_phi, J)
        traj = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.005, 5.0,
                                  snapshot_times=(5.0,))
        beta1 = asymptotics.beta1_initial(tilde_phi, J)
        expn = asymptotics.AsymptoticExpansion(T, 1.0, beta1, unit_kernel,
                                               1.0, 0.2, 0.0)
        s = np.linspace(-math.pi, math.pi, 129)
        rho_spec = spectral.reconstruct(traj.snapshots[5.0], s)
        rho_asym = asymptotics.composite_density(5.0, s, expn)
        assert np.max(np.abs(rho_spec - rho_asym)) < 5.0 / T**2


class TestAppendixRoutes:
    def test_appendix_b_equals_beta1_evolution(self, expansion):
        flat = dataclasses.replace(expansion, D=0.0)
        for j in (-5, 0, 3):
            for t in (0.5, 2.0, 20.0):
                via_b = asymptotics.appendix_b_solution(j, flat.a * t,
                                                        flat.beta1, flat)
                direct = asymptotics.beta1_evolution(j, t, flat)
                assert abs(via_b - direct) < 1e-12 * max(1.0, abs(direct))

    def test_assembled_fields_identical(self, expansion):
        flat = dataclasses.replace(expansion, D=0.0)
        s = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        for t in (1.0, 10.0, 100.0):
            a = asymptotics.composite_density(t, s, flat)
            b = asymptotics.assemble_appendix_b(t, s, flat.beta1, flat)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_appendix_a_identity(self, expansion):
        worst = asymptotics.appendix_a_check(expansion, [0.0, 1.0, 5.0])
        assert worst < 1e-9


class TestValidation:
    def test_rejects_nonpositive_T(self, unit_kernel):
        with pytest.raises(ValueError):
            asymptotics.AsymptoticExpansion(0.0, 1.0, np.zeros(3),
                                            unit_kernel, 1.0, 0.2)

    def test_rejects_wrong_shape(self, unit_kernel):
        with pytest.raises(ValueError):
            asymptotics.AsymptoticExpansion(10.0, 1.0, np.zeros(4),
                                            unit_kernel, 1.0, 0.2)
