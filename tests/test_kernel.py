import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfkpp.kernel import (TWO_PI, CircleKernelParams, bessel_i, bessel_i_scaled,
                           eigenvalue, eigenvalues,
                           kernel_value, wrap_angle)
from conftest import (bessel_quadrature, eigenvalue_quadrature,
                      spectral_reconstruction)


def band_limit(params: CircleKernelParams) -> int:
    """A band limit past which the Bessel tail is negligible."""
    return math.ceil(8.0 * params.mu) + 20


class TestBessel:
    def test_matches_quadrature_oracle(self):
        for mu in (0.25, 1.0, 4.0, 400.0):
            for j in range(21):
                assert bessel_i_scaled(j, mu) == pytest.approx(
                    bessel_quadrature(j, mu), abs=1e-12)

    def test_zero_argument(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(3, 0.0) == 0.0

    def test_unscaled_small_argument(self):
        # I_0(1) and I_1(1), quadrature oracle times e^mu
        assert bessel_i(0, 1.0) == pytest.approx(
            math.e * bessel_quadrature(0, 1.0), rel=1e-13)
        assert bessel_i(1, 1.0) == pytest.approx(
            math.e * bessel_quadrature(1, 1.0), rel=1e-13)

    def test_unscaled_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 800.0)

    def test_negative_order_symmetry(self):
        assert bessel_i(-4, 2.5) == bessel_i(4, 2.5)

    @given(st.integers(min_value=1, max_value=15),
           st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_three_term_recurrence(self, j, mu):
        # I_{j-1}(mu) - I_{j+1}(mu) = (2 j / mu) I_j(mu), scaled variant
        lhs = bessel_i_scaled(j - 1, mu) - bessel_i_scaled(j + 1, mu)
        rhs = 2.0 * j / mu * bessel_i_scaled(j, mu)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_generating_identity(self):
        # I_0 + 2 sum_{k>=1} I_k = e^mu, i.e. scaled values sum to 1
        for mu in (0.5, 3.0, 40.0):
            total = bessel_i_scaled(0, mu) + 2.0 * sum(
                bessel_i_scaled(k, mu) for k in range(1, 400))
            assert total == pytest.approx(1.0, abs=1e-13)


class TestKernelParams:
    def test_mu_definition(self):
        p = CircleKernelParams(2.0, 0.5, 1.5)
        assert p.mu == pytest.approx(1.5**2 / 0.5**2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CircleKernelParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CircleKernelParams(1.0, -1.0, 1.0)

    def test_kernel_value_translation_invariance(self, unit_kernel):
        s = np.linspace(-3.0, 3.0, 17)
        np.testing.assert_allclose(kernel_value(s, 0.0, unit_kernel),
                                   kernel_value(s + 0.7, 0.7, unit_kernel),
                                   rtol=1e-14)

    def test_kernel_peak_value(self, unit_kernel):
        # b(s, s) = b0 for any mu
        assert kernel_value(0.3, 0.3, unit_kernel) == pytest.approx(1.0)

    def test_wrap_angle_canonical_interval(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(-math.pi) == -math.pi
        assert wrap_angle(0.5) == 0.5


class TestEigenvalues:
    def test_matches_quadrature(self, unit_kernel):
        for j in range(8):
            assert eigenvalue(j, unit_kernel) == pytest.approx(
                eigenvalue_quadrature(j, unit_kernel), abs=1e-10)

    def test_large_mu_quadrature(self):
        p = CircleKernelParams(1.0, 0.05, 1.0)  # mu = 400
        for j in (0, 5, 20):
            assert eigenvalue(j, p) == pytest.approx(
                eigenvalue_quadrature(j, p), abs=1e-10)

    def test_symmetric_in_j(self, unit_kernel):
        lam = eigenvalues(6, unit_kernel)
        np.testing.assert_allclose(lam, lam[::-1], rtol=0)

    def test_frozen_lambda0(self, unit_kernel):
        # 2 pi e^{-1} I_0(1), quadrature oracle frozen to 16 digits
        assert eigenvalue(0, unit_kernel) == pytest.approx(
            2.926453923110091, abs=1e-14)

    def test_positive_and_decreasing(self, unit_kernel):
        lam = [eigenvalue(j, unit_kernel) for j in range(12)]
        assert all(v > 0 for v in lam)
        assert all(lam[i] > lam[i + 1] for i in range(11))

    def test_trace_identity(self, unit_kernel):
        # sum_j lambda_j = 2 pi b(s, s) = 2 pi b0
        J = band_limit(unit_kernel)
        total = float(np.sum(eigenvalues(J, unit_kernel)))
        assert total == pytest.approx(TWO_PI, abs=1e-10)

    def test_reconstruction_converges_to_kernel(self, unit_kernel):
        s = np.linspace(-math.pi, math.pi, 257)
        J = band_limit(unit_kernel)
        approx = spectral_reconstruction(s, 0.0, J, unit_kernel)
        np.testing.assert_allclose(approx, kernel_value(s, 0.0, unit_kernel),
                                   atol=1e-10)
