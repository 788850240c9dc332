import math

import numpy as np
import pytest

from nlfkpp import exact, kernel, spectral, stepping
from nlfkpp.kernel import SQRT_TWO_PI, CircleKernelParams, eigenvalue
from conftest import omega_coefficients, rhs_bruteforce

LAMBDA0 = 2.926453923110091


def bump(s):
    return 1.0 / SQRT_TWO_PI + 0.1 * np.exp(-np.asarray(s) ** 2 / 0.6)


class TestProjection:
    def test_homogeneous_projects_to_zero_mode(self, unit_kernel):
        beta = spectral.project_initial(lambda s: np.full_like(s, 2.0 / SQRT_TWO_PI), 4)
        assert beta[0] == pytest.approx(2.0, abs=1e-12)
        for j in (1, 2, 3, 4):
            assert abs(beta[j]) < 1e-12

    def test_cosine_mode(self):
        beta = spectral.project_initial(lambda s: np.cos(3 * s), 5)
        # cos(3s) = (e^{3is} + e^{-3is})/2 = sqrt(2 pi)/2 (v_3 + v_-3)
        assert len(beta) == 6
        assert beta[3] == pytest.approx(SQRT_TWO_PI / 2, abs=1e-12)
        assert spectral._full(beta)[-3 + 5] == beta[3].conjugate()
        assert abs(beta[0]) < 1e-12

    def test_conjugate_pairing(self):
        # the half spectrum keeps 0.5 (beta_j + conj(beta_-j)), j >= 0, of
        # the full projection: beta_0 is real, and the band it stands for
        # is conjugate-symmetric
        beta = spectral.project_initial(bump, 8)
        full = kernel.fourier_coefficients(bump, 8)
        assert np.array_equal(beta, 0.5 * (full + full[::-1].conj())[8:])
        assert beta[0].imag == 0.0
        band = spectral._full(beta)
        assert np.array_equal(band, band[::-1].conj())

    def test_roundtrip_through_reconstruct(self):
        beta = spectral.project_initial(bump, 24)
        s = np.linspace(-math.pi, math.pi, 129)
        np.testing.assert_allclose(spectral.reconstruct(beta, s), bump(s),
                                   atol=1e-10)

    @pytest.mark.parametrize("beta", [np.zeros(0, complex),
                                      np.zeros((3, 3), complex),
                                      np.array([1.0 + 1e-300j, 0.5, 0.1])],
                             ids=["empty", "not_1d", "complex_zero_mode"])
    def test_bad_half_spectrum_rejected(self, unit_kernel, beta):
        s = np.linspace(-math.pi, math.pi, 9)
        for call in (lambda: spectral.reconstruct(beta, s),
                     lambda: spectral.rhs(beta, unit_kernel, 1.0, 0.2, 0.0),
                     lambda: spectral.integrate(beta, unit_kernel, 1.0, 0.2,
                                                0.0, 0.1, 0.1)):
            with pytest.raises(ValueError, match="J \\+ 1 coefficients"):
                call()


class TestRhs:
    def test_matches_bruteforce(self, unit_kernel):
        rng = np.random.default_rng(3)
        for J in (1, 4, 9):
            half = rng.random(J) + 1j * rng.random(J)
            beta = np.concatenate([half[::-1].conj(), [rng.random(1)[0] + 0j], half])
            np.testing.assert_allclose(
                spectral.rhs(beta[J:], unit_kernel, 1.0, 0.2, 0.1),
                rhs_bruteforce(beta, 1.0, 0.1, unit_kernel, 0.2)[J:],
                rtol=1e-12, atol=1e-14)

    def test_zero_mode_only_is_logistic(self, unit_kernel):
        beta = np.array([2.0, 0, 0, 0], complex)
        deriv = spectral.rhs(beta, unit_kernel, 1.0, 0.2, 0.0)
        expected = 1.0 * 2.0 - 0.2 / SQRT_TWO_PI * LAMBDA0 * 4.0
        assert deriv[0] == pytest.approx(expected, rel=1e-12)
        assert np.max(np.abs(deriv[1:])) == 0.0

    def test_diffusive_rates_band(self, unit_kernel):
        # at kappa = 0 the right-hand side is the rate band (a - D j^2) beta
        beta = np.arange(1, 6) + 1j * np.arange(5)
        np.testing.assert_allclose(
            spectral.rhs(beta, unit_kernel, 1.0, 0.0, 0.5),
            np.array([1.0, 0.5, -1.0, -3.5, -7.0]) * beta, rtol=0)

    def test_negative_diffusion_rejected(self, unit_kernel):
        beta = spectral.project_initial(bump, 2)
        with pytest.raises(ValueError, match="must be >= 0"):
            spectral.rhs(beta, unit_kernel, 1.0, 0.2, -0.1)
        with pytest.raises(ValueError, match="must be >= 0"):
            spectral.integrate(beta, unit_kernel, 1.0, 0.2, -0.1, 0.01, 0.1)


class TestIntegrate:
    def test_symmetric_data_follows_exact_beta0(self, unit_kernel):
        # beta_{0j} = delta_{j0}: the zero mode is closed and logistic
        beta0 = np.eye(6)[0].astype(complex)
        times = (1.0, 5.0, 20.0)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.01, 20.0,
                                 snapshot_times=times)
        m = exact.HomogeneousModel(1.0, 0.2, LAMBDA0, 1.0)
        for t in times:
            assert abs(rec.snapshots[t][0] - exact.beta0(t, m)) < 1e-8

    def test_kappa_zero_modes_grow_independently(self, unit_kernel):
        beta0 = spectral.project_initial(bump, 4)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.0, 0.3, 0.005, 2.0,
                                 snapshot_times=(2.0,))
        final = rec.snapshots[2.0]
        for j in range(5):
            expected = beta0[j] * np.exp((1.0 - 0.3 * j**2) * 2.0)
            assert abs(final[j] - expected) < 1e-9

    def test_t_end_is_absolute(self, unit_kernel):
        # the mode system is autonomous: a run from t = 5 to t_end = 6 takes
        # the same 100 steps as one from 0 to 1
        beta0 = spectral.project_initial(bump, 3)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.01, 6.0,
                                 t0=5.0)
        ref = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.01, 1.0)
        assert len(rec.times) == 101 and rec.times[0] == 5.0 \
            and rec.times[-1] == 6.0
        assert np.array_equal(rec.frames, ref.frames)

    def test_reality_preserved(self, unit_kernel, tmp_path):
        # Im beta_0 stays exactly 0 through every RK4 stage, and the
        # trajectory writes each negative mode as the exact conjugate
        from nlfkpp.csvio import read_csv
        beta0 = spectral.project_initial(bump, 6)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.1, 0.01, 10.0)
        assert all(frame[0].imag == 0.0 for frame in rec.frames)
        assert rec.y[0].imag == 0.0
        path = tmp_path / "traj.csv"
        spectral.trajectory_to_csv(path, rec)
        _, (t, j, re, im) = read_csv(path)
        re, im = re.reshape(len(rec.times), 13), im.reshape(len(rec.times), 13)
        assert np.array_equal(j[:13], np.arange(-6, 7))
        assert np.array_equal(re[:, :6], re[:, :6:-1])
        assert np.array_equal(im[:, :6], -im[:, :6:-1])
        assert np.array_equal(re[:, 6:] + 1j * im[:, 6:], np.array(rec.frames))

    def test_blowup_detected(self, unit_kernel):
        # kappa < 0 makes the quadratic term antidissipative
        beta0 = np.array([5.0, 0, 0], complex)
        with pytest.raises(RuntimeError):
            spectral.integrate(beta0, unit_kernel, 5.0, -2.0, 0.0, 0.05, 50.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 * stepping.BLOWUP_LIMIT])
    def test_blowup_guard_catches_bad_update(self, unit_kernel, monkeypatch,
                                             bad):
        # an update of bad / dt on every mode puts about bad into beta
        dt = 0.01
        monkeypatch.setattr(spectral, "_mode_rhs",
                            lambda beta, *args: np.full_like(beta, bad / dt))
        beta0 = spectral.project_initial(bump, 3)
        with pytest.raises(RuntimeError, match="blew up"):
            spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, dt, dt)

    def test_snapshots_are_the_stepped_states(self, unit_kernel):
        beta0 = spectral.project_initial(bump, 4)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.01, 1.0,
                                 snapshot_times=(0.37, 0.0, 1.0))
        assert list(rec.snapshots) == [0.0, 0.37, 1.0]
        np.testing.assert_array_equal(rec.snapshots[0.0], beta0)
        np.testing.assert_array_equal(rec.snapshots[0.37], rec.frames[37])
        np.testing.assert_array_equal(rec.snapshots[1.0], rec.frames[-1])

    def test_trajectory_csv_roundtrip(self, unit_kernel, tmp_path):
        from nlfkpp.csvio import read_csv
        beta0 = spectral.project_initial(bump, 3)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.1, 1.0)
        path = tmp_path / "traj.csv"
        spectral.trajectory_to_csv(path, rec)
        header, cols = read_csv(path)
        assert header == ["t", "j", "re_beta", "im_beta"]
        n_modes = 2 * 3 + 1
        assert len(cols[0]) == len(rec.times) * n_modes
        np.testing.assert_allclose(cols[2][:n_modes],
                                   spectral._full(rec.frames[0]).real, rtol=0)


class TestRk4Modes:
    """About the steady state beta_0* = sqrt(2 pi) a / (kappa lambda_0), a
    small mode j relaxes at sigma_j = -(a lambda_j / lambda_0 + D j^2): the
    coupling's l = 0 and l = j terms give -kappa beta_0* (lambda_0 +
    lambda_j) / sqrt(2 pi), and the first cancels a.  Each RK4 step
    multiplies its amplitude by R(sigma_j dt), R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24."""

    @pytest.mark.parametrize("j", [1, 3, 8])
    def test_mode_amplitude_ratio(self, unit_kernel, j):
        J, a, kappa, D, dt, k = 10, 1.0, 0.5, 0.1, 0.01, 50
        lam = kernel.eigenvalues(J, unit_kernel)
        beta_star = SQRT_TWO_PI * a / (kappa * lam[J])
        beta0 = np.zeros(J + 1, dtype=complex)
        beta0[0] = beta_star
        beta0[j] = 1e-7 * beta_star
        rec = spectral.integrate(beta0, unit_kernel, a, kappa, D, dt, k * dt)
        z = -(a * lam[J + j] / lam[J] + D * j**2) * dt
        R = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        ratio = rec.y[j] / beta0[j]
        assert ratio.real == pytest.approx(R**k, rel=1e-4)
        assert abs(ratio.imag) <= 1e-12
        assert R**k < 0.99  # the mode decays visibly over the k steps


class TestRunInvariantOperator:
    def test_spectrum_built_once_per_run(self, monkeypatch):
        # kernel parameters no other test uses, so the eigenvalue cache is cold
        kern = CircleKernelParams(1.0, 0.731, 1.0)
        calls = []
        bessel = kernel.bessel_i_scaled

        def counted(order, mu):
            calls.append(order)
            return bessel(order, mu)

        builds = []

        def counted_spectrum(J, params):
            builds.append(J)
            return kernel.eigenvalues(J, params)

        monkeypatch.setattr(kernel, "bessel_i_scaled", counted)
        monkeypatch.setattr(spectral, "eigenvalues", counted_spectrum)
        beta0 = spectral.project_initial(bump, 6)
        spectral.integrate(beta0, kern, 1.0, 0.2, 0.1, 0.01, 0.1)
        assert sorted(calls) == list(range(7))
        assert builds == [6]  # one spectrum per run, not one per RHS call

    def test_trajectory_equals_rk4_on_public_rhs(self, unit_kernel):
        J, dt, n_steps = 8, 0.01, 50
        beta0 = spectral.project_initial(bump, J)

        def f(b):
            return spectral.rhs(b, unit_kernel, 1.0, 0.2, 0.1)

        beta = beta0.copy()
        history = [beta.copy()]
        for _ in range(n_steps):
            k1 = f(beta)
            k2 = f(beta + 0.5 * dt * k1)
            k3 = f(beta + 0.5 * dt * k2)
            k4 = f(beta + dt * k3)
            beta = beta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            history.append(beta.copy())
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.1, dt,
                                 n_steps * dt)
        assert np.array_equal(rec.frames, np.array(history))


class TestOmegaCoefficients:
    def test_fourier_product_selection_rule(self):
        # v_j*(s) v_j'(s) = (2 pi)^{-1/2} v_{j-j'}*(s) picks one coefficient
        basis = lambda k: (lambda s: np.exp(1j * k * s) / SQRT_TWO_PI)
        coeffs = omega_coefficients(2, 5, basis, range(-6, 7))
        for k, c in coeffs.items():
            expected = 1.0 / SQRT_TWO_PI if k == -3 else 0.0
            assert abs(c - expected) < 1e-12

    def test_rejects_non_orthonormal_family(self):
        basis = lambda k: (lambda s: np.ones_like(s))
        with pytest.raises(ValueError):
            omega_coefficients(0, 1, basis, [0, 1])


class TestExponentialForm:
    def test_matches_reconstruction(self, unit_kernel):
        # the exponential representation resums to the same density
        beta0 = spectral.project_initial(bump, 12)
        rec = spectral.integrate(beta0, unit_kernel, 1.0, 0.2, 0.0, 0.001, 5.0,
                                 snapshot_times=(5.0,), store_every=1)
        s = np.linspace(-math.pi, math.pi, 65)
        via_exp = spectral.exponential_form(rec, unit_kernel, bump, s, 1.0, 0.2)
        direct = spectral.reconstruct(rec.snapshots[5.0], s)
        np.testing.assert_allclose(via_exp, direct, rtol=2e-3)
