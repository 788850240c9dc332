import math

import numpy as np
import pytest

from nlfkpp import analysis, exact, gridsim, kernel, stepping
from nlfkpp.kernel import (SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalue,
                           grid_nodes)

from conftest import circulant_term, imex_four_fft, imex_two_fft, sampled

LAMBDA0 = 2.926453923110091


class TestNonlocalTerm:
    def test_constant_density_gives_lambda0(self, unit_kernel):
        # int b(s,s') c ds' = c lambda_0 by the constant-eigenfunction property
        c = 1.7
        state = gridsim.GridState(128, np.full(128, c))
        for I in (circulant_term(state.rho, unit_kernel),
                  gridsim.nonlocal_term(state, unit_kernel)):
            np.testing.assert_allclose(I, c * LAMBDA0, rtol=1e-12)

    def test_eigenfunction_property(self, unit_kernel):
        # rho = v_j + v_-j is a real eigenfunction with eigenvalue lambda_j
        N = 256
        s = grid_nodes(N)
        for j in (1, 2, 5):
            rho = 2.0 * np.cos(j * s) / SQRT_TWO_PI
            state = gridsim.GridState.__new__(gridsim.GridState)
            state.N, state.rho, state.t = N, rho, 0.0
            I = gridsim.nonlocal_term(state, unit_kernel)
            np.testing.assert_allclose(I, eigenvalue(j, unit_kernel) * rho,
                                       atol=1e-12)

    def test_fast_matches_direct_on_random_states(self, unit_kernel):
        rng = np.random.default_rng(11)
        for N in (64, 256):
            for _ in range(25):
                state = gridsim.GridState(N, rng.random(N))
                fast = gridsim.nonlocal_term(state, unit_kernel)
                direct = circulant_term(state.rho, unit_kernel)
                scale = np.max(np.abs(direct))
                assert np.max(np.abs(fast - direct)) < 1e-12 * scale


class TestStep:
    def test_free_growth(self, unit_kernel):
        rho0 = sampled("gaussian_bump", 64, T=10.0)
        out = gridsim.integrate(rho0, unit_kernel, 1.0, 0.0, 0.0, 0.01, 2.0,
                                "rk4")
        np.testing.assert_allclose(out.y, rho0 * math.exp(2.0), rtol=1e-9)

    def test_homogeneous_follows_exact_solution(self, unit_kernel):
        m = exact.HomogeneousModel(1.0, 0.2, LAMBDA0, 1.0)
        rho0 = sampled("homogeneous", 64, beta00=1.0)
        for scheme, D, dt, tol in (("rk4", 0.1, 0.01, 1e-6),
                                   ("euler", 0.0, 0.0005, 1e-3),
                                   ("imex", 0.1, 0.001, 1e-3)):
            out = gridsim.integrate(rho0, unit_kernel, 1.0, 0.2, D, dt, 20.0,
                                    scheme)
            assert np.max(np.abs(out.y - exact.rho0(20.0, m))) < tol

    def test_stability_bound_enforced(self, unit_kernel):
        rho0 = sampled("homogeneous", 64)
        with pytest.raises(ValueError):
            gridsim.integrate(rho0, unit_kernel, 1.0, 0.2, 0.5, 0.05, 0.05,
                              "euler")
        # imex lifts the diffusive restriction at the same dt
        gridsim.integrate(rho0, unit_kernel, 1.0, 0.2, 0.5, 0.05, 0.05, "imex")

    def test_imex_keeps_flat_steady_state(self, unit_kernel):
        m = exact.HomogeneousModel(1.0, 0.2, LAMBDA0, 1.0)
        rho_inf = exact.rho_lim(m)
        out = gridsim.integrate(np.full(64, rho_inf), unit_kernel, 1.0, 0.2,
                                0.5, 0.05, 0.05, "imex")
        np.testing.assert_allclose(out.y, rho_inf, rtol=1e-13)

    def test_blowup_detected(self, unit_kernel):
        rho0 = sampled("homogeneous", 64)
        with pytest.raises(RuntimeError):
            # negative coupling turns the quadratic term into a source
            gridsim.integrate(rho0, unit_kernel, 5.0, 0.0, 0.0, 0.05, 20.0,
                              "euler")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 * stepping.BLOWUP_LIMIT])
    def test_blowup_guard_catches_bad_update(self, unit_kernel, monkeypatch,
                                             bad):
        # an update of bad / dt on every node puts bad into the new state
        dt = 0.01
        monkeypatch.setattr(gridsim, "_rhs",
                            lambda rho, *args: np.full_like(rho, bad / dt))
        rho0 = sampled("homogeneous", 64)
        with pytest.raises(RuntimeError, match="blew up"):
            gridsim.integrate(rho0, unit_kernel, 1.0, 0.2, 0.0, dt, dt, "euler")

    @pytest.mark.parametrize("shape", [(), (2, 16)])
    def test_density_must_be_one_dimensional(self, unit_kernel, shape):
        # a batch goes to integrate_batch; integrate takes one run's density
        with pytest.raises(ValueError, match=r"expected an \(N,\) density"):
            gridsim.integrate(np.ones(shape), unit_kernel, 1.0, 0.2, 0.0,
                              0.01, 0.1)

    def test_run_time_is_an_exact_multiple_of_dt(self, unit_kernel):
        # t0 + k dt, not a running sum: 100 steps of 0.01 sum to 1.0000000000000007
        out = gridsim.integrate(sampled("homogeneous", 64), unit_kernel, 1.0,
                                0.2, 0.0, 0.01, 1.0, "euler")
        assert out.t == 1.0

    def test_grid_convergence(self, unit_kernel):
        # halving ds changes the t=5 profile below 1e-4 relative
        profiles = {}
        for N in (256, 512):
            out = gridsim.integrate(sampled("gaussian_bump", N, T=10.0),
                                    unit_kernel, 1.0, 0.2, 0.1, 0.002, 5.0,
                                    "imex")
            profiles[N] = out.y
        coarse = profiles[256]
        fine = profiles[512][::2]
        rel = np.max(np.abs(coarse - fine)) / np.max(np.abs(fine))
        assert rel < 1e-4


class TestRunInvariantOperator:
    def test_lambda0_computed_once_per_run(self, monkeypatch):
        # mu = 400, where one eigenvalue is a ~650-step Miller recurrence;
        # b0 is one no other test uses, so the eigenvalue cache is cold
        kern = CircleKernelParams(1.37, 0.05, 1.0)
        calls = []
        bessel = kernel.bessel_i_scaled

        def counted(order, mu):
            calls.append(order)
            return bessel(order, mu)

        monkeypatch.setattr(kernel, "bessel_i_scaled", counted)
        out = gridsim.integrate(sampled("gaussian_bump", 64, T=10.0), kern,
                                1.0, 0.2, 0.1, 0.01, 0.5, "imex")
        assert out.t == pytest.approx(0.5)
        assert calls == [0]

    def test_cached_kernel_spectrum_is_read_only(self, unit_kernel):
        spectrum = gridsim._kernel_spectrum(unit_kernel, 64)
        assert spectrum is gridsim._kernel_spectrum(unit_kernel, 64)
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
        np.testing.assert_array_equal(
            spectrum, np.fft.rfft(gridsim.kernel_row(unit_kernel, 64)))

    def test_imex_step_matches_inline_symbol(self, unit_kernel):
        # Z = ((1 + dt a) Y - dt kappa rfft(rho I)) / symbol from the
        # carried Y = rfft(rho) and I; rho and I / ds from one irfft of
        # [Z, S Z]
        a, kappa, D, dt, N = 1.0, 0.2, 0.1, 0.01, 128
        rho, ds = sampled("gaussian_bump", N, T=10.0), TWO_PI / N
        S = np.fft.rfft(gridsim.kernel_row(unit_kernel, N))
        Y = np.fft.rfft(rho)
        interaction = ds * np.fft.irfft(S * Y, n=N)
        r = dt * D / ds**2
        eig = (1.0 + 2.0 * r) + 2.0 * (-r) * np.cos(
            TWO_PI * np.arange(N // 2 + 1) / N)
        Z = (1.0 + dt * a) * Y - dt * kappa * np.fft.rfft(rho * interaction)
        # the real and imaginary parts each divided by the real symbol
        Z = (Z.view(float) / np.repeat(eig, 2)).view(complex)
        expected = np.fft.irfft(np.stack([Z, S * Z]), n=N)[0]
        out = gridsim.integrate(rho, unit_kernel, a, kappa, D, dt, dt, "imex")
        assert np.array_equal(out.y, expected)

    def test_imex_tracks_the_four_fft_step(self, unit_kernel):
        # carrying the state in Fourier space reorders the step's round-off
        # only: 500 steps stay within 1e-13 of interaction-then-solve
        a, kappa, D, dt, N = 1.0, 0.2, 0.1, 0.01, 128
        rho0 = sampled("gaussian_bump", N, T=10.0)
        out = gridsim.integrate(rho0, unit_kernel, a, kappa, D, dt,
                                500 * dt, "imex")
        reference = imex_four_fft(rho0, unit_kernel, a, kappa, D, dt, 500)
        assert analysis.relative_linf(out.y, reference) <= 1e-13


class TestImexModes:
    """About the flat steady state rho* = a / (kappa L_0), the imex step
    multiplies the amplitude of a small mode cos(j s) by
    g_j = (1 - dt kappa rho* L_j) / (1 + 4 dt D sin^2(j ds / 2) / ds^2),
    with L_j = ds Re rfft(kernel_row)[j] the grid interaction's eigenvalue:
    the reaction a = kappa rho* L_0 cancels, and the implicit diffusion
    divides by the symbol of its circulant matrix."""

    @pytest.mark.parametrize("j", [1, 3, 8])
    def test_mode_amplitude_ratio(self, unit_kernel, j):
        N, a, kappa, D, dt, k = 64, 1.0, 0.5, 0.1, 0.01, 50
        ds = TWO_PI / N
        L = ds * np.fft.rfft(gridsim.kernel_row(unit_kernel, N)).real
        rho_star = a / (kappa * L[0])
        rho0 = rho_star * (1.0 + 1e-7 * np.cos(j * grid_nodes(N)))
        rec = gridsim.integrate(rho0, unit_kernel, a, kappa, D, dt, k * dt,
                                "imex")
        g = (1.0 - dt * kappa * rho_star * L[j]) / (
            1.0 + 4.0 * dt * D * math.sin(j * ds / 2.0) ** 2 / ds**2)
        ratio = np.fft.rfft(rec.y)[j].real / np.fft.rfft(rho0)[j].real
        assert ratio == pytest.approx(g**k, rel=1e-4)
        assert g**k < 0.99  # the mode decays visibly over the k steps


class TestExplicitModes:
    """About the flat steady state rho* = a / (kappa L_0), a small mode
    cos(j s) of the explicit grid schemes grows at the rate
    sigma_j = -kappa rho* L_j - 4 D sin^2(j ds / 2) / ds^2 of the linearized
    right-hand side, with L_j = ds Re rfft(kernel_row)[j], so each step
    multiplies its amplitude by the scheme's stability function R(dt sigma_j)."""

    R = {"euler": lambda z: 1.0 + z,
         "rk4": lambda z: 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24}

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("j", [1, 3, 8])
    def test_mode_amplitude_ratio(self, unit_kernel, scheme, j):
        N, a, kappa, D, dt, k = 64, 1.0, 0.5, 0.1, 0.01, 50
        ds = TWO_PI / N
        L = ds * np.fft.rfft(gridsim.kernel_row(unit_kernel, N)).real
        rho_star = a / (kappa * L[0])
        rho0 = rho_star * (1.0 + 1e-7 * np.cos(j * grid_nodes(N)))
        rec = gridsim.integrate(rho0, unit_kernel, a, kappa, D, dt, k * dt,
                                scheme)
        sigma = -kappa * rho_star * L[j] \
            - 4.0 * D * math.sin(j * ds / 2.0) ** 2 / ds**2
        ratio = np.fft.rfft(rec.y)[j].real / np.fft.rfft(rho0)[j].real
        # the 1e-7 seed keeps the nonlinear terms below 1e-7 relative, which
        # tells rk4's R from exp(dt sigma_j) at j = 8 (3.7e-7 apart)
        assert ratio == pytest.approx(self.R[scheme](dt * sigma) ** k,
                                      rel=1e-7)
        assert ratio < 0.99  # the mode decays visibly over the k steps


class TestImexClampRefresh:
    """The imex step carries rfft(rho) and the interaction; a step the
    clamp changed is transformed again, per run."""

    N, DT, STEPS = 256, 0.01, 100

    def run_alone(self, kind, D, kern):
        return gridsim.integrate(sampled(kind, self.N), kern, 1.0, 0.2, D, self.DT,
                                 self.STEPS * self.DT, "imex")

    def test_clamping_run_matches_the_oracle(self, unit_kernel):
        # weak diffusion of the cutoff's jump leaves round-off negatives
        rec = self.run_alone("cutoff", 0.001, unit_kernel)
        rho0 = sampled("cutoff", self.N)
        rho, clamped = imex_two_fft(rho0, unit_kernel, 1.0, 0.2, 0.001,
                                    self.DT, self.STEPS)
        assert rec.clamped == clamped > 0
        assert np.array_equal(rec.y, rho)

    def test_batched_rows_match_their_runs_alone(self, unit_kernel):
        # the cutoff row clamps and the bump row does not: refreshing the
        # bump's spectrum too would move its last bits
        kerns = [unit_kernel, CircleKernelParams(1.0, 1.5, 1.0)]
        runs = [("cutoff", 0.001), ("gaussian_bump", 0.1)]
        rho0 = [sampled(kind, self.N) for kind, _ in runs]
        rec = gridsim.integrate_batch(rho0, kerns, [1.0, 1.0], [0.2, 0.2],
                                      [D for _, D in runs], self.DT,
                                      self.STEPS * self.DT, "imex")
        assert rec.clamped[0] > 0 and rec.clamped[1] == 0
        for i, ((kind, D), kern) in enumerate(zip(runs, kerns)):
            alone = self.run_alone(kind, D, kern)
            assert rec.row(i).clamped == alone.clamped
            assert np.array_equal(rec.row(i).y, alone.y)


class TestInitialProfiles:
    def test_homogeneous(self):
        rho = gridsim.initial_profile("homogeneous", beta00=1.0)(grid_nodes(32))
        assert rho.shape == (32,)
        np.testing.assert_allclose(rho, 1.0 / SQRT_TWO_PI, rtol=0)

    def test_gaussian_bump_center_value(self):
        s = grid_nodes(64)
        rho = gridsim.initial_profile("gaussian_bump", T=10.0)(s)
        k0 = np.argmin(np.abs(s))
        assert rho[k0] == pytest.approx(1.0 / SQRT_TWO_PI + 0.1, abs=1e-12)

    def test_cutoff_values(self):
        s = grid_nodes(512)
        rho = gridsim.initial_profile("cutoff", edge=2.0)(s)
        inside = np.abs(s) < 2.0 - 1e-9
        outside = np.abs(s) > 2.0 + 1e-9
        assert np.all(rho[inside] == 1.0)
        assert np.all(rho[outside] == 0.0)

    def test_cutoff_midpoint_at_jump(self):
        # N = 256 places nodes exactly at |s| = pi/2
        s = grid_nodes(256)
        rho = gridsim.initial_profile("cutoff", edge=math.pi / 2)(s)
        jumps = np.isclose(np.abs(s), math.pi / 2, atol=1e-12)
        assert np.count_nonzero(jumps) == 2
        assert np.all(rho[jumps] == 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown initial-condition kind"):
            gridsim.initial_profile("ring")


def total_mass(rho) -> float:
    """m = (2 pi / N) sum_k rho_k, as analysis.diagnose reports it."""
    return analysis.diagnose(rho, TWO_PI / len(rho)).mass


class TestMass:
    def test_constant_profile(self):
        # rho = v0 beta00 over the full circle: m = 2 pi v0 = sqrt(2 pi)
        rho = sampled("homogeneous", 128, beta00=1.0)
        assert total_mass(rho) == pytest.approx(SQRT_TWO_PI, rel=1e-14)

    def test_cutoff_mass(self):
        assert total_mass(sampled("cutoff", 512, edge=2.0)) == pytest.approx(
            4.0, abs=2e-2)

    def test_logistic_mass_law(self, unit_kernel):
        # homogeneous: dm/dt = a m - kappa lambda0 m^2 / (2 pi)
        dt = 1e-4

        def advance(rho, t_end):
            return gridsim.integrate(rho, unit_kernel, 1.0, 0.2, 0.0, dt,
                                     t_end, "rk4").y

        out = advance(sampled("homogeneous", 64, beta00=1.0), 1.0)
        mid = advance(out, dt)
        out2 = advance(mid, dt)
        # centered difference around the midpoint state
        fd = (total_mass(out2) - total_mass(out)) / (2 * dt)
        m_mid = total_mass(mid)
        expected = 1.0 * m_mid - 0.2 * LAMBDA0 * m_mid**2 / TWO_PI
        assert fd == pytest.approx(expected, rel=1e-6)


class TestClamping:
    def test_roundoff_band_clamped(self, unit_kernel):
        rho = np.full(64, 1.0)
        rho[3] = -1e-12
        out = gridsim.integrate(rho, unit_kernel, 1.0, 0.2, 0.0, 0.01, 0.01,
                                "euler")
        assert out.y[3] >= 0.0

    def test_hard_negative_rejected(self, unit_kernel):
        rho = np.full(64, 1.0)
        rho[3] = -0.5
        with pytest.raises(ValueError, match="hard negative"):
            gridsim.integrate(rho, unit_kernel, 1.0, 0.2, 0.0, 0.01, 0.01)
        with pytest.raises(ValueError, match="hard negative"):
            gridsim.GridState(64, rho)

    def test_hard_negative_during_run_aborts(self, unit_kernel, monkeypatch):
        # an update of -0.5 / dt at one node leaves a value far below round-off
        dt = 0.01

        def rhs(rho, *args):
            # rho is a (runs, N) batch
            out = np.zeros_like(rho)
            out[..., 3] = -0.5 / dt
            return out

        monkeypatch.setattr(gridsim, "_rhs", rhs)
        with pytest.raises(RuntimeError, match="hard negative"):
            gridsim.integrate(sampled("homogeneous", 64), unit_kernel, 1.0,
                              0.2, 0.0, dt, dt, "euler")


class TestGridStateWrappers:
    """GridState, step and nonlocal_term stay for perfbench: step is one
    step of the array integrate from state.t."""

    @pytest.mark.parametrize("scheme, D", [("euler", 0.0), ("rk4", 0.1),
                                           ("imex", 0.1)])
    def test_step_is_one_step_of_integrate(self, unit_kernel, scheme, D):
        rho0, t, dt = sampled("gaussian_bump", 64, T=10.0), 0.3, 0.01
        out = gridsim.step(gridsim.GridState(64, rho0, t), unit_kernel, 1.0,
                           0.2, D, dt, scheme)
        rec = gridsim.integrate(rho0, unit_kernel, 1.0, 0.2, D, dt, t + dt,
                                scheme, t0=t)
        assert isinstance(out, gridsim.GridState)
        assert out.N == 64 and out.t == rec.t == t + dt
        assert np.array_equal(out.rho, rec.y)
