import math

import numpy as np
import pytest

from nlfkpp import manifold, planar, stepping
from nlfkpp.kernel import SQRT_TWO_PI

from conftest import (bits, concentration_check, extract_sld_oracle,
                      laplacian_pad_oracle, run2d_oracle)


@pytest.fixture
def kernel2d():
    return planar.GaussianKernel2D(1.0, 1.0)


def fft_convolution_oracle(field, kern):
    """dx^2 sum b(x - x', y - y') u(x', y') as an FFT convolution of the field
    with the full sampled two-dimensional kernel; independent of the
    separable product the package uses."""
    from scipy.signal import fftconvolve

    offsets = field.dx * np.arange(-(field.n - 1), field.n)
    g1 = np.exp(-(offsets**2) / (2.0 * kern.gamma**2))
    return kern.b0 * field.dx**2 * fftconvolve(field.u, np.outer(g1, g1),
                                               mode="same")


class TestField2DGeometry:
    @pytest.mark.parametrize("L", [-3.0, 0.0, math.inf, math.nan])
    def test_bad_half_width_rejected(self, L):
        # a negative L used to mirror the axis
        with pytest.raises(ValueError, match="half-width"):
            planar.Field2D(L, 16, np.ones((16, 16)))

    @pytest.mark.parametrize("n", [1, 0])
    def test_too_few_points_rejected(self, n):
        # n = 1 used to raise ZeroDivisionError from dx
        with pytest.raises(ValueError, match="n >= 2"):
            planar.Field2D(3.0, n, np.ones((n, n)))

    def test_mirrored_ring_rejected(self):
        with pytest.raises(ValueError, match="half-width"):
            planar.gaussian_ring(-3.0, 16, 1.0, 0.3)


class TestNonlocalTerm2D:
    def test_backends_agree_on_random_fields(self, kernel2d):
        rng = np.random.default_rng(5)
        for _ in range(10):
            field = planar.Field2D(3.0, 64, rng.random((64, 64)))
            product = planar.nonlocal_term_2d(field, kernel2d)
            oracle = fft_convolution_oracle(field, kernel2d)
            assert np.max(np.abs(product - oracle)) < 1e-10 * np.max(np.abs(oracle))

    def test_kernel_matrix_is_shared_read_only(self, kernel2d):
        field = planar.Field2D(3.0, 32, np.ones((32, 32)))
        first = planar.nonlocal_term_2d(field, kernel2d)
        G = planar._gaussian_matrix(field.L, field.n, kernel2d.gamma)
        assert G is planar._gaussian_matrix(field.L, field.n, kernel2d.gamma)
        with pytest.raises(ValueError):
            G[0, 0] = 0.0
        np.testing.assert_array_equal(planar.nonlocal_term_2d(field, kernel2d),
                                      first)

    def test_local_limit_small_gamma(self):
        # gamma << domain: int b dy -> 2 pi gamma^2 b0, so for uniform u the
        # interaction is approximately (2 pi gamma^2 b0) u
        gamma = 0.05
        kern = planar.GaussianKernel2D(1.0, gamma)
        field = planar.Field2D(3.0, 128, np.full((128, 128), 0.7))
        I = planar.nonlocal_term_2d(field, kern)
        expected = 2.0 * math.pi * gamma**2 * 1.0 * 0.7
        center = I[40:88, 40:88]  # away from the boundary layer
        assert np.max(np.abs(center - expected)) / expected < 0.05


class TestStep2D:
    def test_free_growth(self, kernel2d):
        rng = np.random.default_rng(9)
        field = planar.Field2D(3.0, 32, rng.random((32, 32)))
        u0 = field.u.copy()
        out = planar.run2d(field, kernel2d, 1.0, 0.0, 0.01, 1.0)
        np.testing.assert_allclose(out.y, u0 * math.exp(1.0), rtol=1e-2)

    def test_run_time_is_an_exact_multiple_of_dt(self, kernel2d):
        # t0 + k dt, not a running sum: 100 steps of 0.01 sum to 1.0000000000000007
        field = planar.gaussian_ring(3.0, 16, 1.0, 0.3, 1.0, D=0.01)
        assert planar.run2d(field, kernel2d, 1.0, 0.2, 0.01, 1.0).t == 1.0

    def test_ring_mass_saturates_logistically(self, kernel2d):
        field = planar.gaussian_ring(3.0, 64, 1.0, 0.15, 1.0, D=0.01)
        masses = [planar.moments(field)[0]]
        for _ in range(5):
            rec = planar.run2d(field, kernel2d, 1.0, 0.2, 0.01, field.t + 1.0)
            field = planar.Field2D(3.0, 64, rec.y, rec.t, 0.01)
            masses.append(planar.moments(field)[0])
        growth = np.diff(np.log(masses))
        assert np.all(np.diff(growth) < 0)  # growth rate decreases
        assert growth[-1] < 0.5 * growth[0]

    def test_stability_bound_enforced(self, kernel2d):
        field = planar.gaussian_ring(3.0, 32, 1.0, 0.2, 1.0, D=1.0)
        with pytest.raises(ValueError):
            planar.run2d(field, kernel2d, 1.0, 0.2, 0.5, field.t + 0.5)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 * stepping.BLOWUP_LIMIT])
    def test_blowup_guard_catches_bad_update(self, kernel2d, monkeypatch, bad):
        # a diffusion update of bad / (dt D) on every node puts bad into u
        dt, D = 0.01, 0.01
        monkeypatch.setattr(planar, "_laplacian_reflect",
                            lambda u, dx, *work: np.full_like(u, bad / (dt * D)))
        field = planar.gaussian_ring(3.0, 32, 1.0, 0.2, 1.0, D=D)
        with pytest.raises(RuntimeError, match="blew up"):
            planar.run2d(field, kernel2d, 1.0, 0.2, dt, field.t + dt)


class TestEulerModes:
    """At kappa = 0 the planar right-hand side is a u + D lap u.  Its
    zero-flux Laplacian has the eigenvectors cos(pi k (i + 1/2) / n) along
    each axis, with eigenvalues lambda_k = -4 sin^2(pi k / 2n) / dx^2, so
    each Euler step multiplies the amplitude of the product mode (k, l) by
    1 + dt (a + D (lambda_k + lambda_l))."""

    @pytest.mark.parametrize("k, l", [(1, 0), (3, 2), (8, 5)])
    def test_mode_amplitude_ratio(self, kernel2d, k, l):
        n, L, a, D, dt, m = 32, 1.0, 1.0, 0.01, 0.01, 50
        i = np.arange(n) + 0.5
        mode = np.outer(np.cos(np.pi * k * i / n), np.cos(np.pi * l * i / n))
        field = planar.Field2D(L, n, 1.0 + 1e-3 * mode, D=D)
        rec = planar.run2d(field, kernel2d, a, 0.0, dt, m * dt)
        lam = [-4.0 * math.sin(math.pi * q / (2 * n)) ** 2 / field.dx**2
               for q in (k, l)]
        ratio = np.sum(rec.y * mode) / np.sum(field.u * mode)
        assert ratio == pytest.approx((1.0 + dt * (a + D * sum(lam))) ** m,
                                      rel=1e-9)
        # diffusion moves the mode away from the mean's growth (1 + dt a)^m
        assert abs(ratio / (1.0 + dt * a) ** m - 1.0) > 1e-3


class TestWorkArrays:
    """run2d writes every step into its own work arrays; the bits are those
    of the allocating expressions (conftest.run2d_oracle)."""

    @pytest.mark.parametrize("n", [2, 3, 16, 33])
    def test_laplacian_matches_the_padded_oracle(self, n):
        # fields over many magnitudes, and a NaN and an infinity, which the
        # sums carry to the same cells as the padded field's
        rng = np.random.default_rng(n)
        scratch, out = np.empty((n, n)), np.empty((n, n))
        for trial in range(20):
            u = rng.random((n, n)) * 10.0 ** rng.uniform(-8, 8, (n, n))
            if trial == 0:
                u[0, -1], u[-1, 0] = np.nan, np.inf
            dx = rng.uniform(0.01, 1.0)
            with np.errstate(invalid="ignore"):  # inf - inf
                got = planar._laplacian_reflect(u, dx, scratch, out)
                want = laplacian_pad_oracle(u, dx)
            assert got is out
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n", [16, 33])
    @pytest.mark.parametrize("D", [0.0, 0.05])
    def test_run_matches_allocating_oracle(self, kernel2d, n, D):
        field = planar.gaussian_ring(3.0, n, 1.0, 0.3, 1.0, D=D,
                                     angular=lambda s: 1.0 + 0.3 * np.cos(3 * s))
        u0 = field.u.copy()
        got = planar.run2d(field, kernel2d, 1.0, 0.2, 0.01, 0.5)
        want = run2d_oracle(field, kernel2d, 1.0, 0.2, 0.01, 0.5)
        assert np.array_equal(bits(got.y), bits(want.y))
        assert (got.t, got.clamped) == (want.t, want.clamped)
        assert np.array_equal(bits(field.u), bits(u0))  # the input is kept


class TestClamping:
    @staticmethod
    def one_step(monkeypatch, kernel2d, change):
        """One euler step from u = 1 with u[3, 3] = 0, where the reaction
        term vanishes, under a diffusion update of change / dt at that node
        alone."""
        dt, D = 0.01, 0.01

        def laplacian(u, dx, *work):
            out = np.zeros_like(u)
            out[3, 3] = change / (dt * D)
            return out

        monkeypatch.setattr(planar, "_laplacian_reflect", laplacian)
        u = np.ones((16, 16))
        u[3, 3] = 0.0
        return planar.run2d(planar.Field2D(3.0, 16, u, 0.0, D), kernel2d,
                            1.0, 0.2, dt, dt)

    def test_roundoff_band_clamped(self, monkeypatch, kernel2d):
        rec = self.one_step(monkeypatch, kernel2d, -1e-12)
        assert rec.y[3, 3] == 0.0
        assert np.all(np.delete(rec.y.ravel(), 3 * 16 + 3) > 0.0)
        assert rec.clamped == 1

    def test_hard_negative_aborts(self, monkeypatch, kernel2d):
        with pytest.raises(RuntimeError, match="hard negative"):
            self.one_step(monkeypatch, kernel2d, -0.5)


class TestMoments:
    def test_symmetric_ring_centroid(self):
        field = planar.gaussian_ring(3.0, 128, 1.0, 0.1)
        _, xbar = planar.moments(field)
        assert np.max(np.abs(xbar)) < 1e-10

    def test_gaussian_blob_moments(self):
        L, n, A, sig = 3.0, 256, 2.0, 0.3
        field = planar.Field2D(L, n, np.zeros((n, n)))
        ax = field.axis
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        field.u = A * np.exp(-((X - 0.5) ** 2 + Y**2) / (2 * sig**2))
        m, xbar = planar.moments(field)
        assert m == pytest.approx(2 * math.pi * A * sig**2, abs=1e-6)
        assert xbar[0] == pytest.approx(0.5, abs=1e-6)
        assert xbar[1] == pytest.approx(0.0, abs=1e-10)

    def test_zero_mass_rejected(self):
        field = planar.Field2D(3.0, 32, np.zeros((32, 32)))
        with pytest.raises(ValueError):
            planar.moments(field)


class TestExtractSld:
    def test_separable_ring_gives_constant(self):
        field = planar.gaussian_ring(3.0, 256, 1.0, 0.1, 1.0)
        s, rho = planar.extract_sld(field, 64)
        expected = 0.1 * math.sqrt(2 * math.pi) * 1.0
        np.testing.assert_allclose(rho, expected, rtol=0.01)

    def test_modulated_ring_recovered(self):
        angular = lambda s: 1.0 / SQRT_TWO_PI + 0.1 * np.cos(3 * s)
        field = planar.gaussian_ring(3.0, 256, 1.0, 0.1, 1.0, angular=angular)
        s, rho = planar.extract_sld(field, 128)
        target = 0.1 * math.sqrt(2 * math.pi) * angular(s)
        rel_l2 = np.linalg.norm(rho - target) / np.linalg.norm(target)
        assert rel_l2 < 0.02

    def test_fubini_consistency(self):
        field = planar.gaussian_ring(3.0, 256, 1.0, 0.1, 1.0)
        s, rho = planar.extract_sld(field, 256)
        mass_polar = 2.0 * math.pi / len(s) * np.sum(rho)
        m, _ = planar.moments(field)
        assert mass_polar == pytest.approx(m, rel=1e-3)

    @pytest.mark.parametrize("n_angles", [1, 2, 3, 100, 128, 512])
    @pytest.mark.parametrize("kind", ["ring", "perturbed", "stepped"])
    def test_all_rays_give_the_bits_of_one_ray_at_a_time(self, kind,
                                                          n_angles):
        angular = lambda s: 1.0 / SQRT_TWO_PI + 0.1 * np.cos(3 * s)
        field = planar.gaussian_ring(3.0, 128, 1.0, 0.2, 1.0, angular=angular)
        if kind == "perturbed":
            noise = np.random.default_rng(7).uniform(0.0, 1e-3, field.u.shape)
            field = planar.Field2D(3.0, 128, field.u + noise)
        elif kind == "stepped":
            rec = planar.run2d(field, planar.GaussianKernel2D(1.0, 1.0), 1.0,
                               1.0, 0.002, 0.1)
            field = planar.Field2D(3.0, 128, rec.y, rec.t)
        s, rho = planar.extract_sld(field, n_angles)
        s_ref, rho_ref = extract_sld_oracle(field, n_angles)
        np.testing.assert_array_equal(bits(s), bits(s_ref))
        np.testing.assert_array_equal(bits(rho), bits(rho_ref))

    def test_boundary_mass_warning(self):
        field = planar.Field2D(3.0, 64, np.ones((64, 64)))
        with pytest.warns(RuntimeWarning):
            planar.extract_sld(field, 32)


class TestConcentrationCheck:
    def test_matched_ring_and_circle(self):
        field = planar.gaussian_ring(3.0, 256, 1.0, 0.1, 1.0)
        circle = manifold.circle_state(1.0, 128, lambda s: np.ones_like(s))
        dev = concentration_check(field, circle)
        assert dev < 1e-10

    def test_constant_observable_is_exact(self):
        field = planar.gaussian_ring(3.0, 128, 1.0, 0.2, 1.0)
        circle = manifold.circle_state(1.0, 64, lambda s: np.ones_like(s))
        dev = concentration_check(field, circle,
                                         observable=lambda x, y: 1.0 + 0 * x)
        assert dev < 1e-13

    def test_deviation_decreases_with_diffusion(self, kernel2d):
        # smaller D keeps the mass tighter on the ring: the first angular
        # moment of the planar run stays closer to the manifold value
        devs = []
        circle = manifold.circle_state(1.0, 128, lambda s: np.ones_like(s))
        for D in (0.1, 0.05, 0.01):
            field = planar.gaussian_ring(3.0, 128, 1.0, 0.1, 1.0, D=D)
            rec = planar.run2d(field, kernel2d, 1.0, 0.2, 0.002, 2.0)
            out = planar.Field2D(3.0, 128, rec.y, rec.t, D)
            devs.append(concentration_check(
                out, circle, observable=lambda x, y: np.hypot(x, y)))
        assert devs[0] > devs[1] > devs[2]
