import numpy as np
import pytest

from nlfkpp import backends

from conftest import coupling_band


def brute_circulant(row, rho, ds):
    n = len(row)
    out = np.zeros(n)
    for k in range(n):
        for l in range(n):
            out[k] += row[(k - l) % n] * rho[l]
    return ds * out


def brute_coupling(beta, lam):
    big_j = (len(beta) - 1) // 2
    out = np.zeros_like(beta)
    for j in range(-big_j, big_j + 1):
        for l in range(-big_j, big_j + 1):
            if -big_j <= j - l <= big_j:
                out[j + big_j] += lam[l + big_j] * beta[j - l + big_j] * beta[l + big_j]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestPythonBackend:
    def test_circulant_matches_bruteforce(self, rng):
        for n in (8, 17, 64):
            row, rho = rng.random(n), rng.random(n)
            np.testing.assert_allclose(
                backends.circulant_apply(row, rho, 0.1),
                brute_circulant(row, rho, 0.1), rtol=1e-13)

    def test_coupling_matches_bruteforce(self, rng):
        for J in (0, 1, 5, 12):
            m = 2 * J + 1
            beta = rng.random(m) + 1j * rng.random(m)
            lam = rng.random(m)
            np.testing.assert_allclose(backends.quadratic_coupling(beta, lam),
                                       brute_coupling(beta, lam), rtol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 21, 80, 81, 161])
    def test_coupling_is_the_band_of_the_full_convolution(self, rng, m):
        # odd m = 2J + 1 (J = 0 at m = 1) and even m: the kept band of the
        # full convolution, bit for bit
        for _ in range(20):
            beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            lam = rng.random(m)
            out = backends.quadratic_coupling(beta, lam)
            np.testing.assert_array_equal(
                out.view(np.uint64), coupling_band(beta, lam).view(np.uint64))


def test_selected_backend_exports():
    assert callable(backends.circulant_apply)
    assert callable(backends.quadratic_coupling)
