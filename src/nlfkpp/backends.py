"""Two kernels in numpy: the O(N^2) circulant interaction sum, which is the
reference for the grid's FFT convolution, and the quadratic mode coupling
of the spectral solver."""

import numpy as np


def circulant_apply(row, rho, ds):
    """out[k] = ds * sum_l row[(k - l) mod N] * rho[l]."""
    row = np.asarray(row, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = row.shape[0]
    k = np.arange(n)
    mat = row[(k[:, None] - k[None, :]) % n]
    return ds * (mat @ rho)


def quadratic_coupling(beta, lam):
    """out[j] = sum_l lam[l] * beta[j-l] * beta[l], band-truncated."""
    beta = np.asarray(beta, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    # the band of the linear convolution of beta with lam*beta: each kept
    # output is the dot product the full convolution forms, so the same bits
    return np.convolve(beta, lam * beta, "same")
