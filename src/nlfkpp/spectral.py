"""Truncated Fourier-coefficient dynamics of the density on the circle.

The density is expanded in the kernel eigenmodes v_j(s) = e^{ijs}/sqrt(2 pi),
|j| <= J.  The coefficients obey

    dbeta_j/dt = (a - D j^2) beta_j
                 - kappa/sqrt(2 pi) * sum_l lambda_l beta_{j-l} beta_l,

with products falling outside the band dropped (projection truncation).
A real density has beta_{-j} = conj(beta_j), so the state is the half
spectrum beta_0..beta_J, a (J+1,) complex array with Im beta_0 = 0; _full
builds the band j = -J..J from it.  Time stepping is fixed-step classical
RK4 on the shared driver of ``stepping``; the j = 0 right-hand side is
real, so Im beta_0 stays exactly 0.
"""

from __future__ import annotations

import numpy as np

from . import backends, stepping
from .analysis import trapezoid
from .csvio import write_csv
from .kernel import (SQRT_TWO_PI, CircleKernelParams, eigenvalues,
                     fourier_coefficients, fourier_modes, real_part)


def _modes(beta):
    """(beta as a complex array, J) for the half spectrum beta_0..beta_J;
    ValueError unless beta is 1-D, not empty, with Im beta_0 = 0."""
    beta = np.asarray(beta, dtype=complex)
    if beta.ndim != 1 or len(beta) == 0 or beta[0].imag != 0:
        raise ValueError(f"expected J + 1 coefficients beta_0..beta_J with "
                         f"real beta_0, got shape {beta.shape}")
    return beta, len(beta) - 1


def _full(half):
    """The band beta_-J..beta_J (index j + J) of half spectra beta_0..beta_J
    along the last axis, beta_-j = conj(beta_j)."""
    return np.concatenate([half[..., :0:-1].conj(), half], axis=-1)


def _band(a: float, D: float, J: int) -> np.ndarray:
    """The linear rates a - D j^2 of the modes j = 0..J; ValueError unless
    D >= 0."""
    if not D >= 0:
        raise ValueError(f"diffusion coefficient must be >= 0, got {D}")
    return a - D * np.arange(J + 1.0) ** 2


def project_initial(rho_phi, J: int) -> np.ndarray:
    """The half spectrum of the Fourier coefficients
    beta_{0j} = int v_j*(s) rho_phi(s) ds (kernel.fourier_coefficients),
    each the conjugate-symmetric part 0.5 (beta_j + conj(beta_-j))."""
    beta = fourier_coefficients(rho_phi, J)
    return 0.5 * (beta[J:] + beta[J::-1].conj())


def rhs(beta, kern: CircleKernelParams, a: float, kappa: float,
        D: float) -> np.ndarray:
    """Half-spectrum derivatives of the band-truncated mode system."""
    beta, J = _modes(beta)
    return _mode_rhs(beta, _band(a, D, J), eigenvalues(J, kern), kappa)


def _mode_rhs(beta, band, lam, kappa):
    """(a - D j^2) beta_j - kappa/sqrt(2 pi) sum_l lambda_l beta_{j-l} beta_l,
    j = 0..J, for a precomputed rate band and kernel spectrum (j = -J..J);
    the j = 0 term is taken real."""
    coupling = backends.quadratic_coupling(_full(beta), lam)[len(beta) - 1:]
    out = band * beta - (kappa / SQRT_TWO_PI) * coupling
    out[0] = out[0].real
    return out


def integrate(beta0, kern: CircleKernelParams, a: float, kappa: float,
              D: float, dt: float, t_end: float, snapshot_times=(),
              store_every: int = 1, t0: float = 0.0) -> stepping.Record:
    """Fixed-step RK4 of the half spectrum beta0 from t0 to t_end; the
    record's frames and snapshots are half spectra (see stepping.march)."""
    beta0, J = _modes(beta0)
    # the rate band and the kernel spectrum are fixed for the whole run
    band = _band(a, D, J)
    lam = eigenvalues(J, kern)

    def rhs(beta, t):
        return _mode_rhs(beta, band, lam, kappa)

    return stepping.march(beta0, float(t0), t_end, dt, rhs, "rk4",
                          store_every=store_every, at=snapshot_times)


def trajectory_to_csv(path, rec: stepping.Record) -> None:
    """Rows (t, j, re_beta, im_beta) for every stored time and mode
    j = -J..J of a spectral record."""
    beta = _full(np.array(rec.frames))
    n_t, n_j = beta.shape
    J = (n_j - 1) // 2
    write_csv(path, ["t", "j", "re_beta", "im_beta"],
              [np.repeat(rec.times, n_j), np.tile(np.arange(-J, J + 1), n_t),
               beta.real.ravel(), beta.imag.ravel()])


def reconstruct(beta, s_grid) -> np.ndarray:
    """Density rho(s_k) = sum_j beta_j v_j(s_k) of a half spectrum; must
    come out real."""
    beta, J = _modes(beta)
    return real_part(fourier_modes(J, s_grid) / SQRT_TWO_PI @ _full(beta),
                     "reconstruction")


def exponential_form(rec: stepping.Record, kern: CircleKernelParams,
                     rho_phi, s_grid, a: float, kappa: float) -> np.ndarray:
    """Density at a spectral record's final time from the exponential
    representation

        rho(t, s) = rho_phi(s) * exp[ a t - kappa sum_j lambda_j v_j(s)
                                       int_0^t beta_j dtau ],

    with the time integrals taken by the trapezoid rule over the stored
    frames (constant growth rate a, so only the zero mode of a survives).
    """
    s = np.asarray(s_grid, dtype=float)
    t = np.array(rec.times)
    beta = _full(np.array(rec.frames))
    J = len(rec.frames[0]) - 1
    lam = eigenvalues(J, kern)
    integrals = trapezoid(beta, t, axis=0)
    exponent = a * (t[-1] - t[0]) - kappa * (
        fourier_modes(J, s) / SQRT_TWO_PI @ (lam * integrals)
    )
    resid = float(np.max(np.abs(exponent.imag)))
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(exponent)))):
        raise ValueError(f"exponential form has imaginary residue {resid:.3e}")
    return np.asarray(rho_phi(s), dtype=float) * np.exp(exponent.real)
