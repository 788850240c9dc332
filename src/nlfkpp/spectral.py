"""Truncated Fourier-coefficient dynamics of the density on the circle.

The density is expanded in the kernel eigenmodes v_j(s) = e^{ijs}/sqrt(2 pi),
|j| <= J.  The coefficients obey

    dbeta_j/dt = (a - D j^2) beta_j
                 - kappa/sqrt(2 pi) * sum_l lambda_l beta_{j-l} beta_l,

with products falling outside the band dropped (projection truncation).
Time stepping is fixed-step classical RK4 on the shared driver of
``stepping``; the conjugate symmetry
beta_{-j} = conj(beta_j) of real densities is re-enforced after every step
and the enforcement drift is recorded (Record.drift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends, stepping
from .analysis import trapezoid
from .csvio import write_csv
from .kernel import (SQRT_TWO_PI, CircleKernelParams, eigenvalues,
                     fourier_coefficients, fourier_modes, real_part)


@dataclass
class SpectralState:
    """Complex coefficients beta_j, j = -J..J, stored at index j + J."""

    J: int
    beta: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=complex)
        if self.beta.shape != (2 * self.J + 1,):
            raise ValueError(
                f"expected {2 * self.J + 1} coefficients for J={self.J}, "
                f"got shape {self.beta.shape}"
            )

    def mode(self, j: int) -> complex:
        return self.beta[j + self.J]


@dataclass(frozen=True)
class DiffusiveRates:
    """Linear growth a and diffusion D; mode j grows at a - D j^2."""

    a: float
    D: float = 0.0

    def __post_init__(self):
        if self.D < 0:
            raise ValueError(f"diffusion coefficient must be >= 0, got {self.D}")

    def rate(self, j) -> np.ndarray:
        j = np.asarray(j)
        return self.a - self.D * j.astype(float) ** 2

    def band(self, J: int) -> np.ndarray:
        return self.rate(np.arange(-J, J + 1))


def basis_matrix(J: int, s_grid) -> np.ndarray:
    """v_j(s_k) for j = -J..J, shape (len(s), 2J+1)."""
    return fourier_modes(J, s_grid) / SQRT_TWO_PI


def project_initial(rho_phi, J: int, n_quad: int = 2048) -> SpectralState:
    """Fourier coefficients beta_{0j} = int v_j*(s) rho_phi(s) ds
    (kernel.fourier_coefficients), paired exactly conjugate for real data."""
    return SpectralState(J, _paired(fourier_coefficients(rho_phi, J, n_quad)),
                         0.0)


def _paired(beta):
    """The conjugate-symmetric part 0.5 (beta_j + conj(beta_{-j}))."""
    return 0.5 * (beta + beta[::-1].conj())


def rhs(state: SpectralState, rates: DiffusiveRates, kern: CircleKernelParams,
        kappa: float) -> np.ndarray:
    """Coefficient derivatives of the band-truncated mode system."""
    return _mode_rhs(state.beta, rates.band(state.J), eigenvalues(state.J, kern),
                     kappa)


def _mode_rhs(beta, band, lam, kappa):
    """(a - D j^2) beta_j - kappa/sqrt(2 pi) sum_l lambda_l beta_{j-l} beta_l
    for a precomputed rate band and kernel spectrum."""
    coupling = backends.quadratic_coupling(beta, lam)
    return band * beta - (kappa / SQRT_TWO_PI) * coupling


def integrate(state0: SpectralState, rates: DiffusiveRates,
              kern: CircleKernelParams, kappa: float, t_end: float, dt: float,
              store_every: int = 1, snapshot_times=()) -> stepping.Record:
    """Fixed-step RK4 from state0.t to t_end, each step re-paired by
    _paired; the record's frames and snapshots are coefficient arrays and
    its drift the largest re-pairing change (see stepping.march)."""
    # the rate band and the kernel spectrum are fixed for the whole run
    band = rates.band(state0.J)
    lam = eigenvalues(state0.J, kern)

    def rhs(beta, t):
        return _mode_rhs(beta, band, lam, kappa)

    return stepping.march(state0.beta, float(state0.t), t_end, dt, rhs, "rk4",
                          project=_paired, store_every=store_every,
                          at=snapshot_times)


def trajectory_to_csv(path, rec: stepping.Record) -> None:
    """Rows (t, j, re_beta, im_beta) for every stored time and mode of a
    spectral record."""
    beta = np.array(rec.frames)
    n_t, n_j = beta.shape
    J = (n_j - 1) // 2
    write_csv(path, ["t", "j", "re_beta", "im_beta"],
              [np.repeat(rec.times, n_j), np.tile(np.arange(-J, J + 1), n_t),
               beta.real.ravel(), beta.imag.ravel()])


def reconstruct(state: SpectralState, s_grid) -> np.ndarray:
    """Density rho(t, s_k) = sum_j beta_j v_j(s_k); must come out real."""
    return real_part(basis_matrix(state.J, s_grid) @ state.beta,
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
    beta = np.array(rec.frames)
    J = (beta.shape[1] - 1) // 2
    lam = eigenvalues(J, kern)
    integrals = trapezoid(beta, t, axis=0)
    exponent = a * (t[-1] - t[0]) - kappa * (
        basis_matrix(J, s) @ (lam * integrals)
    )
    resid = float(np.max(np.abs(exponent.imag)))
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(exponent)))):
        raise ValueError(f"exponential form has imaginary residue {resid:.3e}")
    return np.asarray(rho_phi(s), dtype=float) * np.exp(exponent.real)
