"""Truncated Fourier-coefficient dynamics of the density on the circle.

The density is expanded in the kernel eigenmodes v_j(s) = e^{ijs}/sqrt(2 pi),
|j| <= J.  The coefficients obey

    dbeta_j/dt = (a - D j^2) beta_j
                 - kappa/sqrt(2 pi) * sum_l lambda_l beta_{j-l} beta_l,

with products falling outside the band dropped (projection truncation).
Time stepping is fixed-step classical RK4 on the shared driver of
``stepping``; the conjugate symmetry
beta_{-j} = conj(beta_j) of real densities is re-enforced after every step
and the enforcement drift is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backends, stepping
from .analysis import trapezoid
from .csvio import column_text, write_csv
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


@dataclass
class SpectralTrajectory:
    J: int
    t: np.ndarray
    beta: np.ndarray  # shape (n_times, 2J+1)
    reality_drift: float = 0.0
    snapshots: dict = field(default_factory=dict)  # requested time -> beta

    def state(self, i: int) -> SpectralState:
        return SpectralState(self.J, self.beta[i].copy(), float(self.t[i]))

    def to_csv(self, path):
        """Rows (t, j, re_beta, im_beta) for every stored time and mode.
        Each time and each mode is formatted once and its text repeated."""
        n_t, n_j = self.beta.shape
        flat = self.beta.reshape(-1)
        write_csv(path, ["t", "j", "re_beta", "im_beta"],
                  [[t for t in column_text(self.t) for _ in range(n_j)],
                   column_text(np.arange(-self.J, self.J + 1)) * n_t,
                   flat.real, flat.imag])


def basis_matrix(J: int, s_grid) -> np.ndarray:
    """v_j(s_k) for j = -J..J, shape (len(s), 2J+1)."""
    return fourier_modes(J, s_grid) / SQRT_TWO_PI


def project_initial(rho_phi, J: int, n_quad: int = 2048) -> SpectralState:
    """Fourier coefficients beta_{0j} = int v_j*(s) rho_phi(s) ds
    (kernel.fourier_coefficients), paired exactly conjugate for real data."""
    coeffs = fourier_coefficients(rho_phi, J, n_quad)
    return SpectralState(J, 0.5 * (coeffs + coeffs[::-1].conj()), 0.0)


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
              store_every: int = 1, snapshot_times=()) -> SpectralTrajectory:
    """Fixed-step RK4 trajectory from state0.t to t_end, with the
    coefficients at each of snapshot_times (see stepping.march)."""
    # the rate band and the kernel spectrum are fixed for the whole run
    band = rates.band(state0.J)
    lam = eigenvalues(state0.J, kern)
    drift = 0.0

    def rhs(beta, t):
        return _mode_rhs(beta, band, lam, kappa)

    def pair(beta):
        nonlocal drift
        paired = 0.5 * (beta + beta[::-1].conj())
        drift = max(drift, float(np.max(np.abs(paired - beta))))
        return paired

    rec = stepping.march(state0.beta, float(state0.t), t_end, dt, rhs, "rk4",
                         project=pair, store_every=store_every,
                         at=snapshot_times)
    return SpectralTrajectory(state0.J, np.array(rec.times),
                              np.array(rec.frames), drift, rec.snapshots)


def reconstruct(state: SpectralState, s_grid) -> np.ndarray:
    """Density rho(t, s_k) = sum_j beta_j v_j(s_k); must come out real."""
    return real_part(basis_matrix(state.J, s_grid) @ state.beta,
                     "reconstruction")


def exponential_form(traj: SpectralTrajectory, kern: CircleKernelParams,
                     rho_phi, s_grid, a: float, kappa: float) -> np.ndarray:
    """Density at the trajectory's final time from the exponential representation

        rho(t, s) = rho_phi(s) * exp[ a t - kappa sum_j lambda_j v_j(s)
                                       int_0^t beta_j dtau ],

    with the time integrals taken by the trapezoid rule over the stored
    trajectory (constant growth rate a, so only the zero mode of a survives).
    """
    s = np.asarray(s_grid, dtype=float)
    lam = eigenvalues(traj.J, kern)
    integrals = trapezoid(traj.beta, traj.t, axis=0)
    exponent = a * (traj.t[-1] - traj.t[0]) - kappa * (
        basis_matrix(traj.J, s) @ (lam * integrals)
    )
    resid = float(np.max(np.abs(exponent.imag)))
    if resid > 1e-8 * max(1.0, float(np.max(np.abs(exponent)))):
        raise ValueError(f"exponential form has imaginary residue {resid:.3e}")
    return np.asarray(rho_phi(s), dtype=float) * np.exp(exponent.real)
