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

import math
from dataclasses import dataclass

import numpy as np

from . import backends, stepping
from .analysis import trapezoid
from .csvio import write_csv
from .kernel import SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalues


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

    def state(self, i: int) -> SpectralState:
        return SpectralState(self.J, self.beta[i].copy(), float(self.t[i]))

    def at_time(self, t: float) -> SpectralState:
        i = int(np.argmin(np.abs(self.t - t)))
        if not math.isclose(self.t[i], t, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"time {t} not stored (closest is {self.t[i]})")
        return self.state(i)

    def to_csv(self, path):
        """Rows (t, j, re_beta, im_beta) for every stored time and mode."""
        n_t, n_j = self.beta.shape
        js = np.arange(-self.J, self.J + 1)
        t_col = np.repeat(self.t, n_j)
        j_col = np.tile(js, n_t)
        flat = self.beta.reshape(-1)
        write_csv(path, ["t", "j", "re_beta", "im_beta"],
                  [t_col, j_col, flat.real, flat.imag])


def basis_matrix(J: int, s_grid) -> np.ndarray:
    """v_j(s_k) for j = -J..J, shape (len(s), 2J+1)."""
    s = np.asarray(s_grid, dtype=float)
    js = np.arange(-J, J + 1)
    return np.exp(1j * np.outer(s, js)) / SQRT_TWO_PI


def project_initial(rho_phi, J: int, n_quad: int = 2048) -> SpectralState:
    """Fourier coefficients beta_{0j} = int v_j*(s) rho_phi(s) ds.

    ``rho_phi`` is a callable on [-pi, pi); the integral uses the rectangle
    rule on a uniform periodic grid (spectrally accurate for smooth data).
    """
    if J < 0:
        raise ValueError(f"J must be >= 0, got {J}")
    if n_quad < 1024:
        raise ValueError(f"need at least 1024 quadrature points, got {n_quad}")
    s = -math.pi + TWO_PI * np.arange(n_quad) / n_quad
    vals = np.asarray(rho_phi(s), dtype=float)
    if vals.shape != s.shape or not np.all(np.isfinite(vals)):
        raise ValueError("initial density returned non-finite or misshaped samples")
    ds = TWO_PI / n_quad
    js = np.arange(-J, J + 1)
    coeffs = ds * (np.exp(-1j * np.outer(js, s)) @ vals) / SQRT_TWO_PI
    # exact conjugate pairing for real input data
    coeffs = 0.5 * (coeffs + coeffs[::-1].conj())
    return SpectralState(J, coeffs, 0.0)


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


def rhs_bruteforce(state: SpectralState, rates: DiffusiveRates,
                   kern: CircleKernelParams, kappa: float) -> np.ndarray:
    """Literal double loop over (j, l); oracle for the banded convolution."""
    J = state.J
    lam = eigenvalues(J, kern)
    out = np.zeros(2 * J + 1, dtype=complex)
    for j in range(-J, J + 1):
        acc = 0.0 + 0.0j
        for l in range(-J, J + 1):
            if -J <= j - l <= J:
                acc += lam[l + J] * state.beta[j - l + J] * state.beta[l + J]
        out[j + J] = rates.rate(j) * state.beta[j + J] - (kappa / SQRT_TWO_PI) * acc
    return out


def integrate(state0: SpectralState, rates: DiffusiveRates,
              kern: CircleKernelParams, kappa: float, t_end: float, dt: float,
              store_every: int = 1) -> SpectralTrajectory:
    """Fixed-step RK4 trajectory from state0.t to state0.t + t_end."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
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

    rec = stepping.march(state0.beta, float(state0.t), dt,
                         int(round(t_end / dt)), rhs, "rk4", project=pair,
                         store_every=store_every)
    return SpectralTrajectory(state0.J, np.array(rec.times),
                              np.array(rec.frames), drift)


def reconstruct(state: SpectralState, s_grid) -> np.ndarray:
    """Density rho(t, s_k) = sum_j beta_j v_j(s_k); must come out real."""
    vals = basis_matrix(state.J, s_grid) @ state.beta
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-10 * scale:
        raise ValueError(
            f"reconstruction has imaginary residue {resid:.3e} "
            f"(> 1e-10 * {scale:.3e}); conjugate symmetry violated"
        )
    return vals.real


def omega_coefficients(j: int, j_prime: int, basis, indices,
                       n_quad: int = 2048) -> dict:
    """Expansion coefficients of v_j*(s) v_j'(s) in the family {v_j''*(s)}.

    ``basis`` maps an integer index to a callable on [-pi, pi); ``indices``
    lists the j'' to project on.  The family is verified to be orthonormal
    (Gram residual below 1e-8) on the quadrature grid before projecting.
    """
    s = -math.pi + TWO_PI * np.arange(n_quad) / n_quad
    ds = TWO_PI / n_quad
    checked = sorted(set(indices) | {j, j_prime})
    samples = {k: np.asarray(basis(k)(s), dtype=complex) for k in checked}
    for a_idx in checked:
        for b_idx in checked:
            gram = ds * np.sum(np.conj(samples[a_idx]) * samples[b_idx])
            expected = 1.0 if a_idx == b_idx else 0.0
            if abs(gram - expected) > 1e-8:
                raise ValueError(
                    f"family is not orthonormal: <v_{a_idx}, v_{b_idx}> = {gram}"
                )
    product = np.conj(samples[j]) * samples[j_prime]
    # product = sum_k c_k v_k*(s)  =>  c_k = int v_k(s) product(s) ds
    return {k: ds * np.sum(samples[k] * product) for k in indices}


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
