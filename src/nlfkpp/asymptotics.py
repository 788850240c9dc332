"""Large-time two-scale expansion around the homogeneous solution.

Initial data of the form rho_phi = beta00 v0 + (1/T) rho_tilde_phi admits the
composite first-order solution

    rho(t,s) = v0 beta0(t)
             + (1/(T sqrt(2 pi))) sum_j beta1_j(t) e^{ijs} + O(1/T^2),

where each first-order mode evolves in closed form,

    beta1_j(t) = beta_{1j} e^{(a - D j^2) t} / d(t)^{1 + lambda_j/lambda_0},
    d(t) = 1 + kappa lambda0 beta00 (a sqrt(2 pi))^{-1} (e^{at} - 1).

All evaluations use the overflow-free arrangement d(t) = e^{at}((1-c)e^{-at}+c)
so that t-sweeps with a*t of a few hundred stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exact import HomogeneousModel, beta0
from .kernel import (SQRT_TWO_PI, CircleKernelParams, eigenvalue, eigenvalues,
                     fourier_coefficients, fourier_modes, real_part)

# composite-Simpson points of appendix_a_check's time integrals
N_SIMPSON = 20001


@dataclass
class AsymptoticExpansion:
    T: float
    beta00: float
    beta1: np.ndarray  # beta_{1j}, j = -J..J at index j+J, J = len // 2
    kernel: CircleKernelParams
    a: float
    kappa: float
    D: float = 0.0

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"evolution-scale parameter T must be > 0, got {self.T}")
        self.beta1 = np.asarray(self.beta1, dtype=complex)
        if self.beta1.ndim != 1 or len(self.beta1) % 2 == 0:
            raise ValueError(
                f"expected 2J + 1 first-order coefficients beta1_-J..beta1_J, "
                f"got shape {self.beta1.shape}"
            )

    @property
    def model(self) -> HomogeneousModel:
        return HomogeneousModel(self.a, self.kappa,
                                eigenvalue(0, self.kernel), self.beta00)


# beta_{1j} = (2 pi)^{-1/2} int rho_tilde_phi(s) e^{-ijs} ds, j = -J..J
beta1_initial = fourier_coefficients


def _mode_factors(exp: AsymptoticExpansion, t):
    """exp((a_j - p_j a) t) / ((1-c) e^{-at} + c)^{p_j} for all modes.

    Equal to e^{a_j t}/d(t)^{p_j} with p_j = 1 + lambda_j/lambda_0 and
    a_j = a - D j^2, written without large exponentials.
    """
    t = np.asarray(t, dtype=float)
    c = exp.model.saturation
    J = len(exp.beta1) // 2
    js = np.arange(-J, J + 1)
    lam = eigenvalues(J, exp.kernel)
    p = 1.0 + lam / lam[J]
    a_j = exp.a - exp.D * js.astype(float) ** 2
    base = (1.0 - c) * np.exp(-exp.a * t) + c
    return np.exp(np.multiply.outer(t, a_j - p * exp.a)) / np.power.outer(base, p)


def beta1_evolution(j: int, t, exp: AsymptoticExpansion):
    """First-order coefficient beta1_j(t) in closed form."""
    t = np.asarray(t, dtype=float)
    c = exp.model.saturation
    lam0 = eigenvalue(0, exp.kernel)
    lam_j = eigenvalue(j, exp.kernel)
    p = 1.0 + lam_j / lam0
    a_j = exp.a - exp.D * float(j) ** 2
    base = (1.0 - c) * np.exp(-exp.a * t) + c
    beta1_j = exp.beta1[j + len(exp.beta1) // 2]
    return beta1_j * np.exp((a_j - p * exp.a) * t) / base ** p


def composite_density(t, s, exp: AsymptoticExpansion) -> np.ndarray:
    """Zero-order homogeneous density plus all first-order corrections."""
    coeffs = exp.beta1 * _mode_factors(exp, float(t))
    correction = (fourier_modes(len(exp.beta1) // 2, s) @ coeffs
                  / (exp.T * SQRT_TWO_PI))
    return real_part(beta0(float(t), exp.model) / SQRT_TWO_PI + correction,
                     "composite density")


def appendix_b_solution(j: int, theta, c0, exp: AsymptoticExpansion):
    """First-order mode coefficient C_j(theta) of the direct expansion route.

    theta is the fast variable (= a t); with C_j(0) = beta_{1j} this is the
    same closed form as beta1_evolution at D = 0, reached by expanding the
    density itself instead of the coefficient system.
    """
    theta = np.asarray(theta, dtype=float)
    c = exp.model.saturation
    lam0 = eigenvalue(0, exp.kernel)
    p = 1.0 + eigenvalue(j, exp.kernel) / lam0
    base = (1.0 - c) * np.exp(-theta) + c
    c0_j = np.asarray(c0)[j + len(exp.beta1) // 2]
    return c0_j * np.exp((1.0 - p) * theta) / base ** p


def assemble_appendix_b(t, s, c0, exp: AsymptoticExpansion) -> np.ndarray:
    """Density built from the Appendix-route coefficients C_j(a t)."""
    J = len(exp.beta1) // 2
    coeffs = np.array([appendix_b_solution(j, exp.a * float(t), c0, exp)
                       for j in range(-J, J + 1)])
    correction = fourier_modes(J, s) @ coeffs / (exp.T * SQRT_TWO_PI)
    rho = beta0(float(t), exp.model) / SQRT_TWO_PI + correction
    return rho.real


def appendix_a_check(exp: AsymptoticExpansion, t_grid) -> float:
    """Consistency of the exponential-form route with the closed-form modes.

    Expands the exponential representation of the density through first
    order in 1/T and extracts its v_j(s) coefficient,

        (beta0(t)/beta00) * (beta_{1j} - beta00 v0 kappa lambda_j
                              * int_0^t beta1_j(t') dt'),

    the time integral taken by composite Simpson on N_SIMPSON points.
    Returns the largest absolute mismatch against beta1_evolution over all
    modes and requested times.  The identity is diffusion-free, so the
    comparison always runs at D = 0.
    """
    from scipy.integrate import simpson

    flat = replace(exp, D=0.0)
    m = flat.model
    v0 = m.v0
    J = len(flat.beta1) // 2
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        if t < 0:
            raise ValueError("times must be nonnegative")
        tau = np.linspace(0.0, t, N_SIMPSON)
        ratio = beta0(t, m) / flat.beta00
        for j in range(-J, J + 1):
            lam_j = eigenvalue(j, flat.kernel)
            integral = simpson(beta1_evolution(j, tau, flat), x=tau) if t > 0 else 0.0
            coeff = ratio * (flat.beta1[j + J]
                             - flat.beta00 * v0 * flat.kappa * lam_j * integral)
            worst = max(worst, abs(coeff - beta1_evolution(j, t, flat)))
    return float(worst)
