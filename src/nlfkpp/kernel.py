"""Gaussian influence kernel restricted to a circle.

For points X(s) = (R cos s, R sin s) the planar Gaussian interaction
b0*exp(-|X(s)-X(s')|^2 / 2 gamma^2) collapses to a function of the angle
difference only,

    b(s, s') = b0 * exp(-mu * (1 - cos(s - s'))),     mu = R^2 / gamma^2,

whose integral-operator eigenfunctions are the Fourier modes
v_j(s) = e^{ijs}/sqrt(2 pi) with eigenvalues

    lambda_j = 2 pi b0 e^{-mu} I_|j|(mu),

I_j being the modified Bessel function of the first kind.  The module also
owns the circle convention every solver shares: the nodes
s_k = -pi + 2 pi k / N, the projection onto the v_j and the check that a
density synthesized from them is real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)

# rectangle-rule nodes of fourier_coefficients
N_QUAD = 2048

# largest argument for which the unscaled I_j(mu) fits in a double
_BESSEL_MU_MAX = 700.0


def wrap_angle(s):
    """Map angles to the canonical branch [-pi, pi)."""
    return (np.asarray(s) + math.pi) % TWO_PI - math.pi


def grid_nodes(N: int) -> np.ndarray:
    """Uniform angles s_k = -pi + 2 pi k / N."""
    return -math.pi + TWO_PI * np.arange(N) / N


def fourier_coefficients(f, J: int) -> np.ndarray:
    """beta_j = int v_j*(s) f(s) ds for j = -J..J, at index j + J.

    ``f`` is a callable on [-pi, pi); the integral uses the rectangle rule on
    grid_nodes(N_QUAD) (spectrally accurate for smooth data).
    """
    if J < 0:
        raise ValueError(f"J must be >= 0, got {J}")
    s = grid_nodes(N_QUAD)
    vals = np.asarray(f(s), dtype=float)
    if vals.shape != s.shape or not np.all(np.isfinite(vals)):
        raise ValueError("f returned non-finite or misshaped samples")
    ds = TWO_PI / N_QUAD
    js = np.arange(-J, J + 1)
    return ds * (np.exp(-1j * np.outer(js, s)) @ vals) / SQRT_TWO_PI


def fourier_modes(J: int, s) -> np.ndarray:
    """e^{ijs_k} for j = -J..J, shape (len(s), 2J+1); v_j is this / sqrt(2 pi)."""
    js = np.arange(-J, J + 1)
    return np.exp(1j * np.outer(np.asarray(s, dtype=float), js))


def real_part(vals, what: str) -> np.ndarray:
    """vals.real of a synthesized density; an imaginary residue above
    1e-10 max|vals| means the coefficients are not conjugate-symmetric."""
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    resid = float(np.max(np.abs(vals.imag)))
    if resid > 1e-10 * scale:
        raise ValueError(
            f"{what} has imaginary residue {resid:.3e} (> 1e-10 * {scale:.3e}); "
            "conjugate symmetry violated"
        )
    return vals.real


@dataclass(frozen=True)
class CircleKernelParams:
    """Interaction strength b0, range gamma and circle radius R."""

    b0: float
    gamma: float
    R: float

    def __post_init__(self):
        if not (self.b0 > 0 and self.gamma > 0 and self.R > 0):
            raise ValueError(
                f"kernel parameters must be positive, got "
                f"b0={self.b0}, gamma={self.gamma}, R={self.R}"
            )

    @property
    def mu(self) -> float:
        return (self.R / self.gamma) ** 2


def _bessel_series(order: int, mu: float) -> float:
    """Ascending series for I_order(mu); all terms positive, no cancellation."""
    half = 0.5 * mu
    if half == 0.0:
        return 1.0 if order == 0 else 0.0
    log_t0 = order * math.log(half) - math.lgamma(order + 1)
    if log_t0 < -745.0:
        return 0.0
    term = math.exp(log_t0)
    total = term
    k = 0
    while True:
        k += 1
        term *= half * half / (k * (order + k))
        total += term
        # the underflow guard matters when total is subnormal: 1e-18 * total
        # rounds to zero and the relative test alone would never trigger
        if term == 0.0 or term < 1e-18 * total:
            return total


def _bessel_miller_scaled(order: int, mu: float) -> float:
    """e^{-mu} I_order(mu) by backward recurrence, normalized by
    I_0 + 2 sum_{k>=1} I_k = e^mu."""
    start = int(max(order, mu) + 10.0 * math.sqrt(max(mu, 10.0)) + 50)
    p_next = 0.0
    p_curr = 1e-300
    target = 0.0
    norm = 0.0
    for k in range(start, 0, -1):
        p_prev = p_next + (2.0 * k / mu) * p_curr
        p_next, p_curr = p_curr, p_prev
        if k - 1 == order:
            target = p_curr
        if k - 1 >= 1:
            norm += 2.0 * p_curr
        if abs(p_curr) > 1e250:
            p_curr *= 1e-250
            p_next *= 1e-250
            target *= 1e-250
            norm *= 1e-250
    norm += p_curr  # k = 0 term enters once
    return target / norm


def bessel_i_scaled(order: int, mu: float) -> float:
    """Exponentially scaled modified Bessel function e^{-mu} I_order(mu)."""
    order = _check_bessel_args(order, mu)
    if mu == 0.0:
        return 1.0 if order == 0 else 0.0
    if mu <= 2.0 * order:
        return _bessel_series(order, mu) * math.exp(-mu)
    return _bessel_miller_scaled(order, mu)


def bessel_i(order: int, mu: float) -> float:
    """Modified Bessel function of the first kind I_order(mu), mu >= 0."""
    order = _check_bessel_args(order, mu)
    if mu > _BESSEL_MU_MAX:
        raise OverflowError(f"bessel_i overflows for mu={mu} > {_BESSEL_MU_MAX}")
    if mu == 0.0:
        return 1.0 if order == 0 else 0.0
    if mu <= 2.0 * order:
        return _bessel_series(order, mu)
    return _bessel_miller_scaled(order, mu) * math.exp(mu)


def _check_bessel_args(order, mu) -> int:
    if mu < 0:
        raise ValueError(f"bessel_i requires mu >= 0, got {mu}")
    iorder = int(order)
    if iorder != order:
        raise ValueError(f"bessel_i requires an integer order, got {order}")
    return abs(iorder)  # I_{-n} = I_n for integer orders


def kernel_value(s, s_prime, params: CircleKernelParams):
    """b0 * exp(-mu (1 - cos(s - s'))); 2 pi periodic in both arguments."""
    delta = wrap_angle(np.asarray(s) - np.asarray(s_prime))
    return params.b0 * np.exp(-params.mu * (1.0 - np.cos(delta)))


def eigenvalue(j: int, params: CircleKernelParams) -> float:
    """Fredholm eigenvalue lambda_j = 2 pi b0 e^{-mu} I_|j|(mu)."""
    return _eigenvalue(abs(int(j)), params)


@functools.lru_cache(maxsize=4096)
def _eigenvalue(order: int, params: CircleKernelParams) -> float:
    # pure in its hashable arguments, so each (order, kernel) is evaluated once
    # per process; at mu = 400 one Miller recurrence runs ~650 iterations
    return TWO_PI * params.b0 * bessel_i_scaled(order, params.mu)


def eigenvalues(J: int, params: CircleKernelParams) -> np.ndarray:
    """lambda_j for j = -J..J as an array of length 2J + 1."""
    pos = np.array([eigenvalue(j, params) for j in range(J + 1)])
    return np.concatenate([pos[:0:-1], pos])
