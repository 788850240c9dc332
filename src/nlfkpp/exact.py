"""Closed-form homogeneous solution chain on the circle.

The zero Fourier mode obeys a logistic equation; everything here is an
algebraic consequence of its solution

    beta_0(t) = beta00 e^{at} / (1 + c (e^{at} - 1)),
    c = kappa lambda0 beta00 / (a sqrt(2 pi)),

evaluated in the overflow-free arrangement beta00 / ((1-c) e^{-at} + c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import SQRT_TWO_PI

V0 = 1.0 / SQRT_TWO_PI


@dataclass(frozen=True)
class HomogeneousModel:
    a: float
    kappa: float
    lambda0: float
    beta00: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"growth rate must be positive, got a={self.a}")
        if self.kappa < 0:
            raise ValueError(f"coupling must be nonnegative, got kappa={self.kappa}")
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.beta00 <= 0:
            raise ValueError(f"beta00 must be positive, got {self.beta00}")

    @property
    def v0(self) -> float:
        return V0

    @property
    def saturation(self) -> float:
        """Dimensionless c = kappa lambda0 v0 beta00 / a."""
        return self.kappa * self.lambda0 * V0 * self.beta00 / self.a


def beta0(t, m: HomogeneousModel):
    """Logistic zero-mode coefficient at time t >= 0."""
    t = _check_time(t)
    c = m.saturation
    return m.beta00 / ((1.0 - c) * np.exp(-m.a * t) + c)


def rho0(t, m: HomogeneousModel):
    """Spatially homogeneous density v0 * beta0(t)."""
    return V0 * beta0(t, m)


def rho0_dt(t, m: HomogeneousModel):
    """Time derivative of rho0, public as the growth rate whose maximum t_max
    locates; its sign is the sign of a - kappa lambda0 v0 beta00."""
    t = _check_time(t)
    c = m.saturation
    e = np.exp(-m.a * t)
    return V0 * m.beta00 * m.a * (1.0 - c) * e / ((1.0 - c) * e + c) ** 2


def rho_lim(m: HomogeneousModel) -> float:
    """Large-time limit a / (kappa lambda0)."""
    if m.kappa == 0:
        raise ValueError("kappa = 0: density grows exponentially, no finite limit")
    return m.a / (m.kappa * m.lambda0)


def t_max(m: HomogeneousModel) -> float:
    """Time of maximal growth rate; exists only for a > 2 kappa lambda0 v0 beta00."""
    c = m.saturation
    if not c < 0.5:
        raise ValueError(
            "growth rate is monotone (maximal at t=0): requires "
            f"a > 2 kappa lambda0 v0 beta00, got saturation ratio {c}"
        )
    return math.log(1.0 / c - 1.0) / m.a


def t_quasi_steady(alpha: float, m: HomogeneousModel) -> float:
    """Time T_c(alpha) at which rho0 reaches alpha * rho_lim.

    alpha in (0, 1) when the density approaches the limit from below
    (a > kappa lambda0 v0 beta00), alpha > 1 when it approaches from above.
    A start already at or past alpha * rho_lim (c = rho0(0) / rho_lim
    between alpha and 1, or c = 1, where rho0 stays at rho_lim) gives 0.
    """
    if m.kappa == 0:
        raise ValueError("kappa = 0: no steady state to approach")
    c = m.saturation
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise ValueError("alpha = 1 corresponds to the infinite-time limit")
    if c < 1.0 and not 0.0 < alpha < 1.0:
        raise ValueError(
            f"approach from below (saturation {c} < 1) requires alpha in (0,1), got {alpha}"
        )
    if c > 1.0 and not alpha > 1.0:
        raise ValueError(
            f"approach from above (saturation {c} > 1) requires alpha > 1, got {alpha}"
        )
    arg = alpha / (1.0 - alpha) * (1.0 / c - 1.0)
    return math.log(arg) / m.a if arg > 1.0 else 0.0


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    return t
