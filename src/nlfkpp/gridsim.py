"""Method-of-lines solver for the nonlocal logistic equation on the circle,

    rho_t = D rho_ss + a rho - kappa rho * int b(s,s') rho(s') ds',

on a uniform periodic grid.  The nonlocal term is a circular convolution:
the ``fast`` backend evaluates it with the FFT (the kernel row's transform
is built once per kernel and grid size), the ``direct`` backend with
the O(N^2) circulant sum (compiled when the extension is available), and
``checked`` runs both and fails loudly if they disagree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .config import BACKENDS, SCHEMES
from .csvio import write_csv
from .kernel import TWO_PI, CircleKernelParams, eigenvalue, kernel_value

BLOWUP_LIMIT = 1e12
NEGATIVE_TOL = 1e-10


def grid_nodes(N: int) -> np.ndarray:
    """Uniform angles s_k = -pi + 2 pi k / N."""
    return -math.pi + TWO_PI * np.arange(N) / N


@dataclass
class GridState:
    N: int
    rho: np.ndarray
    t: float = 0.0
    clamped: int = 0  # nodes snapped to zero from the roundoff band so far

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (self.N,):
            raise ValueError(f"expected {self.N} density values, got {self.rho.shape}")
        lowest = np.min(self.rho)
        if lowest < 0:
            top = float(np.max(self.rho))
            if lowest < -NEGATIVE_TOL * max(top, 1e-300):
                raise ValueError(
                    f"density has a hard negative value {lowest} "
                    f"(max {top}); the scheme is unstable"
                )

    @property
    def s(self) -> np.ndarray:
        return grid_nodes(self.N)


def kernel_row(kern: CircleKernelParams, N: int) -> np.ndarray:
    """b(s_k, s_0) sampled at offsets 2 pi m / N, m = 0..N-1."""
    return np.asarray(kernel_value(TWO_PI * np.arange(N) / N, 0.0, kern))


@functools.lru_cache(maxsize=64)
def _kernel_spectrum(kern: CircleKernelParams, N: int) -> np.ndarray:
    """rfft of the kernel row, built once per (kernel, N) and shared read-only."""
    spectrum = np.fft.rfft(kernel_row(kern, N))
    spectrum.setflags(write=False)
    return spectrum


def nonlocal_term(state: GridState, kern: CircleKernelParams,
                  backend: str = "fast") -> np.ndarray:
    """I_k = (2 pi / N) sum_l b(s_k, s_l) rho_l."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    ds = TWO_PI / state.N
    if backend == "direct":
        return np.asarray(backends.circulant_apply(kernel_row(kern, state.N),
                                                   state.rho, ds))
    fast = ds * np.fft.irfft(_kernel_spectrum(kern, state.N)
                             * np.fft.rfft(state.rho), n=state.N)
    if backend == "checked":
        direct = np.asarray(backends.circulant_apply(kernel_row(kern, state.N),
                                                     state.rho, ds))
        scale = max(float(np.max(np.abs(direct))), 1e-300)
        err = float(np.max(np.abs(fast - direct)))
        if err > 1e-12 * scale:
            raise RuntimeError(
                f"nonlocal backends disagree: |fast - direct| = {err:.3e} "
                f"(scale {scale:.3e})"
            )
    return fast


def _laplacian(rho: np.ndarray, ds: float) -> np.ndarray:
    return (np.roll(rho, -1) - 2.0 * rho + np.roll(rho, 1)) / ds**2


def _rhs(rho, kern, a, kappa, D, ds, backend):
    state = GridState.__new__(GridState)
    state.N, state.rho, state.t, state.clamped = len(rho), rho, 0.0, 0
    interaction = nonlocal_term(state, kern, backend)
    out = a * rho - kappa * rho * interaction
    if D > 0:
        out += D * _laplacian(rho, ds)
    return out


def stability_limit(state: GridState, kern: CircleKernelParams, a: float,
                    kappa: float, D: float, scheme: str) -> float:
    """Largest admissible dt: 0.8 * min(ds^2/(2D), 1/(a + kappa lam0 max rho));
    the implicit-diffusion scheme drops the ds^2 restriction."""
    ds = TWO_PI / state.N
    lam0 = eigenvalue(0, kern)
    reaction = 1.0 / (a + kappa * lam0 * max(float(np.max(state.rho)), 0.0))
    if scheme == "imex" or D == 0.0:
        return 0.8 * reaction
    return 0.8 * min(ds**2 / (2.0 * D), reaction)


@functools.lru_cache(maxsize=64)
def _circulant_symbol(diag: float, off: float, n: int) -> np.ndarray:
    """Eigenvalues diag + 2 off cos(2 pi j / n), j = 0..n//2, of the circulant
    tridiagonal matrix; built once per (diag, off, n) and shared read-only."""
    eig = diag + 2.0 * off * np.cos(TWO_PI * np.arange(n // 2 + 1) / n)
    eig.setflags(write=False)
    return eig


def _cyclic_tridiag_solve(diag: float, off: float, rhs_vec: np.ndarray) -> np.ndarray:
    """Solve the circulant system (diag on the diagonal, off on the two
    wrap-around off-diagonals).  Being circulant, the FFT diagonalizes it
    exactly, which is both O(N log N) and deterministic."""
    n = len(rhs_vec)
    return np.fft.irfft(np.fft.rfft(rhs_vec) / _circulant_symbol(diag, off, n), n=n)


def step(state: GridState, kern: CircleKernelParams, a: float, kappa: float,
         D: float, dt: float, scheme: str = "rk4",
         backend: str = "fast") -> GridState:
    """Advance the density by one time step."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    limit = stability_limit(state, kern, a, kappa, D, scheme)
    if dt > limit:
        raise ValueError(
            f"dt={dt} violates the stability bound {limit:.3e} "
            f"for scheme {scheme!r}"
        )
    ds = TWO_PI / state.N
    rho = state.rho
    if scheme == "euler":
        rho_new = rho + dt * _rhs(rho, kern, a, kappa, D, ds, backend)
    elif scheme == "rk4":
        k1 = _rhs(rho, kern, a, kappa, D, ds, backend)
        k2 = _rhs(rho + 0.5 * dt * k1, kern, a, kappa, D, ds, backend)
        k3 = _rhs(rho + 0.5 * dt * k2, kern, a, kappa, D, ds, backend)
        k4 = _rhs(rho + dt * k3, kern, a, kappa, D, ds, backend)
        rho_new = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    else:  # imex: explicit reaction, implicit (backward Euler) diffusion
        rho_star = rho + dt * _rhs(rho, kern, a, kappa, 0.0, ds, backend)
        if D > 0:
            r = dt * D / ds**2
            rho_new = _cyclic_tridiag_solve(1.0 + 2.0 * r, -r, rho_star)
        else:
            rho_new = rho_star
    # one pass: a NaN fails the comparison and +-inf exceeds the limit
    if not np.max(np.abs(rho_new)) <= BLOWUP_LIMIT:
        raise RuntimeError(f"grid solution blew up at t={state.t + dt}")
    clamped = state.clamped
    if rho_new.min() < 0:
        top = max(float(np.max(rho_new)), 1e-300)
        band = (rho_new < 0) & (rho_new >= -NEGATIVE_TOL * top)
        clamped += int(np.count_nonzero(band))
        rho_new = np.where(band, 0.0, rho_new)
    return GridState(state.N, rho_new, state.t + dt, clamped)


def run(state: GridState, kern: CircleKernelParams, a: float, kappa: float,
        D: float, dt: float, t_end: float, scheme: str = "rk4",
        backend: str = "fast", snapshot_times=()):
    """Step to t_end; returns (final state, {time: density snapshot})."""
    remaining = sorted(float(ts) for ts in snapshot_times)
    snaps = {}
    n_steps = int(round((t_end - state.t) / dt))
    for _ in range(n_steps):
        state = step(state, kern, a, kappa, D, dt, scheme, backend)
        while remaining and state.t >= remaining[0] - 0.5 * dt:
            snaps[remaining.pop(0)] = state.rho.copy()
    return state, snaps


def make_initial(kind: str, N: int, **params) -> GridState:
    """Named initial profiles sampled on the grid.

    homogeneous:   beta00 / sqrt(2 pi)
    gaussian_bump: 1/sqrt(2 pi) + (1/T) exp(-s^2 / width), width default 0.6
    gaussian:      exp(-s^2 / width), width default 0.6
    cutoff:        1 on |s| < edge, 0 outside, 0.5 at the jump (edge default 2)
    from_samples:  user-provided array of length N
    """
    s = grid_nodes(N)
    if kind == "homogeneous":
        beta00 = params.get("beta00", 1.0)
        rho = np.full(N, beta00 / math.sqrt(TWO_PI))
    elif kind == "gaussian":
        rho = np.exp(-(s**2) / params.get("width", 0.6))
    elif kind == "gaussian_bump":
        T = params.get("T", 10.0)
        width = params.get("width", 0.6)
        rho = 1.0 / math.sqrt(TWO_PI) + np.exp(-(s**2) / width) / T
    elif kind == "cutoff":
        edge = params.get("edge", 2.0)
        rho = np.where(np.abs(s) < edge, 1.0, 0.0)
        jump = np.isclose(np.abs(s), edge, rtol=0.0, atol=1e-12)
        rho = np.where(jump, 0.5, rho)
    elif kind == "from_samples":
        rho = np.asarray(params["samples"], dtype=float)
    else:
        raise ValueError(f"unknown initial-condition kind {kind!r}")
    return GridState(N, rho, params.get("t0", 0.0))


def total_mass(state: GridState) -> float:
    """m = (2 pi / N) sum_k rho_k."""
    return float(TWO_PI / state.N * np.sum(state.rho))


def snapshot_to_csv(path, state: GridState) -> None:
    write_csv(path, ["s", "rho"], [state.s, state.rho])
