"""Method-of-lines solver for the nonlocal logistic equation on the circle,

    rho_t = D rho_ss + a rho - kappa rho * int b(s,s') rho(s') ds',

on a uniform periodic grid.  The nonlocal term is a circular convolution,
evaluated with the FFT against the kernel row's transform, which is built
once per kernel and grid size.  Time stepping is the shared driver of
``stepping``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import stepping
from .kernel import (SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalue,
                     grid_nodes, kernel_value)


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
        if stepping.hard_negative(self.rho):
            raise ValueError(
                f"density has a hard negative value {np.min(self.rho)} "
                f"(max {np.max(self.rho)}); the scheme is unstable"
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


def nonlocal_term(state: GridState, kern: CircleKernelParams) -> np.ndarray:
    """I_k = (2 pi / N) sum_l b(s_k, s_l) rho_l."""
    return _interaction(state.rho, _kernel_spectrum(kern, state.N),
                        TWO_PI / state.N)


def _interaction(rho, spectrum, ds):
    """The circular convolution ds * (kernel row * rho) through the FFT."""
    return ds * np.fft.irfft(spectrum * np.fft.rfft(rho), n=len(rho))


def _laplacian(rho: np.ndarray, ds: float) -> np.ndarray:
    return (np.roll(rho, -1) - 2.0 * rho + np.roll(rho, 1)) / ds**2


def _rhs(rho, spectrum, a, kappa, D, ds):
    """a rho - kappa rho I + D rho_ss for the kernel spectrum of the run."""
    out = a * rho - kappa * rho * _interaction(rho, spectrum, ds)
    if D > 0:
        out += D * _laplacian(rho, ds)
    return out


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
         D: float, dt: float, scheme: str = "rk4") -> GridState:
    """Advance the density by one time step."""
    return run(state, kern, a, kappa, D, dt, state.t + dt, scheme)[0]


def integrate(state: GridState, kern: CircleKernelParams, a: float,
              kappa: float, D: float, dt: float, t_end: float,
              scheme: str = "rk4", snapshot_times=(),
              store_every: int = 0) -> stepping.Record:
    """Step from state.t to t_end with the shared driver.

    The stability bound is 0.8 * min(ds^2/(2D), 1/(a + kappa lam0 max rho));
    imex, explicit reaction and implicit (backward Euler) diffusion, drops
    the ds^2 restriction.
    """
    ds = TWO_PI / state.N
    spectrum = _kernel_spectrum(kern, state.N)
    lam0 = eigenvalue(0, kern)
    implicit = scheme == "imex" and D > 0
    diffusive = math.inf if scheme == "imex" or D == 0.0 else ds**2 / (2.0 * D)
    D_explicit = 0.0 if scheme == "imex" else D
    r = dt * D / ds**2

    def rhs(rho, t):
        return _rhs(rho, spectrum, a, kappa, D_explicit, ds)

    def limit(rho):
        reaction = 1.0 / (a + kappa * lam0 * max(float(np.max(rho)), 0.0))
        return 0.8 * min(diffusive, reaction)

    def solve(rho):
        return _cyclic_tridiag_solve(1.0 + 2.0 * r, -r, rho)

    return stepping.march(state.rho, state.t, t_end, dt, rhs, scheme,
                          solve=solve if implicit else None, limit=limit,
                          density=lambda rho: rho, store_every=store_every,
                          at=snapshot_times)


def run(state: GridState, kern: CircleKernelParams, a: float, kappa: float,
        D: float, dt: float, t_end: float, scheme: str = "rk4",
        snapshot_times=()):
    """Step to t_end; returns (final state, {time: density snapshot})."""
    rec = integrate(state, kern, a, kappa, D, dt, t_end, scheme, snapshot_times)
    return GridState(state.N, rec.y, rec.t, state.clamped + rec.clamped), \
        rec.snapshots


def initial_profile(kind: str, beta00: float = 1.0, T: float = 10.0,
                    width: float = 0.6, edge: float = 2.0):
    """rho_phi(s) of a named initial profile, v0 = 1/sqrt(2 pi):

    homogeneous:   v0 beta00
    gaussian_bump: v0 beta00 + (1/T) exp(-s^2 / width)
    gaussian:      exp(-s^2 / width)
    cutoff:        1 on |s| < edge, 0 outside, 0.5 at the jump
    """
    v0 = 1.0 / SQRT_TWO_PI
    if kind == "homogeneous":
        return lambda s: np.full_like(np.asarray(s, dtype=float), v0 * beta00)
    if kind == "gaussian_bump":
        return lambda s: v0 * beta00 + np.exp(-np.asarray(s) ** 2 / width) / T
    if kind == "gaussian":
        return lambda s: np.exp(-np.asarray(s) ** 2 / width)
    if kind == "cutoff":
        def rho_phi(s):
            s = np.asarray(s, dtype=float)
            out = np.where(np.abs(s) < edge, 1.0, 0.0)
            return np.where(np.isclose(np.abs(s), edge, rtol=0, atol=1e-12),
                            0.5, out)
        return rho_phi
    raise ValueError(f"unknown initial-condition kind {kind!r}")


def make_initial(kind: str, N: int, **params) -> GridState:
    """The named initial profile sampled on the grid (see initial_profile)."""
    return GridState(N, initial_profile(kind, **params)(grid_nodes(N)))


def total_mass(state: GridState) -> float:
    """m = (2 pi / N) sum_k rho_k."""
    return float(TWO_PI / state.N * np.sum(state.rho))
