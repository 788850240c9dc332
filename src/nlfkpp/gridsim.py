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
                     kernel_value)


@dataclass
class GridState:
    """A density on the N-point grid at time t.  It stays, with step and
    nonlocal_term, only because perfbench/micro.py calls them; deleting the
    three waits on ROADMAP item 19.  The solver takes the bare array (see
    integrate)."""
    N: int
    rho: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != (self.N,):
            raise ValueError(f"expected {self.N} density values, got {self.rho.shape}")
        if stepping.hard_negative(self.rho[None]):
            raise ValueError(
                f"density has a hard negative value {np.min(self.rho)} "
                f"(max {np.max(self.rho)}); the scheme is unstable"
            )


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
    """I_k = (2 pi / N) sum_l b(s_k, s_l) rho_l.  Stays for perfbench only
    (see GridState)."""
    return _interaction(state.rho, _kernel_spectrum(kern, state.N),
                        TWO_PI / state.N)


def _interaction(rho, spectrum, ds):
    """The circular convolution ds * (kernel row * rho) through the FFT,
    along the last axis (one kernel spectrum per row of a batch)."""
    return ds * np.fft.irfft(spectrum * np.fft.rfft(rho), n=rho.shape[-1])


def _laplacian(rho: np.ndarray, ds: float) -> np.ndarray:
    return (np.roll(rho, -1, axis=-1) - 2.0 * rho
            + np.roll(rho, 1, axis=-1)) / ds**2


def _rhs(rho, spectrum, a, kappa, D, ds):
    """a rho - kappa rho I + D rho_ss for the kernel spectrum of the run;
    D None drops the diffusion term."""
    out = a * rho - kappa * rho * _interaction(rho, spectrum, ds)
    if D is not None:
        out += D * _laplacian(rho, ds)
    return out


def _imex_step(rho0, spectrum, symbol, grow, couple, ds):
    """The imex step of a (runs, N) batch, for stepping.march: explicit
    reaction and interaction, implicit (backward Euler) diffusion, whose
    circulant tridiagonal matrix the FFT diagonalizes exactly: symbol holds
    its eigenvalues, one row per run.

    It carries the half spectrum Y = rfft(rho) and the interaction I of the
    state from one step to the next, and takes

        Z = (grow Y - couple rfft(rho I)) / symbol,

    rho and I / ds together from one irfft of [Z, spectrum Z]: two FFT calls
    per step.  Only the runs march clamped are transformed again (the FFT
    treats each row alone), so every run keeps the bytes it gets stepped
    alone.
    """
    runs, n = rho0.shape
    # Y and spectrum Y, stacked for the one inverse transform
    half = np.empty((2 * runs, n // 2 + 1), dtype=complex)
    Y, SY = half[:runs], half[runs:]
    Y[:] = np.fft.rfft(rho0)
    I = ds * np.fft.irfft(np.multiply(spectrum, Y, out=SY), n=n)
    # every factor is real, so the update runs on float views: the real and
    # imaginary parts each scaled and divided by the symbol in one rounding
    Yv, symbol = Y.view(float), np.repeat(symbol, 2, axis=-1)

    def advance(rho, t, clamped):
        nonlocal I
        if clamped is not None:
            rows = clamped > 0
            Y[rows] = np.fft.rfft(rho[rows])
            I[rows] = ds * np.fft.irfft(spectrum[rows] * Y[rows], n=n)
        F = np.fft.rfft(rho * I).view(float)
        np.multiply(Yv, grow, out=Yv)
        np.multiply(F, couple, out=F)
        np.subtract(Yv, F, out=Yv)
        np.divide(Yv, symbol, out=Yv)
        np.multiply(spectrum, Y, out=SY)
        both = np.fft.irfft(half, n=n)
        I = both[runs:]
        I *= ds
        return both[:runs]

    return advance


def step(state: GridState, kern: CircleKernelParams, a: float, kappa: float,
         D: float, dt: float, scheme: str = "rk4") -> GridState:
    """Advance the density by one time step.  Stays for perfbench only (see
    GridState)."""
    rec = integrate(state.rho, kern, a, kappa, D, dt, state.t + dt, scheme,
                    t0=state.t)
    return GridState(state.N, rec.y, rec.t)


def integrate(rho0, kern: CircleKernelParams, a: float, kappa: float,
              D: float, dt: float, t_end: float, scheme: str = "rk4",
              snapshot_times=(), store_every: int = 0,
              t0: float = 0.0) -> stepping.Record:
    """Step the (N,) density rho0 from t0 to t_end with the shared driver: a
    batch of one (see integrate_batch)."""
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.ndim != 1:
        raise ValueError(f"expected an (N,) density, got shape {rho0.shape}")
    return integrate_batch(rho0[None], [kern], [a], [kappa], [D], dt, t_end,
                           scheme, snapshot_times, store_every, t0).row(0)


def integrate_batch(rho0, kerns, a, kappa, D, dt: float, t_end: float,
                    scheme: str = "rk4", snapshot_times=(),
                    store_every: int = 0, t0: float = 0.0,
                    reduce=None) -> stepping.Record:
    """Step independent runs together from t0 to t_end with the shared
    driver, one run per row of rho0 (runs, N).

    Run i has the kernel kerns[i] and the coefficients a[i], kappa[i] and
    D[i] >= 0; the runs must agree on whether D > 0.  Every row gets the
    bytes that stepping it alone gives.  Its stability bound is
    0.8 * min(ds^2/(2D), 1/(a + kappa lam0 max rho)); imex with D > 0 (see
    _imex_step) drops the ds^2 restriction, and at D = 0 is euler.  A step
    whose dt exceeds any run's bound raises ConfigError; limit reads each
    run's max from the driver, which takes it once per step, and rejects a
    hard-negative initial row.  reduce maps a (k, runs, N) stack of stored
    states to their k frames (see stepping.march); Record.row(i) is the
    record of run i.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.ndim != 2:
        raise ValueError(f"expected a (runs, N) batch, got {rho0.shape}")
    runs, n = rho0.shape
    a, kappa, D = (np.asarray(c, dtype=float) for c in (a, kappa, D))
    if not len(kerns) == len(a) == len(kappa) == len(D) == runs:
        raise ValueError(f"expected one kernel, a, kappa and D per run ({runs})")
    if not np.all(D >= 0):
        raise ValueError("diffusion coefficients must be >= 0, "
                         f"got D = {D.tolist()}")
    diffuses = D > 0
    if np.any(diffuses) and not np.all(diffuses):
        raise ValueError("the runs of a batch must agree on whether D > 0, "
                         f"got D = {D.tolist()}")
    ds = TWO_PI / n
    spectrum = np.stack([_kernel_spectrum(k, n) for k in kerns])
    implicit = scheme == "imex" and diffuses[0]
    explicit = scheme != "imex" and diffuses[0]
    # per run: a, kappa lam0 and the diffusive bound, as Python floats
    bounds = [(a_i, kappa_i * eigenvalue(0, k),
               ds**2 / (2.0 * D_i) if explicit else math.inf)
              for a_i, kappa_i, D_i, k in zip(a.tolist(), kappa.tolist(),
                                              D.tolist(), kerns)]
    # one column per coefficient: row i of the batch takes run i's value
    a_run, kappa_run = a[:, None], kappa[:, None]
    D_explicit = D[:, None] if explicit else None

    def rhs(rho, t):
        return _rhs(rho, spectrum, a_run, kappa_run, D_explicit, ds)

    def limit(rho, top):
        return min([0.8 * min(diffusive, 1.0 / (a_i + c_i * max(m, 0.0)))
                    for (a_i, c_i, diffusive), m in zip(bounds, top.tolist())])

    imex = None
    if implicit:
        # eigenvalues (1 + 2r) + 2 (-r) cos(2 pi j / n), j = 0..n//2, of each
        # run's circulant tridiagonal matrix
        r = (dt * D / ds**2)[:, None]
        symbol = (1.0 + 2.0 * r) + 2.0 * -r * np.cos(
            TWO_PI * np.arange(n // 2 + 1) / n)
        imex = _imex_step(rho0, spectrum, symbol, 1.0 + dt * a_run,
                          dt * kappa_run, ds)

    return stepping.march(rho0, t0, t_end, dt, rhs, scheme, step=imex,
                          limit=limit, density=lambda rho: rho,
                          store_every=store_every, at=snapshot_times,
                          reduce=reduce)


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
