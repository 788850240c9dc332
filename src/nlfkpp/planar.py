"""Desk-scale explicit solver for the planar reaction-diffusion form

    u_t = D Lap u + a u - kappa u int b_gamma(x, y) u(y) dy

on the square [-L, L]^2 with zero-flux (reflective) boundaries, plus the
moment and marginalization utilities used to verify that small-D solutions
concentrate on a ring and reproduce the one-dimensional density.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import stepping
from .analysis import trapezoid
from .csvio import write_csv
from .kernel import grid_nodes

# trapezoid points per ray of extract_sld
N_RADIAL = 400


@dataclass
class Field2D:
    L: float
    n: int
    u: np.ndarray  # shape (n, n); u[i, j] at (x_i, y_j)
    t: float = 0.0
    D: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"half-width L must be finite and positive, "
                             f"got {self.L}")
        if self.n < 2:
            raise ValueError(f"need n >= 2 points per axis, got {self.n}")
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.n, self.n):
            raise ValueError(f"expected ({self.n}, {self.n}) field, got {self.u.shape}")
        if not self.D >= 0:
            raise ValueError(f"diffusion coefficient must be >= 0, got {self.D}")
        if stepping.hard_negative(self.u.reshape(1, -1)):
            raise ValueError(f"field has a hard negative value {np.min(self.u)}")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / (self.n - 1)


@dataclass(frozen=True)
class GaussianKernel2D:
    b0: float
    gamma: float

    def __post_init__(self):
        if self.b0 <= 0 or self.gamma <= 0:
            raise ValueError("b0 and gamma must be positive")


@functools.lru_cache(maxsize=16)
def _gaussian_matrix(L: float, n: int, gamma: float) -> np.ndarray:
    """G[i, i'] = exp(-(x_i - x_i')^2 / (2 gamma^2)) on the field's axis;
    built once per (L, n, gamma) and shared read-only."""
    ax = np.linspace(-L, L, n)
    G = np.exp(-np.subtract.outer(ax, ax) ** 2 / (2.0 * gamma**2))
    G.setflags(write=False)
    return G


def nonlocal_term_2d(field: Field2D, kern: GaussianKernel2D) -> np.ndarray:
    """I(x_i, y_j) = dx^2 sum_{i',j'} b(x - x', y - y') u(x', y').

    The Gaussian separates, b(x - x', y - y') = b0 G[i, i'] G[j, j'], so the
    double sum is the matrix product b0 dx^2 G @ u @ G: two O(n^3) products
    with the one-dimensional kernel matrix G, which is symmetric and fixed
    for a given grid and range.
    """
    G = _gaussian_matrix(field.L, field.n, kern.gamma)
    return kern.b0 * field.dx**2 * (G @ field.u @ G)


def _laplacian_reflect(u: np.ndarray, dx: float, scratch: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Five-point Laplacian of u with zero-flux borders, written into the
    C-ordered out and returned: ((((u_up + u_down) + u_left) + u_right)
    - 4u) / dx^2 from shifted slices of u, each ghost beyond a border the
    edge value itself (np.pad's "edge" mode).  scratch, an (n, n) work
    array, holds a border column and then 4u."""
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    np.add(u[:-2], u[2:], out=out[1:-1])
    np.add(u[0], u[1], out=out[0])
    np.add(u[-2], u[-1], out=out[-1])
    # left and right: the neighbour along the flattened field, a
    # contiguous shift (a quarter of the cost of a strided one), which
    # gives each border cell the end of an adjacent row; that column is
    # then summed again from its saved value
    edge = scratch[0]
    edge[:] = out[:, 0]
    flat_out[1:] += flat_u[:-1]
    np.add(edge, u[:, 0], out=out[:, 0])
    edge[:] = out[:, -1]
    flat_out[:-1] += flat_u[1:]
    np.add(edge, u[:, -1], out=out[:, -1])
    out -= np.multiply(u, 4.0, out=scratch)
    out /= dx**2
    return out


def run2d(field: Field2D, kern: GaussianKernel2D, a: float, kappa: float,
          dt: float, t_end: float) -> stepping.Record:
    """Explicit Euler steps to t_end with the shared driver; the record's
    state is the (n, n) field u, whose density view u.reshape(1, -1) is one
    run for the clamp.  The stability bound 0.8 min(1/(a + kappa max I),
    dx^2/(4D)) uses the step's own interaction I, which the right-hand side
    then reuses.

    The right-hand side and the stability bound allocate no (n, n)
    arrays.  This call owns one work array each for G @ u (free once I is
    built, when the Laplacian takes it for 4u), the interaction I, the
    Laplacian and the right-hand side, and
    every operation writes into them in the order of the allocating
    expressions b0 dx^2 ((G @ u) @ G) and a u - (kappa u) I + D lap, so the
    bits are theirs.  The right-hand side returns its work array, which
    the next call overwrites; the euler step consumes it first.  The
    record's arrays are fresh and the caller's, and separate runs (in
    separate threads too) share no work array.
    """
    # nonlocal_term_2d's factors, fixed for the run
    G = _gaussian_matrix(field.L, field.n, kern.gamma)
    scale = kern.b0 * field.dx**2
    n = field.n
    Gu, I, lap, out = (np.empty((n, n)) for _ in range(4))
    last_u = None

    def interaction(u):
        nonlocal last_u
        if u is not last_u:
            np.matmul(G, u, out=Gu)
            np.matmul(Gu, G, out=I)
            np.multiply(I, scale, out=I)
            last_u = u
        return I

    def limit(u, top):
        bound = 0.8 / (a + kappa * max(float(np.max(interaction(u))), 0.0))
        if field.D > 0:
            bound = min(bound, 0.8 * field.dx**2 / (4.0 * field.D))
        return bound

    def rhs(u, t):
        # (kappa u) I goes into lap, which is free until the diffusion term
        np.multiply(u, kappa, out=lap)
        np.multiply(lap, interaction(u), out=lap)
        np.multiply(u, a, out=out)
        np.subtract(out, lap, out=out)
        if field.D > 0:
            diffusion = _laplacian_reflect(u, field.dx, Gu, lap)
            np.multiply(diffusion, field.D, out=diffusion)
            np.add(out, diffusion, out=out)
        return out

    return stepping.march(field.u, field.t, t_end, dt, rhs, "euler",
                          limit=limit, density=lambda u: u.reshape(1, -1))


def gaussian_ring(L: float, n: int, R: float, sigma: float,
                  amplitude: float = 1.0, D: float = 0.0,
                  angular=None) -> Field2D:
    """u = amplitude * exp(-(r - R)^2 / (2 sigma^2)) * f(angle), f default 1."""
    ax = np.linspace(-L, L, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    r = np.hypot(X, Y)
    u = amplitude * np.exp(-((r - R) ** 2) / (2.0 * sigma**2))
    if angular is not None:
        u = u * angular(np.arctan2(Y, X))
    return Field2D(L, n, u, 0.0, D)


def moments(field: Field2D):
    """(m_u, x_u): total mass and normalized first moment, 2D trapezoid."""
    ax = field.axis
    w = np.full(field.n, field.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    W = np.outer(w, w)
    m = float(np.sum(W * field.u))
    if m <= 0:
        raise ValueError(f"total mass must be positive, got {m}")
    xbar = float(np.sum(W * field.u * ax[:, None])) / m
    ybar = float(np.sum(W * field.u * ax[None, :])) / m
    return m, np.array([xbar, ybar])


def boundary_mass_fraction(field: Field2D) -> float:
    """Mass within one cell of the border, as a fraction of the total."""
    W = np.full((field.n, field.n), field.dx**2)
    total = float(np.sum(W * field.u))
    if total <= 0:
        return 0.0
    inner = float(np.sum(W[1:-1, 1:-1] * field.u[1:-1, 1:-1]))
    return (total - inner) / total


def _bilinear(field: Field2D, x, y):
    fx = np.clip((np.asarray(x) + field.L) / field.dx, 0, field.n - 1)
    fy = np.clip((np.asarray(y) + field.L) / field.dx, 0, field.n - 1)
    i0 = np.minimum(fx.astype(int), field.n - 2)
    j0 = np.minimum(fy.astype(int), field.n - 2)
    tx = fx - i0
    ty = fy - j0
    u = field.u
    return ((1 - tx) * (1 - ty) * u[i0, j0] + tx * (1 - ty) * u[i0 + 1, j0]
            + (1 - tx) * ty * u[i0, j0 + 1] + tx * ty * u[i0 + 1, j0 + 1])


def extract_sld(field: Field2D, n_angles: int):
    """Angle-resolved radial marginal rho(s_k) = int_0^rmax u(r, s_k) r dr.

    Rays run from the origin to the square boundary; values come from
    bilinear interpolation and the integral from the trapezoid rule on
    N_RADIAL points with the polar Jacobian r.  Returns (s, rho).
    Extraction is flagged with a warning when more than 1% of the mass sits
    within one cell of the border.
    """
    frac = boundary_mass_fraction(field)
    if frac > 0.01:
        warnings.warn(
            f"{100 * frac:.2f}% of the mass lies at the domain border; "
            "the radial extraction is untrusted", RuntimeWarning)
    s = grid_nodes(n_angles)
    rho = np.empty(n_angles)
    for k, angle in enumerate(s):
        r_max = field.L / max(abs(math.cos(angle)), abs(math.sin(angle)))
        r = np.linspace(0.0, r_max, N_RADIAL)
        vals = _bilinear(field, r * math.cos(angle), r * math.sin(angle))
        rho[k] = trapezoid(vals * r, r)
    return s, rho


def field_to_csv(path, field: Field2D) -> None:
    """Flat rows (x, y, u) in row-major order."""
    ax = field.axis
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    write_csv(path, ["x", "y", "u"],
              [X.reshape(-1), Y.reshape(-1), field.u.reshape(-1)])
