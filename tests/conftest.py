import math

import numpy as np
import pytest

from nlfkpp import analysis, backends, csvio, gridsim, manifold, planar, stepping
from nlfkpp.kernel import (SQRT_TWO_PI, TWO_PI, CircleKernelParams, eigenvalue,
                           eigenvalues, grid_nodes, wrap_angle)


@pytest.fixture
def unit_kernel():
    """b0 = 1, gamma = 1, R = 1, so mu = 1."""
    return CircleKernelParams(1.0, 1.0, 1.0)


def sampled(kind: str, N: int, **params) -> np.ndarray:
    """The named initial profile (gridsim.initial_profile) on the N-point
    grid."""
    return gridsim.initial_profile(kind, **params)(grid_nodes(N))


def circulant_term(rho, kern: CircleKernelParams) -> np.ndarray:
    """(2 pi / N) sum_l b(s_k, s_l) rho_l as the O(N^2) circulant sum, the
    reference for the grid's FFT interaction."""
    n = len(rho)
    return backends.circulant_apply(gridsim.kernel_row(kern, n), rho, TWO_PI / n)


def imex_symbol(D: float, dt: float, N: int) -> np.ndarray:
    """1 + 2r - 2r cos(2 pi j / N), j = 0..N/2, r = dt D / ds^2: the
    eigenvalues of the grid's backward-Euler diffusion matrix."""
    r = dt * D / (TWO_PI / N)**2
    return (1.0 + 2.0 * r) + 2.0 * (-r) * np.cos(
        TWO_PI * np.arange(N // 2 + 1) / N)


def imex_four_fft(rho, kern: CircleKernelParams, a: float, kappa: float,
                  D: float, dt: float, n_steps: int) -> np.ndarray:
    """n_steps of the grid's imex step as four FFT calls each: the
    interaction of rho, then the circulant solve of rho + dt (a rho -
    kappa rho I).  The step computed this way before the grid carried its
    state in Fourier space; the reference the two-call step tracks to
    round-off."""
    N = len(rho)
    ds = TWO_PI / N
    spectrum = np.fft.rfft(gridsim.kernel_row(kern, N))
    symbol = imex_symbol(D, dt, N)
    for _ in range(n_steps):
        interaction = ds * np.fft.irfft(spectrum * np.fft.rfft(rho), n=N)
        rho_star = rho + dt * (a * rho - kappa * rho * interaction)
        rho = np.fft.irfft(np.fft.rfft(rho_star) / symbol, n=N)
    return rho


def imex_two_fft(rho, kern: CircleKernelParams, a: float, kappa: float,
                 D: float, dt: float, n_steps: int):
    """(rho, clamped values) after n_steps of the grid's imex step written
    out with fresh arrays: it carries Y = rfft(rho) and I, takes
    Z = ((1 + dt a) Y - dt kappa rfft(rho I)) / symbol and rho, I / ds
    from one irfft of [Z, S Z].  A step that leaves negative values zeroes
    them, as stepping.march clamps round-off, and transforms the clamped
    state again."""
    N = len(rho)
    ds = TWO_PI / N
    spectrum = np.fft.rfft(gridsim.kernel_row(kern, N))
    # each of the real and imaginary parts divided by the real symbol
    # (numpy's complex division by symbol + 0j rounds differently)
    parts = np.repeat(imex_symbol(D, dt, N), 2)
    Y = np.fft.rfft(rho)
    interaction = ds * np.fft.irfft(spectrum * Y, n=N)
    clamped = 0
    for _ in range(n_steps):
        Z = (1.0 + dt * a) * Y - dt * kappa * np.fft.rfft(rho * interaction)
        Z = (Z.view(float) / parts).view(complex)
        both = np.fft.irfft(np.stack([Z, spectrum * Z]), n=N)
        rho, interaction, Y = both[0], ds * both[1], Z
        negative = rho < 0
        if negative.any():
            assert np.all(rho >= -stepping.NEGATIVE_TOL * rho.max())
            clamped += np.count_nonzero(negative)
            rho = np.where(negative, 0.0, rho)
            Y = np.fft.rfft(rho)
            interaction = ds * np.fft.irfft(spectrum * Y, n=N)
    return rho, clamped


def series_oracle(cfgs) -> list:
    """The series.csv text of each grid scenario of cfgs, stepped as one
    batch that keeps every stored (runs, N) state, each state diagnosed by
    its own analysis.diagnose call and each cell written by csvio.fmt: the
    reference for the grid's block diagnostics (a state stored about every
    t_end / (400 dt) steps)."""
    cfg = cfgs[0]
    s = grid_nodes(cfg.N)
    rec = gridsim.integrate_batch(
        [gridsim.initial_profile(c.initial_kind, c.beta00, c.T,
                                 c.initial_width, c.initial_edge)(s)
         for c in cfgs],
        [CircleKernelParams(c.b0, c.gamma, c.R) for c in cfgs],
        [c.a for c in cfgs], [c.kappa for c in cfgs], [c.D for c in cfgs],
        cfg.dt, cfg.t_end, cfg.scheme,
        store_every=max(1, int(round(cfg.t_end / cfg.dt / 400))))
    frames = [analysis.diagnose(state, TWO_PI / cfg.N) for state in rec.frames]
    return ["t,mass,homogeneity,n_peaks\n" + "".join(
        ",".join(csvio.fmt(v) for v in (t, d[i].mass, d[i].homogeneity,
                                        d[i].n_peaks)) + "\n"
        for t, d in zip(rec.times, frames)) for i in range(len(cfgs))]


def coupling_band(beta, lam) -> np.ndarray:
    """The band of the full linear convolution of beta with lam*beta that
    the spectral right-hand side keeps: len(beta) outputs from index
    (len(beta) - 1) // 2; the reference for backends.quadratic_coupling."""
    m = len(beta)
    return np.convolve(beta, lam * beta)[(m - 1) // 2:(m - 1) // 2 + m]


def bessel_quadrature(j: int, mu: float, n: int = 40001) -> float:
    """Scaled modified Bessel e^{-mu} I_j(mu) by Simpson quadrature of
    (1/pi) int_0^pi e^{mu (cos t - 1)} cos(j t) dt; independent oracle."""
    from scipy.integrate import simpson

    t = np.linspace(0.0, math.pi, n)
    return simpson(np.exp(mu * (np.cos(t) - 1.0)) * np.cos(j * t), x=t) / math.pi


def eigenvalue_quadrature(j: int, params: CircleKernelParams,
                          n: int = 200000) -> float:
    """lambda_j = int b(s, 0) e^{-i j s} ds by the periodic rectangle rule."""
    s = -math.pi + 2.0 * math.pi * np.arange(n) / n
    mu = params.mu
    vals = params.b0 * np.exp(mu * (np.cos(s) - 1.0)) * np.cos(j * s)
    return float(2.0 * math.pi / n * np.sum(vals))


def spectral_reconstruction(s, s_prime, J: int, params: CircleKernelParams):
    """Truncated Mercer sum sum_{|j|<=J} lambda_j v_j(s) v_j*(s')."""
    if J < 0:
        raise ValueError(f"truncation order must be >= 0, got {J}")
    delta = wrap_angle(np.asarray(s) - np.asarray(s_prime))
    total = eigenvalue(0, params) * np.ones_like(np.asarray(delta, dtype=float))
    for j in range(1, J + 1):
        total = total + 2.0 * eigenvalue(j, params) * np.cos(j * delta)
    return total / TWO_PI


def rhs_bruteforce(beta, a: float, D: float, kern: CircleKernelParams,
                   kappa: float) -> np.ndarray:
    """Literal double loop over (j, l); oracle for the banded convolution of
    spectral.rhs on the coefficients beta_j, j = -J..J, at index j + J."""
    J = (len(beta) - 1) // 2
    lam = eigenvalues(J, kern)
    out = np.zeros(2 * J + 1, dtype=complex)
    for j in range(-J, J + 1):
        acc = 0.0 + 0.0j
        for l in range(-J, J + 1):
            if -J <= j - l <= J:
                acc += lam[l + J] * beta[j - l + J] * beta[l + J]
        out[j + J] = (a - D * j**2) * beta[j + J] - (kappa / SQRT_TWO_PI) * acc
    return out


def omega_coefficients(j: int, j_prime: int, basis, indices,
                       n_quad: int = 2048) -> dict:
    """Expansion coefficients of v_j*(s) v_j'(s) in the family {v_j''*(s)}.

    ``basis`` maps an integer index to a callable on [-pi, pi); ``indices``
    lists the j'' to project on.  The family is verified to be orthonormal
    (Gram residual below 1e-8) on the quadrature grid before projecting.
    """
    s = -math.pi + 2.0 * math.pi * np.arange(n_quad) / n_quad
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


def bits(x) -> np.ndarray:
    """The raw float64 bits of x, for comparisons in which -0.0 != 0.0 and a
    NaN equals itself."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def laplacian_pad_oracle(u: np.ndarray, dx: float) -> np.ndarray:
    """The planar five-point Laplacian with np.pad's edge ghosts, as
    allocating expressions: the reference for the work-array Laplacian."""
    p = np.pad(u, 1, mode="edge")  # mirror ghost = zero normal flux
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
            - 4.0 * u) / dx**2


def extract_sld_oracle(field, n_angles: int):
    """planar.extract_sld one ray at a time: linspace, bilinear values and
    analysis.trapezoid per angle, the reference for the all-rays array."""
    s = grid_nodes(n_angles)
    rho = np.empty(n_angles)
    for k, angle in enumerate(s):
        r_max = field.L / max(abs(math.cos(angle)), abs(math.sin(angle)))
        r = np.linspace(0.0, r_max, planar.N_RADIAL)
        vals = planar._bilinear(field, r * math.cos(angle),
                                r * math.sin(angle))
        rho[k] = analysis.trapezoid(vals * r, r)
    return s, rho


def run2d_oracle(field, kern, a: float, kappa: float, dt: float,
                 t_end: float) -> stepping.Record:
    """planar.run2d with a fresh array for every operation: the same
    stability bound, euler step, clamp and reuse of the step's interaction,
    and the same floating-point operations in the same order, so its bits
    are the reference for the run's work arrays (and its page faults the
    reference for their allocations)."""
    G = planar._gaussian_matrix(field.L, field.n, kern.gamma)
    scale = kern.b0 * field.dx**2
    last_u, last_I = None, None

    def interaction(u):
        nonlocal last_u, last_I
        if u is not last_u:
            last_u, last_I = u, scale * (G @ u @ G)
        return last_I

    def limit(u, top):
        bound = 0.8 / (a + kappa * max(float(np.max(interaction(u))), 0.0))
        if field.D > 0:
            bound = min(bound, 0.8 * field.dx**2 / (4.0 * field.D))
        return bound

    def rhs(u, t):
        out = a * u - kappa * u * interaction(u)
        if field.D > 0:
            out = out + field.D * laplacian_pad_oracle(u, field.dx)
        return out

    return stepping.march(field.u, field.t, t_end, dt, rhs, "euler",
                          limit=limit, density=lambda u: u.reshape(1, -1))


def gaussian_influence_oracle(b0: float, gamma: float):
    """manifold.gaussian_influence over the full broadcast X_l - X_k, with
    a fresh array for each coordinate's difference: the same operations in
    the same order, so its bits are the reference for the closure's
    upper-triangle block build and its work arrays."""
    def b(X):
        x, y = X[:, None, :], X[None, :, :]
        sq = y[..., 0] - x[..., 0]
        sq *= sq
        for k in range(1, X.shape[-1]):
            d = y[..., k] - x[..., k]
            d *= d
            sq += d
        sq /= -(2.0 * gamma**2)
        np.exp(sq, out=sq)
        sq *= b0
        return sq
    return b


def richardson_order(e_coarse: float, e_fine: float, ratio: float) -> float:
    """Empirical order log(e_coarse/e_fine) / log(ratio)."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("errors must be positive for an order estimate")
    if ratio <= 1:
        raise ValueError(f"refinement ratio must exceed 1, got {ratio}")
    return math.log(e_coarse / e_fine) / math.log(ratio)


def concentration_check(field: planar.Field2D, manifold_state,
                        observable=None) -> float:
    """Deviation of the planar and manifold averages of an observable.

    The default observable is the position itself; the return value is the
    largest absolute component difference between m_u^{-1} int A(x) u dx and
    m_rho^{-1} int A(X(s)) rho(s) ds.
    """
    if observable is None:
        m_u, x_u = planar.moments(field)
        m_rho, x_rho = manifold.initial_correspondence(manifold_state)
        return float(np.max(np.abs(x_u - x_rho)))
    ax = field.axis
    w = np.full(field.n, field.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    W = np.outer(w, w)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    A_grid = np.asarray(observable(X, Y), dtype=float)
    m_u = float(np.sum(W * field.u))
    mean_u = float(np.sum(W * field.u * A_grid)) / m_u
    wts = manifold_state.weights()
    m_rho = float(np.sum(wts * manifold_state.rho))
    A_manifold = np.asarray(
        observable(manifold_state.X[:, 0], manifold_state.X[:, 1]), dtype=float)
    mean_rho = float(np.sum(wts * manifold_state.rho * A_manifold)) / m_rho
    return abs(mean_u - mean_rho)
