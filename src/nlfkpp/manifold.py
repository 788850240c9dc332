"""Coupled evolution of a sampled one-parameter manifold X(t,s) in R^n and
its density rho(t,s):

    drho/dt = rho(s) [ a(X(s),t) - kappa int_G b(X(s),X(s')) rho(s') ds' ],
    dX/dt   = V_x(X(s),t) + kappa int_G W_x(X(s),X(s'),t) rho(s') ds'.

The parameter domain G is a closed curve, sampled uniformly, and the
integrals over it use the rectangle rule.  Each model function is called
once per right-hand side on the array of all nodes (see ConvectionSpec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import stepping
from .csvio import write_csv
from .kernel import grid_nodes

# rows of the influence matrix that gaussian_influence builds per block
INFLUENCE_BLOCK = 64


@dataclass
class ManifoldState:
    s: np.ndarray       # parameter samples over G
    X: np.ndarray       # shape (n_samples, n_dim)
    rho: np.ndarray     # shape (n_samples,)
    t: float = 0.0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        n = len(self.s)
        if self.X.ndim != 2 or self.X.shape[0] != n:
            raise ValueError(f"X must be (n_samples, n_dim), got {self.X.shape}")
        if self.rho.shape != (n,):
            raise ValueError(f"rho must have {n} samples, got {self.rho.shape}")
        # before the gap check, which a NaN gap passes and an infinite
        # one fails as a discontinuity
        for name, part in (("s", self.s), ("X", self.X), ("rho", self.rho)):
            if not np.all(np.isfinite(part)):
                raise ValueError(f"initial state is not finite: {name} "
                                 f"holds {part[~np.isfinite(part)][0]}")
        if stepping.hard_negative(self.rho[None]):
            raise ValueError(f"density is negative: min rho = {np.min(self.rho)}")
        # weights() gives every node the first spacing
        steps = np.diff(self.s)
        if not (n >= 2 and steps[0] > 0
                and np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])):
            raise ValueError("parameter sampling s must be increasing and "
                             "uniform: the rectangle rule gives every node "
                             "the first spacing")
        # the closing gap X[-1] -> X[0] included; np.median's value for
        # finite gaps, without its first call's import of numpy.ma
        gaps = np.linalg.norm(self.X - np.roll(self.X, 1, axis=0), axis=1)
        g = np.sort(gaps)
        med = float(0.5 * (g[(n - 1) // 2] + g[n // 2]))
        if med > 0 and float(np.max(gaps)) > 4.0 * med:
            raise ValueError(
                "manifold sampling is discontinuous: largest adjacent gap "
                f"{np.max(gaps):.3e} exceeds 4x the median spacing {med:.3e}"
            )

    def weights(self) -> np.ndarray:
        """Rectangle-rule quadrature weights over G."""
        return np.full(len(self.s), self.s[1] - self.s[0])


@dataclass(frozen=True)
class ConvectionSpec:
    """Function-valued model data for the coupled system.

    Each function is called once per right-hand side on all N nodes X, an
    (N, n) array; a result of another shape raises ValueError:

    a(X, t) -> growth rate, a scalar or shape (N,);
    b(X) -> influence matrix b(X_k, X_l), shape (N, N);
    V_x(X, t) -> velocity, shape (N, n);
    W_x(X, t) -> nonlocal velocity W_x(X_k, X_l, t), shape (N, N, n),
    summed against rho(X_l).

    V_x and W_x default to zero.
    """

    a: Callable
    b: Callable
    kappa: float
    V_x: Optional[Callable] = None
    W_x: Optional[Callable] = None


def constant_rate(a: float) -> Callable:
    return lambda x, t: a


def gaussian_influence(b0: float, gamma: float) -> Callable:
    """b(X) = B[k, l] = b0 exp(-|X_k - X_l|^2 / (2 gamma^2)), the (N, N)
    influence matrix of the (N, n) node array X.

    The squared distance is summed one coordinate at a time, in the order
    np.sum(d * d, axis=-1) adds them, without an (..., n_dim) temporary.
    Every later operation works in place on that fresh sum; dividing by
    -(2 gamma^2) rounds exactly as negating and dividing by 2 gamma^2.

    B is built from its upper triangle: a block of at most INFLUENCE_BLOCK
    rows k and the columns l >= the block's first row at a time, and each
    block's transpose fills the columns below it.  The entry (l, k) is the
    entry (k, l) to the bit: each coordinate's difference only changes
    sign, (x - y)^2 == (y - x)^2 exactly, and the coordinates are summed in
    the same order.

    The returned array is the only one a call allocates, and the caller
    owns it.  Work arrays belong to the closure and are never returned: X's
    coordinates copied into one contiguous (n, N) array, and two
    (INFLUENCE_BLOCK, N) slabs for the blocks, all allocated again only
    when N or n changes.  So one closure serves several sizes in turn, but
    not concurrent calls from several threads.
    """
    cols = slabs = np.empty(0)
    scale = -(2.0 * gamma**2)

    def b(X):
        nonlocal cols, slabs
        N, n = X.shape
        if cols.shape != (n, N):
            cols = np.empty((n, N))
            slabs = np.empty((min(n, 2), INFLUENCE_BLOCK * N))
        np.copyto(cols, X.T)  # contiguous coordinates subtract faster
        B = np.empty((N, N))
        for i in range(0, N, INFLUENCE_BLOCK):
            j = min(i + INFLUENCE_BLOCK, N)
            block = (j - i, N - i)  # rows i..j-1, columns i..N-1
            size = block[0] * block[1]
            sq = np.subtract(cols[0, None, i:], cols[0, i:j, None],
                             out=slabs[0, :size].reshape(block))
            sq *= sq
            for k in range(1, n):
                d = np.subtract(cols[k, None, i:], cols[k, i:j, None],
                                out=slabs[1, :size].reshape(block))
                d *= d
                sq += d
            sq /= scale
            np.exp(sq, out=sq)
            sq *= b0
            B[i:j, i:] = sq
            B[j:, i:j] = sq[:, j - i:].T
        return B
    return b


def linear_drag(k0: float) -> Callable:
    return lambda x, t: -k0 * np.asarray(x, dtype=float)


def circle_state(R: float, N: int, rho_phi, t0: float = 0.0) -> ManifoldState:
    """Circle of radius R sampled at s_k = -pi + 2 pi k / N."""
    s = grid_nodes(N)
    X = np.column_stack([R * np.cos(s), R * np.sin(s)])
    return ManifoldState(s, X, np.asarray(rho_phi(s), dtype=float), t0)


def _evaluate(name: str, shapes, f: Callable, *args) -> np.ndarray:
    """f(*args) as a float array whose shape must be one of shapes."""
    out = np.asarray(f(*args), dtype=float)
    if out.shape not in shapes:
        raise ValueError(f"model function {name} returned shape {out.shape}, "
                         f"expected {' or '.join(map(str, shapes))}")
    return out


def _influence_matrix(spec: ConvectionSpec, X: np.ndarray) -> np.ndarray:
    """B[k, l] = b(X_k, X_l)."""
    return _evaluate("b", [(len(X), len(X))], spec.b, X)


def ee_rhs(state: ManifoldState, spec: ConvectionSpec):
    """Returns (drho/dt, dX/dt) by the rectangle rule over G, views of one
    packed array; a non-finite value raises RuntimeError."""
    y_dot = _rhs(spec, state.weights(), state.X, state.rho, state.t,
                 _influence_matrix(spec, state.X))
    if not np.all(np.isfinite(y_dot)):
        raise RuntimeError("model functions returned non-finite values")
    return unpack(y_dot, len(state.X))


def _rhs(spec: ConvectionSpec, w: np.ndarray, X: np.ndarray, rho: np.ndarray,
         t: float, B: np.ndarray) -> np.ndarray:
    """ee_rhs on arrays, packed as [rho_dot, X_dot.ravel()] in one fresh
    array (see unpack) and not checked for finiteness: quadrature weights
    w, positions X, density rho and the influence matrix B = b(X_k, X_l)
    of X."""
    n = len(X)
    mass = w * rho
    rates = _evaluate("a", [(), (n,)], spec.a, X, t)
    y_dot = np.zeros(n + X.size)
    rho_dot, X_dot = unpack(y_dot, n)
    np.multiply(rho, rates - spec.kappa * (B @ mass), out=rho_dot)
    if spec.V_x is not None:
        X_dot += _evaluate("V_x", [X.shape], spec.V_x, X, t)
    if spec.W_x is not None:
        W = _evaluate("W_x", [(n,) + X.shape], spec.W_x, X, t)
        X_dot += spec.kappa * np.einsum("l,kld->kd", mass, W)
    return y_dot


def unpack(y: np.ndarray, n: int):
    """(rho, X) views of the packed state [rho, X.ravel()] of n nodes, or of
    each row of a stack of them: rho (..., n) and X (..., n, n_dim)."""
    return y[..., :n], y[..., n:].reshape(y.shape[:-1] + (n, -1))


def integrate(state0: ManifoldState, spec: ConvectionSpec, t_end: float,
              dt: float, store_every: int = 1) -> stepping.Record:
    """Fixed-step RK4 on the coupled (rho, X) system, packed as one array
    [rho, X.ravel()] for the shared driver (see unpack); RK4 is
    elementwise, so packing changes no bit.  The record's state and frames
    are packed; rho is the density view, one run, so its clamp count has
    shape (1,).  A non-finite derivative is left to march's blow-up guard,
    which reads max|y| over the whole packed state."""
    n = len(state0.s)
    w = state0.weights()  # the parameter sampling is fixed for the run
    # B depends on the positions alone: rebuild it only when they move
    # (never, when V_x and W_x are None and X_dot is exactly zero)
    last_x, B = None, None

    def rhs(y, t):
        nonlocal last_x, B
        rho, x = unpack(y, n)
        if last_x is None or not np.array_equal(x, last_x):
            last_x, B = x, _influence_matrix(spec, x)
        return _rhs(spec, w, x, rho, t, B)

    return stepping.march(np.concatenate([state0.rho, state0.X.ravel()]),
                          float(state0.t), t_end, dt, rhs, "rk4",
                          density=lambda y: y[None, :n],
                          store_every=store_every)


def initial_correspondence(state: ManifoldState):
    """Zero moment m = int rho ds and first moment xbar = m^{-1} int X rho ds."""
    w = state.weights()
    m = float(np.sum(w * state.rho))
    if m <= 0:
        raise ValueError(f"total mass must be positive, got {m}")
    xbar = (w * state.rho) @ state.X / m
    return m, xbar


def trajectory_to_csv(path, rec: stepping.Record, s) -> None:
    """Rows (t, s, x1, ..., xn, rho) for every stored frame of a manifold
    record and every sample s.  The columns are gathered from views of the
    frames, not from a stacked copy of them all."""
    views = [unpack(y, len(s)) for y in rec.frames]
    n_t, (n_s, n_dim) = len(views), views[0][1].shape
    header = ["t", "s"] + [f"x{d + 1}" for d in range(n_dim)] + ["rho"]
    cols = [np.repeat(rec.times, n_s), np.tile(s, n_t)]
    cols += [np.concatenate([X[:, d] for _, X in views]) for d in range(n_dim)]
    cols.append(np.concatenate([rho for rho, _ in views]))
    write_csv(path, header, cols)
