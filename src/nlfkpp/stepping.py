"""Fixed-step time marching shared by every solver.

A solver holds its state in one array and hands ``march`` the right-hand
side ``rhs(y, t)`` of its per-run operator.  The driver owns what all the
solvers do alike: the run length (a whole number of steps from t0 to
t_end, or ConfigError), the stage arithmetic of the euler and rk4
schemes (an imex solver with an implicit part hands over its whole step),
the time t0 + k dt (never an accumulated sum), the stability check, the
blow-up guard, the round-off clamp of the density with its count, and
the storage of frames and snapshots.  Every solver returns the driver's
Record as it is.

A solver whose state holds a density hands march a view of it: density(y)
is a (runs, M) view of the density values in y, one independent run per
row (a stack of grid densities, a planar field as one run, the density
part of a manifold state).  The clamp judges each run against its own max
and counts its clamps per run, and one row max and one min of the view per
step serve the blow-up guard, the clamp and the stability check.

A reduce hook maps a (k, *y.shape) stack of stored states to their k
frames.  The driver copies each stored state into one stack of at most
REDUCE_BLOCK states and hands over each full stack, and what remains after
the last step, in one call, so a per-frame diagnostic runs once per block
of states instead of once per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SCHEMES, ConfigError, whole_steps

BLOWUP_LIMIT = 1e12
NEGATIVE_TOL = 1e-10
# stored states a reduce call receives at most
REDUCE_BLOCK = 16


def _floor(top):
    """-NEGATIVE_TOL * top, for a max top (floored at 1e-300) of a density or
    a column of per-run maxima: a value below it is a negative that
    round-off cannot explain."""
    return -NEGATIVE_TOL * np.maximum(top, 1e-300)


def hard_negative(d) -> bool:
    """True when a row d[i] of a (runs, M) density view holds a value below
    -NEGATIVE_TOL * max(d[i])."""
    top = np.max(d, axis=1, keepdims=True)
    return bool(np.min(d) < 0 and np.any(d < _floor(top)))


@dataclass
class Record:
    """The final state y at time t, the number of density values clamped to
    zero (an array of one count per run of the density view, or 0 without
    one), the stored times and frames, and {requested time: state}."""

    y: np.ndarray
    t: float
    clamped: np.ndarray | int
    times: list
    frames: list
    snapshots: dict

    def row(self, i: int) -> Record:
        """Run i of a record whose state stacks runs on axis 0, as the
        record of that run alone."""
        return Record(self.y[i], self.t, int(self.clamped[i]), self.times,
                      [frame[i] for frame in self.frames],
                      {t: y[i] for t, y in self.snapshots.items()})


def _clamp(d, top, low, t):
    """Zero the values of the (runs, M) density view d in
    [-NEGATIVE_TOL top, 0) in place and return how many there were in each
    row; a lower value raises RuntimeError.  top is the column of the row
    maxima of d and low the min of d."""
    floor = _floor(top)
    if np.any(d < floor):
        raise RuntimeError(f"density has a hard negative value {low} at "
                           f"t={t}; the scheme is unstable")
    band = (d < 0) & (d >= floor)
    d[band] = 0.0
    return np.count_nonzero(band, axis=1)


def march(y, t0, t_end, dt, rhs, scheme, *, step=None, limit=None,
          density=None, store_every=0, at=(), reduce=None) -> Record:
    """Advance y by steps of dt from time t0 to t_end.

    dt <= 0, t_end < t0 and a span t_end - t0 that is not a whole number of
    steps raise ConfigError.  An initial y holding a NaN or an infinity
    raises ValueError.

    euler is y + dt rhs(y, t); rk4 the classical four stages at t, t + dt/2,
    t + dt/2 and t + dt; imex is the solver's whole step step(y, t,
    clamped), or y + dt rhs(y, t) when it has no implicit part (step None).
    clamped is the per-run clamp count of the previous step, or None when
    it clamped nothing: a step that carries a transform of y from one call
    to the next takes it again for the runs the clamp changed.

    density(y), None for a state without a density, is a real (runs, M)
    view of the density values in y, one independent run per row.  An
    initial view with a value below -NEGATIVE_TOL times its row's max
    raises ValueError.  After each step march takes one row max and one min
    of the view: they serve the blow-up guard, the clamp and the next
    stability check.  Values of a row in [-NEGATIVE_TOL max, 0) are set to
    zero and counted per run, while a lower one raises RuntimeError.

    Before each step, dt > limit(y, top) raises ConfigError; top is the
    array of the view's row maxima (None without a view), taken before the
    clamp, which leaves a row max >= 0 as it is.  After each step max|y|
    must stay within BLOWUP_LIMIT (a NaN fails too); it is read from the
    view's max and min, and taken over y as well only where the view does
    not cover all of y.

    The initial y, every store_every-th step and the last one are stored as
    frames (store_every = 0 stores none), and the first state, the initial
    one included, with t >= ts - dt/2 for each ts in at is stored as its
    snapshot.

    reduce None keeps each stored y as its frame.  Otherwise reduce(stack)
    maps a (k, *y.shape) stack of stored states, 1 <= k <= REDUCE_BLOCK,
    to their k frames: march copies each stored state into the stack and
    calls reduce once per REDUCE_BLOCK of them and once for what remains
    after the last step.  The stack is march's and is overwritten after the
    call, so reduce keeps none of it.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    n_steps = whole_steps(t_end, dt, "t_end - t0", t0)
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state is not finite: "
                         f"max|y| = {np.max(np.abs(y))}")
    top, clamped, partial = None, 0, True
    if density is not None:
        d = density(y)
        if hard_negative(d):
            raise ValueError(f"density has a hard negative value {np.min(d)}; "
                             "the scheme is unstable")
        top, clamped = d.max(axis=1), np.zeros(len(d), dtype=int)
        partial = d.size < y.size
    times, frames, filled = [], [], 0
    if store_every and reduce is not None:
        block = np.empty((REDUCE_BLOCK, *y.shape), dtype=y.dtype)

    def store(t, y):
        nonlocal filled
        times.append(t)
        if reduce is None:
            frames.append(y)
            return
        block[filled] = y
        filled += 1
        if filled == REDUCE_BLOCK:
            frames.extend(reduce(block))
            filled = 0

    if store_every:
        store(t0, y)
    remaining = sorted(float(ts) for ts in at)
    snapshots = {}

    def snap(t, y):
        while remaining and t >= remaining[0] - 0.5 * dt:
            snapshots[remaining.pop(0)] = y

    snap(t0, y)
    changed = None
    t = t0
    for k in range(n_steps):
        if limit is not None:
            bound = limit(y, top)
            if dt > bound:
                raise ConfigError(
                    f"numerics.dt: dt={dt} violates the stability bound "
                    f"{bound:.3e} for scheme {scheme!r}")
        if scheme == "rk4":
            k1 = rhs(y, t)
            k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(y + dt * k3, t + dt)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        elif step is None:
            y = y + dt * rhs(y, t)
        else:
            y = step(y, t, changed)
        t = t0 + (k + 1) * dt
        bounded = True
        if density is not None:
            # max|d| = max(max d, -min d), and a NaN fails both compares
            d = density(y)
            top, low = d.max(axis=1), d.min()
            bounded = top.max() <= BLOWUP_LIMIT and -low <= BLOWUP_LIMIT
        if bounded and partial:
            bounded = np.max(np.abs(y)) <= BLOWUP_LIMIT
        if not bounded:
            raise RuntimeError(f"solution blew up at t={t}: "
                               f"max|y| = {np.max(np.abs(y)):.3e}")
        changed = None
        if density is not None and low < 0:
            changed = _clamp(d, top[:, None], low, t)
            clamped += changed
        if store_every and ((k + 1) % store_every == 0 or k == n_steps - 1):
            store(t, y)
        snap(t, y)
    if filled:
        frames.extend(reduce(block[:filled]))
    return Record(y, t, clamped, times, frames, snapshots)
