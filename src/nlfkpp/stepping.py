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

A batched march steps independent runs together, one per row of a
(runs, N) stack of densities: the clamp judges each run against its own max
and counts its clamps per run, and one row max and one min of the state per
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


def hard_negative(y, batched: bool = False) -> bool:
    """True when y holds a value below -NEGATIVE_TOL * max(y); batched, when
    a row y[i] holds one below -NEGATIVE_TOL * max(y[i])."""
    top = np.max(y, axis=1, keepdims=True) if batched else np.max(y)
    return bool(np.min(y) < 0 and np.any(y < _floor(top)))


@dataclass
class Record:
    """The final state y at time t, the number of density values clamped to
    zero (an array of one count per run, when batched), the stored times
    and frames, and {requested time: state}."""

    y: np.ndarray
    t: float
    clamped: int
    times: list
    frames: list
    snapshots: dict

    def row(self, i: int) -> Record:
        """Run i of a batched record, as the record of that run alone."""
        return Record(self.y[i], self.t, int(self.clamped[i]), self.times,
                      [frame[i] for frame in self.frames],
                      {t: y[i] for t, y in self.snapshots.items()})


def _clamp(d, top, low, t):
    """Zero the values of the density d in [-NEGATIVE_TOL top, 0) in place
    and return how many there were; a lower value raises RuntimeError.  top
    is the max of d, or for a batch the column of its row maxima, and then
    the counts are per run; low is the min of d."""
    floor = _floor(top)
    if np.any(d < floor):
        raise RuntimeError(f"density has a hard negative value {low} at "
                           f"t={t}; the scheme is unstable")
    band = (d < 0) & (d >= floor)
    d[band] = 0.0
    return np.count_nonzero(band, axis=None if np.ndim(top) == 0 else 1)


def march(y, t0, t_end, dt, rhs, scheme, *, step=None, limit=None,
          density=None, store_every=0, at=(), reduce=None,
          batched=False) -> Record:
    """Advance y by steps of dt from time t0 to t_end.

    dt <= 0, t_end < t0 and a span t_end - t0 that is not a whole number of
    steps raise ConfigError.

    euler is y + dt rhs(y, t); rk4 the classical four stages at t, t + dt/2,
    t + dt/2 and t + dt; imex is the solver's whole step step(y, t,
    clamped), or y + dt rhs(y, t) when it has no implicit part (step None).
    clamped is the clamp count of the previous step (per run, when
    batched), or None when it clamped nothing: a step that carries a
    transform of y from one call to the next takes it again for the runs
    the clamp changed.

    Before each step, dt > limit(y) raises ConfigError.  After it, max|y|
    must stay within BLOWUP_LIMIT (a NaN fails too); and values of the view
    density(y) in [-NEGATIVE_TOL max, 0) are set to zero and counted, while
    a lower one raises RuntimeError.  The initial y, every store_every-th
    step and the last one are stored as frames (store_every = 0 stores
    none), and the first state, the initial one included, with
    t >= ts - dt/2 for each ts in at is stored as its snapshot.

    reduce None keeps each stored y as its frame.  Otherwise reduce(stack)
    maps a (k, *y.shape) stack of stored states, 1 <= k <= REDUCE_BLOCK,
    to their k frames: march copies each stored state into the stack and
    calls reduce once per REDUCE_BLOCK of them and once for what remains
    after the last step.  The stack is march's and is overwritten after the
    call, so reduce keeps none of it.

    batched: y is a real (runs, N) stack of densities, one independent run
    per row, which the clamp judges each against its own max and counts per
    run (so density must be None).  One row max and one min of y, taken
    after each step, serve the blow-up guard, the clamp and the next
    stability check: limit then takes the row maxima (a list of floats) and
    returns the least of the runs' bounds.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if batched and density is not None:
        raise ValueError("a batched state is its own density; density must "
                         "be None")
    n_steps = whole_steps(t_end, dt, "t_end - t0", t0)
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
    clamped = np.zeros(len(y), dtype=int) if batched else 0
    changed = None
    top = y.max(axis=1) if batched else None
    t = t0
    for k in range(n_steps):
        if limit is not None:
            bound = limit(top.tolist() if batched else y)
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
        if batched:
            # max|y| = max(max y, -min y), and a NaN fails both compares; the
            # clamp leaves a row max >= 0 as it is, and limit reads
            # max(top, 0), so top serves the next stability check too
            top, low = y.max(axis=1), y.min()
            bounded = top.max() <= BLOWUP_LIMIT and -low <= BLOWUP_LIMIT
        else:
            bounded = np.max(np.abs(y)) <= BLOWUP_LIMIT
        if not bounded:
            raise RuntimeError(f"solution blew up at t={t}: "
                               f"max|y| = {np.max(np.abs(y)):.3e}")
        changed = None
        if batched:
            if low < 0:
                changed = _clamp(y, top[:, None], low, t)
        elif density is not None:
            d = density(y)
            low = d.min()
            if low < 0:
                changed = _clamp(d, d.max(), low, t)
        if changed is not None:
            clamped += changed
        if store_every and ((k + 1) % store_every == 0 or k == n_steps - 1):
            store(t, y)
        snap(t, y)
    if filled:
        frames.extend(reduce(block[:filled]))
    return Record(y, t, clamped, times, frames, snapshots)
