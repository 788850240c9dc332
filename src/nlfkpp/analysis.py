"""Profile diagnostics shared by the solvers: peak counting on periodic
grids, homogeneity, norms, steady-state detection, and the trapezoid rule
(``np.trapezoid``, or ``np.trapz`` before numpy 2)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEVER_STEADY = -1.0

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _rows(profile):
    """(rows, stacked): a profile as a C-ordered (runs, N) stack, a 1-D
    profile being a stack of one, so a row reduces as that profile alone."""
    rho = np.ascontiguousarray(profile, dtype=float)
    if rho.ndim not in (1, 2):
        raise ValueError(f"expected a profile or a (runs, N) stack, got "
                         f"shape {rho.shape}")
    return (rho, True) if rho.ndim == 2 else (rho[None], False)


def _against_next(x, n, op):
    """op(x[k], x[k + 1]) for each flat index k of a stack of rows of
    length n, k + 1 taken within k's own row, cyclically."""
    out = np.empty_like(x)
    op(x[:-1], x[1:], out=out[:-1])
    op(x[n - 1::n], x[::n], out=out[n - 1::n])
    return out


def _peak_counts(rho, mean, prominence):
    """count_peaks of each row of the stack rho, whose row means are mean.

    The downhill walks of all candidates of all rows are searches in flat
    indices r N + k, each wrapped within its own row r: walking left from k
    ends at the nearest j before k (cyclically) with rho[j-1] > rho[j],
    walking right at the nearest j after k with rho[j+1] > rho[j], and the
    flanking minima are rho[j] at those stops.  The walk left climbs no
    step between j and k, so rho[j+1] >= rho[j] at its stop (and
    rho[j-1] >= rho[j] at the stop of the walk right): the stop lists hold
    only such valley floors, which leaves every nearest stop as it is.
    """
    runs, n = rho.shape
    if n < 8:
        raise ValueError(f"profile too short for peak counting: {n} < 8")
    # rise[k]: rho[k] > rho[k-1], fall[k]: rho[k-1] > rho[k], as contiguous
    # shifts of the flat stack, with each row's first index wrapped to its
    # own last value
    flat = rho.reshape(-1)
    rise, fall = np.empty((2, flat.size), dtype=bool)
    np.greater(flat[1:], flat[:-1], out=rise[1:])
    np.less(flat[1:], flat[:-1], out=fall[1:])
    rise[::n] = rho[:, 0] > rho[:, -1]
    fall[::n] = rho[:, 0] < rho[:, -1]
    # collapse plateaus: a candidate is the left edge of a flat top,
    # rho[k] > rho[k-1] and rho[k] >= rho[k+1]; a row whose mean is not > 0
    # (NaN included: no prominence reaches a NaN threshold) counts nothing.
    # a >= b is read as not b > a, which holds in every row that can count:
    # its positive mean excludes a NaN
    cand = _against_next(rise, n, np.greater)
    cand.reshape(runs, n)[~(mean > 0)] = False
    cand = np.flatnonzero(cand)
    if cand.size == 0:
        return np.zeros(runs, dtype=int)
    # a row with a candidate rises somewhere, so it falls somewhere: both
    # stop lists hold at least one index of that row.  rho[k-1] > rho[k]
    # and rho[k+1] >= rho[k]; rho[k+1] > rho[k] and rho[k-1] >= rho[k]
    stop_l = np.flatnonzero(_against_next(fall, n, np.greater))
    stop_r = np.flatnonzero(_against_next(rise, n, np.less))
    row = cand // n
    edges = np.arange(runs + 1) * n
    first_l, end_l = np.searchsorted(stop_l, edges)[[row, row + 1]]
    first_r, end_r = np.searchsorted(stop_r, edges)[[row, row + 1]]
    i = np.searchsorted(stop_l, cand) - 1
    i = np.where(i < first_l, end_l - 1, i)
    j = np.searchsorted(stop_r, cand, side="right")
    j = np.where(j < end_r, j, first_r)
    flat = rho.reshape(-1)
    top = flat[cand]
    lo_l = flat[stop_l[i]]
    lo_r = flat[stop_r[j]]
    # a flat top whose right walk stops at its own height ends rising: no peak
    peak = (lo_r != top) & (top - np.maximum(lo_l, lo_r)
                            >= (prominence * mean)[row])
    return np.bincount(row[peak], minlength=runs)


def count_peaks(profile, prominence: float = 0.05):
    """Strict local maxima on the periodic grid with relative prominence:
    an int for a profile, an int array with one count per row for a
    (runs, N) stack.

    A maximum counts only if it exceeds both flanking minima (found by
    walking downhill with periodic wrap) by at least prominence * mean.
    Plateau maxima of equal neighbours are collapsed to a single peak.
    """
    rho, stacked = _rows(profile)
    counts = _peak_counts(rho, rho.sum(axis=1) / rho.shape[1], prominence)
    return counts if stacked else int(counts[0])


def _spread(rho, mean):
    """(max - min) / mean of each row of the stack rho."""
    if np.any(mean == 0.0):
        raise ValueError("homogeneity undefined for zero-mean profile")
    return (rho.max(axis=1) - rho.min(axis=1)) / mean


def homogeneity(profile):
    """(max - min) / mean; zero for a flat profile.  A float for a profile,
    an array with one value per row for a (runs, N) stack."""
    rho, stacked = _rows(profile)
    spread = _spread(rho, rho.sum(axis=1) / rho.shape[1])
    return spread if stacked else float(spread[0])


def linf(a, b=None) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a if b is None else a - np.asarray(b))))


def relative(err, scale) -> float:
    """err / scale; against a zero reference, 0 if the two agree, else inf."""
    err, scale = float(err), float(scale)
    if scale == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return err / scale


def relative_linf(a, b) -> float:
    """max|a - b| / max|b|, by the zero-reference rule of relative."""
    return relative(linf(a, b), linf(b))


def steady_state_time(times, profiles, tol: float) -> float:
    """First stored time with max_k |drho/dt| < tol (backward difference).

    A constant input is steady from the start and returns times[0].
    Returns the NEVER_STEADY sentinel (-1.0) when the tolerance is never met.
    Public API: the measured counterpart of exact.t_quasi_steady.
    """
    t = np.asarray(times, dtype=float)
    rho = np.asarray(profiles, dtype=float)
    if rho.shape[0] != len(t):
        raise ValueError("times and profiles disagree in length")
    if len(t) < 2:
        raise ValueError("need at least two stored times")
    if np.max(np.abs(rho[1] - rho[0])) / (t[1] - t[0]) < tol:
        # flat from the first interval; report the initial time
        if np.max(np.abs(rho - rho[0])) == 0.0:
            return float(t[0])
    for i in range(1, len(t)):
        rate = np.max(np.abs(rho[i] - rho[i - 1])) / (t[i] - t[i - 1])
        if rate < tol:
            return float(t[i])
    return NEVER_STEADY


@dataclass(frozen=True)
class ProfileDiagnostics:
    n_peaks: int
    homogeneity: float
    mass: float


def diagnose(profile, ds: float, prominence: float = 0.05):
    """The ProfileDiagnostics of a profile, or a list of one per row of a
    (runs, N) stack.  One row sum gives the mass and the mean (np.mean is
    that sum over N, so each row reads as it does alone)."""
    rho, stacked = _rows(profile)
    sums = rho.sum(axis=1)
    mean = sums / rho.shape[1]
    out = [ProfileDiagnostics(*d) for d in zip(
        _peak_counts(rho, mean, prominence).tolist(),
        _spread(rho, mean).tolist(),
        (ds * sums).tolist())]
    return out if stacked else out[0]
