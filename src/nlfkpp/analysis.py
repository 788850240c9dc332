"""Profile diagnostics shared by the solvers: peak counting on periodic
grids, homogeneity, norms, steady-state detection, empirical order, and the
trapezoid rule (``np.trapezoid``, or ``np.trapz`` before numpy 2)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEVER_STEADY = -1.0

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def count_peaks(profile, prominence: float = 0.05) -> int:
    """Strict local maxima on the periodic grid with relative prominence.

    A maximum counts only if it exceeds both flanking minima (found by
    walking downhill with periodic wrap) by at least prominence * mean.
    Plateau maxima of equal neighbours are collapsed to a single peak.

    The downhill walk is done for all candidates at once: walking left from
    k ends at the nearest j before k (cyclically) with rho[j-1] > rho[j],
    walking right at the nearest j after k with rho[j+1] > rho[j], and the
    flanking minima are rho[j] at those stops.
    """
    rho = np.asarray(profile, dtype=float)
    n = len(rho)
    if n < 8:
        raise ValueError(f"profile too short for peak counting: {n} < 8")
    mean = float(np.mean(rho))
    # a NaN mean counts nothing either: no prominence reaches a NaN threshold
    if not mean > 0:
        return 0
    threshold = prominence * mean
    left = np.roll(rho, 1)
    right = np.roll(rho, -1)
    # collapse plateaus: a candidate is the left edge of a flat top
    cand = np.flatnonzero((rho > left) & (rho >= right))
    if cand.size == 0:
        return 0
    stop_l = np.flatnonzero(left > rho)
    stop_r = np.flatnonzero(right > rho)
    top = rho[cand]
    lo_l = rho[stop_l[np.searchsorted(stop_l, cand) - 1]]
    lo_r = rho[stop_r[np.searchsorted(stop_r, cand, side="right") % stop_r.size]]
    # a flat top whose right walk stops at its own height ends rising: no peak
    return int(np.count_nonzero(
        (lo_r != top) & (top - np.maximum(lo_l, lo_r) >= threshold)))


def homogeneity(profile) -> float:
    """(max - min) / mean; zero for a flat profile."""
    rho = np.asarray(profile, dtype=float)
    mean = float(np.mean(rho))
    if mean == 0.0:
        raise ValueError("homogeneity undefined for zero-mean profile")
    return float((np.max(rho) - np.min(rho)) / mean)


def linf(a, b=None) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a if b is None else a - np.asarray(b))))


def l2(a, b=None, ds: float = 1.0) -> float:
    a = np.asarray(a, dtype=float)
    d = a if b is None else a - np.asarray(b)
    return float(math.sqrt(ds * np.sum(d * d)))


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


def richardson_order(e_coarse: float, e_fine: float, ratio: float) -> float:
    """Empirical order log(e_coarse/e_fine) / log(ratio)."""
    if e_coarse <= 0 or e_fine <= 0:
        raise ValueError("errors must be positive for an order estimate")
    if ratio <= 1:
        raise ValueError(f"refinement ratio must exceed 1, got {ratio}")
    return math.log(e_coarse / e_fine) / math.log(ratio)


@dataclass(frozen=True)
class ProfileDiagnostics:
    n_peaks: int
    homogeneity: float
    mass: float
    linf: float
    l2: float


def diagnose(profile, ds: float, prominence: float = 0.05) -> ProfileDiagnostics:
    rho = np.asarray(profile, dtype=float)
    return ProfileDiagnostics(
        n_peaks=count_peaks(rho, prominence),
        homogeneity=homogeneity(rho),
        mass=float(ds * np.sum(rho)),
        linf=linf(rho),
        l2=l2(rho, ds=ds),
    )
