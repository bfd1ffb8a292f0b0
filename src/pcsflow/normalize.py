"""Mapping blow-up trajectories to the normalized frame and rate fitting.

The normalized profile and time are

    u = ((p+1)/p)^{1/(p+1)} (T - t)^{1/(p+1)} k,
    tau = -log(1 - t/T) / (p+1),

chosen so the exact constant blow-up solution maps to u == 1.  Convergence
to the steady state is exponential in tau with rate beta = lam^2 p - p - 1
for the deviation from the mean, and about twice that for the mean itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blowup import RateFit, fit_loglinear
from .errors import AnalysisError
from .spectral import coeff_cl_bound, coeff_sup_deviation, default_grid_size
from .stepping import Trajectory

__all__ = [
    "scale_factor",
    "tau_of_t",
    "normalized_frame",
    "NormalizedSeries",
    "normalized_series",
    "fit_exponential",
]


def scale_factor(p: int, T: float, t: float) -> float:
    """Amplitude factor ((p+1)/p)^{1/(p+1)} (T-t)^{1/(p+1)}."""
    if t >= T:
        raise ValueError(f"t={t} must be below the blow-up time T={T}")
    return ((p + 1) / p) ** (1.0 / (p + 1)) * (T - t) ** (1.0 / (p + 1))


def tau_of_t(t: float, T: float, p: int) -> float:
    """Normalized time tau = -log(1 - t/T) / (p+1), strictly increasing on [0, T)."""
    if not 0.0 <= t < T:
        raise ValueError(f"t={t} outside [0, T={T})")
    return -math.log1p(-t / T) / (p + 1)


def normalized_frame(traj: Trajectory, T: float) -> tuple[np.ndarray, np.ndarray]:
    """The snapshots before the blow-up time T in the normalized frame: their
    taus and their rescaled coefficients u, stacked by row.  The one map into
    the frame; tau is defined from t = 0 on."""
    p, ts = traj.params.p, traj.times
    before = ts < T
    if not before.any():
        raise AnalysisError(f"no snapshot before the blow-up time T={T:.6g}")
    ts = ts[before].tolist()
    if ts[0] < 0.0:
        raise AnalysisError(f"snapshot at t={ts[0]:.6g} before t=0, where the normalized frame starts")
    taus = np.array([tau_of_t(t, T, p) for t in ts])
    return taus, traj.coeffs[before] * np.array([scale_factor(p, T, t) for t in ts])[:, None]


@dataclass(frozen=True)
class NormalizedSeries:
    """Deviation measures of the normalized profile along a trajectory."""

    taus: np.ndarray
    sup_dev: np.ndarray
    mean_dev: np.ndarray
    cl_dev: dict

    def __post_init__(self):
        if not (len(self.taus) == len(self.sup_dev) == len(self.mean_dev)):
            raise AnalysisError("series lengths must agree")
        if np.any(np.diff(self.taus) <= 0):
            raise AnalysisError("taus must be strictly increasing")


def normalized_series(
    traj: Trajectory, T: float | None = None, cl_orders: tuple[int, ...] = ()
) -> NormalizedSeries:
    """Per-snapshot sup deviation from the mean, mean deviation from 1, and
    optional C^l coefficient bounds, all in the normalized frame.

    With ``T`` given the trajectory is treated as an unnormalized blow-up run
    and its snapshots before T are rescaled (``normalized_frame``); with
    ``T=None`` it must already be a normalized-flow trajectory (t is tau).
    """
    taus, u = (traj.times, traj.coeffs) if T is None else normalized_frame(traj, T)
    return NormalizedSeries(
        taus=taus,
        sup_dev=coeff_sup_deviation(u, default_grid_size(traj.params)),
        mean_dev=np.abs(u[:, 0].real - 1.0),
        cl_dev={l: coeff_cl_bound(u, traj.params.lam, l) for l in cl_orders},
    )


def fit_exponential(
    taus: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float | None] = (2.0, None),
    floor: float | None = None,
) -> RateFit:
    """Slope of log(values) against tau over the window (negative = decay).

    Points at or near the round-off floor are dropped, shrinking the window
    from the right; fewer than 8 surviving points is an analysis error.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if floor is None:
        floor = 2e-14 * max(1.0, float(values.max(initial=0.0)))
    lo = window[0]
    hi = window[1] if window[1] is not None else float(taus.max(initial=lo))
    ok = (taus >= lo) & (taus <= hi) & (values > 10.0 * floor)
    if ok.sum() >= 1:
        # auto-shrink: cut everything past the first floor touch inside the window
        inside = np.where((taus >= lo) & (taus <= hi))[0]
        floored = inside[values[inside] <= 10.0 * floor]
        if floored.size:
            ok &= taus < taus[floored[0]]
    if ok.sum() < 8:
        raise AnalysisError(
            f"only {int(ok.sum())} points above the floor in tau window [{lo}, {hi}]"
        )
    return fit_loglinear(taus[ok], values[ok], (float(taus[ok].min()), float(taus[ok].max())))
