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
from .spectral import SpectralState, coeff_cl_bound, coeff_sup_deviation, default_grid_size
from .stepping import Trajectory

__all__ = [
    "scale_factor",
    "tau_of_t",
    "t_of_tau",
    "rescale_state",
    "unrescale_state",
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


def t_of_tau(tau: float, T: float, p: int) -> float:
    """Inverse of tau_of_t: t = T (1 - exp(-(p+1) tau))."""
    if tau < 0:
        raise ValueError(f"tau={tau} must be nonnegative")
    return -T * math.expm1(-(p + 1) * tau)


def rescale_state(state: SpectralState, T: float) -> SpectralState:
    """Map an unnormalized snapshot to the normalized frame (u, tau)."""
    p = state.params.p
    factor = scale_factor(p, T, state.t)
    return SpectralState(state.params, tau_of_t(state.t, T, p), state.coeffs * factor)


def unrescale_state(state: SpectralState, T: float) -> SpectralState:
    """Inverse of rescale_state: (u, tau) back to (k, t)."""
    p = state.params.p
    t = t_of_tau(state.t, T, p)
    return SpectralState(state.params, t, state.coeffs / scale_factor(p, T, t))


@dataclass(frozen=True)
class NormalizedSeries:
    """Deviation measures of the normalized profile along a trajectory."""

    taus: np.ndarray
    sup_dev: np.ndarray
    mean_dev: np.ndarray
    cl_dev: dict

    def __post_init__(self):
        if not (len(self.taus) == len(self.sup_dev) == len(self.mean_dev)):
            raise ValueError("series lengths must agree")
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("taus must be strictly increasing")


def normalized_series(
    traj: Trajectory, T: float | None = None, cl_orders: tuple[int, ...] = ()
) -> NormalizedSeries:
    """Per-snapshot sup deviation from the mean, mean deviation from 1, and
    optional C^l coefficient bounds, all in the normalized frame.

    With ``T`` given the trajectory is treated as an unnormalized blow-up run
    and its snapshots before T are rescaled; with ``T=None`` it must already
    be a normalized-flow trajectory (t is tau).
    """
    taus, u = traj.times, traj.coeffs
    if T is not None:
        p = traj.params.p
        before = taus < T
        ts = taus[before].tolist()
        taus = np.array([tau_of_t(t, T, p) for t in ts])
        u = u[before] * np.array([scale_factor(p, T, t) for t in ts])[:, None]
    if not len(taus):
        raise AnalysisError("no snapshots below the blow-up time")
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
    slope, _, stderr, n_used = fit_loglinear(taus[ok], values[ok])
    return RateFit(
        exponent=slope,
        stderr=stderr,
        window=(float(taus[ok].min()), float(taus[ok].max())),
        n_points=n_used,
    )
