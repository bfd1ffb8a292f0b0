"""Trapping certificates, blow-up time estimation, and decay-rate fits.

The trapping cone is the set of coefficient vectors whose mean dominates
c times the weighted tail max_n n^2 * max(|Re c[n]|, |Im c[n]|).  Initial
data inside the cone (the hypothesis check) stays inside it, the mean is
then non-decreasing, and mode n decays like (T - t)^alpha(lam, n, p) with

    alpha(lam, n, p) = (lam^2 n^2 - (p+2)/p) * p / (p+1).

T is recovered from the near-linear law c[0]^{-(p+1)} ~ ((p+1)/p)(T - t),
refined by the first correction term (T - t)^{1 + 2/(p+1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .spectral import FlowParams, SpectralState, coeff_seminorm, seminorm, synthesize
from .stepping import Trajectory

__all__ = [
    "alpha_exponent",
    "beta_rate",
    "select_c",
    "c_is_heuristic",
    "HypothesisReport",
    "check_hypothesis",
    "trap_margin",
    "TrapCertificate",
    "certify",
    "estimate_T",
    "RateFit",
    "fit_power",
    "fit_loglinear",
    "envelope_lower",
    "envelope_upper",
    "EnvelopeReport",
    "envelope_check",
]

_EPS = np.finfo(float).eps


def alpha_exponent(lam: float, n: int, p: int) -> float:
    """Power-law decay exponent of mode n in (T - t)."""
    return (lam**2 * n**2 - (p + 2) / p) * p / (p + 1)


def beta_rate(lam: float, p: int) -> float:
    """Exponential stabilization rate of the normalized flow, lam^2 p - p - 1."""
    return lam**2 * p - p - 1


def select_c(params: FlowParams) -> float:
    """Trapping constant: 64 lam^2 / (lam^2 - 3) for p = 1.

    For p >= 2 the analogous default 64 lam^2 / (lam^2 - (p+2)/p) is a
    monitored heuristic (it reduces to the p = 1 value), not a certificate;
    ``c_is_heuristic`` flags it and reports carry the flag.
    """
    lam, p = params.lam, params.p
    threshold_sq = (p + 2) / p
    if lam**2 <= threshold_sq:
        raise ValueError(f"lam={lam} at or below the admissible threshold for p={p}")
    return 64.0 * lam**2 / (lam**2 - threshold_sq)


def c_is_heuristic(p: int) -> bool:
    return p >= 2


@dataclass(frozen=True)
class HypothesisReport:
    holds: bool
    mean: float
    seminorm2: float
    margin: float


def check_hypothesis(psi: SpectralState, c: float) -> HypothesisReport:
    """Mean-vs-tail admission test: mean(psi) >= c * ||psi||_2 and psi > 0."""
    mean = psi.mean
    s2 = seminorm(psi, 2.0)
    margin = mean - c * s2
    positive = bool(np.min(synthesize(psi).values) > 0.0)
    return HypothesisReport(holds=bool(margin >= 0.0 and positive), mean=mean, seminorm2=s2, margin=margin)


def trap_margin(state: SpectralState, c: float) -> float:
    """Distance to the cone boundary: mean - c * max_n n^2 max(|Re|,|Im|)."""
    return state.mean - c * seminorm(state, 2.0)


@dataclass(frozen=True)
class TrapCertificate:
    """Margin series along a trajectory plus monitored decay parameters.

    The certificate holds iff the margin is nonnegative at every snapshot.
    gamma_fit is the fitted decay rate (in t) of the weighted tail and
    mu_fit the fitted mode-decay rate (in n) at the last snapshot; both are
    reported for comparison, never asserted.
    """

    c: float
    margins: list
    gamma_fit: float | None = None
    mu_fit: float | None = None

    @property
    def holds(self) -> bool:
        return all(m >= 0.0 for _, m in self.margins)

    @property
    def min_margin(self) -> float:
        return min(m for _, m in self.margins)


def fit_loglinear(x: np.ndarray, y: np.ndarray, trim_sigma: float = 3.0):
    """Least-squares slope of log y against x with one 3-sigma trim pass.

    Returns (slope, intercept, stderr_of_slope, n_used).
    """
    x = np.asarray(x, dtype=float)
    logy = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(x, logy, 1)
    resid = logy - (slope * x + intercept)
    sigma = np.std(resid)
    if sigma > 0:
        keep = np.abs(resid) <= trim_sigma * sigma
        if keep.sum() >= max(3, int(0.5 * len(x))) and keep.sum() < len(x):
            x, logy = x[keep], logy[keep]
            slope, intercept = np.polyfit(x, logy, 1)
            resid = logy - (slope * x + intercept)
    n = len(x)
    denom = np.sum((x - x.mean()) ** 2)
    stderr = math.sqrt(max(np.sum(resid**2), 0.0) / max(n - 2, 1) / denom) if denom > 0 else float("inf")
    return float(slope), float(intercept), float(stderr), n


def certify(traj: Trajectory, c: float) -> TrapCertificate:
    """Evaluate the trap margin at every snapshot and fit tail-decay rates."""
    coeffs = traj.coeffs
    if not len(coeffs):
        raise AnalysisError("trajectory has no snapshots")
    ts, k0 = traj.times, coeffs[:, 0].real
    tails = coeff_seminorm(coeffs, 2.0)
    margins = list(zip(ts.tolist(), (k0 - c * tails).tolist()))

    gamma_fit = None
    ok = tails > 1e3 * _EPS * k0.max()
    if ok.sum() >= 8:
        slope, _, _, _ = fit_loglinear(ts[ok], tails[ok])
        gamma_fit = -slope

    mu_fit = None
    mags = np.abs(coeffs[-1, 1:])
    above = mags > 1e3 * _EPS * k0[-1]
    if above.sum() >= 3:
        slope, _, _, _ = fit_loglinear(np.flatnonzero(above) + 1.0, mags[above])
        mu_fit = -slope

    return TrapCertificate(c=c, margins=margins, gamma_fit=gamma_fit, mu_fit=mu_fit)


def _gauss_newton_T(ts: np.ndarray, ys: np.ndarray, p: int, T0: float) -> float:
    """Refine T in y = ((p+1)/p) [(T-t) + c2 (T-t)^{1+2/(p+1)}] by Gauss-Newton."""
    gamma = 1.0 + 2.0 / (p + 1)
    slope = (p + 1) / p
    T, c2 = T0, 0.0
    for _ in range(4):
        d = T - ts
        if np.any(d <= 0):
            return T0
        model = slope * (d + c2 * d**gamma)
        r = ys - model
        jac_T = slope * (1.0 + c2 * gamma * d ** (gamma - 1.0))
        jac_c2 = slope * d**gamma
        J = np.stack([jac_T, jac_c2], axis=1)
        try:
            delta, *_ = np.linalg.lstsq(J, r, rcond=None)
        except np.linalg.LinAlgError:
            return T0
        if not np.all(np.isfinite(delta)):
            return T0
        T += float(delta[0])
        c2 += float(delta[1])
    return T if np.isfinite(T) and T > ts[-1] else T0


def estimate_T(traj: Trajectory) -> tuple[float, float]:
    """Blow-up time from the last decade of snapshots.

    Linear extrapolation of c[0]^{-(p+1)} against t, refined by the
    (T-t)^{1+2/(p+1)} correction term; the uncertainty is the spread of the
    estimate across sub-windows.  Requires the run to have reached
    c[0] >= 1e3.
    """
    p = traj.params.p
    k0 = traj.k0
    ts = traj.times
    if len(k0) < 12:
        raise AnalysisError(f"need at least 12 snapshots to estimate T, have {len(k0)}")
    k0_max = float(k0.max())
    if k0_max < 1e3:
        raise AnalysisError(f"trajectory only reached c[0]={k0_max:.3g}; need >= 1e3")
    sel = k0 >= k0_max / 10.0
    if sel.sum() < 8:
        order = np.argsort(k0)[-8:]
        sel = np.zeros_like(sel)
        sel[order] = True
    tw, yw = ts[sel], k0[sel] ** -(p + 1)

    def fit(tt, yy):
        # about the last time: near the t-resolution floor the t column alone
        # is nearly parallel to the constant one
        slope, intercept = np.polyfit(tt - tt[-1], yy, 1)
        return _gauss_newton_T(tt, yy, p, tt[-1] - intercept / slope)

    T_est = fit(tw, yw)
    thirds = np.array_split(np.arange(len(tw)), 3)
    estimates = [fit(tw[idx], yw[idx]) for idx in thirds if len(idx) >= 4]
    spread = max((abs(e - T_est) for e in estimates), default=0.0)
    return float(T_est), float(max(spread, 4.0 * _EPS * abs(T_est)))


@dataclass(frozen=True)
class RateFit:
    """A fitted exponent with its window and the number of points used."""

    exponent: float
    stderr: float
    window: tuple
    n_points: int

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError(f"rate fits need >= 8 points, got {self.n_points}")
        if not (self.window[0] < self.window[1]):
            raise ValueError(f"empty fit window {self.window}")


def fit_power(
    traj: Trajectory,
    T: float,
    n: int,
    window: tuple[float, float] = (1e-6, 1e-2),
) -> RateFit:
    """Log-log slope of |c[n](t)| against (T - t) over the given window.

    Snapshots where the mode sits at the round-off floor (1e3 * eps * c[0])
    are excluded; compare the result against alpha_exponent(lam, n, p).
    """
    if n < 1 or n > traj.params.n_max:
        raise AnalysisError(f"mode {n} outside the band 1..{traj.params.n_max}")
    ts = traj.times
    dts = T - ts
    mags = np.abs(traj.mode(n))
    floors = 1e3 * _EPS * traj.k0
    ok = (dts >= window[0]) & (dts <= window[1]) & (dts > 0) & (mags > floors)
    if ok.sum() < 8:
        in_window = ((dts >= window[0]) & (dts <= window[1]) & (dts > 0)).sum()
        raise AnalysisError(
            f"mode {n}: only {int(ok.sum())} usable points in (T-t) window {window} "
            f"({int(in_window)} snapshots in window, rest at round-off floor)"
        )
    slope, _, stderr, n_used = fit_loglinear(np.log(dts[ok]), mags[ok])
    lo, hi = float(dts[ok].min()), float(dts[ok].max())
    return RateFit(exponent=slope, stderr=stderr, window=(lo, hi), n_points=n_used)


def envelope_lower(p: int, T: float, t) -> np.ndarray:
    """Lower blow-up envelope (p/(p+1))^{1/(p+1)} [(T-t) + (T-t)^{1+2/(p+1)}]^{-1/(p+1)}."""
    d = np.asarray(T - np.asarray(t, dtype=float))
    bracket = d + d ** (1.0 + 2.0 / (p + 1))
    return (p / (p + 1)) ** (1.0 / (p + 1)) * bracket ** (-1.0 / (p + 1))


def envelope_upper(p: int, T: float, t) -> np.ndarray:
    """Upper envelope with the correction subtracted (valid for T - t < 1)."""
    d = np.asarray(T - np.asarray(t, dtype=float))
    bracket = d - d ** (1.0 + 2.0 / (p + 1))
    if np.any(bracket <= 0):
        raise AnalysisError("upper envelope undefined: need (T-t)^{2/(p+1)} < 1 in the window")
    return (p / (p + 1)) ** (1.0 / (p + 1)) * bracket ** (-1.0 / (p + 1))


@dataclass(frozen=True)
class EnvelopeReport:
    ok: bool
    n_checked: int
    window: tuple
    worst_low: float
    worst_high: float


def envelope_check(
    traj: Trajectory, T: float, window: tuple[float, float] = (1e-4, 1e-3)
) -> EnvelopeReport:
    """Check lower <= c[0](t) <= upper over a (T - t) window.

    The default window is the last decade in which the check is numerically
    meaningful: deeper decades would require T to be known to better than
    (T-t)^{1+2/(p+1)}, which is below double-precision resolution.
    """
    p = traj.params.p
    ts = traj.times
    d = T - ts
    sel = (d >= window[0]) & (d <= window[1])
    if sel.sum() < 1:
        raise AnalysisError(f"no snapshots with (T-t) in {window}")
    k0 = traj.k0[sel]
    lower = envelope_lower(p, T, ts[sel])
    upper = envelope_upper(p, T, ts[sel])
    low_margin = float(np.min(k0 - lower))
    high_margin = float(np.min(upper - k0))
    return EnvelopeReport(
        ok=bool(low_margin >= 0.0 and high_margin >= 0.0),
        n_checked=int(sel.sum()),
        window=window,
        worst_low=low_margin,
        worst_high=high_margin,
    )
