"""Adaptive time integration of the mode system up to (near) blow-up.

One raw-array core serves both flows: a Lawson integrating-factor form of
the Dormand-Prince 5(4) pair (Lawson 1967; Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6).  It integrates y' = L y + N(y) for a diagonal rate vector
L held fixed over each step, with stages

    Y_i = exp(c_i h L) y + h sum_j a_ij exp((c_i - c_j) h L) K_j,  K_j = N(Y_j),

and the order-5 update and embedded error estimate use the same factors at
c = 1.  Each factor is one exp of a difference of nodes (never a ratio of
exponentials, which is 0/0 once a stiff rate underflows), so the linear part
is integrated exactly and sets no step limit: error control alone sets the
step.  With L = 0 the core is plain DP5 (``step``).  Besides the modes, the
state has one clock slot (rate 0) from which the model time t follows.  Stage
7, N(y_new), is the next step's first (FSAL): an accepted step costs six RHS
evaluations, and its padded-grid profile gives the positivity check.  The
error norm is mixed (II.4), with abs_tol max(1, |c[0]|) on the modes, in units
of the mean like the FFT round-off of N, and abs_tol on the clock slot.

The core takes only the controller's steps.  Snapshots come from each
accepted step's continuous extension, one formula for every mode:

    y(s0 + theta h) = exp(theta z) y + h sum_{k=1..4} k! theta^k phi_k(theta z) P_k,  z = h L,

with P_k = sum_j p_jk K_j from DP5's dense-output weights b_j(theta) =
sum_k p_jk theta^k (``contd5``, II.6): the exact solution of y' = L y + N(s)
for N(s) the derivative of DP5's own dense output (the phi-functions of
exponential integrators; Hochbruck & Ostermann, Acta Numerica 19, 2010, 2),
so DP5's extension at L = 0, and free of overflow on a stiff mode.  In both
flows a snapshot is the point where one slot of the state reaches the next of
an increasing list of levels: each level that an accepted step crosses is
located on the extension of y[slot] at theta in (0, 1], and the snapshot is
the extension there with that slot set exactly to the level, its profile from
one batched irfft of the step's points.  The run ends on its last level.  No
step may grow the mean by more than a decade: h max(L) <= ln 10.

The blow-up flow runs on the clock ds = c[0]^{p+1} dt, with the constant rates
L_n = (p+2)/p - lam^2 n^2 (L_0 = 1/p) of the mode system's diagonal part; its
levels are a log ladder in c[0].  The normalized flow runs on tau, with the
rates of its linearization at the circle of its current mean; its levels are
tau marks.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .blowup import _STOP_TOL, circle_time, trap_margin
from .errors import IntegrationError, PositivityError
from .rhs import RhsPlan, diagonal_rates, rhs_fast
from .spectral import SpectralState

__all__ = ["StepControl", "RunStats", "Trajectory", "step", "integrate", "integrate_normalized"]

# Dormand-Prince 5(4) tableau: nodes _C, row i of _A combines stages 1..i into
# stage i+1, and the last row is the order-5 weights, so stage 7 is f(y_new).
# _E is the difference against the order-4 weights.
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
_A = [
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

# The Lawson tableau as weight rows over z = (y, K_1, ..., K_7): the row of
# stage i+1 is (1, h a_i) times exp((c_i - (0, c_1..c_i)) h L), and the error
# row is (0, h e) times exp((1 - (0, c)) h L); row i spans _ROWS[i - 1].
# Columns, one entry per row, to broadcast against the rates.
_EXPO = np.concatenate([_C[i] - np.r_[0.0, _C[:i]] for i in range(1, 7)] + [1 - np.r_[1.0, _C]])[:, None]
_UNIT = np.concatenate([np.r_[1.0, np.zeros(i)] for i in range(1, 7)] + [np.zeros(8)])[:, None]
_COEF = np.concatenate([np.r_[0.0, row] for row in _A] + [np.r_[0.0, _E]])[:, None]
_ROWS = [slice((i - 1) * (i + 2) // 2, (i - 1) * (i + 2) // 2 + i + 1) for i in range(1, 8)]

# DP5's dense output (contd5) y + h sum_k theta^k P_k, P_k = _DENSE[k - 1] @ K: from the
# order-5 weights _B, K_1, the FSAL stage K_7 and the weights _D of theta^2 (1 - theta)^2.
_B = np.r_[_A[-1], 0.0]
_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799, -10690763975 / 1880347072])
_D = np.r_[_D, 701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423]
_K1, _K7 = np.eye(7)[[0, 6]]
_DENSE = np.array([_K1, 3 * _B - 2 * _K1 - _K7 + _D, _K1 + _K7 - 2 * _B - 2 * _D, _D])

# 1/k!, k = 0..19: phi_k(0) and phi_4's Taylor coefficients (to x^15/19!, 1e-17 of phi_4 at |x| < 1).
_INV_FACT = [1 / math.factorial(k) for k in range(20)]


def _phi(x):
    """phi_0(x)..phi_4(x), stacked on a new leading axis for an array x, where
    phi_0 = exp and phi_{k+1}(x) = (phi_k(x) - 1/k!)/x.  The recurrence runs
    upward from exp where |x| >= 1; below that, where it would cancel, phi_4 is
    its Taylor series sum_i x^i/(i+4)! and the recurrence runs downward."""
    if np.ndim(x) == 0:
        return _phi_branch(x, abs(x) < 1.0)
    small = np.abs(x) < 1.0
    return np.where(small, _phi_branch(np.where(small, x, 0.0), True), _phi_branch(np.where(small, 1.0, x), False))


def _phi_branch(x, series: bool) -> list:
    if not series:
        phi = [np.exp(x)]
        for k in range(4):
            phi.append((phi[-1] - _INV_FACT[k]) / x)
        return phi
    phi = [0.0]  # Horner on phi_4's series, whose last four steps are the recurrence down
    for k in range(19, -1, -1):
        if k < 4:
            phi.insert(0, phi[0])
        phi[0] = phi[0] * x + _INV_FACT[k]
    return phi


def _extend(theta, z, y, hp):
    """A step's extension (module docstring) with z = h L and hp = h P, at a
    float theta or a column of them."""
    phi = _phi(theta * z)
    return phi[0] * y + sum(math.factorial(k) * theta**k * phi[k] * hp[k - 1] for k in range(1, 5))


@dataclass(frozen=True)
class StepControl:
    """Error tolerances, step bounds, the stopping threshold and snapshot
    spacing."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_step: float = 1.0
    min_step: float = 1e-18
    k0_stop: float = 1e6
    snapshots_per_decade: int = 40

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "min_step", "k0_stop"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # an infinite k0_stop has no last rung
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if isinstance(self.snapshots_per_decade, bool) or not isinstance(self.snapshots_per_decade, int):
            raise ValueError(f"snapshots_per_decade must be an integer, got {self.snapshots_per_decade!r}")
        if self.min_step > self.max_step:
            raise ValueError("min_step must not exceed max_step")
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is round-off dominated")
        if not 1 <= self.snapshots_per_decade <= MAX_SNAPSHOTS_PER_DECADE:
            raise ValueError(f"snapshots_per_decade must be between 1 and {MAX_SNAPSHOTS_PER_DECADE}")


@dataclass
class RunStats:
    """What one run did: ``accepted`` and ``rejected`` count the controller's
    steps, six RHS evaluations each, so ``rhs_evals`` is 1 + 6 (accepted +
    rejected) in either flow; snapshots cost none.  dt spans the steps the
    core advanced by that moved t, in model time; ``min_trap_margin`` covers
    the start, every rung recorded and every step's end."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    dt_min: float = 0.0
    dt_max: float = 0.0
    min_trap_margin: float | None = None
    wall_s: float = 0.0


@dataclass
class Trajectory:
    """Time-ordered snapshots plus run events and the estimated blow-up time.

    Event kinds: blow_up_stop, positivity_loss, trap_violation, step_floor.
    ``stats`` is the integrator's ``RunStats`` for the run.
    """

    params: object
    snapshots: list = field(default_factory=list)
    events: list = field(default_factory=list)
    T_est: float | None = None
    stats: RunStats | None = None

    def append(self, state: SpectralState):
        if self.snapshots and not (state.t > self.snapshots[-1].t):
            raise ValueError("snapshot times must be strictly increasing")
        self.snapshots.append(state)

    def add_event(self, t: float, kind: str, detail: str = ""):
        self.events.append((float(t), kind, detail))

    def has_event(self, kind: str) -> bool:
        return any(e[1] == kind for e in self.events)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def coeffs(self) -> np.ndarray:
        """The snapshots' half spectra stacked by row, shape (N, n_max + 1)."""
        return np.array([s.coeffs for s in self.snapshots], np.complex128).reshape(-1, self.params.n_max + 1)

    @property
    def k0(self) -> np.ndarray:
        return self.coeffs[:, 0].real

    def mode(self, n: int) -> np.ndarray:
        return self.coeffs[:, n]


def step(
    state: SpectralState, dt: float, control: StepControl, rhs=rhs_fast
) -> tuple[SpectralState, float]:
    """Advance one DP5 step of size dt; returns the new state and the scaled
    embedded-pair error norm used by the controller (accept when <= 1).  A
    non-finite stage raises ``IntegrationError``."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    def modes(y, out):  # the slot is t itself, at rate 1; no profile to check
        out[:-1], out[-1] = rhs(state.with_coeffs(y[:-1])), 1.0
        return np.ones(1)

    trial = _Stepper(state.params, np.append(state.coeffs, state.t), control, modes).attempt(dt)
    if trial.err == math.inf:
        raise IntegrationError(f"non-finite derivative at t={state.t:.6g} (|y|max={np.max(np.abs(trial.y)):.3e})")
    return state.with_coeffs(trial.y[:-1], t=state.t + dt), trial.err


# Most snapshots_per_decade: the rung ratio 10^(1/spd) rounds to 1 from about
# 2e16 on, a ladder without end, and 1e9 would build 6e9 rungs for six decades.
MAX_SNAPSHOTS_PER_DECADE = 10_000

# Bounds on the factor by which the controller changes the step after a trial.
_GROW, _SHRINK = 5.0, 0.2

# Steps a run may try before it ends in a step_floor event.
_MAX_STEPS = 2_000_000

# Most growth of the mean in one step, h max(L) <= ln 10: a decade.  The error
# estimate checks a step's end, not its extension, and near the circle it
# fades: on the exact circle the step would grow 5x a try, to h = 31 and
# over 100 rungs at once.  Rates <= 0 (the normalized flow) leave it inactive.
_SPAN = math.log(10.0)

# Newton iterations locating a level, and the gap |log(y[slot] / level)| that
# ends them: a few ulps, above the round-off of evaluating the extension.
_ROOT_STEPS, _ROOT_TOL = 60, 2e-15

# Spacing in tau of the normalized flow's snapshots when no marks are given.
_TAU_INTERVAL = 0.1

# Gap in tau within which two marks, or a mark and the start, count as one.
_MARK_TOL = 1e-12


def _controller_factor(err_norm: float) -> float:
    return _GROW if err_norm == 0.0 else min(_GROW, max(_SHRINK, 0.9 * err_norm ** (-0.2)))


# A step tried from the current point: length h on the core's clock, end point
# y, stages ks (ks[6] is N(y)), y's padded-grid profile and scaled error norm.
_Trial = namedtuple("_Trial", "h y ks grid err")


class _Stepper:
    """The raw-array core: the point y = (c[0..n_max], clock slot), its FSAL
    N(y) and profile grid from ``rhs(y, out)`` (which writes N(y) into out and
    returns y's profile grid), the diagonal ``rates`` L (zero: plain DP5),
    ``clock(y)`` giving the model time t and dt/ds (default: t is the slot),
    the adaptive loop with its snapshot policy and the run's ``RunStats``."""

    def __init__(self, params, y, control: StepControl, rhs, rates=None, clock=lambda y: (float(y[-1].real), 1.0)):
        self.params, self.control, self.rhs, self.clock = params, control, rhs, clock
        self.rates = np.zeros(y.size) if rates is None else rates
        self.stats, self.start = RunStats(rhs_evals=1, dt_min=math.inf), time.perf_counter()
        self.y, self.f = y, np.empty_like(y)
        self.grid = self.rhs(y, self.f)  # the first evaluation
        gmin = float(self.grid.min())
        if gmin <= 0.0:
            raise PositivityError(f"initial profile must be strictly positive; grid min {gmin:.3e}")

    @property
    def t(self) -> float:
        return self.clock(self.y)[0]

    def state(self) -> SpectralState:
        return SpectralState(self.params, self.t, self.y[:-1])

    def attempt(self, h: float) -> _Trial:
        """One Lawson DP5(4) step of length h from the current point, without
        moving; a non-finite stage gives error norm inf."""
        y = self.y
        z = np.empty((8, y.size), dtype=np.complex128)
        z[0], z[1] = y, self.f
        w = (_UNIT + _COEF * h) * np.exp(_EXPO * h * self.rates)
        for i, rows in enumerate(_ROWS[:6], 2):
            y_new = np.einsum("jn,jn->n", w[rows], z[:i])
            grid = self.rhs(y_new, z[i])
        self.stats.rhs_evals += 6
        err = np.einsum("jn,jn->n", w[_ROWS[6]], z)
        scale = self.control.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        scale[:-1] += self.control.abs_tol * max(1.0, abs(y[0]))
        scale[-1] += self.control.abs_tol
        norm = math.sqrt(np.add.reduce(np.abs(err / scale) ** 2) / y.size)
        return _Trial(h, y_new, z[1:], grid, math.inf if math.isnan(norm) else norm)

    def locate(self, trial: _Trial, hp: np.ndarray, slot: int, levels: list) -> np.ndarray:
        """theta in (0, 1] where the extension of ``trial`` (hp = h P) reaches
        each of the increasing ``levels`` above y[slot] in that slot: linear in
        a clock slot (rate 0, N = 1); else exp(theta z) times a slowly varying
        factor, so Newton on its log from the secant, bisecting when an iterate
        leaves the bracket.  A level the extension's end misses is at 1."""
        y0, rate = self.y[slot].real, self.rates[slot]
        if rate == 0.0:
            return np.minimum((np.array(levels) - y0) / trial.h, 1.0)
        z, hp = trial.h * rate, hp[:, slot].real

        def at(theta: float) -> tuple[float, float]:  # y[slot] and its theta-derivative z y + h N
            value = _extend(theta, z, y0, hp)
            return value, z * value + sum(k * theta ** (k - 1) * hp[k - 1] for k in range(1, 5))

        top, lo, below, thetas = at(1.0)[0], 0.0, y0, []
        for level in levels:
            theta = hi = 1.0
            if top >= level:
                theta = lo + (hi - lo) * math.log(level / below) / math.log(top / below)
                for _ in range(_ROOT_STEPS):
                    value, slope = at(theta)
                    gap = math.log(value / level) if value > 0.0 else -math.inf
                    if abs(gap) <= _ROOT_TOL:
                        break
                    lo, hi = (theta, hi) if gap < 0.0 else (lo, theta)
                    newton = theta - gap * value / slope if slope > 0.0 else math.nan
                    theta = newton if lo < newton < hi else 0.5 * (lo + hi)
            thetas.append(theta)
            lo, below = theta, level
        return np.array(thetas)

    def visit(self, traj, t: float, record: bool) -> bool:
        """Check the point the core moved to from time t: record it when asked
        or when its profile is no longer positive; True when that ends the run,
        in positivity_loss, or in step_floor once t no longer tells the point
        from the last snapshot."""
        gmin = float(self.grid.min())
        if record or gmin <= 0.0:
            if self.t <= traj.snapshots[-1].t:
                traj.add_event(t, "step_floor", "model time no longer advances")
                return True
            traj.append(self.state())
        if gmin <= 0.0:
            traj.add_event(self.t, "positivity_loss", f"grid min={gmin:.3e}")
            return True
        return False

    def run(self, traj, h: float, slot: int, levels: list, moved, profile) -> bool:
        """The adaptive loop both flows share: y[slot] reaches the increasing
        ``levels`` in turn (module docstring); True when it reached the last.
        ``moved(end)`` runs at each point the core moves onto, ``end`` at a
        step's end, and ``profile`` is the flow's ``RhsPlan.profile``, the
        padded grids of the levels' points.  ``max_step`` and the step floor
        act on dt = h dt/ds.  Ends on the point reached, appended unless
        recorded, and fills ``traj.stats``."""
        control, stats, k, ended = self.control, self.stats, 0, False
        for _ in range(_MAX_STEPS):
            if reached := k == len(levels):
                break
            t, speed = self.clock(self.y)
            grow = float(self.rates.max())
            proposal = min(h, control.max_step / speed, _SPAN / grow if grow > 0.0 else math.inf)
            dt = proposal * speed
            if t + dt == t or dt < control.min_step:
                traj.add_event(t, "step_floor", f"dt={dt:.3e}")
                break
            trial = self.attempt(proposal)
            h = proposal * _controller_factor(trial.err)
            if trial.err > 1.0:
                stats.rejected += 1
                continue
            stats.accepted += 1
            first, k = k, bisect_right(levels, trial.y[slot].real, k)
            points = []
            if k > first:  # the levels crossed, each a point on the extension
                hp = trial.h * (_DENSE @ trial.ks)
                thetas = self.locate(trial, hp, slot, levels[first:k])
                ys = _extend(thetas[:, None], trial.h * self.rates, self.y, hp)
                ys[:, slot] = levels[first:k]
                points = list(zip(ys, profile(ys[:, :-1])))
            if k < len(levels):
                points.append((trial.y, trial.grid))
            for y, grid in points:
                self.y, self.grid = y, grid
                end = y is trial.y
                if end:
                    self.f = trial.ks[6]
                moved(end)
                if ended := self.visit(traj, t, not end):
                    break
            dt = self.t - t
            if dt > 0.0:  # near the step floor an accepted step may no longer move t
                stats.dt_min, stats.dt_max = min(stats.dt_min, dt), max(stats.dt_max, dt)
            if ended:
                break
        else:
            traj.add_event(self.t, "step_floor", "max_steps exhausted")
        if self.t > traj.snapshots[-1].t:
            traj.append(self.state())
        stats.dt_min = stats.dt_min if stats.dt_max else 0.0
        stats.wall_s = time.perf_counter() - self.start
        traj.stats = stats
        return reached


def integrate(
    init: SpectralState,
    control: StepControl | None = None,
    trap_c: float | None = None,
) -> Trajectory:
    """Integrate the mode system until c[0] reaches k0_stop or a failure event.

    The core runs on the clock ds = c[0]^{p+1} dt, where the diagonal part of
    the mode system has the constant rates L_n = (p+2)/p - lam^2 n^2 (L_0 =
    1/p), integrated exactly, and N(c) = rhs(c)/c[0]^{p+1} - L c.  The clock
    slot holds the running blow-up time z = t + ``circle_time``(p, c[0]), with
    dz/ds = -p c[0]^{-(p+2)} N_0: it is constant on the circle, so the step
    adds no quadrature error of dt/ds ~ exp(-(p+1) s/p) to T - t, which the
    normalized-frame analysis needs to far below rel_tol.
    Snapshots are the points of the steps' extensions where c[0] is on a rung
    of the log ladder (snapshots_per_decade per decade; module docstring), and
    the run ends on the first rung at k0_stop or above.  No step grows c[0] by
    more than a decade.  With ``trap_c`` the trapping margin is checked at the
    start, at every rung and at every step's end; a trap_violation event marks
    each turn negative (the run continues).
    """
    control = control or StepControl()
    p, lam, n_max = init.params.p, init.params.lam, init.params.n_max
    evaluate, n = RhsPlan(init.params), np.arange(1, n_max + 1)
    rates = np.r_[1 / p, diagonal_rates(p, lam, n), 0.0]
    mode_rates = rates[:-1].astype(np.complex128)  # cast once, not in every L c (same bits)

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        c = y[:-1]
        deriv, grid = evaluate(c)
        c0 = c[0].real
        speed = c0 ** -(p + 1)
        nonlinear = np.subtract(deriv * speed, mode_rates * c, out=out[:-1])
        out[-1] = -p * speed / c0 * nonlinear[0]
        return grid

    def clock(y: np.ndarray) -> tuple[float, float]:
        return float(y[-1].real) - circle_time(p, y[0].real), y[0].real ** -(p + 1)

    z0 = init.t + circle_time(p, init.mean)
    core = _Stepper(init.params, np.append(init.coeffs, z0), control, rhs, rates, clock)
    traj = Trajectory(params=init.params, snapshots=[init])
    ratio = 10.0 ** (1.0 / control.snapshots_per_decade)
    # the ladder up to the first rung at k0_stop or above; a rung that the
    # repeated products put within tolerance below k0_stop counts as on it
    stop, rungs, level = control.k0_stop * (1.0 - _STOP_TOL), [], init.mean
    while level < stop:
        level *= ratio
        rungs.append(level)
    negative = False

    def moved(end: bool):
        nonlocal negative
        if trap_c is None:
            return
        margin = float(trap_margin(core.y[:-1], trap_c))
        core.stats.min_trap_margin = min(core.stats.min_trap_margin, margin)
        if margin < 0.0 and not negative:
            traj.add_event(core.t, "trap_violation", f"margin={margin:.6e}")
        negative = margin < 0.0

    if trap_c is not None:
        core.stats.min_trap_margin = math.inf
        moved(False)
    if core.run(traj, 0.01 * p, 0, rungs, moved, evaluate.profile):
        traj.add_event(core.t, "blow_up_stop", f"k0={core.y[0].real:.6e}")
    return traj


def integrate_normalized(
    init: SpectralState,
    tau_horizon: float,
    control: StepControl | None = None,
    renormalize_mean: bool = False,
    tau_snapshots: list[float] | None = None,
) -> Trajectory:
    """Integrate the normalized flow to tau = tau_horizon.

    The steady state u == 1 has one linearly unstable direction (the mean,
    rate p+1, the scaling mode).  With ``renormalize_mean`` the run starts at
    mean 1 and the field's mean derivative is 0, so every stage keeps the mean
    exactly 1 at no extra evaluation; this quotients that gauge direction, as
    clean rate measurements need once the unstable contamination (seeded at
    O(deviation^2) by the quadratic coupling) would outgrow the decaying modes.
    The core's rates are the linearization's at the circle of the current mean
    m, L_n = p m^{p+1} D_n - 1 with D_n the blow-up flow's ``diagonal_rates``,
    and 0 on the mean, the gauge direction, so N = 0 on every circle.  L is
    refrozen at the new mean after each accepted step (the frozen linearization
    of exponential Rosenbrock methods; Hochbruck & Ostermann, Acta Numerica 19,
    2010, 4).  Snapshots are the points of the steps' extensions (module
    docstring) at the marks ``tau_snapshots`` in (init.t, tau_horizon], else at
    the multiples of 0.1 (``_TAU_INTERVAL``) and at tau_horizon; the first step
    is no longer than to the first mark, marks within 1e-12 of the one before
    (or of the start) count once, and the run ends on its last mark.
    """
    control = control or StepControl()
    p, lam, n = init.params.p, init.params.lam, np.arange(1, init.params.n_max + 1)
    state = init.with_coeffs(np.r_[1.0, init.coeffs[1:]]) if renormalize_mean else init
    evaluate = RhsPlan(init.params)

    def frozen(mean: float) -> np.ndarray:
        return np.r_[0.0, p * mean ** (p + 1) * diagonal_rates(p, lam, n) - 1.0, 0.0]

    rates = frozen(state.mean)

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        c = y[:-1]
        deriv, grid = evaluate(c)
        deriv = p * deriv - c
        deriv[0] = 0.0 if renormalize_mean else deriv[0].real
        np.subtract(deriv, rates[:-1] * c, out=out[:-1])
        out[-1] = 1.0
        return grid

    core = _Stepper(state.params, np.append(state.coeffs, state.t), control, rhs, rates)
    traj = Trajectory(params=init.params, snapshots=[state])

    if tau_snapshots is None:
        tau_snapshots = [j * _TAU_INTERVAL for j in range(1, int(tau_horizon / _TAU_INTERVAL) + 1)] + [tau_horizon]
    marks = []  # each more than _MARK_TOL past the mark before it, or past the start
    for mark in sorted(t for t in tau_snapshots if t <= tau_horizon):
        if mark > (marks[-1] if marks else state.t) + _MARK_TOL:
            marks.append(mark)

    def moved(end: bool):
        if end:  # refreeze L (the core's rates too) at the new mean; N = p evaluate(y) - y - L y moves with it
            new = frozen(core.y[0].real)
            core.f += (rates - new) * core.y
            rates[:] = new

    h = min(control.max_step, marks[0] - state.t) if marks else control.max_step
    core.run(traj, h, -1, marks, moved, evaluate.profile)
    return traj
