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

The blow-up flow runs on the clock ds = c[0]^{p+1} dt, with the constant rates
L_n = (p+2)/p - lam^2 n^2 (L_0 = 1/p) of the mode system's diagonal part;
``max_step``, ``min_step`` and the step floor act on model time.  The
normalized flow runs on tau, with the rates of its linearization at the circle
of its current mean.  Blow-up snapshots sit on a log ladder in c[0]; a step
that would reach the next rung is aimed at it, its length the root of the
predicted c[0](h) (event location, II.6), so it is the snapshot.  One that
misses by over 1e-12 of the rung, or a plain step across it, is redone with
Newton corrections on the real step from the FSAL dc[0]/ds.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, PositivityError
from .rhs import RhsPlan, diagonal_rates, rhs_fast
from .spectral import SpectralState, coeff_seminorm

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
_EXPO = np.concatenate([_C[i] - np.r_[0.0, _C[:i]] for i in range(1, 7)] + [1 - np.r_[1.0, _C]])
_UNIT = np.concatenate([np.r_[1.0, np.zeros(i)] for i in range(1, 7)] + [np.zeros(8)])
_COEF = np.concatenate([np.r_[0.0, row] for row in _A] + [np.r_[0.0, _E]])
_ROWS = [slice((i - 1) * (i + 2) // 2, (i - 1) * (i + 2) // 2 + i + 1) for i in range(1, 8)]


@dataclass(frozen=True)
class StepControl:
    """Error tolerances, stopping thresholds and snapshot spacing.  ``safety``
    is still validated and accepted in configs, but no flow reads it."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    safety: float = 0.8
    max_step: float = 1.0
    min_step: float = 1e-18
    k0_stop: float = 1e6
    snapshots_per_decade: int = 40
    tau_snapshot_interval: float = 0.1

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "safety", "max_step", "min_step", "k0_stop"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rel_tol < 1e-13:
            raise ValueError("rel_tol below 1e-13 is round-off dominated")
        if self.safety > 1.0:
            raise ValueError("safety factor must lie in (0, 1]")
        if self.snapshots_per_decade < 1:
            raise ValueError("snapshots_per_decade must be >= 1")


@dataclass
class RunStats:
    """What one run did.  ``landing`` counts the accepted steps aimed at a
    blow-up rung and their redos, ``accepted`` the other accepted steps; dt
    spans both, in model time; ``min_trap_margin`` covers the start and every
    accepted step.  No flow has a stiffness cap: ``cap_bound_frac`` reads 0 (old trailers carry it)."""

    accepted: int = 0
    rejected: int = 0
    landing: int = 0
    rhs_evals: int = 0
    cap_bound_frac: float = 0.0
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
    embedded-pair error norm used by the controller (accept when <= 1)."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    def modes(y):  # the slot is t itself, at rate 1
        return rhs(state.with_coeffs(y[:-1])), 1.0, None

    trial = _Stepper(state.params, np.append(state.coeffs, state.t), control, modes).attempt(dt)
    return state.with_coeffs(trial.y[:-1], t=state.t + dt), trial.err


def _own_clock(y: np.ndarray) -> tuple[float, float]:
    """Model time t in the last slot, stepped on itself: (t, dt/ds = 1)."""
    return float(y[-1].real), 1.0


def _controller_factor(err_norm: float, grow: float = 5.0, shrink: float = 0.2) -> float:
    return grow if err_norm == 0.0 else min(grow, max(shrink, 0.9 * err_norm ** (-0.2)))


# A step tried from the current point: its size h on the core's clock, end
# point y, the seven stages (ks[6] is N(y)), the padded-grid profile of y and
# the scaled error norm.
_Trial = namedtuple("_Trial", "h y ks grid err")

# Relative gap to a rung within which a landing step counts as on it.
_LANDING_TOL = 1e-12


class _Stepper:
    """The raw-array core: the point y = (c[0..n_max], clock slot), its FSAL
    N(y) and profile grid from ``rhs(y)`` (N on the modes, N on the slot, grid),
    the diagonal ``rates`` L (zero: plain DP5), ``clock(y)`` giving the model
    time t and dt/ds, the adaptive loop and the run's ``RunStats``."""

    def __init__(self, params, y, control: StepControl, rhs, rates=None, clock=_own_clock):
        self.params, self.control, self.rhs, self.clock = params, control, rhs, clock
        self.rates = np.zeros(y.size) if rates is None else rates
        self.stats, self.start = RunStats(dt_min=math.inf), time.perf_counter()
        self.reset(y)
        gmin = 1.0 if self.grid is None else float(self.grid.min())
        if gmin <= 0.0:
            raise PositivityError(f"initial profile must be strictly positive; grid min {gmin:.3e}")

    @property
    def t(self) -> float:
        return self.clock(self.y)[0]

    def state(self) -> SpectralState:
        return SpectralState(self.params, self.t, self.y[:-1])

    def reset(self, y: np.ndarray):  # move to y at the current time
        self.y, self.f = y, np.empty_like(y)
        self.f[:-1], self.f[-1], self.grid = self.rhs(y)
        self.stats.rhs_evals += 1

    def attempt(self, h: float) -> _Trial:
        """One Lawson DP5(4) step of size h from the current point, without moving."""
        y, z = self.y, np.empty((8, self.y.size), dtype=np.complex128)
        z[0], z[1] = y, self.f
        w = (_UNIT + h * _COEF)[:, None] * np.exp(np.multiply.outer(h * _EXPO, self.rates))
        for i, rows in enumerate(_ROWS[:6], 2):
            y_new = np.einsum("jn,jn->n", w[rows], z[:i])
            z[i, :-1], z[i, -1], grid = self.rhs(y_new)
        self.stats.rhs_evals += 6
        err = np.einsum("jn,jn->n", w[_ROWS[6]], z)
        if not np.all(np.isfinite(err)):
            raise IntegrationError(
                f"non-finite derivative at t={self.t:.6g} (|y|max={np.max(np.abs(y_new)):.3e})"
            )
        scale = self.control.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        scale[:-1] += self.control.abs_tol * max(1.0, abs(y[0]))
        scale[-1] += self.control.abs_tol
        return _Trial(h, y_new, z[1:], grid, float(np.sqrt(np.mean(np.abs(err / scale) ** 2))))

    def accept(self, trial: _Trial):
        self.y, self.f, self.grid = trial.y, trial.ks[6], trial.grid

    def land(self, trial: _Trial, level: float) -> _Trial:
        """Newton on the real step from ``trial``, an accepted step aimed at or
        across c[0] == level: redo it with h += gap / (dc[0]/ds) at its end until
        c[0] is within 1e-12 of level (at most four redos, each a landing step)."""
        for _ in range(4):
            gap = level - trial.y[0].real
            if abs(gap) <= _LANDING_TOL * level:
                break
            trial = self.attempt(trial.h + gap / (self.rates[0] * trial.y[0].real + trial.ks[6, 0].real))
            self.stats.landing += 1
        return trial

    def run(self, traj, h, max_steps, done, settle, clip):
        """The adaptive loop both flows share; True when ``done()`` ended it.
        Steps h are on the core's clock s; ``max_step`` and the step floor act
        on the model-time step dt = h dt/ds.  ``clip(h)`` may shorten a step onto
        a mark, and the next starts from the unclipped h; ``settle(trial)``
        moves onto an accepted trial and says whether to record the new point,
        a step_floor once t no longer tells it from the last snapshot.  Fills
        ``traj.stats``."""
        control, stats, finished = self.control, self.stats, False
        for _ in range(max_steps):
            if finished := done():
                break
            t, speed = self.clock(self.y)
            proposal = min(h, control.max_step / speed)
            h = clip(proposal)
            dt = h * speed
            if t + dt == t or dt < control.min_step:
                traj.add_event(t, "step_floor", f"dt={dt:.3e}")
                break
            trial = self.attempt(h)
            if trial.err > 1.0:
                stats.rejected += 1
                h *= _controller_factor(trial.err)
                continue
            stats.accepted += 1
            record = settle(trial)
            dt = self.t - t
            stats.dt_min, stats.dt_max = min(stats.dt_min, dt), max(stats.dt_max, dt)
            gmin = float(self.grid.min())
            if record or gmin <= 0.0:
                if self.t <= traj.snapshots[-1].t:
                    traj.add_event(t, "step_floor", "model time no longer advances")
                    break
                traj.append(self.state())
            if gmin <= 0.0:
                traj.add_event(self.t, "positivity_loss", f"grid min={gmin:.3e}")
                break
            h = proposal if h < proposal else h * _controller_factor(trial.err)
        else:
            traj.add_event(self.t, "step_floor", "max_steps exhausted")
        stats.dt_min = stats.dt_min if stats.accepted else 0.0
        stats.wall_s = time.perf_counter() - self.start
        traj.stats = stats
        return finished


def integrate(
    init: SpectralState,
    control: StepControl | None = None,
    trap_c: float | None = None,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate the mode system until c[0] reaches k0_stop or a failure event.

    The core runs on the clock ds = c[0]^{p+1} dt, where the diagonal part of
    the mode system has the constant rates L_n = (p+2)/p - lam^2 n^2 (L_0 =
    1/p), integrated exactly, and N(c) = rhs(c)/c[0]^{p+1} - L c.  The clock
    slot holds the running blow-up time z = t + p/(p+1) c[0]^{-(p+1)}, with
    dz/ds = -p c[0]^{-(p+2)} N_0: it is constant on the circle, so the step
    adds no quadrature error of dt/ds ~ exp(-(p+1) s/p) to T - t, which the
    normalized-frame analysis needs to far below rel_tol.
    Snapshots land on each rung of the log ladder in c[0] (snapshots_per_decade
    per decade), each by the step aimed at it.  With ``trap_c`` the trapping
    margin is checked at the start and at every accepted step; a trap_violation
    event marks each turn negative (the run continues).
    """
    control = control or StepControl()
    p, lam, n_max = init.params.p, init.params.lam, init.params.n_max
    plan, n = RhsPlan(init.params), np.arange(1, n_max + 1)
    rates = np.r_[1 / p, diagonal_rates(p, lam, n), 0.0]

    def rhs(y: np.ndarray):
        c = y[:-1]
        deriv, grid = plan(c)
        speed = c[0].real ** -(p + 1)
        nonlinear = deriv * speed - rates[:-1] * c
        return nonlinear, -p * speed / c[0].real * nonlinear[0], grid

    def clock(y: np.ndarray) -> tuple[float, float]:
        speed = y[0].real ** -(p + 1)
        return float(y[-1].real) - p / (p + 1) * speed, speed

    z0 = init.t + p / (p + 1) * init.mean ** -(p + 1)
    core = _Stepper(init.params, np.append(init.coeffs, z0), control, rhs, rates, clock)
    traj = Trajectory(params=init.params, snapshots=[init])
    ratio = 10.0 ** (1.0 / control.snapshots_per_decade)
    next_level, negative, aimed, decay = init.mean * ratio, False, False, 0.0

    def watch_trap():
        nonlocal negative
        margin = float(core.y[0].real) - trap_c * coeff_seminorm(core.y[:-1], 2.0)
        core.stats.min_trap_margin = min(core.stats.min_trap_margin, margin)
        if margin < 0.0 and not negative:
            traj.add_event(core.t, "trap_violation", f"margin={margin:.6e}")
        negative = margin < 0.0

    def settle(trial: _Trial) -> bool:
        nonlocal next_level, decay
        landing = aimed or trial.y[0].real >= next_level
        if landing:
            if aimed:  # the step aimed at the rung is a landing step, not a plain one
                core.stats.accepted -= 1
                core.stats.landing += 1
            trial = core.land(trial, next_level)
            next_level *= ratio
        start, end = trial.ks[0, 0].real, trial.ks[6, 0].real
        decay = max(0.0, math.log(start / end) / trial.h) if start * end > 0.0 else 0.0
        core.accept(trial)
        while core.y[0].real >= next_level:
            next_level *= ratio
        if trap_c is not None:
            watch_trap()
        return landing

    def clip(h: float) -> float:
        # aim at the next rung: fixed-point passes on c[0](h) == next_level for
        # dc[0]/ds = c[0]/p + N_0 exp(-decay s), N_0 fading as over the last step
        nonlocal aimed
        c0, n0, rate, aim = core.y[0].real, core.f[0].real, decay + 1 / p, 0.0
        for _ in range(4):
            base = c0 - n0 * math.expm1(-rate * aim) / rate
            if not 0.0 < base < next_level:  # no root: the controller's step
                aim = math.inf
                break
            aim = p * math.log(next_level / base)
        aimed = aim <= h
        return aim if aimed else h

    if trap_c is not None:
        core.stats.min_trap_margin = math.inf
        watch_trap()
    # a rung on k0_stop counts as reached when landed within tolerance below it
    stop = control.k0_stop * (1.0 - _LANDING_TOL)
    reached = core.run(traj, 0.01 * p, max_steps, lambda: core.y[0].real >= stop, settle, clip)
    if reached:
        traj.add_event(core.t, "blow_up_stop", f"k0={core.y[0].real:.6e}")
    if core.t > traj.snapshots[-1].t:
        traj.append(core.state())
    return traj


def integrate_normalized(
    init: SpectralState,
    tau_horizon: float,
    control: StepControl | None = None,
    renormalize_mean: bool = False,
    tau_snapshots: list[float] | None = None,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate the normalized flow to tau = tau_horizon.

    The steady state u == 1 has one linearly unstable direction (the mean,
    rate p+1, the scaling mode).  With ``renormalize_mean`` the mean is
    projected back to 1 after every accepted step, which quotients that
    gauge direction and is required for clean rate measurements once the
    unstable contamination (seeded at O(deviation^2) by the quadratic
    coupling) would otherwise outgrow the decaying modes.  The core's rates
    are the linearization's at the circle of the current mean m,
    L_n = m^{p+1} (p+2 - p lam^2 n^2) - 1, and 0 on the mean, the gauge
    direction, so N = 0 on every circle.  L is refrozen at the new mean after
    each accepted step (the frozen linearization of exponential Rosenbrock
    methods; Hochbruck & Ostermann, Acta Numerica 19, 2010, 4).  Snapshots
    land on multiples of tau_snapshot_interval, or on ``tau_snapshots``.
    """
    control = control or StepControl()
    p, lam, n = init.params.p, init.params.lam, np.arange(1, init.params.n_max + 1)
    state = init.with_coeffs(np.r_[1.0, init.coeffs[1:]]) if renormalize_mean else init
    plan = RhsPlan(init.params, normalized=True)

    def frozen(mean: float) -> np.ndarray:
        return np.r_[0.0, mean ** (p + 1) * (p + 2 - p * lam**2 * n**2) - 1.0, 0.0]

    rates = frozen(state.mean)

    def rhs(y: np.ndarray):
        deriv, grid = plan(y[:-1])
        return deriv - rates[:-1] * y[:-1], 1.0, grid

    core = _Stepper(state.params, np.append(state.coeffs, state.t), control, rhs, rates)
    traj = Trajectory(params=init.params, snapshots=[state])

    if tau_snapshots is not None:
        marks = sorted(t for t in tau_snapshots if state.t < t <= tau_horizon)
    else:
        interval = control.tau_snapshot_interval
        first = math.floor(state.t / interval) + 1
        marks = [j * interval for j in range(first, int(tau_horizon / interval) + 1)]
        if not marks or marks[-1] < tau_horizon - 1e-12:
            marks.append(tau_horizon)
    on_mark = False

    def clip(h: float) -> float:
        nonlocal on_mark
        on_mark = bool(marks) and core.t + h >= marks[0] - 1e-12
        return marks[0] - core.t if on_mark else h

    def settle(trial: _Trial) -> bool:
        core.accept(trial)
        if renormalize_mean:
            core.y[0] = 1.0
            core.reset(core.y)
        else:  # refreeze L (the core's rates too) at the new mean; N = plan(y) - L y moves with it
            new = frozen(core.y[0].real)
            core.f += (rates - new) * core.y
            rates[:] = new
        if on_mark:
            marks.pop(0)
        return on_mark

    core.run(traj, control.max_step, max_steps, lambda: core.t >= tau_horizon - 1e-12, settle, clip)
    return traj
