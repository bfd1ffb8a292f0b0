"""Adaptive time integration of the mode system up to (near) blow-up.

One raw-array Dormand-Prince 5(4) core serves both flows.  Stage 7, f(y_new),
is the next step's first (FSAL): an accepted step costs six RHS evaluations,
and its padded-grid profile gives the positivity check and the normalized
peak.  Besides error control, dt <= safety / (lam^2 n_max^2 c[0]^{p+1}) caps
the stiffest diagonal rate.  Snapshots sit on a log ladder in c[0]: a step
that overshoots a rung is redone to the root of its dense-output c[0] (Hairer,
Norsett & Wanner, Solving ODEs I, II.6), with Newton corrections on the FSAL
dc[0]/dt only while c[0] misses the rung by more than 1e-12 of it.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, PositivityError
from .rhs import RhsPlan, rhs_fast
from .spectral import SpectralState, coeff_seminorm

__all__ = ["StepControl", "RunStats", "Trajectory", "step", "integrate", "integrate_normalized"]

# Dormand-Prince 5(4) tableau: row i of _A combines stages 1..i into stage i+1,
# and the last row is the order-5 weights, so stage 7 is f(y_new).  _E is the
# difference against the order-4 weights, _D the dense-output coefficients.
_A = [
    np.array(row, dtype=np.complex128)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
]
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_D = np.array(
    [-12715105075 / 11282082432, 0, 87487479700 / 32700410799, -10690763975 / 1880347072]
    + [701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423]
)


@dataclass(frozen=True)
class StepControl:
    """Error tolerances, stability safety factor, and stopping thresholds."""

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
    """What one run did.  Step counts are the controller's, plus ``landing``
    rung-landing steps; ``cap_bound_frac`` is the share of controller steps
    whose dt the stiffness cap set; dt spans the accepted ones;
    ``min_trap_margin`` covers the start and every accepted step."""

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
    def k0(self) -> np.ndarray:
        return np.array([s.mean for s in self.snapshots])

    def mode(self, n: int) -> np.ndarray:
        return np.array([s.coeffs[n] for s in self.snapshots])


def step(
    state: SpectralState, dt: float, control: StepControl, rhs=rhs_fast
) -> tuple[SpectralState, float]:
    """Advance one step of size dt; returns the new state and the scaled
    embedded-pair error norm used by the controller (accept when <= 1)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    trial = _Stepper(state, control, lambda y: (rhs(state.with_coeffs(y)), None)).attempt(dt)
    return state.with_coeffs(trial.y, t=state.t + dt), trial.err


def _controller_factor(err_norm: float, grow: float = 5.0, shrink: float = 0.2) -> float:
    return grow if err_norm == 0.0 else min(grow, max(shrink, 0.9 * err_norm ** (-0.2)))


# A step tried from the current point: its size, end coefficients y, the seven
# stages (ks[6] is f(y)), the padded-grid profile of y and the scaled error norm.
_Trial = namedtuple("_Trial", "dt y ks grid err")


class _Stepper:
    """The raw-array core: the point (t, y), its FSAL derivative f and profile
    grid from ``rhs(y)``, the adaptive loop and the run's ``RunStats``."""

    def __init__(self, state: SpectralState, control: StepControl, rhs):
        self.params, self.control, self.rhs, self.t = state.params, control, rhs, state.t
        self.stats = RunStats(dt_min=math.inf)
        self.cap_bound, self.start = 0, time.perf_counter()
        self.reset(np.array(state.coeffs))
        gmin = 1.0 if self.grid is None else float(self.grid.min())
        if gmin <= 0.0:
            raise PositivityError(f"initial profile must be strictly positive; grid min {gmin:.3e}")

    def reset(self, y: np.ndarray):  # move to y at the current time
        self.y = y
        self.f, self.grid = self.rhs(y)
        self.stats.rhs_evals += 1

    def attempt(self, dt: float) -> _Trial:
        """One DP5(4) step of size dt from the current point, without moving."""
        y, ks = self.y, np.empty((7, self.y.size), dtype=np.complex128)
        ks[0] = self.f
        for i, row in enumerate(_A, 1):
            y_new = y + dt * (row @ ks[:i])
            ks[i], grid = self.rhs(y_new)
        self.stats.rhs_evals += 6
        err = dt * (_E @ ks)
        if not np.all(np.isfinite(err)):
            raise IntegrationError(
                f"non-finite derivative at t={self.t:.6g} (|y|max={np.max(np.abs(y_new)):.3e})"
            )
        scale = self.control.abs_tol + self.control.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        return _Trial(dt, y_new, ks, grid, float(np.sqrt(np.mean(np.abs(err / scale) ** 2))))

    def accept(self, trial: _Trial):
        self.t += trial.dt
        self.y, self.f, self.grid = trial.y, trial.ks[6], trial.grid

    def land(self, trial: _Trial, level: float) -> _Trial:
        """The step onto c[0] == level, which ``trial`` overshoots: Newton on
        trial's dense-output quartic for c[0], then on the real step."""
        h, k, y0 = trial.dt, trial.ks[:, 0].real, self.y[0].real
        ydiff = trial.y[0].real - y0
        bspl = h * k[0] - ydiff
        r4, r5 = ydiff - h * k[6] - bspl, h * float(_D @ k)
        c1, c2, c3, c4 = ydiff + bspl, r4 + r5 - bspl, -r4 - 2 * r5, r5
        theta = (level - y0) / ydiff
        for _ in range(6):
            value = y0 - level + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))
            theta -= value / (c1 + theta * (2 * c2 + theta * (3 * c3 + theta * 4 * c4)))
        dt, best = h * min(max(theta, 0.0), 1.0), None
        for _ in range(4):
            cand = self.attempt(dt)
            self.stats.landing += 1
            gap = level - cand.y[0].real
            if best is None or abs(gap) < abs(level - best.y[0].real):
                best = cand
            if abs(gap) <= 1e-12 * level:
                break
            dt += gap / cand.ks[6, 0].real
        return best

    def run(self, traj, dt: float, max_steps: int, done, cap, settle, clip=lambda dt: dt):
        """The adaptive loop both flows share; True when ``done()`` ended it.
        ``cap()`` is the stiffness cap here, ``clip(dt)`` may shorten a step
        onto a clock mark, and ``settle(trial)`` moves onto an accepted trial
        and says whether to record the new point.  Fills ``traj.stats``."""
        control, stats, finished = self.control, self.stats, False
        for _ in range(max_steps):
            if finished := done():
                break
            limit = cap()
            dt = clip(min(dt, limit, control.max_step))
            if self.t + dt == self.t or dt < control.min_step:
                traj.add_event(self.t, "step_floor", f"dt={dt:.3e}")
                break
            trial = self.attempt(dt)
            self.cap_bound += dt == limit
            if trial.err > 1.0:
                stats.rejected += 1
                dt *= _controller_factor(trial.err)
                continue
            stats.accepted += 1
            stats.dt_min, stats.dt_max = min(stats.dt_min, dt), max(stats.dt_max, dt)
            record = settle(trial)
            gmin = float(self.grid.min())
            if record or gmin <= 0.0:
                traj.append(SpectralState(self.params, self.t, self.y))
            if gmin <= 0.0:
                traj.add_event(self.t, "positivity_loss", f"grid min={gmin:.3e}")
                break
            dt *= _controller_factor(trial.err)
        else:
            traj.add_event(self.t, "step_floor", "max_steps exhausted")
        stats.cap_bound_frac = self.cap_bound / max(stats.accepted + stats.rejected, 1)
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
    """Integrate the mode system until c[0] >= k0_stop or a failure event.

    Snapshots land on each rung of the log ladder in c[0] (snapshots_per_decade
    per decade), and follow 500 accepted steps without one.  With ``trap_c``
    the trapping margin is checked at the start and at every accepted step; a
    trap_violation event marks each turn negative (the run continues).
    """
    control = control or StepControl()
    p, lam, n_max = init.params.p, init.params.lam, init.params.n_max
    core = _Stepper(init, control, RhsPlan(init.params))
    traj = Trajectory(params=init.params)
    traj.append(init)
    ratio = 10.0 ** (1.0 / control.snapshots_per_decade)
    next_level, since_snapshot, negative = init.mean * ratio, 0, False

    def watch_trap():
        nonlocal negative
        margin = float(core.y[0].real) - trap_c * coeff_seminorm(core.y, 2.0)
        core.stats.min_trap_margin = min(core.stats.min_trap_margin, margin)
        if margin < 0.0 and not negative:
            traj.add_event(core.t, "trap_violation", f"margin={margin:.6e}")
        negative = margin < 0.0

    def cap() -> float:
        return control.safety / (lam**2 * n_max**2 * max(float(core.y[0].real), 1e-300) ** (p + 1))

    def settle(trial: _Trial) -> bool:
        nonlocal next_level, since_snapshot
        # land on snapshot rungs (only while the mean is growing)
        crossing = trial.y[0].real >= next_level > core.y[0].real
        core.accept(core.land(trial, next_level) if crossing else trial)
        if crossing:
            next_level *= ratio
        while core.y[0].real >= next_level:
            next_level *= ratio
        if trap_c is not None:
            watch_trap()
        since_snapshot = 0 if crossing or since_snapshot == 499 else since_snapshot + 1
        return since_snapshot == 0

    if trap_c is not None:
        core.stats.min_trap_margin = math.inf
        watch_trap()
    dt = min(control.max_step, cap(), 0.01 * p * init.mean ** -(p + 1))
    if core.run(traj, dt, max_steps, lambda: core.y[0].real >= control.k0_stop, cap, settle):
        traj.add_event(core.t, "blow_up_stop", f"k0={core.y[0].real:.6e}")
    if core.t > traj.snapshots[-1].t:
        traj.append(SpectralState(core.params, core.t, core.y))
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
    coupling) would otherwise outgrow the decaying modes.

    Snapshots land exactly on multiples of tau_snapshot_interval, or on the
    explicit ``tau_snapshots`` list when given.
    """
    control = control or StepControl()
    p, lam, n_max = init.params.p, init.params.lam, init.params.n_max
    state = init.with_coeffs(np.r_[1.0, init.coeffs[1:]]) if renormalize_mean else init
    core = _Stepper(state, control, RhsPlan(init.params, normalized=True))
    traj = Trajectory(params=init.params)
    traj.append(state)

    if tau_snapshots is not None:
        marks = sorted(t for t in tau_snapshots if state.t < t <= tau_horizon)
    else:
        interval = control.tau_snapshot_interval
        first = math.floor(state.t / interval) + 1
        marks = [j * interval for j in range(first, int(tau_horizon / interval) + 1)]
        if not marks or marks[-1] < tau_horizon - 1e-12:
            marks.append(tau_horizon)
    on_mark = False

    def cap() -> float:
        peak = max(float(core.grid.max()), 1.0)
        return control.safety / (p * lam**2 * n_max**2 * peak ** (p + 1))

    def clip(dt: float) -> float:
        nonlocal on_mark
        on_mark = bool(marks) and core.t + dt >= marks[0] - 1e-12
        return marks[0] - core.t if on_mark else dt

    def settle(trial: _Trial) -> bool:
        core.accept(trial)
        if renormalize_mean:
            core.y[0] = 1.0
            core.reset(core.y)
        if on_mark:
            marks.pop(0)
        return on_mark

    dt = min(control.max_step, cap())
    core.run(traj, dt, max_steps, lambda: core.t >= tau_horizon - 1e-12, cap, settle, clip)
    return traj
