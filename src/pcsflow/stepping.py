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

The core works in passes.  A pass takes steps of k lengths from the current
point at once, its members, stacked on a leading axis: each stage is one RHS
call on a (k, size) stack, so a pass pays the per-call cost once, not k times.
The pass is accepted when every member's error norm is <= 1, and a member
with a non-finite stage has norm inf.  The members' temporaries grow as
k x size.

Both flows place snapshots by one policy: a snapshot is the point where one
slot of the state reaches the next of an increasing list of levels.  A pass
takes the controller's step h and, beside it, a member aimed at every level
that the flow's prediction of that slot places in (0, h], its length the root
of that prediction (event location, II.6), so that member is the level's
snapshot.  A pass ends on its last level, without h, when that level is the
run's last or when the pass holds max(1, 1024 // size) level members, the most
a pass may stack.  Level members that miss by over 1e-12 of the level, and
levels the step h crosses without a member, are redone together, one more
pass per round of Newton corrections h += gap / (dy/ds) from the FSAL dy/ds.
The levels are recorded in time order, then the core advances by h; the run
ends on its last level.

The blow-up flow runs on the clock ds = c[0]^{p+1} dt, with the constant rates
L_n = (p+2)/p - lam^2 n^2 (L_0 = 1/p) of the mode system's diagonal part;
``max_step``, ``min_step`` and the step floor act on model time.  Its levels
are a log ladder in c[0], each aimed by a predicted c[0](h).  The normalized
flow runs on tau, with the rates of its linearization at the circle of its
current mean; its levels are the tau marks in the clock slot, each aimed
exactly.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .blowup import _LANDING_TOL, trap_margin
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
# Columns, one entry per row, to broadcast against a pass's lengths.
_EXPO = np.concatenate([_C[i] - np.r_[0.0, _C[:i]] for i in range(1, 7)] + [1 - np.r_[1.0, _C]])[:, None]
_UNIT = np.concatenate([np.r_[1.0, np.zeros(i)] for i in range(1, 7)] + [np.zeros(8)])[:, None]
_COEF = np.concatenate([np.r_[0.0, row] for row in _A] + [np.r_[0.0, _E]])[:, None]
_ROWS = [slice((i - 1) * (i + 2) // 2, (i - 1) * (i + 2) // 2 + i + 1) for i in range(1, 8)]


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
    """What one run did, counted per member of a pass (see the module
    docstring), each member a step call of six RHS evaluations.  ``accepted``
    counts the accepted members that are not aimed at a level (the
    controller's steps, at most one per pass); ``landing`` the members of
    accepted passes aimed at a level, a blow-up rung or a tau mark, and their
    Newton redos; ``rejected`` every member of a rejected pass.
    ``rhs_evals`` counts six per member plus the first: 1 + 6 (accepted +
    rejected + landing) in either flow, pinned or not.  dt spans the steps the
    core advanced by that moved t, in model time; ``min_trap_margin`` covers
    the start, every rung recorded and every point advanced to."""

    accepted: int = 0
    rejected: int = 0
    landing: int = 0
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

    def modes(y, out):  # one point; the slot is t itself, at rate 1; no profile to check
        out[0, :-1], out[0, -1] = rhs(state.with_coeffs(y[0, :-1])), 1.0
        return np.ones((1, 1))

    trial = _Stepper(state.params, np.append(state.coeffs, state.t), control, modes).attempt(np.array([dt]))
    if trial.err[0] == np.inf:
        raise IntegrationError(f"non-finite derivative at t={state.t:.6g} (|y|max={np.max(np.abs(trial.y[0])):.3e})")
    return state.with_coeffs(trial.y[0, :-1], t=state.t + dt), float(trial.err[0])


def _own_clock(y: np.ndarray) -> tuple[float, float]:
    """Model time t in the last slot, stepped on itself: (t, dt/ds = 1)."""
    return float(y[-1].real), 1.0


# Most snapshots_per_decade: the rung ratio 10^(1/spd) rounds to 1 from about
# 2e16 on, a ladder without end, and 1e9 would build 6e9 rungs for six decades.
MAX_SNAPSHOTS_PER_DECADE = 10_000

# Bounds on the factor by which the controller changes the step after a trial.
_GROW, _SHRINK = 5.0, 0.2

# Passes a run may try before it ends in a step_floor event.
_MAX_PASSES = 2_000_000

# Level members times state size a pass may stack (module docstring): about
# 1 MB of temporaries, and one member from size 513 (n_max 511) on.
_PASS_SIZE = 2**10

# Spacing in tau of the normalized flow's snapshots when no marks are given.
_TAU_INTERVAL = 0.1

# Gap in tau within which two marks, or a mark and the start, count as one.
_MARK_TOL = 1e-12


def _controller_factor(err_norm: float) -> float:
    return _GROW if err_norm == 0.0 else min(_GROW, max(_SHRINK, 0.9 * err_norm ** (-0.2)))


class _Trial(namedtuple("_Trial", "h y ks grid err")):
    """A pass tried from the current point, one entry per member: its length h
    on the core's clock, end point y, the seven stages (ks[6, i] is member i's
    N(y)), the padded-grid profile of y and the scaled error norm."""

    def member(self, i: int) -> "_Trial":
        """Member i alone, as views: ks[6] is its N(y)."""
        return _Trial(self.h[i], self.y[i], self.ks[:, i], self.grid[i], self.err[i])


class _Stepper:
    """The raw-array core: the point y = (c[0..n_max], clock slot), its FSAL
    N(y) and profile grid from ``rhs(ys, out)`` (which writes N of each row of
    the stack ys, modes and slot, into out and returns the rows' profile
    grids), the diagonal ``rates`` L (zero: plain DP5), ``clock(y)`` giving the
    model time t and dt/ds, the adaptive loop with its snapshot policy (module
    docstring) and the run's ``RunStats``."""

    def __init__(self, params, y, control: StepControl, rhs, rates=None, clock=_own_clock):
        self.params, self.control, self.rhs, self.clock = params, control, rhs, clock
        self.rates = np.zeros(y.size) if rates is None else rates
        self.stats, self.start = RunStats(rhs_evals=1, dt_min=math.inf), time.perf_counter()
        self.y, self.f = y, np.empty_like(y)
        self.grid = self.rhs(y[None], self.f[None])[0]  # the first evaluation
        gmin = float(self.grid.min())
        if gmin <= 0.0:
            raise PositivityError(f"initial profile must be strictly positive; grid min {gmin:.3e}")

    @property
    def t(self) -> float:
        return self.clock(self.y)[0]

    def state(self) -> SpectralState:
        return SpectralState(self.params, self.t, self.y[:-1])

    def attempt(self, hs: np.ndarray) -> _Trial:
        """A pass: one Lawson DP5(4) step from the current point per length in
        ``hs``, without moving.  Each stage is one ``rhs`` call on the stack of
        members, and each member has the bits of a pass of its length alone."""
        y = self.y
        z = np.empty((8, hs.size, y.size), dtype=np.complex128)
        z[0], z[1] = y, self.f
        w = (_UNIT + _COEF * hs)[..., None] * np.exp((_EXPO * hs)[..., None] * self.rates)
        for i, rows in enumerate(_ROWS[:6], 2):
            y_new = np.einsum("jkn,jkn->kn", w[rows], z[:i])
            grid = self.rhs(y_new, z[i])
        self.stats.rhs_evals += 6 * hs.size
        err = np.einsum("jkn,jkn->kn", w[_ROWS[6]], z)
        scale = self.control.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        scale[:, :-1] += self.control.abs_tol * max(1.0, abs(y[0]))
        scale[:, -1] += self.control.abs_tol
        norms = np.sqrt(np.add.reduce(np.abs(err / scale) ** 2, axis=-1) / y.size)
        norms[np.isnan(norms)] = np.inf  # a non-finite stage rejects the pass (nan > 1 is False)
        return _Trial(hs, y_new, z[1:], grid, norms)

    def accept(self, member: _Trial):
        self.y, self.f, self.grid = member.y, member.ks[6], member.grid

    def land(self, slot: int, crossed: list):
        """Newton on the real steps of ``crossed``, pairs [level, member] of a
        level y[slot] == level and an accepted member aimed at or across it:
        redo every member whose y[slot] misses its level by over 1e-12 of it
        with h += gap / (dy[slot]/ds) at its end, all in one pass, until none
        does (at most four passes; each redo is a landing step).  Replaces the
        members."""
        for _ in range(4):
            redo = [r for r in crossed if abs(r[0] - r[1].y[slot].real) > _LANDING_TOL * abs(r[0])]
            if not redo:
                break
            rate = self.rates[slot]  # dy[slot]/ds = L y + N(y) at the member's end
            hs = [m.h + (level - m.y[slot].real) / (rate * m.y[slot].real + m.ks[6, slot].real) for level, m in redo]
            trial = self.attempt(np.array(hs))
            if np.isinf(trial.err).any():  # no controller here to shrink the step
                raise IntegrationError(f"non-finite derivative in a landing step at t={self.t:.6g}")
            self.stats.landing += len(redo)
            for i, r in enumerate(redo):
                r[1] = trial.member(i)

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

    def run(self, traj, h: float, slot: int, levels: list, aim, moved) -> bool:
        """The adaptive loop both flows share: y[slot] reaches the increasing
        ``levels`` in turn (module docstring); True when it reached the last.
        ``aim(level, h0)`` predicts the length that reaches a level from h0,
        and ``moved(member, last)`` runs at each point the core moves onto,
        ``last`` at the one it advanced to.  ``max_step`` and the step floor act
        on dt = h dt/ds of the controller's step h.  Ends on the point reached,
        appended unless recorded, and fills ``traj.stats``."""
        control, stats, k, reached = self.control, self.stats, 0, False
        most = max(1, _PASS_SIZE // self.y.size)
        for _ in range(_MAX_PASSES):
            if reached := k == len(levels):
                break
            t, speed = self.clock(self.y)
            proposal = min(h, control.max_step / speed)
            dt = proposal * speed
            if t + dt == t or dt < control.min_step:
                traj.add_event(t, "step_floor", f"dt={dt:.3e}")
                break
            # a member at each level aimed inside (0, proposal], then the
            # proposal itself, unless the pass ends on a level: the run's
            # last, or the last of the most a pass stacks
            hs, at, ahead = [], 0.0, levels[k : k + most]
            while len(hs) < len(ahead) and (at := aim(ahead[len(hs)], at)) <= proposal:
                hs.append(at)
            aimed = len(hs)
            on_level = aimed == len(ahead) or hs[-1:] == [proposal]  # no second member at an aimed proposal
            hs = np.array(hs if on_level else hs + [proposal])
            h = float(hs[-1])
            trial = self.attempt(hs)
            err = float(max(trial.err))
            if err > 1.0:
                stats.rejected += hs.size
                h *= _controller_factor(err)
                continue
            stats.accepted += hs.size - aimed
            stats.landing += aimed
            # the levels crossed, each with the member aimed at it or, where
            # the aim missed it, the step advanced by; a pass that ends on a
            # level keeps just its aimed levels
            advance = trial.member(hs.size - 1)
            top, cap = (math.inf, aimed) if on_level else (advance.y[slot].real, math.inf)
            crossed = []
            while k < len(levels) and levels[k] <= top and len(crossed) < cap:
                crossed.append([levels[k], trial.member(len(crossed)) if len(crossed) < aimed else advance])
                k += 1
            self.land(slot, crossed)
            points = [(member, True) for _, member in crossed]
            if not (on_level or k == len(levels) or crossed and crossed[-1][1] is advance):
                points.append((advance, False))
            ended, last = False, points[-1][0]
            for member, record in points:
                self.accept(member)
                moved(member, member is last)
                if ended := self.visit(traj, t, record):
                    break
            dt = self.t - t
            if dt > 0.0:  # near the step floor an accepted pass may no longer move t
                stats.dt_min, stats.dt_max = min(stats.dt_min, dt), max(stats.dt_max, dt)
            if ended:
                break
            h = proposal if h < proposal else h * _controller_factor(float(trial.err[-1]))
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
    slot holds the running blow-up time z = t + p/(p+1) c[0]^{-(p+1)}, with
    dz/ds = -p c[0]^{-(p+2)} N_0: it is constant on the circle, so the step
    adds no quadrature error of dt/ds ~ exp(-(p+1) s/p) to T - t, which the
    normalized-frame analysis needs to far below rel_tol.
    Snapshots land on each rung of the log ladder in c[0] (snapshots_per_decade
    per decade), each by the member of a pass aimed at it (module docstring),
    and the run ends on the first rung at k0_stop or above.  With ``trap_c``
    the trapping margin is checked at the start, at every rung and at every
    point advanced to; a trap_violation event marks each turn negative (the
    run continues).
    """
    control = control or StepControl()
    p, lam, n_max = init.params.p, init.params.lam, init.params.n_max
    evaluate, n = RhsPlan(init.params), np.arange(1, n_max + 1)
    rates = np.r_[1 / p, diagonal_rates(p, lam, n), 0.0]
    mode_rates = rates[:-1].astype(np.complex128)  # cast once, not in every L c (same bits)

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        c = y[:, :-1]
        deriv, grid = evaluate(c)
        # a lone member's c[0] is a scalar, cheaper than a column; the speed
        # c[0]^-(p+1) is p+1 divisions, which round alike on both (numpy's
        # vector pow does not round as its scalar pow does)
        c0 = c[0, 0].real if len(c) == 1 else c[:, :1].real
        speed = 1.0 / c0
        for _ in range(p):
            speed = speed / c0
        nonlinear = np.subtract(deriv * speed, mode_rates * c, out=out[:, :-1])
        out[:, -1:] = -p * speed / c0 * nonlinear[:, :1]
        return grid

    def clock(y: np.ndarray) -> tuple[float, float]:
        speed = y[0].real ** -(p + 1)
        return float(y[-1].real) - p / (p + 1) * speed, speed

    z0 = init.t + p / (p + 1) * init.mean ** -(p + 1)
    core = _Stepper(init.params, np.append(init.coeffs, z0), control, rhs, rates, clock)
    traj = Trajectory(params=init.params, snapshots=[init])
    ratio = 10.0 ** (1.0 / control.snapshots_per_decade)
    # the ladder up to the first rung at k0_stop or above; a rung on k0_stop
    # counts as reached when landed within tolerance below it
    stop, rungs, level = control.k0_stop * (1.0 - _LANDING_TOL), [], init.mean
    while level < stop:
        level *= ratio
        rungs.append(level)
    negative, decay = False, 0.0

    def watch_trap():
        nonlocal negative
        margin = float(trap_margin(core.y[:-1], trap_c))
        core.stats.min_trap_margin = min(core.stats.min_trap_margin, margin)
        if margin < 0.0 and not negative:
            traj.add_event(core.t, "trap_violation", f"margin={margin:.6e}")
        negative = margin < 0.0

    def aim(level: float, h: float) -> float:
        # fixed-point iterations from h on c[0](h) == level for dc[0]/ds = c[0]/p +
        # N_0 exp(-decay s), N_0 fading as over the last step; inf: no root
        c0, n0, rate = core.y[0].real, core.f[0].real, decay + 1 / p
        for _ in range(4):
            base = c0 - n0 * math.expm1(-rate * h) / rate
            if not 0.0 < base < level:
                return math.inf
            h = p * math.log(level / base)
        return h

    def moved(member: _Trial, last: bool):
        nonlocal decay
        if trap_c is not None:
            watch_trap()
        if last:  # how fast N_0 faded over the step advanced by
            start, end = member.ks[0, 0].real, member.ks[6, 0].real
            decay = max(0.0, math.log(start / end) / member.h) if start * end > 0.0 else 0.0

    if trap_c is not None:
        core.stats.min_trap_margin = math.inf
        watch_trap()
    if core.run(traj, 0.01 * p, 0, rungs, aim, moved):
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
    m, L_n = m^{p+1} (p+2 - p lam^2 n^2) - 1, and 0 on the mean, the gauge
    direction, so N = 0 on every circle.  L is refrozen at the new mean after
    each accepted pass (the frozen linearization of exponential Rosenbrock
    methods; Hochbruck & Ostermann, Acta Numerica 19, 2010, 4).  Snapshots
    land on the marks ``tau_snapshots`` in (init.t, tau_horizon], else on the
    multiples of 0.1 (``_TAU_INTERVAL``) and on tau_horizon, each the member
    of a pass aimed at it (module docstring), the first pass no longer than to
    the first mark; marks within 1e-12 of the one before (or of the start)
    count once, and the run ends on its last mark.
    """
    control = control or StepControl()
    p, lam, n = init.params.p, init.params.lam, np.arange(1, init.params.n_max + 1)
    state = init.with_coeffs(np.r_[1.0, init.coeffs[1:]]) if renormalize_mean else init
    evaluate = RhsPlan(init.params)

    def frozen(mean: float) -> np.ndarray:
        return np.r_[0.0, mean ** (p + 1) * (p + 2 - p * lam**2 * n**2) - 1.0, 0.0]

    rates = frozen(state.mean)

    def rhs(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        c = y[:, :-1]
        deriv, grid = evaluate(c)
        deriv = p * deriv - c
        deriv[:, 0] = 0.0 if renormalize_mean else deriv[:, 0].real
        np.subtract(deriv, rates[:-1] * c, out=out[:, :-1])
        out[:, -1] = 1.0
        return grid

    core = _Stepper(state.params, np.append(state.coeffs, state.t), control, rhs, rates)
    traj = Trajectory(params=init.params, snapshots=[state])

    if tau_snapshots is None:
        tau_snapshots = [j * _TAU_INTERVAL for j in range(1, int(tau_horizon / _TAU_INTERVAL) + 1)] + [tau_horizon]
    marks = []  # each more than _MARK_TOL past the mark before it, or past the start
    for mark in sorted(t for t in tau_snapshots if t <= tau_horizon):
        if mark > (marks[-1] if marks else state.t) + _MARK_TOL:
            marks.append(mark)

    def moved(member: _Trial, last: bool):
        if last:  # refreeze L (the core's rates too) at the new mean; N = p evaluate(y) - y - L y moves with it
            new = frozen(core.y[0].real)
            core.f += (rates - new) * core.y
            rates[:] = new

    h = min(control.max_step, marks[0] - state.t) if marks else control.max_step
    core.run(traj, h, -1, marks, lambda mark, _: mark - core.t, moved)
    return traj
