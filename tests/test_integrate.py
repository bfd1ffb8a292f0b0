import math
import random
from dataclasses import fields, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pcsflow import stepping
from pcsflow.blowup import circle_time, estimate_T, select_c, trap_margin
from pcsflow.checks import blowup_time_defect
from pcsflow.errors import PositivityError
from pcsflow.normalize import normalized_frame
from pcsflow.rhs import RhsPlan, normalized_rhs
from pcsflow.spectral import FlowParams, SpectralState, synthesize
from pcsflow.stepping import StepControl, Trajectory, integrate, integrate_normalized, step

from conftest import make_state

P1 = FlowParams(p=1, lam=2.0, n_max=4)
TIGHT = StepControl(rel_tol=1e-12, abs_tol=1e-16)


class TestStep:
    def test_one_step_matches_exact_constant_solution(self):
        # dk/dt = k^3 from a=1 has k(t) = (2(1/2 - t))^{-1/2}
        s = make_state(P1, {0: 1.0})
        s1, err = step(s, 1e-4, TIGHT)
        exact = (2 * (0.5 - 1e-4)) ** -0.5
        assert abs(s1.mean - exact) <= 1e-12
        assert err < 1.0

    def test_zero_modes_stay_exactly_zero(self):
        s = make_state(P1, {0: 1.0})
        for _ in range(25):
            s, _ = step(s, 1e-3, TIGHT)
        assert np.all(s.coeffs[1:] == 0.0)

    def test_error_estimate_is_order_five(self):
        s = make_state(P1, {0: 1.0})
        _, e1 = step(s, 2e-3, TIGHT)
        _, e2 = step(s, 1e-3, TIGHT)
        assert e1 / e2 == pytest.approx(32.0, rel=0.25)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(make_state(P1, {0: 1.0}), 0.0, TIGHT)

    def test_non_finite_derivative_aborts_with_diagnostic(self):
        from pcsflow.errors import IntegrationError

        huge = make_state(P1, {0: 1e200})  # k0^3 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="non-finite"):
                step(huge, 1e-3, TIGHT)


class TestStepControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepControl(rel_tol=1e-14)
        with pytest.raises(ValueError):
            StepControl(abs_tol=-1.0)
        with pytest.raises(ValueError, match="min_step must not exceed max_step"):
            StepControl(min_step=1e-2, max_step=1e-3)
        # values the config parser rejects too; a rung ladder towards an
        # infinite k0_stop would never end
        not_finite = {"rel_tol": math.nan, "abs_tol": math.nan, "k0_stop": math.inf, "max_step": math.inf}
        for name, value in not_finite.items():
            with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
                StepControl(**{name: value})
        with pytest.raises(ValueError, match="snapshots_per_decade must be an integer"):
            StepControl(snapshots_per_decade=2.5)
        # the rung ratio 10^(1/spd) rounds to 1 at 1e17, where the ladder would
        # never end; the bound stops such values long before
        assert 10.0 ** (1 / 10**17) == 1.0
        for spd in (0, stepping.MAX_SNAPSHOTS_PER_DECADE + 1, 10**17):
            with pytest.raises(ValueError, match="snapshots_per_decade must be between 1 and 10000"):
                StepControl(snapshots_per_decade=spd)

    # A value off the default for each field; a field without one fails the test.
    # min_step 1e-2 lies above the smallest step the controller takes in either
    # run (about 9e-3 in the normalized one), so it ends both in step_floor.
    MOVED = {
        "rel_tol": 1e-8,
        "abs_tol": 1e-10,
        "max_step": 1e-2,
        "min_step": 1e-2,
        "k0_stop": 50.0,
        "snapshots_per_decade": 10,
    }

    @pytest.mark.parametrize("name", [f.name for f in fields(StepControl)])
    def test_every_field_moves_a_run(self, name):
        # a field that no flow reads leaves both runs as they were; the stop
        # threshold and the rung ladder act on the blow-up flow alone
        init = make_state(FlowParams(p=1, lam=2.0, n_max=8), {0: 1.0, 1: 0.0025, 2: 0.001j})
        base = StepControl(k0_stop=1e2)
        moved = replace(base, **{name: self.MOVED[name]})
        runs = [lambda control: integrate(init, control)]
        if name not in ("k0_stop", "snapshots_per_decade"):
            runs.append(lambda control: integrate_normalized(init, 1.0, control))

        def outcome(traj):
            return traj.times.tolist(), traj.coeffs.tolist(), traj.events, replace(traj.stats, wall_s=0.0)

        for run in runs:
            assert outcome(run(base)) != outcome(run(moved))


class TestIntegrateConstant:
    @pytest.mark.parametrize("p,a,k0_stop", [(1, 1.0, 1e6), (2, 1.0, 1e4)])
    def test_blow_up_time(self, p, a, k0_stop):
        params = FlowParams(p=p, lam=2.0, n_max=2)
        traj = integrate(
            make_state(params, {0: a}),
            StepControl(rel_tol=1e-12, abs_tol=1e-16, k0_stop=k0_stop),
        )
        assert traj.has_event("blow_up_stop")
        assert blowup_time_defect(traj) < 1e-8
        # stop lands within the predicted window of T
        t_end = traj.snapshots[-1].t
        k_end = traj.snapshots[-1].mean
        assert abs(circle_time(p, a) - t_end - circle_time(p, k_end)) < 1e-8

    def test_invariant_subspace(self):
        params = FlowParams(p=1, lam=2.0, n_max=2)
        traj = integrate(make_state(params, {0: 1.0}), StepControl(k0_stop=1e3))
        assert all(np.all(s.coeffs[1:] == 0.0) for s in traj.snapshots)

    def test_snapshots_land_on_log_ladder(self):
        params = FlowParams(p=1, lam=2.0, n_max=2)
        control = StepControl(k0_stop=1e3, snapshots_per_decade=40)
        traj = integrate(make_state(params, {0: 1.0}), control)
        k0 = traj.k0
        ratio = 10 ** (1 / 40)
        # interior snapshots sit on levels a * ratio^j to near round-off
        levels = np.round(np.log(k0[1:-1]) / np.log(ratio))
        assert np.max(np.abs(k0[1:-1] - ratio**levels)) < 1e-9 * np.max(k0)


@pytest.fixture(scope="module")
def run():
    params = FlowParams(p=1, lam=2.0, n_max=8)
    init = make_state(params, {0: 1.0, 1: 0.0025})
    return integrate(init, StepControl(k0_stop=1e4), trap_c=256.0)


class TestIntegratePerturbed:

    def test_clean_stop_without_trap_violation(self, run):
        assert run.has_event("blow_up_stop")
        assert not run.has_event("trap_violation")

    def test_mean_is_monotone(self, run):
        assert np.all(np.diff(run.k0) > 0)

    def test_snapshot_times_increase(self, run):
        assert np.all(np.diff(run.times) > 0)

    def test_determinism(self, run):
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        rerun = integrate(init, StepControl(k0_stop=1e4), trap_c=256.0)
        assert len(rerun.snapshots) == len(run.snapshots)
        for a, b in zip(rerun.snapshots, run.snapshots):
            assert a.t == b.t
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_global_accuracy_against_half_tolerance(self, run):
        # mode ratios at matched k0 rungs agree within 10 * rel_tol while
        # k0 <= 1e4 (rungs are hit exactly, so states are comparable)
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        finer = integrate(init, StepControl(rel_tol=5e-11, k0_stop=1e4), trap_c=256.0)
        k0_a, k0_b = run.k0, finer.k0
        matched = 0
        for i, k in enumerate(k0_a):
            j = int(np.argmin(np.abs(k0_b - k)))
            if abs(k0_b[j] - k) < 1e-9 * k:
                ra = run.snapshots[i].coeffs[1:] / k
                rb = finer.snapshots[j].coeffs[1:] / k0_b[j]
                assert np.max(np.abs(ra - rb)) < 10 * 1e-10
                matched += 1
        assert matched >= 50

    def test_trap_margin_checked_at_every_step(self, run):
        # the per-step minimum covers every snapshot and stays inside the cone
        assert run.stats.min_trap_margin >= 0.0
        assert run.stats.min_trap_margin <= min(trap_margin(s.coeffs, 256.0) for s in run.snapshots)

    def test_rungs_landed_with_at_most_two_steps_each(self, run):
        ratio = 10 ** (1 / 40)
        k0 = run.k0[1:-1]
        levels = run.k0[0] * ratio ** np.round(np.log(k0 / run.k0[0]) / np.log(ratio))
        assert np.all(np.abs(k0 - levels) <= 1e-12 * levels)
        assert run.stats.rhs_evals == 1 + 6 * (run.stats.accepted + run.stats.rejected)

    def test_fsal_costs_six_evaluations_per_step(self, run):
        stats = run.stats
        assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)
        assert 0.0 < stats.dt_min <= stats.dt_max
        assert stats.wall_s > 0.0

    def test_step_count_does_not_grow_with_band_width(self, run):
        # the diagonal rates lam^2 n^2 are integrated exactly, so no step
        # limit grows as n_max^2; the top modes' factors exp(h L) come near
        # the underflow limit, where a ratio of two factors would be 0/0
        params = FlowParams(p=1, lam=2.0, n_max=64)
        wide = integrate(make_state(params, {0: 1.0, 1: 0.0025}), StepControl(k0_stop=1e4), 256.0)
        for traj in (run, wide):
            assert traj.has_event("blow_up_stop")
            assert all(np.all(np.isfinite(s.coeffs)) for s in traj.snapshots)
        assert wide.stats.accepted <= 1.5 * run.stats.accepted

    def test_trap_violation_event_for_bad_data(self):
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 0.005})  # margin 1 - 256*0.005 < 0
        traj = integrate(init, StepControl(k0_stop=20.0), trap_c=256.0)
        assert traj.has_event("trap_violation")
        assert traj.events[0][1] == "trap_violation"
        assert traj.events[0][0] == 0.0


def cone_state(seed: int) -> SpectralState:
    """Mean-1 data for p=1, lam=2, n_max=8 strictly inside the trapping cone,
    drawn from the seed as the blow-up benchmark workload draws it: mode 1 at
    30-60 % and modes 2 and 3 at most 30 % of the bound 1/(c n^2), each at a
    seeded phase."""
    rng, params = random.Random(seed), FlowParams(p=1, lam=2.0, n_max=8)
    entries = {0: 1.0}
    for n in (1, 2, 3):
        share = rng.uniform(0.3, 0.6) if n == 1 else rng.uniform(0.0, 0.3)
        angle = rng.uniform(0.0, 2 * math.pi)
        entries[n] = share / (select_c(params) * n * n) * complex(math.cos(angle), math.sin(angle))
    return make_state(params, entries)


@pytest.fixture(scope="module")
def cone_runs():
    return {seed: integrate(cone_state(seed), StepControl(k0_stop=1e6), trap_c=256.0) for seed in range(30)}


def step_calls(traj) -> int:
    """Step calls of a blow-up run, after the bookkeeping that must hold."""
    stats = traj.stats
    calls = stats.accepted + stats.rejected
    assert traj.has_event("blow_up_stop")
    assert stats.rhs_evals == 1 + 6 * calls
    return calls


class TestRungLanding:
    def test_sub_ulp_landing_step_keeps_running(self):
        # a landing step can move t by less than ulp(T) from the last accepted
        # point while T - t is still about 2e-11: the rung is later than the
        # last snapshot, so the run goes on
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 0.005, 2: 0.002j, 3: 0.001})
        traj = integrate(init, StepControl(k0_stop=1e6))
        assert [e[1] for e in traj.events] == ["blow_up_stop"]

    def test_cone_data_reach_k0_stop(self, cone_runs):
        # includes the data of seeds 25 and 27, which once ended in step_floor
        # between k0 = 5e5 and 1e6
        stopped = {s: traj.events for s, traj in cone_runs.items() if [e[1] for e in traj.events] != ["blow_up_stop"]}
        assert not stopped

    def test_every_rung_landed_within_tolerance(self, cone_runs):
        # every rung is a point on a step's extension with c0 set exactly to
        # its level, a repeated product within 1e-12 of the power of the ratio
        for traj in cone_runs.values():
            ratio = 10 ** (1 / 40)
            levels = ratio ** np.arange(1, len(traj.snapshots))
            assert np.all(np.abs(traj.k0[1:] - levels) <= 1e-12 * levels)

    def test_at_most_one_and_a_half_step_calls_per_rung(self, cone_runs):
        # each rung is reached by the step aimed at it, nearly always in one call
        traj = cone_runs[0]
        assert step_calls(traj) <= 1.5 * (len(traj.snapshots) - 1)

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_rung_on_k0_stop_ends_the_run(self, seed):
        # at n_max 8 these data land the 10^0.5 rung 1-3e-16 below it; within
        # the landing tolerance that is k0_stop, and no further rung is taken
        for n_max in (8, 32):
            coeffs = np.zeros(n_max + 1, dtype=np.complex128)
            coeffs[:9] = cone_state(seed).coeffs
            init = SpectralState(FlowParams(p=1, lam=2.0, n_max=n_max), 0.0, coeffs)
            traj = integrate(init, StepControl(k0_stop=10**0.5))
            assert traj.has_event("blow_up_stop")
            assert len(traj.snapshots) == 21
            assert traj.k0[-1] == pytest.approx(10**0.5, rel=1e-12)

    def test_tight_tolerance_stays_cheap(self):
        # abs_tol is in units of the mean, so it never asks for less than the
        # FFT round-off (about eps k0) as the mean grows
        traj = integrate(cone_state(0), TIGHT, trap_c=256.0)
        assert step_calls(traj) < 2000

    def test_rungs_match_a_tight_run(self):
        # the rungs on the steps' order-4 extensions stay near the error
        # control's accuracy: about 3e-13 of k0 off a run at rel_tol 1e-13,
        # where rungs landed by their own steps were 9e-13 off
        loose = integrate(cone_state(0), StepControl(k0_stop=1e6))
        tight = integrate(cone_state(0), StepControl(k0_stop=1e6, rel_tol=1e-13, abs_tol=1e-16))
        assert len(loose.snapshots) == len(tight.snapshots) == 241
        assert np.max(np.abs(loose.coeffs - tight.coeffs) / tight.k0[:, None]) <= 2e-12


def first_multi_rung_step(init: SpectralState, control: StepControl) -> np.ndarray:
    """c[0] at the rungs of the first step of ``integrate`` that crosses two
    rungs or more, in time order: the rows of the first batched profile of
    two extension points or more."""
    stacks, profile = [], RhsPlan.profile

    def spy(plan, coeffs):
        stacks.append(coeffs[:, 0].real.copy())
        return profile(plan, coeffs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RhsPlan, "profile", spy)
        integrate(init, control)
    return next(c0 for c0 in stacks if c0.size >= 2)


class TestMultiRungSteps:
    def test_at_most_three_rhs_calls_per_rung(self, monkeypatch):
        # snapshots are points on the steps' extensions, at no RHS call
        calls, evaluate = [0], RhsPlan.__call__

        def counted(plan, coeffs):
            calls[0] += 1
            return evaluate(plan, coeffs)

        monkeypatch.setattr(RhsPlan, "__call__", counted)
        traj = integrate(cone_state(0), StepControl(k0_stop=1e6), trap_c=256.0)
        assert [e[1] for e in traj.events] == ["blow_up_stop"]
        assert calls[0] <= 3 * (len(traj.snapshots) - 1)

    @pytest.mark.parametrize(
        "init, control",
        [(cone_state(0), StepControl(k0_stop=1e4, snapshots_per_decade=400))],
        ids=["n_max8_400_per_decade"],
    )
    def test_one_step_lands_many_rungs(self, init, control):
        # a step that crosses many rungs puts each within 1e-12 of its level
        traj = integrate(init, control)
        assert [e[1] for e in traj.events] == ["blow_up_stop"]
        ratio = 10 ** (1 / control.snapshots_per_decade)
        levels = ratio ** np.arange(1, len(traj.snapshots))
        assert len(levels) == round(control.snapshots_per_decade * math.log10(control.k0_stop))
        assert len(levels) >= 20 * traj.stats.accepted
        assert np.all(np.abs(traj.k0[1:] - levels) <= 1e-12 * levels)

    def test_positivity_loss_at_first_offending_member(self, monkeypatch):
        # the profile turns negative above a level between the first two rungs
        # of one step: the run ends on the second, which the step's later
        # rungs and its end follow in time, keeping every snapshot before it
        control = StepControl(k0_stop=1e2)
        reference = integrate(cone_state(0), control)
        c0 = first_multi_rung_step(cone_state(0), control)
        level = 0.5 * (c0[0] + c0[1])
        evaluate, profile = RhsPlan.__call__, RhsPlan.profile

        def turning(plan, coeffs):
            deriv, grid = evaluate(plan, coeffs)
            return deriv, np.where(coeffs[..., :1].real > level, -grid, grid)

        def turning_profile(plan, coeffs):
            grid = profile(plan, coeffs)
            return np.where(coeffs[..., :1].real > level, -grid, grid)

        monkeypatch.setattr(RhsPlan, "__call__", turning)
        monkeypatch.setattr(RhsPlan, "profile", turning_profile)
        traj = integrate(cone_state(0), control)
        kept = int(np.searchsorted(reference.k0, level)) + 1
        assert [e[1] for e in traj.events] == ["positivity_loss"]
        assert traj.events[0][0] == traj.times[-1] == reference.times[kept - 1]
        assert traj.times.tolist() == reference.times[:kept].tolist()
        assert traj.coeffs.tolist() == reference.coeffs[:kept].tolist()

    def test_trap_violation_at_first_offending_member(self, monkeypatch):
        # the margin turns negative above a level between the first two rungs
        # of one step: the event is at the second, and the run goes on
        control = StepControl(k0_stop=1e2)
        reference = integrate(cone_state(0), control)
        c0 = first_multi_rung_step(cone_state(0), control)
        level = 0.5 * (c0[0] + c0[1])
        monkeypatch.setattr(stepping, "trap_margin", lambda coeffs, c: level - coeffs[..., 0].real)
        traj = integrate(cone_state(0), control, trap_c=256.0)
        first = int(np.searchsorted(reference.k0, level))
        assert [e[1] for e in traj.events] == ["trap_violation", "blow_up_stop"]
        assert traj.events[0][0] == reference.times[first]
        assert traj.times.tolist() == reference.times.tolist()
        assert traj.coeffs.tolist() == reference.coeffs.tolist()


class TestExtension:
    @pytest.mark.parametrize("x", [-700.0, -30.0, -5.0, -1.0 - 1e-4, -1.0 + 1e-4, -0.3, -1e-9, 0.0, 1e-3, 0.99, 1.5])
    def test_phi_functions_match_a_decimal_reference(self, x):
        # phi_0 = exp, phi_{k+1}(x) = (phi_k(x) - 1/k!)/x, at 80 digits
        with localcontext() as ctx:
            ctx.prec = 80
            exact = [Decimal(x).exp()]
            for k in range(4):
                inverse = 1 / Decimal(math.factorial(k))
                exact.append((exact[-1] - inverse) / Decimal(x) if x else inverse / (k + 1))
        for phi in (stepping._phi(x), stepping._phi(np.array([x]))[:, 0]):
            assert max(abs(float(Decimal(float(v)) / e - 1)) for v, e in zip(phi, exact)) <= 1e-14

    @pytest.mark.parametrize("z", [0.0, -0.5, 2.0, -40.0, -1e6])
    def test_exact_for_constant_forcing(self, z):
        # with N constant every stage is N, and the extension is the exact
        # solution exp(theta z) y + h theta phi_1(theta z) N, with no overflow
        # on a stiff rate
        h, y, n = 0.7, 1.3, -0.4
        hp = h * (stepping._DENSE @ np.full(7, n))
        for theta in (0.0, 0.25, 0.5, 1.0):
            exact = math.exp(theta * z) * y + h * n * (theta if z == 0 else math.expm1(theta * z) / z)
            assert stepping._extend(theta, z, y, hp) == pytest.approx(exact, rel=1e-14, abs=1e-16)


class TestLawsonAgainstDP5:
    # A rung's t is stored to an ulp of T, and c0 ~ (T - t)^{-1/(p+1)}, so a
    # comparison at equal t resolves c0 only to ulp(T) / ((p+1)(T - t)): the
    # runs stop before that floor passes 1e-10 (it is 4e-9 at k0=1e4 for p=1).
    @pytest.mark.parametrize("p,k0_stop", [(1, 1e3), (2, 1e2)])
    def test_rungs_match_plain_dp5_under_the_old_cap(self, p, k0_stop):
        # advance every 10th rung snapshot with plain DP5 steps below the
        # stiffness cap 0.8 / (lam^2 n_max^2 c0^{p+1}) to the next one's t
        params = FlowParams(p=p, lam=2.0, n_max=8)
        control = StepControl(k0_stop=k0_stop)
        traj = integrate(make_state(params, {0: 1.0, 1: 0.0025}), control)
        assert traj.has_event("blow_up_stop")
        pairs = list(zip(traj.snapshots[:-1], traj.snapshots[1:]))[::10]
        assert len(pairs) >= 8
        for start, end in pairs:
            cap = 0.8 / (4.0 * 64 * start.mean ** (p + 1))
            substeps = int(np.ceil((end.t - start.t) / cap)) + 1
            state = start
            for _ in range(substeps):
                state, _ = step(state, (end.t - start.t) / substeps, control)
            assert np.max(np.abs(state.coeffs - end.coeffs)) / end.mean <= 1e-9


@pytest.mark.parametrize(
    "run",
    [lambda init: integrate(init, StepControl(k0_stop=1e2)), lambda init: integrate_normalized(init, 1.0)],
    ids=["integrate", "integrate_normalized"],
)
def test_one_rhs_plan_per_run(monkeypatch, run):
    # the flow's plan evaluates the stages and gives the snapshots' profiles
    built, init_plan = [0], RhsPlan.__init__

    def counted(plan, params):
        built[0] += 1
        init_plan(plan, params)

    monkeypatch.setattr(RhsPlan, "__init__", counted)
    traj = run(cone_state(0))
    assert len(traj.snapshots) > 2 and built[0] == 1


class TestPositivity:
    def test_initial_positivity_required(self):
        init = make_state(P1, {0: 1.0, 1: 0.7})
        with pytest.raises(PositivityError):
            integrate(init, StepControl(k0_stop=10.0))

    def test_positivity_loss_event(self):
        # strongly non-trapped data: the profile touches zero mid-run
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 0.495})
        traj = integrate(init, StepControl(k0_stop=1e4))
        assert traj.has_event("positivity_loss")
        assert not traj.has_event("blow_up_stop")


class TestIntegrateNormalized:
    def test_steady_state_stays_steady(self):
        params = FlowParams(p=2, lam=2.0, n_max=4)
        traj = integrate_normalized(make_state(params, {0: 1.0}), 1.0, StepControl())
        final = traj.snapshots[-1]
        assert final.t == pytest.approx(1.0, abs=1e-12)
        assert abs(final.mean - 1.0) < 1e-12
        assert np.all(final.coeffs[1:] == 0.0)

    @pytest.mark.parametrize(
        "tau0,horizon,marks",
        [
            (0.0, 0.5, [0.1, 0.2, 0.30000000000000004, 0.4, 0.5]),
            (0.0, 0.35, [0.1, 0.2, 0.30000000000000004, 0.35]),
            (0.25, 1.0, [0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001, 0.8, 0.9, 1.0]),
            (0.0, 8.5, [j * 0.1 for j in range(1, 86)]),
        ],
        ids=["to_0.5", "to_0.35", "from_0.25", "to_8.5"],
    )
    def test_snapshots_on_tau_marks(self, tau0, horizon, marks):
        # the multiples of 0.1 past the start, and the horizon; each snapshot
        # is the step landed on its mark
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025}, t=tau0)
        traj = integrate_normalized(init, horizon, StepControl(), renormalize_mean=True)
        assert [s.t for s in traj.snapshots[1:]] == pytest.approx(marks, rel=0.0, abs=1e-12)
        assert traj.events == []

    @pytest.mark.parametrize(
        "wanted,marks",
        [([0.123, 0.456, 0.7], [0.123, 0.456, 0.7]), ([0.2, 0.2, 0.5], [0.2, 0.5]), ([0.2, 0.5], [0.2, 0.5])],
        ids=["spread", "repeated_mark", "last_mark_before_horizon"],
    )
    def test_explicit_tau_snapshots(self, wanted, marks):
        # a repeated mark counts once, and the run ends on its last mark: to
        # horizon 0.8 it is the run to that mark, bit for bit and step for step
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        traj = integrate_normalized(init, 0.8, StepControl(), tau_snapshots=wanted)
        assert [s.t for s in traj.snapshots[1:]] == pytest.approx(marks, rel=0.0, abs=1e-12)
        assert traj.events == []
        to_last = integrate_normalized(init, marks[-1], StepControl(), tau_snapshots=wanted)
        assert traj.times.tolist() == to_last.times.tolist()
        assert traj.coeffs.tolist() == to_last.coeffs.tolist()
        assert replace(traj.stats, wall_s=0.0) == replace(to_last.stats, wall_s=0.0)

    def test_renormalized_mean_pinned(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        traj = integrate_normalized(init, 1.0, StepControl(), renormalize_mean=True)
        assert all(s.mean == 1.0 for s in traj.snapshots)

    def test_deviation_decays_at_beta(self):
        # p=1, lam=2: sup deviation ~ exp(-2 tau)
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        traj = integrate_normalized(init, 3.0, StepControl(), renormalize_mean=True)
        first, last = traj.snapshots[1], traj.snapshots[-1]
        drop = abs(last.coeffs[1]) / abs(first.coeffs[1])
        expected = np.exp(-2.0 * (last.t - first.t))
        assert drop == pytest.approx(expected, rel=0.02)

    def test_pinning_the_mean_costs_no_extra_evaluation(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        # the pinned mean is a zero mean derivative in the field, so neither
        # run evaluates more than the first N(y) and six per step; the marks
        # are points on the steps' extensions and cost none
        plain = integrate_normalized(init, 0.5, StepControl()).stats
        pinned = integrate_normalized(init, 0.5, StepControl(), renormalize_mean=True).stats
        for stats in (plain, pinned):
            assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)
        assert pinned.min_trap_margin is None

    # mean-1 data inside the trapping cone (p=1, lam=2): the seed-0 p=1 input
    # of the benchmark's normalized_tau8 workload
    CONE = {
        0: 1.0,
        1: 0.0001079812087022787 - 0.002158732899672387j,
        2: -6.899545316701586e-06 + 0.00012302100418630762j,
        3: -5.504510792601366e-05 + 3.744192587674409e-05j,
    }

    def test_pinned_run_converges_in_the_step(self):
        # the mean is pinned in the field, not projected after each step, so
        # the run is the mean-1 flow to the error control's accuracy; a
        # step-then-project split is off by O(step) (about 3e-7 here)
        init = make_state(FlowParams(p=1, lam=2.0, n_max=8), self.CONE)
        end, fine = (
            integrate_normalized(init, 2.0, control, renormalize_mean=True).snapshots[-1]
            for control in (StepControl(), StepControl(max_step=1e-3))
        )
        assert end.t == pytest.approx(2.0, rel=0.0, abs=1e-12) and fine.t == pytest.approx(2.0, rel=0.0, abs=1e-12)
        assert np.max(np.abs(end.coeffs[1:] - fine.coeffs[1:])) <= 1e-9 * np.max(np.abs(fine.coeffs[1:]))

    def test_marks_match_a_fine_run(self):
        # every mode's extension is the phi-function form, stiff or not: the
        # marks are within 1e-13 of a run at max_step 1e-2 (about 1e-14),
        # where exponential Euler on the modes with |h L| > 5 is 2.6e-12 off
        init = make_state(FlowParams(p=1, lam=2.0, n_max=8), self.CONE)
        default, fine = (
            integrate_normalized(init, 8.5, control, renormalize_mean=True)
            for control in (StepControl(), StepControl(max_step=1e-2, rel_tol=1e-12))
        )
        assert default.times.tolist() == fine.times.tolist()
        assert np.max(np.abs(default.coeffs - fine.coeffs)) <= 1e-13

    def test_first_step_is_not_longer_than_the_first_mark(self, monkeypatch):
        # the first step is no longer than to the first mark (0.1), not
        # max_step = 1, which would cross ten marks before error control shrank it
        lengths, attempt = [], stepping._Stepper.attempt
        monkeypatch.setattr(stepping._Stepper, "attempt", lambda core, h: lengths.append(h) or attempt(core, h))
        init = make_state(FlowParams(p=1, lam=2.0, n_max=8), self.CONE)
        integrate_normalized(init, 8.5, StepControl(), renormalize_mean=True)
        assert lengths[0] <= 0.1

    def test_initial_positivity_required(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.55})
        with pytest.raises(PositivityError):
            integrate_normalized(init, 1.0, StepControl())

    def test_collapse_preserves_positivity(self):
        # sub-equilibrium data dies to zero without ever crossing it: at a
        # spatial minimum u_tau >= -u, so the min decays but stays positive
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.45})
        traj = integrate_normalized(init, 5.0, StepControl())
        assert not traj.has_event("positivity_loss")
        assert traj.snapshots[-1].mean < 0.01
        assert np.min(synthesize(traj.snapshots[-1], 64)) > 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_normalized_blow_up_hits_step_floor(self, p):
        # super-equilibrium data blows up in finite tau; error control on the
        # growing mean shrinks dt until tau no longer resolves it, and the run
        # halts with the event.  Steps whose stages overflow are rejected
        # and shrink like any other.
        params = FlowParams(p=p, lam=2.0, n_max=4)
        init = make_state(params, {0: 3.0, 1: 0.7})
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_normalized(init, 10.0, StepControl())
        assert traj.has_event("step_floor")
        # the run keeps the point it reached, and dt spans the steps that moved t
        assert 0.0 < traj.snapshots[-1].t < 10.0
        assert 0.0 < traj.stats.dt_min <= traj.stats.dt_max

    def test_min_step_does_not_bound_the_gap_to_a_mark(self):
        # a mark is a point on a step's extension, so min_step bounds the
        # controller's steps only (here at least about 9e-3), not the gap
        # from a step to the next mark
        init = make_state(FlowParams(p=1, lam=2.0, n_max=8), {0: 1.0, 1: 0.0025, 2: 0.001j})
        traj = integrate_normalized(init, 1.0, StepControl(min_step=1e-3))
        assert traj.events == []
        assert traj.snapshots[-1].t == pytest.approx(1.0, rel=0.0, abs=1e-12)

    def test_collapse_takes_few_steps(self):
        # the rates are refrozen at the shrinking mean, so they never grow
        # stiffer than the flow: at most the 586 step calls of plain DP5
        # under the old stiffness cap
        params = FlowParams(p=1, lam=2.0, n_max=4)
        stats = integrate_normalized(make_state(params, {0: 1.0, 1: 0.45}), 5.0, StepControl()).stats
        assert stats.accepted + stats.rejected <= 586

    def test_step_count_does_not_grow_with_band_width(self):
        def steps(n_max):
            init = make_state(FlowParams(p=1, lam=2.0, n_max=n_max), {0: 1.0, 1: 0.0025})
            return integrate_normalized(init, 8.5, StepControl(), renormalize_mean=True).stats.accepted

        assert steps(32) <= 1.5 * steps(8)


class TestNormalizedLawsonAgainstDP5:
    @pytest.mark.parametrize(
        "p,entries,horizon",
        [(1, {0: 1.0, 1: 0.0025}, 2.0), (2, {0: 1.0, 1: 0.0025}, 2.0), (1, {0: 1.0, 1: 0.45}, 5.0)],
        ids=["p1", "p2", "collapse"],
    )
    def test_marks_match_plain_dp5(self, p, entries, horizon):
        # re-step every 5th interval between tau marks with plain DP5 on
        # normalized_rhs, in equal substeps below the old stiffness cap
        # 0.8 / (p lam^2 n_max^2 max(u)^{p+1})
        params = FlowParams(p=p, lam=2.0, n_max=4)
        control = StepControl()
        traj = integrate_normalized(make_state(params, entries), horizon, control)
        pairs = list(zip(traj.snapshots[:-1], traj.snapshots[1:]))[::5]
        assert len(pairs) >= 4
        for start, end in pairs:
            peak = max(float(synthesize(start).max()), 1.0)
            cap = 0.8 / (p * 4.0 * 16 * peak ** (p + 1))
            substeps = int(np.ceil((end.t - start.t) / cap)) + 1
            state = start
            for _ in range(substeps):
                state, _ = step(state, (end.t - start.t) / substeps, control, rhs=normalized_rhs)
            assert np.max(np.abs(state.coeffs - end.coeffs)) / end.mean <= 1e-9


class TestTwoRouteConsistency:
    def test_rescaled_run_matches_direct_normalized(self):
        # integrate the blow-up system, rescale snapshots with the fitted T,
        # and compare against direct normalized integration started from the
        # rescaled initial state, at the same tau stamps
        params = FlowParams(p=1, lam=2.0, n_max=8)
        init = make_state(params, {0: 1.0, 1: 5e-4})
        traj = integrate(init, StepControl(rel_tol=1e-12, abs_tol=1e-16, k0_stop=1e6))
        T, _ = estimate_T(traj)
        frame_taus, u = normalized_frame(traj, T)
        keep = (0.0 < frame_taus) & (frame_taus <= 2.0)
        taus, rescaled = frame_taus[keep].tolist(), u[keep]
        assert len(taus) >= 20
        direct = integrate_normalized(
            SpectralState(params, frame_taus[0], u[0]),
            taus[-1],
            StepControl(rel_tol=1e-12, abs_tol=1e-16),
            tau_snapshots=taus,
        )
        worst = 0.0
        for u_direct in direct.snapshots[1:]:
            i = int(np.argmin(np.abs(np.array(taus) - u_direct.t)))
            assert abs(taus[i] - u_direct.t) < 1e-9
            a = synthesize(SpectralState(params, taus[i], rescaled[i]), 64)
            b = synthesize(u_direct, 64)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-6


class TestTrajectory:
    def test_append_requires_increasing_times(self):
        traj = Trajectory(params=P1)
        traj.append(make_state(P1, {0: 1.0}, t=0.0))
        with pytest.raises(ValueError):
            traj.append(make_state(P1, {0: 1.0}, t=0.0))

    def test_stacked_views_match_snapshots(self):
        traj = integrate(make_state(P1, {0: 1.0, 1: 0.002 + 0.001j}), StepControl(k0_stop=100.0))
        coeffs = traj.coeffs
        assert coeffs.shape == (len(traj.snapshots), P1.n_max + 1)
        assert np.array_equal(coeffs, [s.coeffs for s in traj.snapshots])
        assert traj.k0.tolist() == [s.mean for s in traj.snapshots]
        assert traj.mode(1).tolist() == [s.coeffs[1] for s in traj.snapshots]

    def test_empty_trajectory_views(self):
        traj = Trajectory(params=P1)
        assert traj.coeffs.shape == (0, P1.n_max + 1) and traj.coeffs.dtype == np.complex128
        assert traj.k0.shape == (0,) and traj.k0.dtype == np.float64
        assert traj.mode(1).shape == (0,)
        assert traj.times.shape == (0,)
