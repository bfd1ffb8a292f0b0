import math
import random

import numpy as np
import pytest

from pcsflow.blowup import estimate_T, select_c, trap_margin
from pcsflow.checks import blowup_time_defect, exact_blowup_time
from pcsflow.errors import PositivityError
from pcsflow.normalize import rescale_state
from pcsflow.rhs import normalized_rhs
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
            StepControl(safety=1.5)
        with pytest.raises(ValueError):
            StepControl(abs_tol=-1.0)


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
        assert abs(exact_blowup_time(p, a) - t_end - (p / (p + 1)) * k_end ** -(p + 1)) < 1e-8

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
        assert run.stats.min_trap_margin <= min(trap_margin(s, 256.0) for s in run.snapshots)

    def test_rungs_landed_with_at_most_two_steps_each(self, run):
        ratio = 10 ** (1 / 40)
        k0 = run.k0[1:-1]
        levels = run.k0[0] * ratio ** np.round(np.log(k0 / run.k0[0]) / np.log(ratio))
        assert np.all(np.abs(k0 - levels) <= 1e-12 * levels)
        assert 0 < run.stats.landing <= 2 * len(k0)

    def test_fsal_costs_six_evaluations_per_step(self, run):
        stats = run.stats
        assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected + stats.landing)
        assert 0.0 < stats.dt_min <= stats.dt_max and 0.0 <= stats.cap_bound_frac <= 1.0
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
    stats, rungs = traj.stats, len(traj.snapshots) - 1
    calls = stats.accepted + stats.rejected + stats.landing
    assert traj.has_event("blow_up_stop")
    assert stats.rhs_evals == 1 + 6 * calls
    assert 0 < stats.landing <= 2 * rungs
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


class TestLawsonAgainstDP5:
    # A rung's t is stored to an ulp of T, and c0 ~ (T - t)^{-1/(p+1)}, so a
    # comparison at equal t resolves c0 only to ulp(T) / ((p+1)(T - t)): the
    # runs stop before that floor passes 1e-10 (it is 4e-9 at k0=1e4 for p=1).
    @pytest.mark.parametrize("p,k0_stop", [(1, 1e3), (2, 1e2)])
    def test_rungs_match_plain_dp5_under_the_old_cap(self, p, k0_stop):
        # advance every 10th rung snapshot with plain DP5 steps below the
        # stiffness cap safety / (lam^2 n_max^2 c0^{p+1}) to the next one's t
        params = FlowParams(p=p, lam=2.0, n_max=8)
        control = StepControl(k0_stop=k0_stop)
        traj = integrate(make_state(params, {0: 1.0, 1: 0.0025}), control)
        assert traj.has_event("blow_up_stop")
        pairs = list(zip(traj.snapshots[:-1], traj.snapshots[1:]))[::10]
        assert len(pairs) >= 8
        for start, end in pairs:
            cap = control.safety / (4.0 * 64 * start.mean ** (p + 1))
            substeps = int(np.ceil((end.t - start.t) / cap)) + 1
            state = start
            for _ in range(substeps):
                state, _ = step(state, (end.t - start.t) / substeps, control)
            assert np.max(np.abs(state.coeffs - end.coeffs)) / end.mean <= 1e-9


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

    def test_snapshots_on_tau_marks(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        traj = integrate_normalized(init, 0.5, StepControl(), renormalize_mean=True)
        marks = np.array([s.t for s in traj.snapshots[1:]])
        assert np.allclose(marks, np.arange(1, 6) * 0.1, atol=1e-12)

    def test_explicit_tau_snapshots(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        wanted = [0.123, 0.456, 0.7]
        traj = integrate_normalized(init, 0.8, StepControl(), tau_snapshots=wanted)
        got = [s.t for s in traj.snapshots[1:]]
        assert got == pytest.approx(wanted, abs=1e-12)

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

    def test_renormalizing_costs_one_extra_evaluation_per_step(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 1.0, 1: 0.0025})
        plain = integrate_normalized(init, 0.5, StepControl()).stats
        assert plain.rhs_evals == 1 + 6 * (plain.accepted + plain.rejected)
        pinned = integrate_normalized(init, 0.5, StepControl(), renormalize_mean=True).stats
        assert pinned.rhs_evals == 1 + 6 * (pinned.accepted + pinned.rejected) + pinned.accepted
        assert pinned.landing == 0 and pinned.min_trap_margin is None

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
        assert np.min(synthesize(traj.snapshots[-1], 64).values) > 0.0

    def test_normalized_blow_up_hits_step_floor(self):
        # super-equilibrium data blows up in finite tau; error control on the
        # growing mean shrinks dt until tau no longer resolves it, and the run
        # halts with the event
        params = FlowParams(p=1, lam=2.0, n_max=4)
        init = make_state(params, {0: 3.0, 1: 0.7})
        traj = integrate_normalized(init, 10.0, StepControl())
        assert traj.has_event("step_floor")
        assert traj.snapshots[-1].t < 10.0

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
        # safety / (p lam^2 n_max^2 max(u)^{p+1})
        params = FlowParams(p=p, lam=2.0, n_max=4)
        control = StepControl()
        traj = integrate_normalized(make_state(params, entries), horizon, control)
        pairs = list(zip(traj.snapshots[:-1], traj.snapshots[1:]))[::5]
        assert len(pairs) >= 4
        for start, end in pairs:
            peak = max(float(synthesize(start).values.max()), 1.0)
            cap = control.safety / (p * 4.0 * 16 * peak ** (p + 1))
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
        taus, rescaled = [], []
        for s in traj.snapshots:
            if s.t >= T:
                continue
            u = rescale_state(s, T)
            if 0.0 < u.t <= 2.0:
                taus.append(u.t)
                rescaled.append(u)
        assert len(taus) >= 20
        direct = integrate_normalized(
            rescale_state(traj.snapshots[0], T),
            taus[-1],
            StepControl(rel_tol=1e-12, abs_tol=1e-16),
            tau_snapshots=taus,
        )
        worst = 0.0
        for u_direct in direct.snapshots[1:]:
            i = int(np.argmin(np.abs(np.array(taus) - u_direct.t)))
            assert abs(taus[i] - u_direct.t) < 1e-9
            a = synthesize(rescaled[i], 64).values
            b = synthesize(u_direct, 64).values
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
