import math

import numpy as np
import pytest

from pcsflow.blowup import (
    alpha_exponent,
    beta_rate,
    c_is_heuristic,
    certify,
    check_hypothesis,
    circle_time,
    envelope_check,
    envelope_lower,
    envelope_upper,
    estimate_T,
    fit_power,
    select_c,
    trap_margin,
)
from pcsflow.checks import blowup_time_defect
from pcsflow.errors import AnalysisError, PositivityError
from pcsflow.spectral import FlowParams, SpectralState
from pcsflow.stepping import StepControl, Trajectory, integrate

from conftest import make_state

P18 = FlowParams(p=1, lam=2.0, n_max=8)


class TestTheoryConstants:
    def test_alpha_values(self):
        assert alpha_exponent(2.0, 1, 1) == pytest.approx(0.5)
        assert alpha_exponent(2.0, 2, 1) == pytest.approx(6.5)
        assert alpha_exponent(2.0, 1, 2) == pytest.approx(4.0 / 3.0)

    def test_beta_values(self):
        assert beta_rate(2.0, 1) == pytest.approx(2.0)
        assert beta_rate(2.0, 2) == pytest.approx(5.0)
        assert beta_rate(2.5, 1) == pytest.approx(4.25)


class TestSelectC:
    def test_p1_lam2(self):
        assert select_c(FlowParams(p=1, lam=2.0, n_max=4)) == pytest.approx(256.0)

    def test_p1_diverges_at_threshold(self):
        values = [
            select_c(FlowParams(p=1, lam=math.sqrt(3) * (1 + eps), n_max=2))
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 1e6

    def test_p2_heuristic(self):
        params = FlowParams(p=2, lam=2.0, n_max=4)
        assert select_c(params) == pytest.approx(128.0)
        assert c_is_heuristic(2)
        assert not c_is_heuristic(1)


class TestCheckHypothesis:
    def test_small_cosine_passes(self):
        # psi = 1 + 0.005 cos(2 theta): seminorm 0.0025, margin 1 - 0.64
        psi = make_state(P18, {0: 1.0, 1: 0.0025})
        rep = check_hypothesis(psi, 256.0)
        assert rep.holds
        assert rep.mean == 1.0
        assert rep.seminorm2 == pytest.approx(0.0025)
        assert rep.margin == pytest.approx(0.36)

    def test_constant_always_passes(self):
        rep = check_hypothesis(make_state(P18, {0: 0.2}), 1e9)
        assert rep.holds and rep.seminorm2 == 0.0

    def test_larger_cosine_fails(self):
        psi = make_state(P18, {0: 1.0, 1: 0.005})
        rep = check_hypothesis(psi, 256.0)
        assert not rep.holds
        assert rep.margin == pytest.approx(1.0 - 1.28)

    def test_boundary_at_one_over_128(self):
        # bisection over delta locates the pass/fail boundary at 2/c = 1/128
        lo, hi = 1e-3, 2e-2
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if check_hypothesis(make_state(P18, {0: 1.0, 1: mid / 2}), 256.0).holds:
                lo = mid
            else:
                hi = mid
        quantum = hi - lo
        assert abs(lo - 1.0 / 128.0) <= quantum + 1e-15

    def test_positivity_on_the_grid_integrate_checks(self):
        # 1 + 2 Re(c10 e^{10 i lam theta}) dips below 0, but between the 40
        # points of the default grid; the 64-point padded grid sees the dip,
        # and so does integrate, which refuses the start
        psi = make_state(FlowParams(p=1, lam=2.0, n_max=10), {0: 1.0, 10: -0.4484 + 0.2877j})
        rep = check_hypothesis(psi, 1e-3)
        assert rep.margin > 0.0 and not rep.holds
        with pytest.raises(PositivityError):
            integrate(psi)


class TestTrapMargin:
    def test_constant(self):
        assert trap_margin(make_state(P18, {0: 1.7}).coeffs, 256.0) == pytest.approx(1.7)

    def test_half_and_full_boundary(self):
        c = 100.0
        inner = make_state(P18, {0: 1.0, 1: 1.0 / (2 * c)})
        assert trap_margin(inner.coeffs, c) == pytest.approx(0.5)
        boundary = make_state(P18, {0: 1.0, 1: 1.0 / c})
        assert trap_margin(boundary.coeffs, c) == pytest.approx(0.0, abs=1e-15)

    def test_homogeneity(self):
        s = make_state(P18, {0: 1.0, 1: 0.001 + 0.002j, 3: -0.0004j})
        for a in (0.5, 3.0):
            assert trap_margin(s.scaled(a).coeffs, 256.0) == pytest.approx(
                a * trap_margin(s.coeffs, 256.0), rel=1e-13
            )


@pytest.fixture(scope="module")
def constant_run():
    params = FlowParams(p=1, lam=2.0, n_max=2)
    return integrate(
        make_state(params, {0: 1.0}),
        StepControl(rel_tol=1e-12, abs_tol=1e-16, k0_stop=1e4),
    )


@pytest.fixture(scope="module")
def perturbed_run():
    init = make_state(P18, {0: 1.0, 1: 0.0025})
    return integrate(init, StepControl(k0_stop=1e5), trap_c=256.0)


class TestEstimateT:
    @pytest.mark.parametrize("p,a", [(1, 0.5), (2, 1.0), (3, 2.0)])
    def test_constant_matrix(self, p, a):
        params = FlowParams(p=p, lam=2.0, n_max=2)
        k0_stop = {1: 1e5, 2: 1e4, 3: 1e3}[p]
        traj = integrate(
            make_state(params, {0: a}),
            StepControl(rel_tol=1e-12, abs_tol=1e-16, k0_stop=k0_stop),
        )
        assert blowup_time_defect(traj) < 1e-6
        assert estimate_T(traj)[1] < 1e-6 * circle_time(p, a)

    def test_requires_deep_run(self):
        params = FlowParams(p=1, lam=2.0, n_max=2)
        traj = integrate(make_state(params, {0: 1.0}), StepControl(k0_stop=50.0))
        with pytest.raises(AnalysisError):
            estimate_T(traj)

    def test_uncertainty_covers_shallow_estimate_on_cone_edge_data(self):
        # modes 1-3 on the edge of the cone of select_c / 32, far outside the
        # certified one: a correction term to the straight line is largest here
        c = select_c(P18) / 32
        init = make_state(P18, {0: 1.0, **{n: (1 - 0.5j) / (c * n**2) for n in (1, 2, 3)}})
        T_shallow, unc = estimate_T(integrate(init, StepControl(k0_stop=1e3)))
        T_deep, _ = estimate_T(integrate(init, StepControl(k0_stop=1e5)))
        assert abs(T_shallow - T_deep) <= unc


class TestFitPower:
    def test_synthetic_power_law(self):
        # build an artificial trajectory with |c1| = 0.3 (T-t)^0.8 exactly
        params = FlowParams(p=1, lam=2.0, n_max=2)
        T = 0.5
        traj = Trajectory(params=params)
        for d in np.geomspace(1e-2, 1e-6, 40):
            t = T - d
            k0 = (2 * d) ** -0.5
            coeffs = np.array([k0, 0.3 * d**0.8, 0.0], dtype=complex)
            traj.append(SpectralState(params, t, coeffs))
        fit = fit_power(traj, T, 1)
        assert fit.exponent == pytest.approx(0.8, abs=1e-9)
        assert fit.n_points >= 30

    def test_mode_at_floor_rejected(self, constant_run):
        with pytest.raises(AnalysisError):
            fit_power(constant_run, 0.5, 1)

    def test_measured_exponent_matches_alpha(self, perturbed_run):
        T_est, _ = estimate_T(perturbed_run)
        fit = fit_power(perturbed_run, T_est, 1, window=(1e-5, 1e-2))
        assert fit.exponent == pytest.approx(alpha_exponent(2.0, 1, 1), abs=0.05)

    @pytest.mark.parametrize(
        "p,lam,k0_stop",
        [(1, 2.5, 1e4), (2, 1.6, 2e3), (2, 2.0, 2e3)],
    )
    def test_exponent_matrix(self, p, lam, k0_stop):
        # mode-1 slope within 10% of alpha across the (p, lam) matrix;
        # points at the round-off floor are dropped by the fitter
        params = FlowParams(p=p, lam=lam, n_max=8)
        psi = make_state(params, {0: 1.0, 1: 0.0025})
        assert check_hypothesis(psi, select_c(params)).holds
        traj = integrate(psi, StepControl(k0_stop=k0_stop))
        T_est, _ = estimate_T(traj)
        fit = fit_power(traj, T_est, 1)
        theory = alpha_exponent(lam, 1, p)
        assert abs(fit.exponent - theory) <= 0.10 * theory


class TestEnvelopes:
    def test_bounds_bracket_exact_constant_solution(self):
        p, T = 1, 0.5
        ts = T - np.geomspace(1e-2, 1e-5, 50)
        exact = (p / ((p + 1) * (T - ts))) ** (1.0 / (p + 1))
        low = envelope_lower(p, T, ts)
        high = envelope_upper(p, T, ts)
        assert np.all(low < exact)
        assert np.all(exact < high)

    def test_upper_requires_small_window(self):
        with pytest.raises(AnalysisError):
            envelope_upper(1, 3.0, 0.5)  # T - t = 2.5 > 1

    def test_constant_run_inside_envelopes(self, constant_run):
        T_est, _ = estimate_T(constant_run)
        report = envelope_check(constant_run, T_est, window=(1e-4, 1e-3))
        assert report.ok and report.n_checked >= 10

    def test_perturbed_run_inside_envelopes(self, perturbed_run):
        T_est, _ = estimate_T(perturbed_run)
        report = envelope_check(perturbed_run, T_est, window=(1e-4, 1e-3))
        assert report.ok

    def test_detects_violation(self, constant_run):
        # grossly wrong T pushes the data outside the envelopes
        report = envelope_check(constant_run, 0.502, window=(1e-3, 1e-2))
        assert not report.ok


class TestCertify:
    def test_constant_trajectory_holds(self, constant_run):
        cert = certify(constant_run, 256.0)
        assert cert.holds
        assert cert.min_margin == pytest.approx(1.0, abs=1e-12)  # first snapshot

    def test_perturbed_run_holds_everywhere(self, perturbed_run):
        cert = certify(perturbed_run, 256.0)
        assert cert.holds
        assert cert.min_margin == pytest.approx(0.36, abs=1e-6)

    def test_margins_match_trap_margin_per_snapshot(self, perturbed_run):
        # certify works on the stacked coefficients; trap_margin is the
        # per-snapshot reference, bit for bit
        cert = certify(perturbed_run, 256.0)
        assert cert.margins == [(s.t, trap_margin(s.coeffs, 256.0)) for s in perturbed_run.snapshots]

    def test_scaled_violation_reported(self, perturbed_run):
        # artificially inflate the tail of one snapshot beyond the cone
        bad = perturbed_run.snapshots[0]
        coeffs = bad.coeffs.copy()
        coeffs[1] *= 1000.0
        traj = Trajectory(params=bad.params)
        traj.append(SpectralState(bad.params, 0.0, coeffs))
        cert = certify(traj, 256.0)
        assert not cert.holds
        assert cert.min_margin < 0


class TestTrappingInvariance:
    def test_hypothesis_implies_certificate(self):
        # regression over a small matrix of admissible initial data
        rng = np.random.default_rng(7)
        for p, lam in ((1, 2.0), (2, 2.0)):
            params = FlowParams(p=p, lam=lam, n_max=8)
            c = select_c(params)
            for _ in range(3):
                mean = rng.uniform(0.8, 1.2)
                tail = rng.uniform(0.2, 0.9) * mean / c
                psi = make_state(params, {0: mean, 1: tail / 2})
                assert check_hypothesis(psi, c).holds
                traj = integrate(psi, StepControl(k0_stop=1e3), trap_c=c)
                cert = certify(traj, c)
                assert cert.holds
                assert not traj.has_event("trap_violation")
                assert np.all(np.diff(traj.k0) > 0)
