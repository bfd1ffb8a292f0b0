import math

import numpy as np
import pytest

from pcsflow.errors import AnalysisError
from pcsflow.normalize import fit_exponential, normalized_frame, normalized_series, scale_factor, tau_of_t
from pcsflow.spectral import FlowParams, SpectralState, synthesize
from pcsflow.stepping import StepControl, Trajectory, integrate

from conftest import make_state

P18 = FlowParams(p=1, lam=2.0, n_max=8)


class TestTau:
    def test_zero(self):
        assert tau_of_t(0.0, 0.5, 1) == 0.0

    def test_unit_tau_inversion(self):
        for p in (1, 2, 3):
            T = 0.7
            t = T * (1 - math.exp(-(p + 1)))
            assert tau_of_t(t, T, p) == pytest.approx(1.0, rel=1e-12)

    def test_arithmetic_example(self):
        # p=1, T=0.5, t=0.45: tau = -ln(0.1)/2
        assert tau_of_t(0.45, 0.5, 1) == pytest.approx(-0.5 * math.log(0.1), rel=1e-12)
        assert tau_of_t(0.45, 0.5, 1) == pytest.approx(1.151292546497023, rel=1e-12)

    def test_monotone_and_diverging(self):
        taus = [tau_of_t(t, 0.5, 1) for t in (0.0, 0.1, 0.3, 0.49, 0.4999999)]
        assert all(b > a for a, b in zip(taus, taus[1:]))
        assert taus[-1] > 7

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_of_t(0.5, 0.5, 1)
        with pytest.raises(ValueError):
            tau_of_t(-0.1, 0.5, 1)


def one_snapshot(state):
    traj = Trajectory(params=state.params)
    traj.append(state)
    return traj


class TestRescale:
    def test_exact_constant_blow_up_maps_to_one(self):
        # k = (p/((p+1)(T-t)))^{1/(p+1)} rescales to exactly 1
        for p in (1, 2, 3):
            params = FlowParams(p=p, lam=2.0, n_max=4)
            T, t = 0.5, 0.25
            k0 = (p / ((p + 1) * (T - t))) ** (1.0 / (p + 1))
            taus, u = normalized_frame(one_snapshot(make_state(params, {0: k0}, t=t)), T)
            assert u[0, 0].real == pytest.approx(1.0, rel=1e-14)
            assert taus[0] == pytest.approx(tau_of_t(t, T, p))

    def test_p1_worked_example(self):
        # T=1/2, t=1/4: k0 = sqrt(2), factor = sqrt(2*(T-t)) -> u0 = 1
        assert scale_factor(1, 0.5, 0.25) * math.sqrt(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_mode_ratios_invariant(self):
        s = make_state(P18, {0: 2.0, 1: 0.01 + 0.005j, 3: -0.002j}, t=0.1)
        _, u = normalized_frame(one_snapshot(s), 0.5)
        ratios_before = s.coeffs[1:] / s.mean
        ratios_after = u[0, 1:] / u[0, 0]
        assert np.allclose(ratios_before, ratios_after, rtol=1e-14)


class TestNormalizedSeries:
    def test_constant_trajectory_is_flat(self):
        from pcsflow.blowup import estimate_T

        params = FlowParams(p=1, lam=2.0, n_max=2)
        traj = integrate(
            make_state(params, {0: 1.0}),
            StepControl(rel_tol=1e-12, abs_tol=1e-16, k0_stop=1e4),
        )
        series = normalized_series(traj, 0.5)
        assert np.max(series.sup_dev) == 0.0
        # against the exact T, the mean deviation is amplified by 1/(T-t)
        # near the stop; early snapshots are well conditioned
        early = series.taus < 2.0
        assert np.max(series.mean_dev[early]) < 1e-9
        # against the trajectory's own blow-up time the whole run is flat
        # down to the (T - t) subtraction floor, eps*T/(T-t) ~ 2e-8 at stop
        T_est, _ = estimate_T(traj)
        series_est = normalized_series(traj, T_est)
        assert np.max(series_est.mean_dev) < 5e-8

    def test_cl_orders_present(self):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        traj = Trajectory(params=params)
        for t in (0.0, 0.1, 0.2):
            traj.append(make_state(params, {0: 1.0, 1: 0.01}, t=t))
        series = normalized_series(traj, 0.5, cl_orders=(0, 2))
        assert set(series.cl_dev) == {0, 2}
        # C^0 bound is 2|c1| * factor; C^2 bound multiplies by (lam n)^2 = 4
        assert np.allclose(series.cl_dev[2], 4.0 * series.cl_dev[0])


def reference_series(traj, T, cl_orders):
    """The per-snapshot loop that ``normalized_series`` replaced: the bit reference."""
    rows = []
    for s in traj.snapshots:
        if T is not None and s.t >= T:
            continue
        p = s.params.p  # the frame map, spelled out per snapshot
        u = s if T is None else SpectralState(s.params, tau_of_t(s.t, T, p), s.coeffs * scale_factor(p, T, s.t))
        n = np.arange(1, u.params.n_max + 1, dtype=np.float64)
        cl = [float(2.0 * np.sum((u.params.lam * n) ** l * np.abs(u.coeffs[1:]))) for l in cl_orders]
        rows.append([u.t, float(np.max(np.abs(synthesize(u) - u.mean))), abs(u.mean - 1.0), *cl])
    return np.array(rows).T


class TestNormalizedSeriesAgainstReference:
    @pytest.fixture(scope="class")
    def run(self):
        init = make_state(P18, {0: 1.0, 1: 0.0025 - 0.001j, 2: 0.0004j, 5: -0.0001})
        return integrate(init, StepControl(k0_stop=1e4), trap_c=256.0)

    @pytest.mark.parametrize("T", [None, "estimate", "mid_run"])
    def test_bit_for_bit(self, run, T):
        from pcsflow.blowup import estimate_T

        if T == "estimate":
            T, _ = estimate_T(run)
        elif T == "mid_run":
            T = float(run.times[len(run.snapshots) // 2])  # drops the later half
        series = normalized_series(run, T, cl_orders=(0, 1, 2))
        taus, sup, mean_dev, *cl = reference_series(run, T, (0, 1, 2))
        assert len(series.taus) == (len(run.snapshots) if T is None else np.count_nonzero(run.times < T))
        assert series.taus.tolist() == taus.tolist()
        assert series.sup_dev.tolist() == sup.tolist()
        assert series.mean_dev.tolist() == mean_dev.tolist()
        for l in (0, 1, 2):
            assert series.cl_dev[l].tolist() == cl[l].tolist()

    def test_no_snapshot_before_T_raises(self, run):
        with pytest.raises(AnalysisError, match="no snapshot before the blow-up time"):
            normalized_series(run, 0.0)


class TestFitExponential:
    def test_synthetic_exact(self):
        taus = np.linspace(0, 9, 50)
        fit = fit_exponential(taus, np.exp(-2.0 * taus), window=(2.0, None))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-10)
        assert fit.stderr < 1e-10

    def test_floor_auto_shrinks_window(self):
        taus = np.linspace(0, 10, 101)
        values = np.exp(-5.0 * taus) + 1e-13
        fit = fit_exponential(taus, values, window=(1.0, 10.0), floor=1e-13)
        # points past the floor touch are dropped, so the window right edge
        # sits where exp(-5 tau) ~ 1e-12
        assert fit.window[1] < 6.0
        assert fit.exponent == pytest.approx(-5.0, rel=0.02)

    def test_empty_window_raises(self):
        taus = np.linspace(0, 1, 30)
        with pytest.raises(AnalysisError):
            fit_exponential(taus, np.exp(-taus), window=(5.0, None))

    def test_too_few_points_raises(self):
        with pytest.raises(AnalysisError):
            fit_exponential(np.array([0, 1, 2.0]), np.array([1, 0.1, 0.01]), window=(0.0, None))
