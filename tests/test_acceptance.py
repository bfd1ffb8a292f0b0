"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a one-line
PASS summary (run with ``pytest tests/test_acceptance.py -s`` to see them).
Expensive trajectories are shared through module-scoped fixtures; the whole
module is budgeted to run in a few minutes on a desktop-class machine.
"""

import itertools

import numpy as np
import pytest

from pcsflow.blowup import (
    alpha_exponent,
    beta_rate,
    check_hypothesis,
    circle_time,
    envelope_check,
    estimate_T,
    fit_power,
    select_c,
    trap_margin,
)
from pcsflow.checks import blowup_time_defect, oracle_defects, split_defect
from pcsflow.cli import bench_table, scaling_exponent
from pcsflow.geometry import (
    PerturbationSpec,
    hausdorff_to_circle,
    mfold_curvature,
    radial_perturbation_curvature,
    reconstruct_curve,
)
from pcsflow.normalize import fit_exponential, normalized_frame, normalized_series
from pcsflow.spectral import FlowParams, SpectralState, synthesize
from pcsflow.stepping import StepControl, integrate, integrate_normalized

from conftest import make_state, random_trapped_state

K0_STOP = {1: 1e6, 2: 1e4, 3: 1e3}  # deeper stops would sink below the t-resolution floor
TIGHT = dict(rel_tol=1e-12, abs_tol=1e-16)


def announce(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion:2d} PASS: {message}", flush=True)


def cosine_init(p: int, lam: float, delta: float, n_max: int = 8) -> SpectralState:
    params = FlowParams(p=p, lam=lam, n_max=n_max)
    return make_state(params, {0: 1.0, 1: delta / 2})


@pytest.fixture(scope="module")
def run_p1_d001():
    return integrate(cosine_init(1, 2.0, 0.001), StepControl(k0_stop=1e6), trap_c=256.0)


@pytest.fixture(scope="module")
def run_p1_d005():
    return integrate(cosine_init(1, 2.0, 0.005), StepControl(k0_stop=1e6), trap_c=256.0)


@pytest.fixture(scope="module")
def run_p2_d005():
    return integrate(cosine_init(2, 2.0, 0.005), StepControl(k0_stop=1e4))


@pytest.fixture(scope="module")
def run_p1_l25():
    return integrate(cosine_init(1, 2.5, 0.005), StepControl(k0_stop=1e5))


@pytest.fixture(scope="module")
def run_geometry():
    params = FlowParams(p=1, lam=3.5, n_max=8, rational=(7, 2))
    init = radial_perturbation_curvature(PerturbationSpec(m=2, n=7, delta=0.002), params)
    return integrate(init, StepControl(k0_stop=1e5))


@pytest.fixture(scope="module")
def constant_runs():
    runs = {}
    for p, a in itertools.product((1, 2, 3), (0.5, 1.0, 2.0)):
        params = FlowParams(p=p, lam=2.0, n_max=2)
        runs[p, a] = integrate(
            make_state(params, {0: a}), StepControl(k0_stop=K0_STOP[p], **TIGHT)
        )
    return runs


def test_criterion_01_exact_blow_up(constant_runs):
    worst_T, worst_u = 0.0, 0.0
    for (p, a), traj in constant_runs.items():
        defect = blowup_time_defect(traj)
        worst_T = max(worst_T, defect)
        # rescale where the check is well conditioned: integration error
        # amplifies as (k0/a)^{p+1}, so test just after one doubling
        i = next(i for i, s in enumerate(traj.snapshots) if s.mean >= 2 * a)
        taus, u = normalized_frame(traj, circle_time(p, a))
        dev = float(np.max(np.abs(synthesize(SpectralState(traj.params, taus[i], u[i]), 64) - 1.0)))
        worst_u = max(worst_u, dev)
        assert defect <= 1e-6
        assert dev <= 1e-10
    announce(1, f"worst T_est rel err {worst_T:.2e} (tol 1e-6), worst |u-1| {worst_u:.2e} (tol 1e-10)")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for p, n_max in itertools.product((1, 2, 3), (2, 4, 8)):
        params = FlowParams(p=p, lam=2.0, n_max=n_max)
        for _ in range(200):
            worst = max(worst, oracle_defects(random_trapped_state(params, rng))[0])
            assert worst <= 1e-10
    announce(2, f"200 states x 9 (p, n_max) combos, max relative disagreement {worst:.2e}")


def test_criterion_03_diagonal_split_identity():
    rng = np.random.default_rng(43)
    worst = 0.0
    for p, lam in ((1, 2.0), (2, 2.0), (3, 2.0), (1, 3.5)):
        # the single-tuple placements against the integrator's diagonal rates
        params = FlowParams(p=p, lam=lam, n_max=8)
        for _ in range(25):
            worst = max(worst, split_defect(random_trapped_state(params, rng).params))
    assert worst <= 1e-12
    announce(3, f"single-nonzero-tuple sum == diagonal coefficient, defect {worst:.2e}")


def test_criterion_04_trapping_regression(run_p1_d001, run_p1_d005):
    for label, traj in (("delta=0.001", run_p1_d001), ("delta=0.005", run_p1_d005)):
        assert traj.has_event("blow_up_stop")
        assert not traj.has_event("trap_violation")
        assert traj.snapshots[-1].mean >= 1e6
        margins = [trap_margin(s.coeffs, 256.0) for s in traj.snapshots]
        assert min(margins) >= 0.0
        assert np.all(np.diff(traj.k0) > 0)
    announce(4, "margins >= 0 at every snapshot to k0=1e6 and k0 non-decreasing, both deltas")


def test_criterion_05_sharp_mode_decay(run_p1_d001, run_p1_d005, run_p2_d005):
    results = []
    for label, traj, theory, tol in (
        ("p=1 d=0.001", run_p1_d001, alpha_exponent(2.0, 1, 1), 0.05),
        ("p=1 d=0.005", run_p1_d005, alpha_exponent(2.0, 1, 1), 0.05),
        ("p=2 d=0.005", run_p2_d005, alpha_exponent(2.0, 1, 2), 0.15),
    ):
        T_est, _ = estimate_T(traj)
        fit = fit_power(traj, T_est, 1, window=(1e-6, 1e-2))
        assert abs(fit.exponent - theory) <= tol, (label, fit.exponent, theory)
        results.append(f"{label}: {fit.exponent:.4f} vs {theory:.4f}")
    announce(5, "; ".join(results))


def test_criterion_06_blow_up_envelopes(
    run_p1_d001, run_p1_d005, run_p2_d005, run_p1_l25, run_geometry, constant_runs
):
    named = [
        ("p1 d001", run_p1_d001),
        ("p1 d005", run_p1_d005),
        ("p2 d005", run_p2_d005),
        ("p1 lam2.5", run_p1_l25),
        ("geometry", run_geometry),
    ] + [(f"const p={p} a={a}", traj) for (p, a), traj in constant_runs.items()]
    checked = 0
    for label, traj in named:
        c = select_c(traj.params)
        assert check_hypothesis(traj.snapshots[0], c).holds, label
        T_est, _ = estimate_T(traj)
        report = envelope_check(traj, T_est, window=(1e-4, 1e-3))
        assert report.ok, (label, report)
        checked += report.n_checked
    announce(6, f"{len(named)} hypothesis-passing runs inside both envelopes ({checked} snapshots)")


@pytest.fixture(scope="module")
def normalized_runs():
    horizon = 8.5
    runs = {}
    for key, p, lam in (("p1_l2", 1, 2.0), ("p2_l2", 2, 2.0), ("p1_l25", 1, 2.5)):
        runs[key] = integrate_normalized(
            cosine_init(p, lam, 0.005), horizon, StepControl(), renormalize_mean=True
        )
    return runs


def test_criterion_07_normalized_convergence_rate(normalized_runs, run_p1_d005, run_p2_d005):
    summary = []
    for key, p, lam in (("p1_l2", 1, 2.0), ("p2_l2", 2, 2.0), ("p1_l25", 1, 2.5)):
        beta = beta_rate(lam, p)
        series = normalized_series(normalized_runs[key], None)
        # with the mean pinned at 1, sup_dev is exactly ||u - 1||_inf
        fit = fit_exponential(series.taus, series.sup_dev, window=(2.0, 8.0))
        assert abs(-fit.exponent - beta) <= 0.10 * beta, (key, fit.exponent, beta)
        summary.append(f"{key}: {-fit.exponent:.3f} vs {beta}")

    # independent route: rescaled blow-up trajectories give the same rates,
    # and the mean converges at least as fast as the sup deviation
    for label, traj, p, lam in (
        ("rescaled p1", run_p1_d005, 1, 2.0),
        ("rescaled p2", run_p2_d005, 2, 2.0),
    ):
        beta = beta_rate(lam, p)
        T_est, _ = estimate_T(traj)
        series = normalized_series(traj, T_est)
        sup_fit = fit_exponential(series.taus, series.sup_dev, window=(2.0, 8.0))
        assert abs(-sup_fit.exponent - beta) <= 0.10 * beta
        mean_fit = fit_exponential(series.taus, series.mean_dev, window=(0.3, 4.0), floor=5e-13)
        assert -mean_fit.exponent >= -sup_fit.exponent
        summary.append(
            f"{label}: sup {-sup_fit.exponent:.3f}, mean {-mean_fit.exponent:.3f} (~2*beta={2*beta})"
        )
    announce(7, "; ".join(summary))


def test_criterion_08_geometry(run_geometry):
    params = FlowParams(p=1, lam=2.0, n_max=4)
    circle = reconstruct_curve(mfold_curvature(1, params), 1)
    assert circle.closure_residual <= 1e-12

    traj = run_geometry
    T_est, _ = estimate_T(traj)
    taus, u = normalized_frame(traj, T_est)

    def curve(i):
        return reconstruct_curve(SpectralState(traj.params, taus[i], u[i]), 2)

    frames = [curve(int(np.argmin(np.abs(taus - target)))) for target in np.linspace(0.25, 5.0, 8)]
    worst_closure = max(f.closure_residual / f.diameter for f in frames)
    assert worst_closure <= 1e-8
    tail = hausdorff_to_circle(curve(int(np.argmin(np.abs(taus - 5.0)))))
    assert tail <= 1e-3
    # circle deviation shrinks monotonically once the transient is gone
    picks = sorted({int(np.argmin(np.abs(taus - x))) for x in np.arange(1.0, 5.01, 0.5)})
    devs = [hausdorff_to_circle(curve(i)) for i in picks]
    assert all(b <= a + 1e-9 for a, b in zip(devs, devs[1:]))
    announce(
        8,
        f"circle residual {circle.closure_residual:.1e}, worst frame closure {worst_closure:.1e}, "
        f"hausdorff at tau=5 {tail:.1e}, monotone over {len(devs)} frames",
    )


def test_criterion_09_hypothesis_boundary():
    params = FlowParams(p=1, lam=2.0, n_max=8)
    lo, hi = 1e-3, 2e-2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        psi = make_state(params, {0: 1.0, 1: mid / 2})
        if check_hypothesis(psi, 256.0).holds:
            lo = mid
        else:
            hi = mid
    quantum = hi - lo
    boundary = 1.0 / 128.0
    assert abs(lo - boundary) <= quantum + 4 * np.finfo(float).eps
    announce(9, f"pass/fail boundary at delta={lo:.12f} vs 1/128={boundary:.12f} (quantum {quantum:.1e})")


def test_criterion_10_performance_scaling():
    fast_rows = bench_table(n_values=(16, 32, 64, 128, 256), p_values=(1,))
    fast_exp = scaling_exponent(fast_rows, "fast_ns", 1, n_range=(16, 256))
    assert fast_exp is not None and fast_exp <= 1.4

    # the direct path's quadratic work dominates call overhead from n ~ 128
    direct_rows = bench_table(n_values=(128, 256, 512, 1024), p_values=(1,))
    direct_exp = scaling_exponent(direct_rows, "convolution_ns", 1, n_range=(128, 1024))
    assert direct_exp is not None and 1.6 <= direct_exp <= 2.4

    fast_at = {r["n_max"]: r["fast_ns"] for r in direct_rows}
    conv_at = {r["n_max"]: r["convolution_ns"] for r in direct_rows}
    assert conv_at[1024] >= 5.0 * fast_at[1024]
    announce(
        10,
        f"fast-path exponent {fast_exp:.2f} (<=1.4), direct exponent {direct_exp:.2f} (~2), "
        f"speedup at n=1024: {conv_at[1024] / fast_at[1024]:.1f}x",
    )
