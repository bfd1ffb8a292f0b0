"""Seeded workloads: input generation, the timed body and the output checks.

Every input comes from the workload seed, so the program only ever sees
generated data: harmonic amplitudes drawn inside the trapping cone and,
for the perturbed circle, harmonic amplitudes and phases.  A workload is
set up once per process (``setup``), then its body (``body``) is run and
timed repeatedly; ``check`` turns one body's outputs into one problem list
per operation, empty when the operation's output is correct.

Workloads (parameters in the ``Workload`` definitions below):

* blowup_n8       -- ``pcsflow simulate``, p=1, lam=2, n_max=8, to k0=1e6:
                     the canonical deep run; tiny FFTs, so per-call overhead,
                     rung landing and trajectory writing dominate.
* wide_band_n32   -- the same data at n_max=32 for half a decade (k0 to
                     10^0.5): steps grow as lam^2 n_max^2 and the stiffness
                     cap binds dt.
* normalized_tau8 -- ``integrate_normalized`` for p=1 and p=2 to tau=8.5
                     plus the criterion-7 rate fit: the second stepping loop.
* analyze_replay  -- every ``analyze`` report and both renders on a lam=5/2,
                     m=2 perturbed-circle trajectory made during set-up: the
                     read side, analysis and geometry, with no integration.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from pcsflow import cli, normalize, stepping
from pcsflow.blowup import alpha_exponent, beta_rate, envelope_check, estimate_T, fit_power, select_c
from pcsflow.spectral import FlowParams, SpectralState

# Acceptance-suite tolerances the checks reuse.
MODE1_EXPONENT_TOL = 0.05  # criterion 5, p = 1, window (1e-6, 1e-2) in T - t
POWER_WINDOW = (1e-6, 1e-2)
ENVELOPE_WINDOW = (1e-4, 1e-3)  # criterion 6
SUP_RATE_REL_TOL = 0.10  # criterion 7, window (2, 8) in tau
TAU_WINDOW = (2.0, 8.0)
# Relative gap allowed between the n_max=32 and n_max=8 runs in t at the
# last rung.  Both integrate to rel_tol 1e-10 and the modes above 8 only
# carry products of the seeded amplitudes; the gap measures about 2e-13, and
# the bound leaves room for another integrator that meets the same tolerance.
WIDE_BAND_T_TOL = 1e-8

LAMBDA_TAG = "2"
PERTURBATION = {"m": 2, "n": 5, "delta": 0.002}  # lam = 5/2
NORMALIZED_TAU = 8.5
# Half a decade keeps a body near 4 s, so a run holds several of them; the
# steps per decade, the cap and the landing share are those of a full decade.
WIDE_BAND_K0_STOP = 10**0.5


# -- seeded inputs -----------------------------------------------------------


def cone_coefficients(rng: random.Random, params: FlowParams) -> dict[int, complex]:
    """Modes 1..3 of a mean-1 profile strictly inside the trapping cone.

    The cone bounds n^2 * max(|Re c_n|, |Im c_n|) by 1/c; mode 1 takes 30-60 %
    of that bound, so the decay fits have signal, and modes 2 and 3 take at
    most 30 %, at a seeded phase each.
    """
    c = select_c(params)
    coeffs = {}
    for n in (1, 2, 3):
        share = rng.uniform(0.3, 0.6) if n == 1 else rng.uniform(0.0, 0.3)
        angle = rng.uniform(0.0, 2 * math.pi)
        coeffs[n] = share / (c * n * n) * complex(math.cos(angle), math.sin(angle))
    return coeffs


def harmonic_config(seed: int, n_max: int, k0_stop: float, out_dir: str) -> dict:
    """simulate configuration for p=1, lam=2 data drawn from the seed."""
    rng = random.Random(seed)
    coeffs = cone_coefficients(rng, FlowParams(p=1, lam=2.0, n_max=8))
    # config harmonics give c_n = (cos - i sin) / 2
    harmonics = [{"n": n, "cos": 2 * z.real, "sin": -2 * z.imag} for n, z in coeffs.items()]
    return {
        "params": {"p": 1, "lambda": LAMBDA_TAG, "n_max": n_max},
        "init": {"mean": 1.0, "harmonics": harmonics},
        "control": {"k0_stop": k0_stop, "snapshots_per_decade": 40},
        "output": {"directory": out_dir},
    }


def perturbation_config(seed: int, out_dir: str) -> dict:
    """simulate configuration for a lam=5/2 perturbed 2-fold circle."""
    rng = random.Random(seed)
    harmonics = [
        {"j": 1, "amplitude": rng.uniform(0.6, 1.0), "phase": rng.uniform(0, 2 * math.pi)},
        {"j": 2, "amplitude": rng.uniform(0.0, 0.03), "phase": rng.uniform(0, 2 * math.pi)},
    ]
    return {
        "params": {"p": 1, "lambda": "5/2", "n_max": 8},
        "init": {"perturbation": dict(PERTURBATION, harmonics=harmonics)},
        "control": {"k0_stop": 1e4, "snapshots_per_decade": 40},
        "output": {"directory": out_dir},
    }


def normalized_inits(seed: int) -> list[SpectralState]:
    """Mean-1 cone data for p=1 and p=2 (lam=2, n_max=8)."""
    rng = random.Random(seed)
    inits = []
    for p in (1, 2):
        params = FlowParams(p=p, lam=2.0, n_max=8)
        coeffs = np.zeros(params.n_max + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        for n, z in cone_coefficients(rng, params).items():
            coeffs[n] = z
        inits.append(SpectralState(params, 0.0, coeffs))
    return inits


def write_config(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return path


# -- running and checking operations ------------------------------------------


def attempt(fn: Callable, *args):
    """Run one operation; an exception is its output (and fails its check)."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark must keep counting after a failure
        return OperationError("".join(traceback.format_exception_only(type(exc), exc)).strip())


@dataclass(frozen=True)
class OperationError:
    message: str


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def simulate_problems(code: int, traj_path: str, regime: bool) -> list[str]:
    """Checks on one simulate run.

    Always: exit 0, a blow_up_stop event, no trap_violation, k0 strictly
    increasing.  With ``regime`` (the run went deep enough): the mode-1
    exponent, the blow-up envelopes and the normalized sup-rate meet the
    acceptance-suite tolerances.
    """
    if code != 0:
        return [f"simulate exited {code}"]
    traj, _ = cli.read_trajectory(traj_path)
    problems = []
    if not traj.has_event("blow_up_stop"):
        problems.append(f"no blow_up_stop event: {traj.events}")
    if traj.has_event("trap_violation"):
        problems.append("trap_violation event")
    if not np.all(np.diff(traj.k0) > 0):
        problems.append("k0 not strictly increasing")
    if regime and not problems:
        problems += regime_problems(traj)
    return problems


def regime_problems(traj) -> list[str]:
    params = traj.params
    try:
        T, _ = estimate_T(traj)
        fit = fit_power(traj, T, 1, window=POWER_WINDOW)
        env = envelope_check(traj, T, window=ENVELOPE_WINDOW)
        series = normalize.normalized_series(traj, T)
        sup = normalize.fit_exponential(series.taus, series.sup_dev, window=TAU_WINDOW)
    except Exception as exc:  # an analysis failure is a failed check
        return [f"analysis failed: {exc}"]
    problems = []
    alpha = alpha_exponent(params.lam, 1, params.p)
    if abs(fit.exponent - alpha) > MODE1_EXPONENT_TOL:
        problems.append(f"mode-1 exponent {fit.exponent:.4f} vs {alpha:.4f}")
    if not env.ok:
        problems.append(f"outside the envelopes: {env}")
    beta = beta_rate(params.lam, params.p)
    if abs(-sup.exponent - beta) > SUP_RATE_REL_TOL * beta:
        problems.append(f"normalized sup-rate {-sup.exponent:.4f} vs {beta:.4f}")
    return problems


def t_at_last_rung(traj, per_decade: int = 40) -> tuple[float, float]:
    """(k0, t) of the last snapshot that sits on the log ladder of k0."""
    k0 = traj.k0
    rungs = per_decade * np.log10(k0 / k0[0])
    on = np.abs(rungs - np.round(rungs)) < 1e-6
    i = int(np.flatnonzero(on)[-1])
    return float(k0[i]), float(traj.times[i])


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    operations_per_body: int
    setup: Callable  # (work_dir, seed) -> context
    body: Callable  # context -> list of outputs, one per operation
    check: Callable  # (context, outputs) -> list of problem lists


def _sim_setup(n_max: int, k0_stop: float):
    def setup(work_dir: str, seed: int) -> dict:
        out = os.path.join(work_dir, "run")
        cfg = write_config(harmonic_config(seed, n_max, k0_stop, out), os.path.join(work_dir, "run.yaml"))
        return {"config": cfg, "out": out, "seed": seed, "work_dir": work_dir}

    return setup


def _sim_body(ctx: dict) -> list:
    return [attempt(run_cli, ["simulate", "--config", ctx["config"], "--out", ctx["out"]])]


def _output_problems(output) -> list[str] | None:
    if isinstance(output, OperationError):
        return [output.message]
    return None


def _blowup_check(ctx: dict, outputs: list) -> list[list[str]]:
    (out,) = outputs
    failed = _output_problems(out)
    if failed:
        return [failed]
    return [simulate_problems(out[0], os.path.join(ctx["out"], "trajectory.jsonl"), regime=True)]


def _wide_band_check(ctx: dict, outputs: list) -> list[list[str]]:
    (out,) = outputs
    failed = _output_problems(out)
    if failed:
        return [failed]
    traj_path = os.path.join(ctx["out"], "trajectory.jsonl")
    problems = simulate_problems(out[0], traj_path, regime=False)
    if problems:
        return [problems]
    if "reference" not in ctx:
        # the same seeded data at n_max=8, run once per process
        ref_out = os.path.join(ctx["work_dir"], "reference")
        cfg = harmonic_config(ctx["seed"], 8, WIDE_BAND_K0_STOP, ref_out)
        code, _ = run_cli(["simulate", "--config", write_config(cfg, ref_out + ".yaml"), "--out", ref_out])
        if code != 0:
            return [[f"n_max=8 reference simulate exited {code}"]]
        ctx["reference"] = t_at_last_rung(cli.read_trajectory(os.path.join(ref_out, "trajectory.jsonl"))[0])
    k_ref, t_ref = ctx["reference"]
    k_wide, t_wide = t_at_last_rung(cli.read_trajectory(traj_path)[0])
    if abs(k_wide - k_ref) > 1e-9 * k_ref:
        return [[f"last rungs differ: k0 {k_wide!r} vs n_max=8 {k_ref!r}"]]
    if abs(t_wide - t_ref) > WIDE_BAND_T_TOL * t_ref:
        return [[f"t at last rung {t_wide!r} vs n_max=8 {t_ref!r}"]]
    return [[]]


def _normalized_setup(work_dir: str, seed: int) -> dict:
    return {"inits": normalized_inits(seed)}


def _normalized_chain(init: SpectralState):
    traj = stepping.integrate_normalized(
        init, NORMALIZED_TAU, stepping.StepControl(), renormalize_mean=True
    )
    series = normalize.normalized_series(traj, None)
    fit = normalize.fit_exponential(series.taus, series.sup_dev, window=TAU_WINDOW)
    return traj, fit


def _normalized_body(ctx: dict) -> list:
    return [attempt(_normalized_chain, init) for init in ctx["inits"]]


def _normalized_check(ctx: dict, outputs: list) -> list[list[str]]:
    result = []
    for init, out in zip(ctx["inits"], outputs):
        failed = _output_problems(out)
        if failed:
            result.append(failed)
            continue
        traj, fit = out
        problems = [f"event {kind} at tau={t:.4g}" for t, kind, _ in traj.events]
        if traj.snapshots[-1].t < NORMALIZED_TAU - 1e-9:
            problems.append(f"stopped at tau={traj.snapshots[-1].t}")
        beta = beta_rate(init.params.lam, init.params.p)
        if abs(-fit.exponent - beta) > SUP_RATE_REL_TOL * beta:
            problems.append(f"p={init.params.p}: sup-rate {-fit.exponent:.4f} vs {beta:.4f}")
        result.append(problems)
    return result


ANALYZE_REPORTS = ("blowup", "rates", "trap", "normalized")


def _replay_setup(work_dir: str, seed: int) -> dict:
    out = os.path.join(work_dir, "run")
    cfg = write_config(perturbation_config(seed, out), os.path.join(work_dir, "run.yaml"))
    code, _ = run_cli(["simulate", "--config", cfg, "--out", out])
    traj = os.path.join(out, "trajectory.jsonl")
    problems = simulate_problems(code, traj, regime=False)
    if problems:
        raise RuntimeError(f"analyze_replay set-up trajectory is unusable: {problems}")
    return {"traj": traj, "render": os.path.join(work_dir, "render")}


def _replay_body(ctx: dict) -> list:
    traj = ctx["traj"]
    outputs = [attempt(run_cli, ["analyze", "--traj", traj, "--what", what]) for what in ANALYZE_REPORTS]
    for extra in ([], ["--normalized"]):
        out_dir = ctx["render"] + "".join(extra).replace("--", "_")
        outputs.append(attempt(run_cli, ["render", "--traj", traj, "--frames", "8", "--out", out_dir] + extra))
    return outputs


def _replay_check(ctx: dict, outputs: list) -> list[list[str]]:
    result = []
    for label, out in zip(ANALYZE_REPORTS + ("render", "render --normalized"), outputs):
        failed = _output_problems(out)
        if failed:
            result.append(failed)
            continue
        code, text = out
        if code != 0:
            result.append([f"{label}: exit {code}"])
        elif label.startswith("render"):
            result.append([] if text.startswith("wrote 8 frame") else [f"{label}: {text.strip()}"])
        else:
            report = json.loads(text)
            result.append([] if report.get("pass") is True else [f"analyze {label}: pass is {report.get('pass')}"])
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blowup_n8",
            1,
            _sim_setup(8, 1e6),
            _sim_body,
            _blowup_check,
        ),
        Workload(
            "wide_band_n32",
            1,
            _sim_setup(32, WIDE_BAND_K0_STOP),
            _sim_body,
            _wide_band_check,
        ),
        Workload(
            "normalized_tau8",
            2,
            _normalized_setup,
            _normalized_body,
            _normalized_check,
        ),
        Workload(
            "analyze_replay",
            len(ANALYZE_REPORTS) + 2,
            _replay_setup,
            _replay_body,
            _replay_check,
        ),
    )
}
