"""Command-line front end: configuration, persistence, and reproduction runs.

Subcommands
-----------
simulate   run a configured blow-up integration; writes trajectory.jsonl and
           metrics.csv into the output directory
analyze    post-process a trajectory file (--what rates|trap|blowup|normalized)
normalize  alias for analyze --what normalized
render     reconstruct curve frames from a trajectory (SVG + CSV tables)
verify     built-in cross-check suite; exit 0 iff everything passes
bench      timing table for the direct vs fast mode-derivative paths

Exit codes: 0 clean, 1 config/schema error or an analysis the trajectory
cannot support (AnalysisError), 2 positivity loss, 3 trap violation,
4 trajectory unreadable: missing, torn, malformed (no snapshot, no trailer
last, a bad T_est), or wrong format version,
5 rational lam required, 6 run ended without a terminal event.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from . import checks
from .blowup import (
    alpha_exponent,
    beta_rate,
    c_is_heuristic,
    certify,
    check_hypothesis,
    envelope_check,
    estimate_T,
    fit_power,
    select_c,
)
from .errors import AnalysisError, ConfigError, FlowError, TrajectoryError, VersionError
from .geometry import PerturbationSpec, polyline_csv, radial_perturbation_curvature, reconstruct_curve, render_svg
from .normalize import fit_exponential, normalized_series, rescale_state, tau_of_t
from .rhs import rhs_convolution, rhs_direct, rhs_fast
from .spectral import FlowParams, SpectralState, coeff_seminorm, coeff_sup_deviation, default_grid_size, parse_lambda
from .stepping import RunStats, StepControl, Trajectory, integrate

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POSITIVITY = 2
EXIT_TRAP = 3
EXIT_VERSION = 4
EXIT_RATIONAL = 5
EXIT_INCOMPLETE = 6

# Largest params.n_max a config may ask for, 32 times the 2,048 of the largest
# measured run; it is checked before any array is allocated.
MAX_N_MAX = 65_536


def thread_count() -> int:
    """Worker count for independent verify/bench cases (PCSFLOW_THREADS)."""
    raw = os.environ.get("PCSFLOW_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ----------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AnalysisConfig:
    c_override: float | None = None
    power_window: tuple = (1e-6, 1e-2)
    tau_window: tuple = (2.0, 8.0)
    envelope_window: tuple = (1e-4, 1e-3)
    rate_tolerance: float = 0.10


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("jsonl", "csv")


@dataclass(frozen=True)
class RunConfig:
    params: FlowParams
    init: dict
    control: StepControl
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0


def _require_keys(section: dict, allowed: set, where: str, required: tuple = ()):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where}.{key} is required")


def _integer(value, where: str) -> int:
    """An integer field: rejects booleans and non-integral numbers (no truncation)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _real(value, where: str) -> float:
    """A real field: a finite number or numeric text (YAML reads 1e-10 as
    text); no booleans."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _window(value, where: str) -> tuple[float, float]:
    """A fit window: two increasing numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair [lo, hi], got {value!r}")
    lo, hi = (_real(v, where) for v in value)
    if not lo < hi:
        raise ConfigError(f"{where} must be increasing, got {value!r}")
    return lo, hi


def _parse_params(section: dict) -> FlowParams:
    _require_keys(section, {"p", "lambda", "n_max"}, "params", required=("p", "lambda", "n_max"))
    lam_spec = section["lambda"]
    p, n_max = _integer(section["p"], "params.p"), _integer(section["n_max"], "params.n_max")
    if n_max > MAX_N_MAX:
        raise ConfigError(f"params.n_max must be at most {MAX_N_MAX}, got {n_max}")
    try:
        if isinstance(lam_spec, str):
            lam, rational = parse_lambda(lam_spec)
        else:
            lam, rational = _real(lam_spec, "params.lambda"), None
        return FlowParams(p=p, lam=lam, n_max=n_max, rational=rational)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _parse_init(section: dict) -> dict:
    if isinstance(section, dict) and "perturbation" in section:
        _require_keys(section, {"perturbation"}, "init")
        pert, where = section["perturbation"], "init.perturbation"
        _require_keys(pert, {"m", "n", "delta", "harmonics"}, where, required=("m", "n", "delta"))
        harmonics = []
        for h in _list(pert.get("harmonics", [{"j": 1, "amplitude": 1.0}]), f"{where}.harmonics"):
            at = f"{where}.harmonics[]"
            _require_keys(h, {"j", "amplitude", "phase"}, at, required=("j", "amplitude"))
            j, amplitude = _integer(h["j"], f"{at}.j"), _real(h["amplitude"], f"{at}.amplitude")
            harmonics.append((j, amplitude, _real(h.get("phase", 0.0), f"{at}.phase")))
        m, n = _integer(pert["m"], f"{where}.m"), _integer(pert["n"], f"{where}.n")
        delta = _real(pert["delta"], f"{where}.delta")
        try:
            spec = PerturbationSpec(m=m, n=n, delta=delta, harmonics=tuple(harmonics))
        except ValueError as exc:
            raise ConfigError(f"init.perturbation: {exc}") from exc
        return {"kind": "perturbation", "spec": spec}
    _require_keys(section, {"mean", "harmonics"}, "init")
    if "mean" not in section:
        raise ConfigError("init.mean is required for harmonic initial data")
    mean = _real(section["mean"], "init.mean")
    if mean <= 0.0:
        raise ConfigError(f"init.mean must be positive, got {mean!r}")
    harmonics = []
    for h in _list(section.get("harmonics", []), "init.harmonics"):
        at = "init.harmonics[]"
        _require_keys(h, {"n", "cos", "sin"}, at, required=("n",))
        cos, sin = (_real(h.get(key, 0.0), f"{at}.{key}") for key in ("cos", "sin"))
        harmonics.append((_integer(h["n"], f"{at}.n"), cos, sin))
    return {"kind": "harmonics", "mean": mean, "harmonics": harmonics}


def _parse_control(section: dict) -> StepControl:
    allowed = {
        "rel_tol",
        "abs_tol",
        "safety",
        "max_step",
        "min_step",
        "k0_stop",
        "snapshots_per_decade",
        "tau_snapshot_interval",
    }
    _require_keys(section, allowed, "control")
    defaults = StepControl()
    kwargs = {
        key: (_integer if isinstance(getattr(defaults, key), int) else _real)(value, f"control.{key}")
        for key, value in section.items()
    }
    try:
        return StepControl(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"control: {exc}") from exc


def _parse_analysis(section: dict) -> AnalysisConfig:
    allowed = {"c_override", "power_window", "tau_window", "envelope_window", "rate_tolerance"}
    _require_keys(section, allowed, "analysis")
    kwargs = {}
    for key, value in section.items():
        if key == "c_override":
            kwargs[key] = None if value is None else _real(value, "analysis.c_override")
            if value is not None and kwargs[key] <= 0.0:
                raise ConfigError(f"analysis.c_override must be positive, got {value!r}")
        elif key == "rate_tolerance":
            kwargs[key] = _real(value, "analysis.rate_tolerance")
        else:
            kwargs[key] = _window(value, f"analysis.{key}")
    return AnalysisConfig(**kwargs)


def _parse_output(section: dict) -> OutputConfig:
    _require_keys(section, {"directory", "formats"}, "output")
    kwargs = {}
    if "directory" in section:
        kwargs["directory"] = str(section["directory"])
    if "formats" in section:
        kwargs["formats"] = tuple(str(f) for f in _list(section["formats"], "output.formats"))
    return OutputConfig(**kwargs)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    _require_keys(doc, {"params", "init", "control", "analysis", "output", "seed"}, "top level")
    for key in ("params", "init"):
        if key not in doc:
            raise ConfigError(f"section '{key}' is required")
    return RunConfig(
        params=_parse_params(doc["params"]),
        init=_parse_init(doc["init"]),
        control=_parse_control(doc.get("control", {})),
        analysis=_parse_analysis(doc.get("analysis", {})),
        output=_parse_output(doc.get("output", {})),
        seed=_integer(doc.get("seed", 0), "seed"),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(doc)


def emit_config(config: RunConfig) -> dict:
    """Round-trippable plain-dict form of a configuration."""
    params = {
        "p": config.params.p,
        "lambda": (
            f"{config.params.rational[0]}/{config.params.rational[1]}"
            if config.params.rational
            else config.params.lam
        ),
        "n_max": config.params.n_max,
    }
    if config.init["kind"] == "perturbation":
        spec = config.init["spec"]
        init = {
            "perturbation": {
                "m": spec.m,
                "n": spec.n,
                "delta": spec.delta,
                "harmonics": [
                    {"j": j, "amplitude": amp, "phase": phase} for j, amp, phase in spec.harmonics
                ],
            }
        }
    else:
        init = {
            "mean": config.init["mean"],
            "harmonics": [
                {"n": n, "cos": a, "sin": b} for n, a, b in config.init["harmonics"]
            ],
        }
    return {
        "params": params,
        "init": init,
        "control": asdict(config.control),
        "analysis": {
            "c_override": config.analysis.c_override,
            "power_window": list(config.analysis.power_window),
            "tau_window": list(config.analysis.tau_window),
            "envelope_window": list(config.analysis.envelope_window),
            "rate_tolerance": config.analysis.rate_tolerance,
        },
        "output": {"directory": config.output.directory, "formats": list(config.output.formats)},
        "seed": config.seed,
    }


def initial_state(config: RunConfig) -> SpectralState:
    params = config.params
    if config.init["kind"] == "perturbation":
        try:
            return radial_perturbation_curvature(config.init["spec"], params)
        except ValueError as exc:
            raise ConfigError(f"init.perturbation: {exc}") from exc
    coeffs = np.zeros(params.n_max + 1, dtype=np.complex128)
    coeffs[0] = config.init["mean"]
    for n, a, b in config.init["harmonics"]:
        if not 1 <= n <= params.n_max:
            raise ConfigError(f"init harmonic n={n} outside band 1..{params.n_max}")
        coeffs[n] = 0.5 * (a - 1j * b)
    return SpectralState(params, 0.0, coeffs)


# ----------------------------------------------------------------------------
# trajectory files (JSON lines)


def write_trajectory(path: str, traj: Trajectory, config_echo: dict):
    params = traj.params
    header = {
        "kind": "header",
        "version": FORMAT_VERSION,
        "params": {
            "p": params.p,
            "lambda": params.lam,
            "rational": list(params.rational) if params.rational else None,
            "n_max": params.n_max,
        },
        "config": config_echo,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in traj.snapshots:
            rec = {
                "kind": "snapshot",
                "t": s.t,
                "k0": s.mean,
                "coeffs": [[float(c.real), float(c.imag)] for c in s.coeffs],
            }
            fh.write(json.dumps(rec) + "\n")
        trailer = {
            "kind": "trailer",
            "events": [[t, kind, detail] for t, kind, detail in traj.events],
            "T_est": traj.T_est,
            "run_stats": asdict(traj.stats) if traj.stats is not None else None,
        }
        fh.write(json.dumps(trailer) + "\n")


def read_trajectory(path: str) -> tuple[Trajectory, dict]:
    """Load a trajectory file.  A missing, unreadable, torn or malformed file
    (no snapshot, no trailer last, a T_est neither null nor finite) raises
    ``TrajectoryError``; a wrong format version its subtype ``VersionError``."""
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise TrajectoryError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise TrajectoryError(f"{path}: torn or invalid JSON line: {exc}") from exc
    if not lines or not isinstance(lines[0], dict) or lines[0].get("kind") != "header":
        raise VersionError(f"{path}: missing header record")
    header = lines[0]
    if header.get("version") != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {header.get('version')} != supported {FORMAT_VERSION}"
        )
    if not isinstance(header.get("config", {}), dict):
        raise TrajectoryError(f"{path}: header config is not a mapping")
    try:
        ph = header["params"]
        rational = tuple(ph["rational"]) if ph.get("rational") else None
        params = FlowParams(p=ph["p"], lam=ph["lambda"], n_max=ph["n_max"], rational=rational)
        traj = Trajectory(params=params)
        for rec in lines[1:]:
            if rec["kind"] == "snapshot":
                coeffs = np.array([complex(re, im) for re, im in rec["coeffs"]])
                traj.append(SpectralState(params, rec["t"], coeffs))
            elif rec["kind"] == "trailer":
                traj.events = [(t, kind, detail) for t, kind, detail in rec["events"]]
                T_est = traj.T_est = rec.get("T_est")
                if T_est is not None and (type(T_est) not in (int, float) or not math.isfinite(T_est)):
                    raise ValueError(f"T_est is {T_est!r}, not null or a finite number")
                traj.stats = RunStats(**rec["run_stats"]) if rec.get("run_stats") else None
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise TrajectoryError(f"{path}: malformed record ({type(exc).__name__}: {exc})") from exc
    if not traj.snapshots:
        raise TrajectoryError(f"{path}: no snapshot record")
    if lines[-1]["kind"] != "trailer":
        raise TrajectoryError(f"{path}: no trailer record at the end (cut short?)")
    return traj, header


def metrics_csv(traj: Trajectory, c: float) -> str:
    """Per-snapshot t, k0, T_est_running = t + p/(p+1) k0^-(p+1) (nan where
    k0 <= 0), trap_margin = k0 - c * seminorm2, seminorm2 and sup_dev = max
    |k - k0| on the default grid: each column computed for all snapshots at
    once from their stacked coefficients, the table written by one %.17g format."""
    p = traj.params.p
    t, coeffs = traj.times, traj.coeffs
    k0 = coeffs[:, 0].real
    # Python's pow per row: numpy's SIMD power loop can differ from libm's in the last bit
    speed = np.array([k ** -(p + 1) if k > 0 else np.nan for k in k0.tolist()])
    s2 = coeff_seminorm(coeffs, 2.0)
    sup_dev = coeff_sup_deviation(coeffs, default_grid_size(traj.params))
    table = np.column_stack([t, k0, t + (p / (p + 1)) * speed, k0 - c * s2, s2, sup_dev])
    rows = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist())
    return "t,k0,T_est_running,trap_margin,seminorm2,sup_dev\n" + rows


# ----------------------------------------------------------------------------
# subcommands


def _make_out_dir(path: str):
    """Create an output directory; a path that cannot be one (say, under a
    regular file) is a ``ConfigError``: exit 1 with one stderr line."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    init = initial_state(config)
    c = config.analysis.c_override
    if c is None:
        c = select_c(config.params)
    out_dir = args.out or config.output.directory
    _make_out_dir(out_dir)
    traj = integrate(init, config.control, trap_c=c)
    try:
        T_est, _ = estimate_T(traj)
        traj.T_est = T_est
    except AnalysisError:
        traj.T_est = None

    write_trajectory(os.path.join(out_dir, "trajectory.jsonl"), traj, emit_config(config))
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(metrics_csv(traj, c))

    if traj.has_event("positivity_loss"):
        return EXIT_POSITIVITY
    if traj.has_event("trap_violation"):
        return EXIT_TRAP
    if traj.has_event("blow_up_stop"):
        return EXIT_OK
    return EXIT_INCOMPLETE


def _analysis_from_header(header: dict) -> AnalysisConfig:
    section = header.get("config", {}).get("analysis")
    return _parse_analysis(section) if section else AnalysisConfig()


def _report_blowup(traj, cfg: AnalysisConfig) -> dict:
    T_est, unc = estimate_T(traj)
    env = envelope_check(traj, T_est, window=cfg.envelope_window)
    return {
        "T_est": T_est,
        "T_uncertainty": unc,
        "envelope": {
            "ok": env.ok,
            "n_checked": env.n_checked,
            "window": list(env.window),
            "worst_low": env.worst_low,
            "worst_high": env.worst_high,
        },
        "pass": bool(env.ok),
    }


def _report_rates(traj, cfg: AnalysisConfig) -> dict:
    params = traj.params
    T_est, _ = estimate_T(traj)
    modes = []
    overall = True
    for n in range(1, min(3, params.n_max) + 1):
        theory = alpha_exponent(params.lam, n, params.p)
        tol = max(0.05, 0.12 * theory)
        try:
            fit = fit_power(traj, T_est, n, window=cfg.power_window)
        except AnalysisError as exc:
            modes.append({"n": n, "status": "insufficient", "detail": str(exc), "alpha_theory": theory})
            continue
        ok = abs(fit.exponent - theory) <= tol
        overall = overall and ok
        modes.append(
            {
                "n": n,
                "status": "fitted",
                "exponent": fit.exponent,
                "stderr": fit.stderr,
                "alpha_theory": theory,
                "tolerance": tol,
                "n_points": fit.n_points,
                "pass": ok,
            }
        )
    return {"T_est": T_est, "modes": modes, "pass": overall}


def _report_trap(traj, cfg: AnalysisConfig) -> dict:
    params = traj.params
    c = cfg.c_override if cfg.c_override is not None else select_c(params)
    cert = certify(traj, c)
    hyp = check_hypothesis(traj.snapshots[0], c)
    return {
        "c": c,
        "c_source": "override"
        if cfg.c_override is not None
        else ("heuristic" if c_is_heuristic(params.p) else "closed-form"),
        "hypothesis": asdict(hyp),
        "holds": cert.holds,
        "min_margin": cert.min_margin,
        "gamma_fit": cert.gamma_fit,
        "mu_fit": cert.mu_fit,
        "pass": bool(cert.holds),
    }


def _report_normalized(traj, cfg: AnalysisConfig) -> dict:
    params = traj.params
    T_est, _ = estimate_T(traj)
    series = normalized_series(traj, T_est, cl_orders=(0, 1, 2))
    beta = beta_rate(params.lam, params.p)
    omega = beta  # lam^2 p - p - 1 after the bootstrapped mean bound
    sup_fit = fit_exponential(series.taus, series.sup_dev, window=cfg.tau_window)
    sup_ok = abs(-sup_fit.exponent - beta) <= cfg.rate_tolerance * beta
    out = {
        "T_est": T_est,
        "beta_theory": beta,
        "omega_theory": omega,
        "sup_rate": -sup_fit.exponent,
        "sup_window": list(sup_fit.window),
        "sup_n_points": sup_fit.n_points,
        "pass": bool(sup_ok),
        "mean_rate_expected_about": 2 * beta,
    }
    try:
        mean_fit = fit_exponential(
            series.taus, series.mean_dev, window=(max(0.3, cfg.tau_window[0] / 2), cfg.tau_window[1])
        )
        out["mean_rate"] = -mean_fit.exponent
        out["mean_window"] = list(mean_fit.window)
    except AnalysisError as exc:
        out["mean_rate"] = None
        out["mean_rate_detail"] = str(exc)
    for l in (0, 1, 2):
        try:
            fit = fit_exponential(series.taus, series.cl_dev[l], window=cfg.tau_window)
            out[f"c{l}_rate"] = -fit.exponent
        except AnalysisError:
            out[f"c{l}_rate"] = None
    return out


def cmd_analyze(args) -> int:
    if args.out:
        _make_out_dir(args.out)
    traj, header = read_trajectory(args.traj)
    cfg = _analysis_from_header(header)
    builders = {
        "rates": _report_rates,
        "trap": _report_trap,
        "blowup": _report_blowup,
        "normalized": _report_normalized,
    }
    report = {"what": args.what, "source": args.traj}
    report.update(builders[args.what](traj, cfg))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(os.path.join(args.out, f"report_{args.what}.json"), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_render(args) -> int:
    if args.frames < 1:
        raise ConfigError(f"--frames must be at least 1, got {args.frames}")
    out_dir = args.out or "render"
    _make_out_dir(out_dir)
    traj, header = read_trajectory(args.traj)
    params = traj.params
    if params.rational is None:
        print("render requires a rational lambda tag (n/m); this trajectory has none", file=sys.stderr)
        return EXIT_RATIONAL
    m = params.rational[1]
    snapshots, ts, T_est = traj.snapshots, traj.times, traj.T_est
    if T_est is None:
        try:
            T_est, _ = estimate_T(traj)
        except AnalysisError:
            if args.normalized:
                raise
    if args.normalized:
        before = int(np.count_nonzero(ts < T_est))  # snapshot times increase: the first ones
        if not before:
            raise AnalysisError(f"no snapshot before the blow-up time T={T_est:.6g}")
        axis = np.array([tau_of_t(t, T_est, params.p) for t in ts[:before].tolist()])
    else:
        axis = ts if T_est is None else np.log10(np.maximum(T_est - ts, 1e-300))
    targets = np.linspace(axis[0], axis[-1], args.frames)
    picks = sorted({int(np.argmin(np.abs(axis - x))) for x in targets})
    states = [rescale_state(snapshots[i], T_est) if args.normalized else snapshots[i] for i in picks]
    label = "tau={:.3f}" if args.normalized else "t={:.6f}"
    frames = [(label.format(s.t), reconstruct_curve(s, m)) for s in states]

    with open(os.path.join(out_dir, "curves.svg"), "w") as fh:
        fh.write(render_svg(frames))
    names = [f"frame_{i:03d}.csv" for i in range(len(frames))]
    for name, (_, poly) in zip(names, frames):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(polyline_csv(poly))
    for name in set(os.listdir(out_dir)) - set(names):  # frames of an earlier, longer render
        if name.startswith("frame_") and name.endswith(".csv"):
            os.remove(os.path.join(out_dir, name))
    print(f"wrote {len(frames)} frame(s) to {out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# verify: each entry picks sizes, seeds and a threshold; the checks are in
# pcsflow.checks, and the trapping one is blowup.certify


def _draws(seed: int, p_values, n_values, count: int) -> list[SpectralState]:
    rng = np.random.default_rng(seed)
    grid = [FlowParams(p=p, lam=2.0, n_max=n) for p in p_values for n in n_values for _ in range(count)]
    return [checks.random_trapped_state(params, rng) for params in grid]


def _verify_roundtrip(seed: int) -> tuple[bool, str]:
    worst = max(checks.round_trip_defect(s, 32) for s in _draws(seed, (1, 2, 3), (8,), 1))
    return worst <= 1e-12, f"max round-trip error {worst:.2e}"


def _verify_oracle(seed: int) -> tuple[bool, str]:
    worst = max(max(checks.oracle_defects(s)) for s in _draws(seed + 1, (1, 2, 3), (2, 4, 8), 20))
    return worst <= 1e-10, f"max relative disagreement {worst:.2e}"


def _verify_split(seed: int) -> tuple[bool, str]:
    worst = max(checks.split_defect(s) for s in _draws(seed + 2, (1, 2, 3), (6,), 1))
    return worst <= 1e-12, f"max identity defect {worst:.2e}"


def _verify_constant(seed: int) -> tuple[bool, str]:
    control = StepControl(rel_tol=1e-12, abs_tol=1e-16, k0_stop=1e4)
    runs = (integrate(SpectralState(FlowParams(p=p, lam=2.0, n_max=2), 0.0, [1, 0, 0]), control) for p in (1, 2))
    worst = max(checks.blowup_time_defect(traj) for traj in runs)
    return worst <= 1e-6, f"max relative T error {worst:.2e}"


def _verify_trapping(seed: int) -> tuple[bool, str]:
    params = FlowParams(p=1, lam=2.0, n_max=8)
    coeffs = np.zeros(9, dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[1] = 0.0025
    traj = integrate(SpectralState(params, 0.0, coeffs), StepControl(k0_stop=1e4), trap_c=256.0)
    cert = certify(traj, 256.0)
    monotone = bool(np.all(np.diff(traj.k0) >= 0))
    ok = cert.holds and monotone and not traj.has_event("trap_violation")
    return ok, f"min margin {cert.min_margin:.4f}, k0 monotone {monotone}"


VERIFY_CHECKS = (
    ("round_trip", _verify_roundtrip),
    ("oracle_equivalence", _verify_oracle),
    ("diagonal_split", _verify_split),
    ("constant_exactness", _verify_constant),
    ("trapping_regression", _verify_trapping),
)


def cmd_verify(args) -> int:
    seed = args.seed
    workers = thread_count()
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [(name, pool.submit(fn, seed)) for name, fn in VERIFY_CHECKS]
            results = [(name, *fut.result()) for name, fut in futures]
    else:
        results = [(name, *fn(seed)) for name, fn in VERIFY_CHECKS]
    width = max(len(name) for name, *_ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    return EXIT_OK if all_ok else 1


# ----------------------------------------------------------------------------
# bench


def _time_call(fn, state, budget_s: float = 0.2, max_repeat: int = 1000) -> float:
    fn(state)  # warm-up
    best = float("inf")
    for _ in range(5):
        reps = 1
        start = time.perf_counter()
        fn(state)
        elapsed = time.perf_counter() - start
        if elapsed < budget_s / 50 and elapsed > 0:
            reps = min(max_repeat, max(1, int(budget_s / 10 / max(elapsed, 1e-7))))
            start = time.perf_counter()
            for _ in range(reps):
                fn(state)
            elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
    return best


def bench_table(
    n_values=(4, 8, 16, 32, 64, 128, 256),
    p_values=(1, 2, 3),
    seed: int = 0,
    include_oracle: bool = True,
) -> list[dict]:
    rows = []
    for state in _draws(seed, p_values, n_values, 1):
        p, n_max = state.params.p, state.params.n_max
        row = {"p": p, "n_max": n_max}
        row["fast_ns"] = _time_call(rhs_fast, state) * 1e9
        row["convolution_ns"] = _time_call(rhs_convolution, state) * 1e9
        if include_oracle and n_max <= 12 and p <= 3:
            row["direct_ns"] = _time_call(rhs_direct, state) * 1e9
        rows.append(row)
    return rows


def scaling_exponent(rows: list[dict], key: str, p: int, n_range=(16, 256)) -> float | None:
    pts = [
        (row["n_max"], row[key])
        for row in rows
        if row["p"] == p and key in row and n_range[0] <= row["n_max"] <= n_range[1]
    ]
    if len(pts) < 3:
        return None
    x = np.log([q[0] for q in pts])
    y = np.log([q[1] for q in pts])
    return float(np.polyfit(x, y, 1)[0])


def cmd_bench(args) -> int:
    if args.out:
        _make_out_dir(args.out)
    rows = bench_table(seed=args.seed)
    # extend p=1 into the range where the direct path's quadratic work
    # dominates Python call overhead
    rows += bench_table(n_values=(512, 1024), p_values=(1,), seed=args.seed)
    header = ["p", "n_max", "fast_ns", "convolution_ns", "direct_ns"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row.get(k, "")) for k in header))
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(os.path.join(args.out, "bench.csv"), "w") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    for p in (1, 2, 3):
        fast = scaling_exponent(rows, "fast_ns", p, n_range=(16, 256))
        lo, hi = (128, 1024) if p == 1 else (64, 256)
        conv = scaling_exponent(rows, "convolution_ns", p, n_range=(lo, hi))
        print(
            f"# p={p}: fast-path exponent {fast:.2f} over n_max 16..256, "
            f"direct-convolution exponent {conv:.2f} over n_max {lo}..{hi}"
        )
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcsflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured blow-up integration")
    sim.add_argument("--config", required=True, help="YAML run configuration")
    sim.add_argument("--out", default=None, help="output directory (default from config)")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="post-process a trajectory file")
    ana.add_argument("--traj", required=True, help="trajectory.jsonl path")
    ana.add_argument("--what", choices=("rates", "trap", "blowup", "normalized"), default="blowup")
    ana.add_argument("--out", default=None, help="directory for the JSON report")
    ana.set_defaults(func=cmd_analyze)

    norm = sub.add_parser("normalize", help="alias for analyze --what normalized")
    norm.add_argument("--traj", required=True)
    norm.add_argument("--out", default=None)
    norm.set_defaults(func=cmd_analyze, what="normalized")

    ren = sub.add_parser("render", help="reconstruct curve frames (SVG + CSV)")
    ren.add_argument("--traj", required=True)
    ren.add_argument("--frames", type=int, default=8)
    ren.add_argument("--normalized", action="store_true", help="render in the normalized frame")
    ren.add_argument("--out", default=None)
    ren.set_defaults(func=cmd_render)

    ver = sub.add_parser("verify", help="run the built-in cross-check suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="time the derivative evaluators")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--out", default=None)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrajectoryError as exc:
        print(f"trajectory error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except FlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
