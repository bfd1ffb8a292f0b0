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

Exit codes: 0 clean, 1 config/schema error, an output that cannot be written
or an analysis the trajectory cannot support (AnalysisError), 2 positivity
loss, 3 trap violation, 4 trajectory unreadable: missing, torn, malformed (no
snapshot, no trailer last, a non-finite coefficient, a bad T_est or analysis
echo), or a format version other than 1 or 2, 5 rational lam required, 6 run
ended without a terminal event.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import checks
from .blowup import (
    ENVELOPE_WINDOW,
    POWER_WINDOW,
    T_fit_points,
    alpha_exponent,
    beta_rate,
    c_is_heuristic,
    certify,
    check_hypothesis,
    circle_time,
    envelope_check,
    estimate_T,
    fit_power,
    select_c,
    trap_margin,
)
from .errors import AnalysisError, ConfigError, FlowError, TrajectoryError, VersionError
from .geometry import PerturbationSpec, polyline_csv, radial_perturbation_curvature, reconstruct_curve, render_svg
from .normalize import fit_exponential, normalized_frame, normalized_series
from .rhs import DIRECT_N_MAX, DIRECT_P_MAX, rhs_convolution, rhs_direct, rhs_fast
from .spectral import FlowParams, SpectralState, coeff_seminorm, coeff_sup_deviation, default_grid_size, parse_lambda
from .stepping import RunStats, StepControl, Trajectory, integrate

FORMAT_VERSION = 2  # written; read_trajectory also reads version 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POSITIVITY = 2
EXIT_TRAP = 3
EXIT_VERSION = 4
EXIT_RATIONAL = 5
EXIT_INCOMPLETE = 6


# ----------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AnalysisConfig:
    c_override: float | None = None
    power_window: tuple = POWER_WINDOW
    tau_window: tuple = (2.0, 8.0)
    envelope_window: tuple = ENVELOPE_WINDOW
    rate_tolerance: float = 0.10


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    params: FlowParams
    init: dict
    control: StepControl
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


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
        n = _integer(h["n"], f"{at}.n")
        if any(n == other for other, _, _ in harmonics):
            raise ConfigError(f"init.harmonics repeats n={n}; give each mode once")
        harmonics.append((n, cos, sin))
    return {"kind": "harmonics", "mean": mean, "harmonics": harmonics}


def _parse_control(section: dict) -> StepControl:
    _require_keys(section, {f.name for f in fields(StepControl)}, "control")
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
    _require_keys(section, {f.name for f in fields(AnalysisConfig)}, "analysis")
    kwargs = {}
    for key, value in section.items():
        where = f"analysis.{key}"
        if key.endswith("_window"):
            kwargs[key] = _window(value, where)
        elif value is not None or key != "c_override":  # c_override: null keeps the default
            kwargs[key] = _real(value, where)
            if kwargs[key] <= 0.0:
                raise ConfigError(f"{where} must be positive, got {value!r}")
    return AnalysisConfig(**kwargs)


def _parse_output(section: dict) -> OutputConfig:
    _require_keys(section, {"directory"}, "output")
    if not isinstance(section.get("directory", ""), str):
        raise ConfigError(f"output.directory must be text, got {section['directory']!r}")
    return OutputConfig(**section)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    _require_keys(doc, {"params", "init", "control", "analysis", "output"}, "top level")
    for key in ("params", "init"):
        if key not in doc:
            raise ConfigError(f"section '{key}' is required")
    return RunConfig(
        params=_parse_params(doc["params"]),
        init=_parse_init(doc["init"]),
        control=_parse_control(doc.get("control", {})),
        analysis=_parse_analysis(doc.get("analysis", {})),
        output=_parse_output(doc.get("output", {})),
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


def _plain(section) -> dict:
    """A config dataclass as a dict, its tuples as lists (``yaml.safe_dump``
    takes no tuple)."""
    return {key: list(val) if isinstance(val, tuple) else val for key, val in asdict(section).items()}


def emit_config(config: RunConfig) -> dict:
    """Round-trippable plain-dict form of a configuration."""
    fp = config.params
    params = {"p": fp.p, "lambda": f"{fp.rational[0]}/{fp.rational[1]}" if fp.rational else fp.lam, "n_max": fp.n_max}
    if config.init["kind"] == "perturbation":
        spec = config.init["spec"]
        init = {
            "perturbation": {
                "m": spec.m,
                "n": spec.n,
                "delta": spec.delta,
                "harmonics": [{"j": j, "amplitude": amp, "phase": phase} for j, amp, phase in spec.harmonics],
            }
        }
    else:
        init = {
            "mean": config.init["mean"],
            "harmonics": [{"n": n, "cos": a, "sin": b} for n, a, b in config.init["harmonics"]],
        }
    return {
        "params": params,
        "init": init,
        "control": asdict(config.control),
        "analysis": _plain(config.analysis),
        "output": _plain(config.output),
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


def snapshot_record(t: float, coeffs: np.ndarray) -> str:
    """One snapshot's JSON line in format version 2: ``t`` and ``k0`` = c[0]
    as JSON numbers, ``coeffs`` as one base64 block of the n_max + 1
    coefficients in little-endian complex128."""
    block = base64.b64encode(coeffs.astype("<c16", copy=False).tobytes()).decode("ascii")
    return json.dumps({"kind": "snapshot", "t": t, "k0": float(coeffs[0].real), "coeffs": block})


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
        for t, coeffs in zip(traj.times.tolist(), traj.coeffs):
            fh.write(snapshot_record(t, coeffs) + "\n")
        trailer = {
            "kind": "trailer",
            "events": [[t, kind, detail] for t, kind, detail in traj.events],
            "T_est": traj.T_est,
            "run_stats": asdict(traj.stats) if traj.stats is not None else None,
        }
        fh.write(json.dumps(trailer) + "\n")


def _finite_number(value) -> bool:
    """An int or float (no bool, no text) that is finite."""
    return type(value) in (int, float) and math.isfinite(value)


def _snapshot_coeffs(snapshots: list, version: int, n_max: int) -> np.ndarray:
    """The coefficients of every snapshot record, stacked (N, n_max + 1):
    version 1 holds [re, im] number pairs (bool, int and float entries pass;
    text, null and ints outside int64/uint64 do not), version 2 one base64
    block of 16 (n_max + 1) bytes each.  Anything else, and any non-finite
    value, raises ``ValueError``."""
    if version == 1:
        pairs = np.array([rec["coeffs"] for rec in snapshots])
        if pairs.dtype.kind not in "biuf" or pairs.shape != (len(snapshots), n_max + 1, 2):
            raise ValueError(
                f"snapshot coeffs must be {n_max + 1} [re, im] number pairs, "
                f"got a {pairs.dtype} array of shape {pairs.shape}"
            )
        coeffs = pairs.astype(np.float64).view(np.complex128)[..., 0]
    else:
        try:  # a coeffs that is not a string raises TypeError
            raw = [base64.b64decode(rec["coeffs"], validate=True) for rec in snapshots]
        except ValueError as exc:  # binascii.Error, or text that is not ASCII
            raise ValueError(f"snapshot coeffs are not base64: {exc}") from exc
        width = 16 * (n_max + 1)
        bad = next((len(r) for r in raw if len(r) != width), None)
        if bad is not None:
            raise ValueError(f"snapshot coeffs must be {width} bytes of complex128, got {bad}")
        coeffs = np.frombuffer(b"".join(raw), "<c16").reshape(len(snapshots), n_max + 1)
    if not np.isfinite(coeffs).all():
        raise ValueError("snapshot coeffs must be finite")
    return coeffs


def read_trajectory(path: str) -> tuple[Trajectory, dict]:
    """Load a trajectory file of format version 1 or 2.  A missing,
    unreadable, torn or malformed file (no snapshot, a snapshot t that is not
    a finite number, snapshot coeffs that are not n_max + 1 finite
    coefficients in the version's form, no trailer last, a T_est neither null
    nor finite) raises ``TrajectoryError``; a version other than the integer
    1 or 2 its subtype ``VersionError``.  Keys a record does not use are
    ignored, in snapshots and in the trailer's ``run_stats`` alike, so files
    from before a field was retired, or after one was added, still read."""
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
    version = header.get("version")
    if type(version) is not int or version not in (1, 2):
        raise VersionError(f"{path}: format version {version!r} is not a supported one (1 or 2)")
    if not isinstance(header.get("config", {}), dict):
        raise TrajectoryError(f"{path}: header config is not a mapping")
    try:
        ph = header["params"]
        rational = tuple(ph["rational"]) if ph.get("rational") else None
        params = FlowParams(p=ph["p"], lam=ph["lambda"], n_max=ph["n_max"], rational=rational)
        snapshots, events, T_est, stats = [], [], None, None
        for rec in lines[1:]:
            if rec["kind"] == "snapshot":
                if not _finite_number(rec["t"]):
                    raise ValueError(f"t is {rec['t']!r}, not a finite number")
                snapshots.append(rec)
            elif rec["kind"] == "trailer":
                events = [(t, kind, detail) for t, kind, detail in rec["events"]]
                T_est = rec.get("T_est")
                if T_est is not None and not _finite_number(T_est):
                    raise ValueError(f"T_est is {T_est!r}, not null or a finite number")
                stats, known = rec.get("run_stats"), {f.name for f in fields(RunStats)}
                stats = RunStats(**{k: v for k, v in stats.items() if k in known}) if stats else None
        if snapshots:
            coeffs = _snapshot_coeffs(snapshots, version, params.n_max)
            traj = Trajectory(params, [rec["t"] for rec in snapshots], coeffs, events, T_est, stats)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise TrajectoryError(f"{path}: malformed record ({type(exc).__name__}: {exc})") from exc
    if not snapshots:
        raise TrajectoryError(f"{path}: no snapshot record")
    if lines[-1]["kind"] != "trailer":
        raise TrajectoryError(f"{path}: no trailer record at the end (cut short?)")
    return traj, header


def metrics_csv(traj: Trajectory, c: float) -> str:
    """Per-snapshot t, k0, T_est_running = t + circle_time(p, k0) (nan where
    k0 <= 0), trap_margin = k0 - c * seminorm2, seminorm2 and sup_dev = max
    |k - k0| on the default grid: each column computed for all snapshots at
    once from their stacked coefficients, the table written by one %.17g format."""
    p = traj.params.p
    t, coeffs = traj.times, traj.coeffs
    k0 = coeffs[:, 0].real
    # Python's pow per row: numpy's SIMD power loop can differ from libm's in the last bit
    left = np.array([circle_time(p, k) if k > 0 else np.nan for k in k0.tolist()])
    margin, s2 = trap_margin(coeffs, c), coeff_seminorm(coeffs, 2.0)
    sup_dev = coeff_sup_deviation(coeffs, default_grid_size(traj.params))
    table = np.column_stack([t, k0, t + left, margin, s2, sup_dev])
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


def _trap_constant(params: FlowParams, cfg: AnalysisConfig) -> tuple[float, str]:
    """The cone constant c, ``c_override`` else ``select_c``, and where it came
    from: override, heuristic (p >= 2) or closed-form."""
    if cfg.c_override is not None:
        return cfg.c_override, "override"
    return select_c(params), "heuristic" if c_is_heuristic(params.p) else "closed-form"


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    init = initial_state(config)
    p, mean, k0_stop = config.params.p, init.mean, config.control.k0_stop
    with np.errstate(over="ignore"):  # inf where Python's float power raises
        left = circle_time(p, np.float64(mean))
    if not 0.0 < left < math.inf:
        raise ConfigError(f"init: mean {mean!r} at p={p} has blow-up time {left:.6g}, not a finite positive number")
    if mean >= k0_stop:  # the ladder would have no rung to reach
        raise ConfigError(f"init: mean {mean!r} must be below control.k0_stop={k0_stop!r}")
    c, _ = _trap_constant(config.params, config.analysis)
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


def _analysis_from_header(header: dict, path: str) -> AnalysisConfig:
    """The run's analysis settings from its header echo; a malformed echo is
    a malformed file (``TrajectoryError``)."""
    try:
        return _parse_analysis(header.get("config", {}).get("analysis", {}))
    except ConfigError as exc:
        raise TrajectoryError(f"{path}: header analysis echo: {exc}") from exc


def _fit_T(traj) -> dict:
    """``estimate_T`` with its uncertainty, window in t and number of snapshots."""
    T_est, unc = estimate_T(traj)
    sel = T_fit_points(traj.k0)
    window = [float(traj.times[sel].min()), float(traj.times[sel].max())]
    return {"T_est": T_est, "T_uncertainty": unc, "T_window": window, "T_n_points": int(sel.sum())}


def _report_blowup(traj, cfg: AnalysisConfig) -> dict:
    out = _fit_T(traj)
    env = envelope_check(traj, out["T_est"], window=cfg.envelope_window)
    return {**out, "envelope": asdict(env), "pass": bool(env.ok)}


def _report_rates(traj, cfg: AnalysisConfig) -> dict:
    params = traj.params
    out = _fit_T(traj)
    modes = []
    overall = True
    for n in range(1, min(3, params.n_max) + 1):
        theory = alpha_exponent(params.lam, n, params.p)
        tol = max(0.05, 0.12 * theory)
        try:
            fit = fit_power(traj, out["T_est"], n, window=cfg.power_window)
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
                "window": list(fit.window),
                "n_points": fit.n_points,
                "pass": ok,
            }
        )
    return {**out, "modes": modes, "pass": overall}


def _report_trap(traj, cfg: AnalysisConfig) -> dict:
    c, source = _trap_constant(traj.params, cfg)
    cert = certify(traj, c)
    hyp = check_hypothesis(SpectralState(traj.params, traj.times[0], traj.coeffs[0]), c)
    return {
        "c": c,
        "c_source": source,
        "hypothesis": asdict(hyp),
        "holds": cert.holds,
        "min_margin": cert.min_margin,
        "pass": bool(cert.holds),
    }


def _report_normalized(traj, cfg: AnalysisConfig) -> dict:
    """The decay rates in tau of the normalized deviations, each as
    ``<name>_rate`` (the fitted exponent's negative), ``_stderr``, ``_window``
    and ``_n_points``, or a null rate and its ``_rate_detail``.  ``pass``
    compares the sup rate with beta."""
    params = traj.params
    out = _fit_T(traj)
    series = normalized_series(traj, out["T_est"], cl_orders=(0, 1, 2))
    beta = beta_rate(params.lam, params.p)
    out.update(beta_theory=beta, mean_rate_expected_about=2 * beta)
    lo, hi = cfg.tau_window
    fits = [("sup", series.sup_dev, cfg.tau_window), ("mean", series.mean_dev, (max(0.3, lo / 2), hi))]
    fits += [(f"c{l}", series.cl_dev[l], cfg.tau_window) for l in (0, 1, 2)]
    for name, values, window in fits:
        try:
            fit = fit_exponential(series.taus, values, window=window)
        except AnalysisError as exc:
            out.update({f"{name}_rate": None, f"{name}_rate_detail": str(exc)})
            continue
        out.update(
            {
                f"{name}_rate": -fit.exponent,
                f"{name}_stderr": fit.stderr,
                f"{name}_window": list(fit.window),
                f"{name}_n_points": fit.n_points,
            }
        )
    sup = out["sup_rate"]
    out["pass"] = sup is not None and abs(sup - beta) <= cfg.rate_tolerance * beta
    return out


# The reports of ``analyze --what``, in the order of its choices.
REPORTS = {"rates": _report_rates, "trap": _report_trap, "blowup": _report_blowup, "normalized": _report_normalized}


def cmd_analyze(args) -> int:
    if args.out:
        _make_out_dir(args.out)
    traj, header = read_trajectory(args.traj)
    cfg = _analysis_from_header(header, args.traj)
    report = {"what": args.what, "source": args.traj}
    report.update(REPORTS[args.what](traj, cfg))
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
    params, m = traj.params, traj.params.winding
    if m is None:
        print("render requires a rational lambda tag (n/m); this trajectory has none", file=sys.stderr)
        return EXIT_RATIONAL
    ts, rows, T_est = traj.times, traj.coeffs, traj.T_est
    if T_est is None:
        try:
            T_est, _ = estimate_T(traj)
        except AnalysisError:
            if args.normalized:
                raise
    if args.normalized:
        ts, rows = normalized_frame(traj, T_est)
    axis = ts if args.normalized or T_est is None else np.log10(np.maximum(T_est - ts, 1e-300))
    if args.frames >= len(axis):  # as many frames as candidates: every one of them
        picks = range(len(axis))
    else:
        targets = np.linspace(axis[0], axis[-1], args.frames)
        picks = sorted({int(np.argmin(np.abs(axis - x))) for x in targets})
    states = [SpectralState(params, ts[i], rows[i]) for i in picks]
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
    worst = max(checks.split_defect(FlowParams(p=p, lam=2.0, n_max=6)) for p in (1, 2, 3))
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


def _require_seed(seed: int):
    if seed < 0:  # numpy's generators refuse it only once the work has begun
        raise ConfigError(f"--seed must be nonnegative, got {seed}")


def cmd_verify(args) -> int:
    _require_seed(args.seed)
    results = [(name, *fn(args.seed)) for name, fn in VERIFY_CHECKS]
    width = max(len(name) for name, *_ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    return EXIT_OK if all_ok else 1


# ----------------------------------------------------------------------------
# bench


# A timing repeat of a call faster than _BUDGET_S / 50 loops it for about
# _BUDGET_S / 10, at most _MAX_REPEAT times.
_BUDGET_S, _MAX_REPEAT = 0.2, 1000


def _time_call(fn, state) -> float:
    fn(state)  # warm-up
    best = float("inf")
    for _ in range(5):
        reps = 1
        start = time.perf_counter()
        fn(state)
        elapsed = time.perf_counter() - start
        if elapsed < _BUDGET_S / 50 and elapsed > 0:
            reps = min(_MAX_REPEAT, max(1, int(_BUDGET_S / 10 / max(elapsed, 1e-7))))
            start = time.perf_counter()
            for _ in range(reps):
                fn(state)
            elapsed = time.perf_counter() - start
        best = min(best, elapsed / reps)
    return best


def bench_table(n_values=(4, 8, 16, 32, 64, 128, 256), p_values=(1, 2, 3), seed: int = 0) -> list[dict]:
    rows = []
    for state in _draws(seed, p_values, n_values, 1):
        p, n_max = state.params.p, state.params.n_max
        row = {"p": p, "n_max": n_max}
        row["fast_ns"] = _time_call(rhs_fast, state) * 1e9
        row["convolution_ns"] = _time_call(rhs_convolution, state) * 1e9
        if n_max <= DIRECT_N_MAX and p <= DIRECT_P_MAX:
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
    _require_seed(args.seed)
    if args.out:
        _make_out_dir(args.out)
    rows = bench_table(seed=args.seed)
    # extend p=1 into the range where the direct path's quadratic work
    # dominates Python call overhead
    rows += bench_table(n_values=(512, 1024), p_values=(1,), seed=args.seed)
    header = ["p", "n_max", "fast_ns", "convolution_ns", "direct_ns"]
    lines = [",".join(header)] + [",".join(str(row.get(k, "")) for k in header) for row in rows]
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
    ana.add_argument("--what", choices=tuple(REPORTS), default="blowup")
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
    except OSError as exc:  # reads raise their own errors: this is an output that cannot be written
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
