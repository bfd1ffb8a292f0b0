import base64
import contextlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pcsflow
from pcsflow import cli
from pcsflow.blowup import certify, trap_margin
from pcsflow.errors import ConfigError, VersionError
from pcsflow.geometry import polyline_csv, reconstruct_curve, render_svg
from pcsflow.normalize import scale_factor, tau_of_t
from pcsflow.spectral import MAX_N_MAX, FlowParams, SpectralState, coeff_seminorm, synthesize
from pcsflow.stepping import RunStats, StepControl, Trajectory, integrate

from conftest import make_state

CONST_CONFIG = {
    "params": {"p": 1, "lambda": 2.0, "n_max": 2},
    "init": {"mean": 1.0, "harmonics": []},
    "control": {"rel_tol": 1e-12, "abs_tol": 1e-16, "k0_stop": 1e4},
    "output": {"directory": "out"},
}

PERT_CONFIG = {
    "params": {"p": 1, "lambda": "7/2", "n_max": 8},
    "init": {
        "perturbation": {
            "m": 2,
            "n": 7,
            "delta": 0.002,
            "harmonics": [{"j": 1, "amplitude": 1.0, "phase": 0.0}],
        }
    },
    "control": {"k0_stop": 1e4},
    "output": {"directory": "out"},
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def run_simulation(tmp_path, doc):
    doc = dict(doc)
    doc["output"] = {"directory": str(tmp_path / "out")}
    code = cli.main(["simulate", "--config", write_config(tmp_path, doc)])
    return code, str(tmp_path / "out" / "trajectory.jsonl")


class TestConfig:
    def test_round_trip_is_idempotent(self, tmp_path):
        path = write_config(tmp_path, PERT_CONFIG)
        config = cli.load_config(path)
        emitted = cli.emit_config(config)
        config2 = cli.parse_config(emitted)
        assert cli.emit_config(config2) == emitted

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(CONST_CONFIG)
        doc["typo_section"] = {}
        with pytest.raises(ConfigError, match="typo_section"):
            cli.load_config(write_config(tmp_path, doc))

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["control"]["dt"] = 0.1
        with pytest.raises(ConfigError, match="dt"):
            cli.load_config(write_config(tmp_path, doc))

    def test_invalid_lambda_rejected(self, tmp_path):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["params"]["lambda"] = 1.0
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path, doc))

    def test_initial_state_harmonics(self):
        config = cli.parse_config(json.loads(json.dumps(CONST_CONFIG)))
        state = cli.initial_state(config)
        assert state.mean == 1.0
        config2 = cli.parse_config(
            {
                "params": {"p": 1, "lambda": 2.0, "n_max": 4},
                "init": {"mean": 1.0, "harmonics": [{"n": 1, "cos": 0.005, "sin": 0.002}]},
            }
        )
        state2 = cli.initial_state(config2)
        assert state2.coeffs[1] == pytest.approx(0.0025 - 0.001j)

    def test_readme_example_parses_and_builds_its_state(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
            block = fh.read().split("```yaml\n", 1)[1].split("```", 1)[0]
        config = cli.parse_config(yaml.safe_load(block))
        state = cli.initial_state(config)
        assert state.params == config.params and state.params.rational == (7, 2)
        assert state.mean > 0


class TestStrictConfig:
    """Malformed values end in exit 1 with one stderr line and no files."""

    def assert_config_error(self, tmp_path, capsys, doc, message):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_fractional_snapshots_per_decade(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["control"]["snapshots_per_decade"] = 2.7
        self.assert_config_error(tmp_path, capsys, doc, "control.snapshots_per_decade must be an integer")

    def test_scalar_power_window(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["analysis"] = {"power_window": 5}
        self.assert_config_error(tmp_path, capsys, doc, "analysis.power_window must be a pair")

    def test_perturbation_harmonic_without_j(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PERT_CONFIG))
        doc["init"]["perturbation"]["harmonics"] = [{"amplitude": 1.0, "phase": 0.0}]
        self.assert_config_error(tmp_path, capsys, doc, "init.perturbation.harmonics[].j is required")

    @pytest.mark.parametrize(
        "section,value,message",
        [
            ("params", 5, "params must be a mapping"),
            ("init", 7, "init must be a mapping"),
            ("init", {"perturbation": 3}, "init.perturbation must be a mapping"),
            ("init", {"mean": 1.0, "harmonics": [5]}, "init.harmonics[] must be a mapping"),
            ("output", {"formats": ["jsonl"]}, "unknown key(s) ['formats'] in output"),
            ("params", {"p": 1, "lambda": "2/0", "n_max": 2}, "zero denominator"),
            ("output", {"directory": None}, "output.directory must be text, got None"),
            ("output", {"directory": [1, 2]}, "output.directory must be text, got [1, 2]"),
            ("output", {"directory": 5}, "output.directory must be text, got 5"),
            ("seed", 0, "unknown key(s) ['seed'] in top level"),
            ("control", {"tau_snapshot_interval": 0.1}, "unknown key(s) ['tau_snapshot_interval'] in control"),
            ("control", {"safety": 0.8}, "unknown key(s) ['safety'] in control"),
            (
                "init",
                {"mean": 1.0, "harmonics": [{"n": 1, "cos": 0.01}, {"n": 1, "sin": 0.002}]},
                "init.harmonics repeats n=1",
            ),
        ],
        ids=[
            "params",
            "init",
            "perturbation",
            "harmonic",
            "formats",
            "lambda_over_zero",
            "null_directory",
            "list_directory",
            "number_directory",
            "seed",
            "tau_snapshot_interval",
            "safety",
            "repeated_harmonic",
        ],
    )
    def test_malformed_shape(self, tmp_path, capsys, section, value, message):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc[section] = value
        self.assert_config_error(tmp_path, capsys, doc, message)

    @pytest.mark.parametrize(
        "section,value,message",
        [
            ("params", {"p": 1, "lambda": 2.0, "n_max": MAX_N_MAX + 1}, "params: n_max must be at most"),
            ("params", {"p": 1, "lambda": 1.0e200, "n_max": 8}, "params: lam*n_max must be at most 1e+150"),
            ("params", {"p": 65_533, "lambda": 2.0, "n_max": 8}, "params: dealiasing grid must be at most 524288"),
            ("init", {"mean": 1.0e-200}, "init: mean 1e-200 at p=1 has blow-up time inf"),
            ("init", {"mean": 1.0e103}, "init: mean 1e+103 must be below control.k0_stop=10000.0"),
            ("init", {"mean": 1.0e200}, "init: mean 1e+200 at p=1 has blow-up time 0"),
            ("analysis", {"c_override": 0.0}, "analysis.c_override must be positive"),
            ("analysis", {"c_override": -1.0}, "analysis.c_override must be positive"),
            ("analysis", {"rate_tolerance": 0}, "analysis.rate_tolerance must be positive"),
            ("analysis", {"rate_tolerance": -0.1}, "analysis.rate_tolerance must be positive"),
            ("control", {"min_step": 1.0e-2, "max_step": 1.0e-3}, "control: min_step must not exceed max_step"),
            ("control", {"snapshots_per_decade": 10**17}, "control: snapshots_per_decade must be between 1 and"),
        ],
        ids=[
            "n_max_above_bound",
            "lambda_n_max_above_bound",
            "dealiasing_grid_above_bound",
            "mean_without_finite_blow_up_time",
            "mean_above_k0_stop",
            "mean_with_blow_up_time_zero",
            "zero_c_override",
            "negative_c_override",
            "zero_rate_tolerance",
            "negative_rate_tolerance",
            "min_step_above_max_step",
            "unbounded_snapshot_ladder",
        ],
    )
    def test_out_of_range_value(self, tmp_path, capsys, section, value, message):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc[section] = value
        self.assert_config_error(tmp_path, capsys, doc, message)


# Values a config field may be replaced by: wrong types, wrong shapes, and
# numbers out of range, all small enough that a run stays short.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.sampled_from([0.0, -1.0, 1e-3, 0.5, 2.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["7/2", "2/0", "0/3", "-5/2", "1e400", "1e-3", "x", ""]),
    st.text(max_size=5),
    st.lists(st.integers(-3, 10), max_size=2),
    st.dictionaries(st.sampled_from(["n", "j", "cos", "mean", "zz"]), st.integers(-3, 10), max_size=2),
)


@st.composite
def small_configs(draw):
    """A valid run config with n_max <= 4 and k0_stop <= 10."""
    p, n_max = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        n, m = draw(st.sampled_from([(5, 2), (7, 2), (3, 1), (7, 3)]))
        lam = f"{n}/{m}"
        pert = {"m": m, "n": n, "delta": draw(st.sampled_from([5e-4, 2e-3]))}
        pert["harmonics"] = [{"j": 1, "amplitude": 1.0, "phase": draw(st.sampled_from([0.0, 0.3]))}]
        init = {"perturbation": pert}
    else:
        lam = draw(st.sampled_from([2.0, 2.5, "7/2"]))
        sin = draw(st.sampled_from([0.0, 0.004]))
        modes = range(1, draw(st.integers(0, n_max)) + 1)
        init = {
            "mean": draw(st.sampled_from([0.5, 1.0, 2.0])),
            "harmonics": [{"n": n, "cos": 0.01 / n**2, "sin": sin / n**2} for n in modes],
        }
    return {
        "params": {"p": p, "lambda": lam, "n_max": n_max},
        "init": init,
        "control": {"k0_stop": draw(st.sampled_from([2.0, 10.0])), "snapshots_per_decade": 10},
        "analysis": {"tau_window": [2.0, 8.0]},
        "output": {"directory": "out"},
    }


def config_paths(doc, prefix=()):
    """Every position in a nested config, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from config_paths(value, prefix + (key,))


@st.composite
def round_trip_configs(draw):
    """A parseable config of either init kind with arbitrary finite reals."""
    finite = st.floats(-1e3, 1e3)
    if draw(st.booleans()):
        n, m = draw(st.sampled_from([(5, 2), (7, 2), (3, 1), (7, 3), (9, 4)]))
        lam = f"{n}/{m}"
        harmonics = [
            {"j": j, "amplitude": draw(finite), "phase": draw(finite)}
            for j in range(1, draw(st.integers(1, 3)) + 1)
        ]
        init = {"perturbation": {"m": m, "n": n, "delta": draw(finite), "harmonics": harmonics}}
    else:
        lam = draw(st.one_of(st.sampled_from(["7/2", "7/3"]), st.floats(2.0, 10.0)))
        modes = range(1, draw(st.integers(0, 4)) + 1)
        init = {
            "mean": draw(st.floats(1e-3, 1e3)),
            "harmonics": [{"n": n, "cos": draw(finite), "sin": draw(finite)} for n in modes],
        }
    return {
        "params": {"p": draw(st.integers(1, 3)), "lambda": lam, "n_max": draw(st.integers(4, 64))},
        "init": init,
        "control": {
            "rel_tol": draw(st.floats(1e-13, 1e-3)),
            "k0_stop": draw(st.floats(2.0, 1e8)),
            "snapshots_per_decade": draw(st.integers(1, 100)),
        },
        "analysis": {"c_override": draw(st.one_of(st.none(), st.floats(1.0, 1e3)))},
        "output": {"directory": "out"},
    }


@settings(deadline=None, max_examples=50)
@given(doc=round_trip_configs())
def test_emit_parse_round_trip(doc):
    # emit_config, written as YAML and read back, parses to the same config
    config = cli.parse_config(doc)
    assert cli.parse_config(yaml.safe_load(yaml.safe_dump(cli.emit_config(config)))) == config


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(doc=small_configs(), data=st.data())
def test_generated_configs_never_trace_back(tmp_path_factory, doc, data):
    # up to two mutations: a field replaced by junk, deleted, or joined by an unknown key
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(config_paths(doc))))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            doc = data.draw(JUNK)
            continue
        *head, key = path
        parent = doc
        for step in head:
            parent = parent[step]
        if action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "add" and isinstance(parent[key], dict):
            parent[key]["unknown"] = data.draw(JUNK)
        else:
            parent[key] = data.draw(JUNK)
    work = tmp_path_factory.mktemp("fuzz")
    config = work / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", str(config), "--out", str(work / "out")])
    # a warning would reach stderr as two more lines
    assert not caught, [str(w.message) for w in caught]
    assert 0 <= code <= 6
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


class TestSimulate:
    def test_constant_run(self, tmp_path):
        code, traj_path = run_simulation(tmp_path, CONST_CONFIG)
        assert code == cli.EXIT_OK
        traj, header = cli.read_trajectory(traj_path)
        assert header["version"] == 2
        assert traj.T_est == pytest.approx(0.5, abs=1e-8)
        metrics = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == "t,k0,T_est_running,trap_margin,seminorm2,sup_dev"
        last = metrics[-1].split(",")
        assert float(last[0]) == pytest.approx(0.5, abs=1e-6)
        assert float(last[2]) == pytest.approx(0.5, abs=1e-8)

    def test_malformed_config_exits_1_without_files(self, tmp_path):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["params"]["lambda"] = 0.5
        doc["output"] = {"directory": str(tmp_path / "out")}
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_hypothesis_failing_init_flags_margin(self, tmp_path):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["params"] = {"p": 1, "lambda": 2.0, "n_max": 8}
        doc["init"] = {"mean": 1.0, "harmonics": [{"n": 1, "cos": 0.01, "sin": 0.0}]}
        doc["control"] = {"k0_stop": 100.0}
        doc["output"] = {"directory": str(tmp_path / "out")}
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc)])
        metrics = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        first = metrics[1].split(",")
        assert float(first[3]) < 0  # margin negative at t=0
        assert code == cli.EXIT_TRAP

    def test_uncreatable_out_dir_exits_1_before_integrating(self, tmp_path, capsys, monkeypatch):
        def integrate_not_called(*args, **kwargs):
            raise AssertionError("integrate ran although --out cannot be created")

        monkeypatch.setattr(cli, "integrate", integrate_not_called)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(
            ["simulate", "--config", write_config(tmp_path, CONST_CONFIG), "--out", str(blocker / "out")]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: cannot create output directory") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_trajectory_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "out" / "trajectory.jsonl"
        blocker.mkdir(parents=True)
        code = cli.main(["simulate", "--config", write_config(tmp_path, CONST_CONFIG), "--out", str(tmp_path / "out")])
        assert_write_error(code, capsys.readouterr(), blocker)

    def test_t_resolution_floor_ends_in_step_floor(self, tmp_path, capsys):
        # at p=2 the default k0_stop=1e6 puts T - t ~ 1e-18 below ulp(T): the
        # run stops where t stalls, and estimating T from the crowded last
        # decade stays well conditioned
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["params"]["p"] = 2
        del doc["control"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, traj_path = run_simulation(tmp_path, doc)
        assert code == cli.EXIT_INCOMPLETE and not caught
        assert capsys.readouterr().err == ""
        traj, _ = cli.read_trajectory(traj_path)
        assert traj.events[-1][1:] == ("step_floor", "model time no longer advances")
        assert traj.snapshots[-1].mean > 1e5
        assert traj.T_est == pytest.approx(2 / 3, rel=1e-12)

    def test_positivity_loss_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc["params"] = {"p": 1, "lambda": 2.0, "n_max": 8}
        doc["init"] = {"mean": 1.0, "harmonics": [{"n": 1, "cos": 0.99, "sin": 0.0}]}
        doc["control"] = {"k0_stop": 1e4}
        doc["output"] = {"directory": str(tmp_path / "out")}
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc)])
        assert code == cli.EXIT_POSITIVITY


def reference_metrics_csv(traj, c):
    """The per-snapshot writer that ``metrics_csv`` replaced: the byte reference."""
    p = traj.params.p
    rows = ["t,k0,T_est_running,trap_margin,seminorm2,sup_dev"]
    for s in traj.snapshots:
        k0 = s.mean
        t_running = s.t + (p / (p + 1)) * k0 ** -(p + 1) if k0 > 0 else float("nan")
        s2 = coeff_seminorm(s.coeffs, 2.0)
        margin = trap_margin(s.coeffs, c)
        sup_dev = float(np.max(np.abs(synthesize(s) - k0)))
        rows.append(f"{s.t:.17g},{k0:.17g},{t_running:.17g},{margin:.17g},{s2:.17g},{sup_dev:.17g}")
    return "\n".join(rows) + "\n"


class TestMetricsCsv:
    def test_perturbed_circle_matches_reference(self, pert_run):
        traj, _ = cli.read_trajectory(pert_run)
        c = cli.select_c(traj.params)
        assert len(traj.snapshots) > 100
        assert cli.metrics_csv(traj, c) == reference_metrics_csv(traj, c)

    def test_nonpositive_mean_reads_nan(self, rng):
        # t stays below 1e-297, so T_est_running is p/(p+1) k0^-(p+1) with
        # every last bit of the power showing; rows 1 and 2 have k0 <= 0
        params = FlowParams(p=2, lam=2.0, n_max=5)
        traj = Trajectory(params=params)
        means = rng.uniform(0.5, 2.0, size=64)
        means[1:3] = (0.0, -0.7)
        for i, mean in enumerate(means):
            coeffs = rng.normal(size=6) * 0.01 + 1j * rng.normal(size=6) * 0.01
            coeffs[0] = mean
            traj.append(SpectralState(params, 1e-300 * i, coeffs))
        text = cli.metrics_csv(traj, 4.0)
        assert text == reference_metrics_csv(traj, 4.0)
        running = [row.split(",")[2] for row in text.splitlines()[1:]]
        assert running[1] == running[2] == "nan"
        assert "nan" not in running[:1] + running[3:]

    def test_trap_margin_is_one_definition(self, pert_run):
        # the stack, each row, certify and the written column agree bit for
        # bit, and the integrator's per-step minimum is at most all of them
        traj, _ = cli.read_trajectory(pert_run)
        c = cli.select_c(traj.params)
        margins = trap_margin(traj.coeffs, c).tolist()
        assert margins == [trap_margin(row, c) for row in traj.coeffs]
        assert margins == [m for _, m in certify(traj, c).margins]
        with open(os.path.join(os.path.dirname(pert_run), "metrics.csv")) as fh:
            header, *rows = fh.read().splitlines()
        column = header.split(",").index("trap_margin")
        assert margins == [float(row.split(",")[column]) for row in rows]
        assert traj.stats.min_trap_margin <= min(margins)


def assert_out_dir_error(code, captured):
    """Exit 1 with one stderr line naming the directory, no traceback, no stdout."""
    assert code == cli.EXIT_CONFIG
    err = captured.err
    assert err.startswith("config error: cannot create output directory") and err.count("\n") == 1
    assert "Traceback" not in err and captured.out == ""


def assert_write_error(code, captured, path):
    """Exit 1 with one stderr line naming the file that cannot be written, no
    traceback, no stdout."""
    assert code == cli.EXIT_CONFIG
    err = captured.err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err and captured.out == ""


def reference_snapshot_lines(traj):
    """The snapshot records of format version 1, one [re, im] pair per
    coefficient: the byte reference of the version-1 writer."""
    return [
        json.dumps(
            {"kind": "snapshot", "t": s.t, "k0": s.mean, "coeffs": [[float(c.real), float(c.imag)] for c in s.coeffs]}
        )
        for s in traj.snapshots
    ]


def version_1_copy(path, dest):
    """A copy of the trajectory file at ``path`` in format version 1: its
    header with version 1, the snapshots as ``reference_snapshot_lines`` and
    its trailer."""
    with open(path) as fh:
        header, *_, trailer = fh.read().splitlines()
    snapshots = reference_snapshot_lines(cli.read_trajectory(str(path))[0])
    dest.write_text("\n".join([json.dumps(dict(json.loads(header), version=1)), *snapshots, trailer]) + "\n")
    return str(dest)


@pytest.fixture(scope="module")
def pert_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pert")
    code, traj_path = run_simulation(tmp_path, PERT_CONFIG)
    assert code == cli.EXIT_OK
    return traj_path


@pytest.fixture(scope="module")
def pert_run_v1(pert_run, tmp_path_factory):
    """The ``pert_run`` trajectory written in format version 1."""
    return version_1_copy(pert_run, tmp_path_factory.mktemp("pert_v1") / "trajectory.jsonl")


def edited_trajectory(pert_run, tmp_path, keep=None, **trailer):
    """A copy of the trajectory file with the records ``keep`` picks (all by
    default) and the given trailer fields replaced."""
    with open(pert_run) as fh:
        lines = fh.read().splitlines()
    lines[-1] = json.dumps(dict(json.loads(lines[-1]), **trailer))
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(keep(lines) if keep else lines) + "\n")
    return path


def shifted_trajectory(pert_run, tmp_path, shift):
    """A copy of the trajectory file with every snapshot time and the
    trailer's T_est moved by ``shift``."""
    with open(pert_run) as fh:
        header, *snapshots, trailer = [json.loads(line) for line in fh.read().splitlines()]
    for rec in snapshots:
        rec["t"] += shift
    trailer["T_est"] += shift
    path = tmp_path / "shifted.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in [header, *snapshots, trailer]))
    return path


def edited_snapshot(pert_run, tmp_path, edit, index=3):
    """A copy of the trajectory file whose record ``index`` (a snapshot) is
    changed in place by ``edit``."""
    with open(pert_run) as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec)
    path = tmp_path / "edited_snapshot.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestAnalyze:
    def test_blowup_report(self, pert_run, capsys):
        assert cli.main(["analyze", "--traj", pert_run, "--what", "blowup"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["T_est"] == pytest.approx(0.5000010, abs=1e-5)
        assert report["envelope"]["ok"] is True

    def test_rates_report(self, pert_run, capsys):
        assert cli.main(["analyze", "--traj", pert_run, "--what", "rates"]) == 0
        report = json.loads(capsys.readouterr().out)
        mode1 = report["modes"][0]
        assert mode1["pass"] is True
        assert mode1["exponent"] == pytest.approx(mode1["alpha_theory"], abs=0.05)

    def test_trap_report(self, pert_run, capsys):
        assert cli.main(["analyze", "--traj", pert_run, "--what", "trap"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True and report["min_margin"] > 0
        assert report["c_source"] == "closed-form"

    def test_normalized_report(self, pert_run, capsys):
        assert cli.main(["normalize", "--traj", pert_run]) == 0
        report = json.loads(capsys.readouterr().out)
        beta = report["beta_theory"]
        assert beta == pytest.approx(10.25)
        assert abs(report["sup_rate"] - beta) <= 0.1 * beta
        assert report["pass"] is True

    def test_run_landed_just_below_1e3_is_analysed(self, tmp_path, capsys):
        # the blow-up stop takes a last rung landed 4.5e-15 relative below k0_stop
        doc = {
            "params": {"p": 3, "lambda": "2", "n_max": 8},
            "init": {"mean": 1.0, "harmonics": [{"n": 1, "cos": 0.005}]},
            "control": {"k0_stop": 1.0e3, "snapshots_per_decade": 20},
        }
        code, traj_path = run_simulation(tmp_path, doc)
        assert code == cli.EXIT_OK
        traj, _ = cli.read_trajectory(traj_path)
        assert traj.k0.max() < 1e3
        assert traj.T_est is not None and math.isfinite(traj.T_est)
        for what in ("blowup", "rates", "trap", "normalized"):
            assert cli.main(["analyze", "--traj", traj_path, "--what", what]) == cli.EXIT_OK
        capsys.readouterr()

    def test_report_written_to_out_dir(self, pert_run, tmp_path, capsys):
        out = str(tmp_path / "reports")
        assert cli.main(["analyze", "--traj", pert_run, "--what", "trap", "--out", out]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "report_trap.json"))

    def test_uncreatable_out_dir_exits_1(self, pert_run, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["analyze", "--traj", pert_run, "--what", "trap", "--out", str(blocker / "out")])
        assert_out_dir_error(code, capsys.readouterr())

    def test_unwritable_report_exits_1(self, pert_run, tmp_path, capsys):
        blocker = tmp_path / "reports" / "report_trap.json"
        blocker.mkdir(parents=True)
        code = cli.main(["analyze", "--traj", pert_run, "--what", "trap", "--out", str(tmp_path / "reports")])
        assert_write_error(code, capsys.readouterr(), blocker)

    def with_header(self, pert_run, tmp_path, **fields):
        with open(pert_run) as fh:
            lines = fh.read().splitlines()
        header = dict(json.loads(lines[0]), **fields)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        return bad

    def test_version_mismatch_exit_4(self, pert_run, tmp_path):
        bad = self.with_header(pert_run, tmp_path, version=99)
        assert cli.main(["analyze", "--traj", str(bad), "--what", "trap"]) == cli.EXIT_VERSION

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["bool", "float", "text"])
    def test_non_integer_version_exit_4(self, pert_run, tmp_path, capsys, version):
        bad = self.with_header(pert_run, tmp_path, version=version)
        self.assert_unreadable(capsys, bad, f"format version {version!r} is not a supported one")

    def assert_unreadable(self, capsys, path, message, command=("analyze", "--what", "trap")):
        code = cli.main([command[0], "--traj", str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VERSION
        assert err.startswith("trajectory error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    def test_missing_trajectory_exit_4(self, tmp_path, capsys):
        self.assert_unreadable(capsys, tmp_path / "missing.jsonl", "No such file")

    def test_torn_trajectory_exit_4(self, pert_run, tmp_path, capsys):
        with open(pert_run) as fh:
            text = fh.read()
        torn = tmp_path / "torn.jsonl"
        torn.write_text(text[: len(text) // 2])  # cut inside a snapshot record
        self.assert_unreadable(capsys, torn, "torn or invalid JSON")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("config", None, "header config is not a mapping"),
            ("config", ["analysis"], "header config is not a mapping"),
            ("params", None, "malformed record"),
            ("params", [1, 2], "malformed record"),
            ("params", {"p": 1, "lambda": None, "rational": [7, 2], "n_max": 8}, "malformed record"),
            ("params", {"p": True, "lambda": 3.5, "rational": [7, 2], "n_max": 8}, "p must be a positive integer"),
            ("params", {"p": 1, "lambda": 3.5, "rational": [7, 2], "n_max": True}, "n_max must be a positive integer"),
            ("config", {"analysis": {"power_window": 5}}, "header analysis echo: analysis.power_window must be a pair"),
            ("config", {"analysis": "x"}, "header analysis echo: analysis must be a mapping"),
            ("config", {"analysis": {"window": [1, 2]}}, "header analysis echo: unknown key(s) ['window'] in analysis"),
            ("config", {"analysis": []}, "header analysis echo: analysis must be a mapping"),
        ],
        ids=[
            "config_null",
            "config_list",
            "params_null",
            "params_list",
            "lambda_null",
            "p_bool",
            "n_max_bool",
            "analysis_scalar_window",
            "analysis_text",
            "analysis_unknown_key",
            "analysis_empty_list",
        ],
    )
    def test_malformed_header_exit_4(self, pert_run, tmp_path, capsys, field, value, message):
        bad = self.with_header(pert_run, tmp_path, **{field: value})
        self.assert_unreadable(capsys, bad, message)

    @pytest.mark.parametrize(
        "params,message",
        [
            ({"lambda": 1.0e200, "rational": None}, "lam*n_max must be at most 1e+150"),
            ({"p": 65_533}, "dealiasing grid must be at most 524288"),
        ],
        ids=["lambda_n_max_above_bound", "dealiasing_grid_above_bound"],
    )
    @pytest.mark.parametrize("what", ["rates", "trap", "normalized"])
    def test_header_params_out_of_range_exit_4(self, pert_run, tmp_path, capsys, params, message, what):
        # FlowParams refuses them before any report allocates or overflows
        def keep(lines):
            header = json.loads(lines[0])
            header["params"].update(params)
            return [json.dumps(header)] + lines[1:]

        bad = edited_trajectory(pert_run, tmp_path, keep)
        self.assert_unreadable(capsys, bad, message, ("analyze", "--what", what))

    @pytest.mark.parametrize("what", ["rates", "blowup", "normalized"])
    def test_underflowing_fit_window_exit_1(self, pert_run, tmp_path, capsys, what):
        # an admitted p = 400 takes c[0]^-(p+1) below the smallest normal float
        # over the whole window, where the line through it has no zero
        def keep(lines):
            header = json.loads(lines[0])
            header["params"]["p"] = 400
            return [json.dumps(header)] + lines[1:]

        code = cli.main(["analyze", "--traj", str(edited_trajectory(pert_run, tmp_path, keep)), "--what", what])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and captured.out == ""
        assert captured.err == "error: c[0]^-(p+1) underflows over the fit window at p=400; T cannot be fitted\n"

    @pytest.fixture(params=["analyze", "render"])
    def command(self, request, tmp_path):
        if request.param == "analyze":
            return ("analyze", "--what", "trap")
        return ("render", "--normalized", "--out", str(tmp_path / "frames"))

    @pytest.mark.parametrize(
        "keep,message",
        [(lambda lines: lines[:50], "no trailer record"), (lambda lines: lines[:1] + lines[-1:], "no snapshot record")],
        ids=["cut_after_line_50", "header_and_trailer_only"],
    )
    def test_incomplete_trajectory_exit_4(self, pert_run, tmp_path, capsys, command, keep, message):
        self.assert_unreadable(capsys, edited_trajectory(pert_run, tmp_path, keep), message, command)

    @pytest.mark.parametrize(
        "T_est",
        ["x", [1], True, float("nan"), float("inf"), 10**400],
        ids=["text", "list", "bool", "nan", "inf", "huge_int"],
    )
    def test_bad_T_est_exit_4(self, pert_run, tmp_path, capsys, command, T_est):
        self.assert_unreadable(capsys, edited_trajectory(pert_run, tmp_path, T_est=T_est), "malformed record", command)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec: rec["coeffs"][2].__setitem__(0, "0.5"),
            lambda rec: rec["coeffs"][2].__setitem__(1, None),
            lambda rec: rec["coeffs"][2].__setitem__(0, 10**400),
            lambda rec: rec["coeffs"][2].pop(),
            lambda rec: rec["coeffs"].pop(),
            lambda rec: rec["coeffs"][0].__setitem__(1, 0.5),
            lambda rec: rec["coeffs"][2].__setitem__(0, float("nan")),
            lambda rec: rec["coeffs"][2].__setitem__(1, float("inf")),
            lambda rec: rec["coeffs"][0].__setitem__(0, float("nan")),
            lambda rec: rec.__setitem__("coeffs", base64.b64encode(bytes(16 * 9)).decode()),
            lambda rec: rec.__setitem__("t", -1.0),
            lambda rec: rec.__setitem__("t", str(rec["t"])),
            lambda rec: rec.__setitem__("t", True),
            lambda rec: rec.__setitem__("t", None),
        ],
        ids=[
            "text",
            "null",
            "huge_int",
            "short_pair",
            "ragged_snapshot",
            "non_real_mean",
            "nan",
            "inf",
            "nan_mean",
            "base64_block",
            "t_not_increasing",
            "t_text",
            "t_bool",
            "t_null",
        ],
    )
    def test_malformed_snapshot_exit_4(self, pert_run_v1, tmp_path, capsys, command, edit):
        # records of format version 1, one [re, im] pair per coefficient
        self.assert_unreadable(capsys, edited_snapshot(pert_run_v1, tmp_path, edit), "malformed record", command)

    @staticmethod
    def rewrite_block(change):
        """An edit that replaces a version-2 record's block by ``change`` of
        its complex128 values."""

        def edit(rec):
            values = np.frombuffer(base64.b64decode(rec["coeffs"]), "<c16").copy()
            rec["coeffs"] = base64.b64encode(change(values).tobytes()).decode()

        return edit

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rec: rec.__setitem__("coeffs", rec["coeffs"][:7] + "*" + rec["coeffs"][8:]), "Only base64 data"),
            (lambda rec: rec.__setitem__("coeffs", rec["coeffs"][:-1]), "Incorrect padding"),
            (rewrite_block(lambda v: v[:-1]), "must be 144 bytes of complex128, got 128"),
            (rewrite_block(lambda v: np.append(v, 0)), "must be 144 bytes of complex128, got 160"),
            (rewrite_block(lambda v: np.where(np.arange(9) == 2, np.nan, v)), "must be finite"),
            (rewrite_block(lambda v: np.where(np.arange(9) == 0, np.inf, v)), "must be finite"),
            (rewrite_block(lambda v: v + np.where(np.arange(9) == 0, 0.5j, 0)), "zero mode must be real"),
            (
                lambda rec: rec.__setitem__(
                    "coeffs", np.frombuffer(base64.b64decode(rec["coeffs"]), "<f8").reshape(-1, 2).tolist()
                ),
                "TypeError: argument should be a bytes-like object or ASCII string, not 'list'",
            ),
        ],
        ids=["stray_star", "bad_padding", "short_block", "long_block", "nan", "inf_mean", "non_real_mean", "pairs"],
    )
    def test_malformed_block_exit_4(self, pert_run, tmp_path, capsys, command, edit, message):
        # records of format version 2, one base64 block per snapshot
        self.assert_unreadable(capsys, edited_snapshot(pert_run, tmp_path, edit), message, command)

    def test_header_echo_with_deleted_keys_gives_the_same_reports(self, pert_run, tmp_path, capsys):
        # older files echo the since-deleted top-level seed, control.safety
        # and control.tau_snapshot_interval, and their trailers carry the
        # since-deleted run_stats.cap_bound_frac and run_stats.landing; later
        # ones may carry new run_stats keys; nothing reads them
        with open(pert_run) as fh:
            header, *records, trailer = fh.read().splitlines()
        old, old_trailer = json.loads(header), json.loads(trailer)
        assert "seed" not in old["config"] and not {"safety", "tau_snapshot_interval"} & set(old["config"]["control"])
        assert not {"cap_bound_frac", "landing"} & set(old_trailer["run_stats"])
        old["config"]["seed"] = 0
        old["config"]["control"].update(safety=0.8, tau_snapshot_interval=0.1)
        old_trailer["run_stats"].update(cap_bound_frac=0.0, landing=247, future_count=7)
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join([json.dumps(old), *records, json.dumps(old_trailer)]) + "\n")
        assert cli.read_trajectory(str(path))[0].stats == cli.read_trajectory(pert_run)[0].stats
        for what in ("rates", "trap", "blowup", "normalized"):
            reports = []
            for traj in (pert_run, str(path)):
                assert cli.main(["analyze", "--traj", traj, "--what", what]) == 0
                reports.append(dict(json.loads(capsys.readouterr().out), source=None))
            assert reports[0] == reports[1]

    def test_version_1_file_reads_bit_identically(self, pert_run, pert_run_v1):
        v1, header = cli.read_trajectory(pert_run_v1)
        v2, _ = cli.read_trajectory(pert_run)
        assert header["version"] == 1
        assert np.array_equal(v1.coeffs.view(np.uint64), v2.coeffs.view(np.uint64))  # signed zeros count
        assert np.array_equal(v1.times.view(np.uint64), v2.times.view(np.uint64))
        assert (v1.events, v1.T_est, v1.stats) == (v2.events, v2.T_est, v2.stats)

    def test_version_1_file_gives_the_same_reports_and_renders(self, pert_run, pert_run_v1, tmp_path, capsys):
        for what in ("rates", "trap", "blowup", "normalized"):
            reports = []
            for traj in (pert_run, pert_run_v1):
                assert cli.main(["analyze", "--traj", traj, "--what", what]) == 0
                reports.append(dict(json.loads(capsys.readouterr().out), source=None))
            assert reports[0] == reports[1]
        for extra in ([], ["--normalized"]):
            outs = [tmp_path / f"{name}{len(extra)}" for name in ("v2", "v1")]
            for traj, out in zip((pert_run, pert_run_v1), outs):
                assert cli.main(["render", "--traj", traj, "--frames", "4", *extra, "--out", str(out)]) == 0
            capsys.readouterr()
            names = sorted(os.listdir(outs[0]))
            assert len(names) == 5 and names == sorted(os.listdir(outs[1]))
            assert all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names)

    def test_bool_coefficient_entry_is_read(self, pert_run_v1, tmp_path, capsys):
        path = edited_snapshot(pert_run_v1, tmp_path, lambda rec: rec["coeffs"][0].__setitem__(1, False))
        assert "false" in path.read_text()
        assert cli.read_trajectory(str(path))[0].coeffs.tolist() == cli.read_trajectory(pert_run_v1)[0].coeffs.tolist()
        assert cli.main(["analyze", "--traj", str(path), "--what", "trap"]) == 0
        capsys.readouterr()


class TestTrajectoryIO:
    def test_self_describing_round_trip(self, tmp_path):
        params = FlowParams(p=2, lam=2.0, n_max=4)
        traj = integrate(make_state(params, {0: 1.0}), StepControl(k0_stop=100.0))
        traj.T_est = 0.666
        path = str(tmp_path / "t.jsonl")
        cli.write_trajectory(path, traj, {"note": "test"})
        back, header = cli.read_trajectory(path)
        assert header["config"] == {"note": "test"}
        assert back.T_est == 0.666
        assert len(back.snapshots) == len(traj.snapshots)
        for a, b in zip(back.snapshots, traj.snapshots):
            assert a.t == b.t
            assert np.array_equal(a.coeffs, b.coeffs)
        assert back.events == traj.events

    def test_run_stats_round_trip(self, tmp_path):
        params = FlowParams(p=1, lam=2.0, n_max=4)
        traj = integrate(make_state(params, {0: 1.0, 1: 0.002}), StepControl(k0_stop=100.0), trap_c=8.0)
        path = tmp_path / "t.jsonl"
        cli.write_trajectory(str(path), traj, {})
        trailer = json.loads(path.read_text().splitlines()[-1])
        assert trailer["run_stats"]["accepted"] == traj.stats.accepted > 0
        back, _ = cli.read_trajectory(str(path))
        assert back.stats == traj.stats

    @settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)
        p = data.draw(st.sampled_from((1, 2, 3)))
        n_max = data.draw(st.integers(1, 12))
        if data.draw(st.booleans()):
            n, m = data.draw(
                st.tuples(st.integers(1, 40), st.integers(1, 7)).filter(
                    lambda nm: math.gcd(*nm) == 1 and nm[0] / nm[1] > math.sqrt((p + 2) / p)
                )
            )
            params = FlowParams(p=p, lam=n / m, n_max=n_max, rational=(n, m))
        else:
            lam = data.draw(st.floats(math.sqrt((p + 2) / p) + 1e-6, 50.0))
            params = FlowParams(p=p, lam=lam, n_max=n_max)
        traj = Trajectory(params=params)
        times = sorted(data.draw(st.lists(finite, min_size=1, max_size=5, unique=True)))
        for t in times:
            re = data.draw(st.lists(finite, min_size=n_max + 1, max_size=n_max + 1))
            im = data.draw(st.lists(finite, min_size=n_max, max_size=n_max))
            traj.append(SpectralState(params, t, np.array(re) + 1j * np.array([0.0] + im)))
        traj.events = data.draw(st.lists(st.tuples(finite, st.text(), st.text()), max_size=3))
        traj.T_est = data.draw(st.none() | finite)
        count = st.integers(0, 10**9)
        traj.stats = data.draw(
            st.none()
            | st.builds(
                RunStats,
                accepted=count,
                rejected=count,
                rhs_evals=count,
                dt_min=finite,
                dt_max=finite,
                min_trap_margin=st.none() | finite,
                wall_s=finite,
            )
        )
        echo = {"seed": data.draw(st.integers(0, 2**31))}
        path = str(tmp_path_factory.getbasetemp() / "round_trip.jsonl")
        cli.write_trajectory(path, traj, echo)
        back, header = cli.read_trajectory(path)
        assert header["config"] == echo
        assert back.params == traj.params
        assert [s.t for s in back.snapshots] == [s.t for s in traj.snapshots]
        for a, b in zip(back.snapshots, traj.snapshots):
            assert a.coeffs.tolist() == b.coeffs.tolist()
        assert back.events == traj.events
        assert back.T_est == traj.T_est
        assert back.stats == traj.stats

    def test_snapshot_records_match_reference(self, pert_run, tmp_path, rng):
        traj, _ = cli.read_trajectory(pert_run)
        # magnitudes up to 1e+-300 and signed zeros in every slot but Im c[0]
        extreme = Trajectory(params=traj.params)
        for t in range(20):
            pairs = rng.choice([-1.0, 1.0], (9, 2)) * 10.0 ** rng.uniform(-300, 300, (9, 2))
            pairs[rng.random((9, 2)) < 0.2] = -0.0
            pairs[0, 1] = 0.0
            extreme.append(SpectralState(traj.params, float(t), pairs.view(np.complex128)[:, 0]))
        for run in (traj, extreme):
            path = tmp_path / "t.jsonl"
            cli.write_trajectory(str(path), run, {})
            records = [json.loads(line) for line in path.read_text().splitlines()[1:-1]]
            reference = [json.loads(line) for line in reference_snapshot_lines(run)]
            assert [dict(rec, coeffs=None) for rec in records] == [dict(rec, coeffs=None) for rec in reference]
            # each block is the n_max + 1 coefficients as little-endian complex128, bit for bit
            blocks = np.array([np.frombuffer(base64.b64decode(rec["coeffs"], validate=True), "<c16") for rec in records])
            assert np.array_equal(blocks.view(np.uint64), run.coeffs.view(np.uint64))
            # and the version-1 records of the same snapshots read back to the same bits
            back = cli.read_trajectory(version_1_copy(path, tmp_path / "v1.jsonl"))[0]
            assert np.array_equal(back.coeffs.view(np.uint64), run.coeffs.view(np.uint64))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"kind": "snapshot"}\n')
        with pytest.raises(VersionError):
            cli.read_trajectory(str(path))


class TestRender:
    def test_unnormalized_frames(self, pert_run, tmp_path, capsys):
        out = str(tmp_path / "frames")
        assert cli.main(["render", "--traj", pert_run, "--frames", "4", "--out", out]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "curves.svg")) as fh:
            svg = fh.read()
        assert svg.count("<path") == 4
        assert os.path.exists(os.path.join(out, "frame_003.csv"))

    def test_normalized_frames_deterministic(self, pert_run, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            code = cli.main(
                ["render", "--traj", pert_run, "--frames", "3", "--normalized", "--out", out]
            )
            assert code == 0
        capsys.readouterr()
        with open(os.path.join(out1, "curves.svg"), "rb") as fh:
            svg1 = fh.read()
        with open(os.path.join(out2, "curves.svg"), "rb") as fh:
            svg2 = fh.read()
        assert svg1 == svg2

    def test_rerender_with_fewer_frames_drops_stale_ones(self, pert_run, tmp_path, capsys):
        out = str(tmp_path / "frames")
        for frames in ("8", "2"):
            assert cli.main(["render", "--traj", pert_run, "--frames", frames, "--out", out]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "curves.svg")) as fh:
            assert fh.read().count("<path") == 2
        assert sorted(os.listdir(out)) == ["curves.svg", "frame_000.csv", "frame_001.csv"]

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_exit_1(self, pert_run, tmp_path, capsys, frames):
        out = tmp_path / "frames"
        code = cli.main(["render", "--traj", pert_run, "--frames", frames, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: --frames must be at least 1") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_uncreatable_out_dir_exits_1_before_reconstructing(self, pert_run, tmp_path, capsys, monkeypatch):
        def reconstruct_not_called(*args, **kwargs):
            raise AssertionError("reconstruct_curve ran although --out cannot be created")

        monkeypatch.setattr(cli, "reconstruct_curve", reconstruct_not_called)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["render", "--traj", pert_run, "--frames", "2", "--out", str(blocker / "out")])
        assert_out_dir_error(code, capsys.readouterr())

    @pytest.mark.parametrize("name", ["curves.svg", "frame_009.csv"], ids=["svg", "stale_frame"])
    def test_unwritable_output_exits_1(self, pert_run, tmp_path, capsys, name):
        # a directory where the SVG goes, or where a stale frame is removed
        blocker = tmp_path / "frames" / name
        blocker.mkdir(parents=True)
        code = cli.main(["render", "--traj", pert_run, "--frames", "2", "--out", str(tmp_path / "frames")])
        assert_write_error(code, capsys.readouterr(), blocker)

    @pytest.mark.parametrize(
        "command,edit,message",
        [
            (("render", "--normalized"), {"T_est": 0}, "no snapshot before the blow-up time"),
            (("render", "--normalized"), {"T_est": -1}, "no snapshot before the blow-up time"),
            (("render", "--normalized"), {"shift": -0.05}, "snapshot at t=-0.05 before t=0"),
            (("normalize",), {"shift": -0.05}, "snapshot at t=-0.05 before t=0"),
            (("analyze", "--what", "normalized"), {"shift": -0.05}, "snapshot at t=-0.05 before t=0"),
        ],
        ids=["0", "-1", "negative_start_render", "negative_start_normalize", "negative_start_analyze"],
    )
    def test_normalized_without_snapshot_before_T_exit_1(self, pert_run, tmp_path, capsys, command, edit, message):
        # the normalized frame needs a snapshot in [0, T); a shift moves every
        # snapshot time and the trailer's T_est
        if "shift" in edit:
            path = shifted_trajectory(pert_run, tmp_path, edit["shift"])
        else:
            path = edited_trajectory(pert_run, tmp_path, **edit)
        extra = ["--out", str(tmp_path / "frames")] if command[0] == "render" else []
        code = cli.main([command[0], "--traj", str(path), *command[1:], *extra])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [("normalize",), ("analyze", "--what", "normalized")], ids=["normalize", "analyze"]
    )
    def test_colliding_taus_exit_1(self, tmp_path_factory, tmp_path, capsys, command):
        # a lam = 5/2 perturbed circle whose first two snapshots sit one ulp
        # apart just below t = 2^-4, where tau is in the next binade up, so a
        # few ulps down some t and its successor map to one tau: the file
        # reads, the normalized series refuses the pair, the render does not
        doc = json.loads(json.dumps(PERT_CONFIG))
        doc["params"]["lambda"], doc["init"]["perturbation"]["n"] = "5/2", 5
        code, run = run_simulation(tmp_path_factory.mktemp("lam_5_2"), doc)
        assert code == cli.EXIT_OK
        traj = cli.read_trajectory(run)[0]
        t, (T, p) = 2.0**-4, (traj.T_est, traj.params.p)
        for _ in range(64):
            t = math.nextafter(t, 0.0)
            if tau_of_t(t, T, p) == tau_of_t(math.nextafter(t, 1.0), T, p):
                break
        assert tau_of_t(t, T, p) == tau_of_t(math.nextafter(t, 1.0), T, p) and math.nextafter(t, 1.0) < traj.times[2]
        path = edited_snapshot(run, tmp_path, lambda rec: rec.__setitem__("t", t), 1)
        path = edited_snapshot(path, tmp_path, lambda rec: rec.__setitem__("t", math.nextafter(t, 1.0)), 2)
        code = cli.main([command[0], "--traj", str(path), *command[1:]])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err == "error: taus must be strictly increasing\n"
        assert cli.main(["render", "--traj", str(path), "--normalized", "--out", str(tmp_path / "frames")]) == 0
        capsys.readouterr()

    @staticmethod
    def frame_axis(traj, normalized):
        """The render's candidate snapshots and the axis its frames are spaced on."""
        ts, T_est = traj.times, traj.T_est
        if normalized:
            before = int(np.count_nonzero(ts < T_est))
            return before, np.array([tau_of_t(t, T_est, traj.params.p) for t in ts[:before].tolist()])
        return len(ts), np.log10(np.maximum(T_est - ts, 1e-300))

    @pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
    def test_frames_beyond_the_snapshots_render_each_once(self, pert_run, tmp_path, capsys, monkeypatch, normalized):
        traj, _ = cli.read_trajectory(pert_run)
        candidates, _ = self.frame_axis(traj, normalized)

        class NumpyWithShortLinspace:  # numpy as cli sees it, refusing more targets than candidates
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def linspace(start, stop, num=50, **kwargs):
                if num > candidates:
                    raise AssertionError(f"{num} frame targets for {candidates} candidate snapshots")
                return np.linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(cli, "np", NumpyWithShortLinspace())
        out = tmp_path / "frames"
        extra = ["--normalized"] if normalized else []
        assert cli.main(["render", "--traj", pert_run, "--frames", str(10**12), "--out", str(out)] + extra) == 0
        assert capsys.readouterr().out == f"wrote {candidates} frame(s) to {out}\n"
        assert (out / "curves.svg").read_text().count("<path") == candidates
        assert sorted(os.listdir(out)) == ["curves.svg"] + [f"frame_{i:03d}.csv" for i in range(candidates)]

    @pytest.mark.parametrize("normalized", [False, True], ids=["plain", "normalized"])
    def test_fewer_frames_keep_the_nearest_snapshot_picks(self, pert_run, tmp_path, capsys, normalized):
        # the picks of one argmin per linspace target, as render made them for any --frames
        traj, _ = cli.read_trajectory(pert_run)
        _, axis = self.frame_axis(traj, normalized)
        picks = sorted({int(np.argmin(np.abs(axis - x))) for x in np.linspace(axis[0], axis[-1], 8)})
        states = [traj.snapshots[i] for i in picks]
        if normalized:  # the frame map, spelled out per snapshot
            T, p = traj.T_est, traj.params.p
            states = [SpectralState(s.params, tau_of_t(s.t, T, p), s.coeffs * scale_factor(p, T, s.t)) for s in states]
        label = "tau={:.3f}" if normalized else "t={:.6f}"
        frames = [(label.format(s.t), reconstruct_curve(s, 2)) for s in states]
        out = tmp_path / "frames"
        extra = ["--normalized"] if normalized else []
        assert cli.main(["render", "--traj", pert_run, "--frames", "8", "--out", str(out)] + extra) == 0
        capsys.readouterr()
        assert (out / "curves.svg").read_text() == render_svg(frames)
        for i, (_, poly) in enumerate(frames):
            assert (out / f"frame_{i:03d}.csv").read_text() == polyline_csv(poly)

    def test_nonpositive_frame_exit_1(self, tmp_path, capsys):
        doc = {
            "params": {"p": 1, "lambda": "2", "n_max": 8},
            "init": {"mean": 1.0, "harmonics": [{"n": 1, "cos": 0.99}]},
            "control": {"k0_stop": 1.0e4},
        }
        code, traj_path = run_simulation(tmp_path, doc)
        assert code == cli.EXIT_POSITIVITY
        capsys.readouterr()
        code = cli.main(["render", "--traj", traj_path, "--out", str(tmp_path / "frames")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: curvature must be positive") and err.count("\n") == 1

    def test_non_rational_lambda_exit_5(self, tmp_path, capsys):
        code, traj_path = run_simulation(tmp_path, CONST_CONFIG)  # lam=2.0 untagged
        assert code == 0
        out = str(tmp_path / "frames")
        assert cli.main(["render", "--traj", traj_path, "--frames", "2", "--out", out]) == cli.EXIT_RATIONAL
        capsys.readouterr()


class TestVerify:
    def test_clean_build_passes(self, capsys):
        assert cli.main(["verify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_h_kernel_mutation_is_caught(self, capsys, monkeypatch):
        # a sign flip in the tuple kernel must break oracle equivalence
        from pcsflow import rhs as rhs_module

        original = rhs_module.h_kernel

        def flipped(p, lam, q1, q2):
            return -original(p, lam, q1, q2)

        monkeypatch.setattr(rhs_module, "h_kernel", flipped)
        assert cli.main(["verify", "--seed", "3"]) != 0
        out = capsys.readouterr().out
        assert "FAIL  oracle_equivalence" in out

    def test_diagonal_rate_mutation_is_caught(self, capsys, monkeypatch):
        # a wrong constant in the rates the integrator uses must break the split check
        from pcsflow import rhs as rhs_module

        monkeypatch.setattr(rhs_module, "diagonal_rates", lambda p, lam, n: (p + 1) / p - lam**2 * n**2)
        assert cli.main(["verify", "--seed", "3"]) != 0
        out = capsys.readouterr().out
        assert "FAIL  diagonal_split" in out

    def test_negative_seed_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_CHECKS", (("not_run", lambda seed: pytest.fail("a check ran")),))
        code = cli.main(["verify", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and captured.out == ""
        assert captured.err == "config error: --seed must be nonnegative, got -1\n"


class TestBench:
    def test_smoke_table_and_exponent(self, capsys):
        rows = cli.bench_table(n_values=(4, 8), p_values=(1,))
        assert {r["n_max"] for r in rows} == {4, 8}
        assert all("fast_ns" in r and "convolution_ns" in r and "direct_ns" in r for r in rows)
        exp = cli.scaling_exponent(rows, "convolution_ns", 1, n_range=(4, 8))
        assert exp is None  # needs >= 3 points

    def test_uncreatable_out_dir_exits_1_before_timing(self, tmp_path, capsys, monkeypatch):
        def bench_not_run(*args, **kwargs):
            raise AssertionError("bench_table ran although --out cannot be created")

        monkeypatch.setattr(cli, "bench_table", bench_not_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["bench", "--out", str(blocker / "out")])
        assert_out_dir_error(code, capsys.readouterr())

    def test_negative_seed_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bench_table", lambda **kwargs: pytest.fail("bench_table ran"))
        code = cli.main(["bench", "--seed", "-1", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG and captured.out == ""
        assert captured.err == "config error: --seed must be nonnegative, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_table_exits_1(self, tmp_path, capsys, monkeypatch):
        rows = [{"p": p, "n_max": 16, "fast_ns": 1.0} for p in (1, 2, 3)]
        monkeypatch.setattr(cli, "bench_table", lambda **kwargs: rows)
        monkeypatch.setattr(cli, "scaling_exponent", lambda *args, **kwargs: 1.0)
        blocker = tmp_path / "out" / "bench.csv"
        blocker.mkdir(parents=True)
        code = cli.main(["bench", "--out", str(tmp_path / "out")])
        assert_write_error(code, capsys.readouterr(), blocker)


def test_import_leaves_scipy_unloaded():
    """The package and every subcommand start without scipy; building a
    perturbed-circle initial state does not import it either."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = (
        "import sys, pcsflow, pcsflow.checks, pcsflow.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"


def test_perturbed_simulate_leaves_scipy_unloaded(tmp_path):
    """A fresh process that simulates from a perturbed-circle config never loads scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    doc = dict(PERT_CONFIG, output={"directory": str(tmp_path / "out")})
    probe = (
        "import sys; from pcsflow import cli; "
        f"code = cli.main(['simulate', '--config', {write_config(tmp_path, doc)!r}]); "
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip().splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(pcsflow.__path__) if m.name != "__main__")
)
def test_submodule_imports_first(module):
    """Each submodule imports on its own in a fresh process: no import cycle
    (stepping imports blowup, whose ``Trajectory`` import is for annotations only)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", f"import pcsflow.{module}"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_module_entry_point_runs_cli():
    """``python -m pcsflow`` runs the command line from a checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "pcsflow", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: pcsflow")
