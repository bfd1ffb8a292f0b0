import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcsflow import cli
from pcsflow.blowup import trap_margin
from pcsflow.errors import ConfigError, VersionError
from pcsflow.spectral import FlowParams, SpectralState, seminorm, synthesize
from pcsflow.stepping import RunStats, StepControl, Trajectory, integrate

from conftest import make_state

CONST_CONFIG = {
    "params": {"p": 1, "lambda": 2.0, "n_max": 2},
    "init": {"mean": 1.0, "harmonics": []},
    "control": {"rel_tol": 1e-12, "abs_tol": 1e-16, "k0_stop": 1e4},
    "output": {"directory": "out"},
    "seed": 0,
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
    "seed": 0,
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
            ("output", {"formats": 5}, "output.formats must be a list"),
            ("params", {"p": 1, "lambda": "2/0", "n_max": 2}, "zero denominator"),
        ],
        ids=["params", "init", "perturbation", "harmonic", "formats", "lambda_over_zero"],
    )
    def test_malformed_shape(self, tmp_path, capsys, section, value, message):
        doc = json.loads(json.dumps(CONST_CONFIG))
        doc[section] = value
        self.assert_config_error(tmp_path, capsys, doc, message)

    @pytest.mark.parametrize(
        "section,value,message",
        [
            ("params", {"p": 1, "lambda": 2.0, "n_max": cli.MAX_N_MAX + 1}, "params.n_max must be at most"),
            ("analysis", {"c_override": 0.0}, "analysis.c_override must be positive"),
            ("analysis", {"c_override": -1.0}, "analysis.c_override must be positive"),
        ],
        ids=["n_max_above_bound", "zero_c_override", "negative_c_override"],
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
        "output": {"directory": "out", "formats": ["jsonl"]},
        "seed": 0,
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
        "output": {"directory": "out", "formats": ["jsonl"]},
        "seed": draw(st.integers(0, 2**31)),
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
        assert header["version"] == 1
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
        s2 = seminorm(s, 2.0)
        margin = trap_margin(s, c)
        sup_dev = float(np.max(np.abs(synthesize(s).values - k0)))
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


def assert_out_dir_error(code, captured):
    """Exit 1 with one stderr line naming the directory, no traceback, no stdout."""
    assert code == cli.EXIT_CONFIG
    err = captured.err
    assert err.startswith("config error: cannot create output directory") and err.count("\n") == 1
    assert "Traceback" not in err and captured.out == ""


@pytest.fixture(scope="module")
def pert_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pert")
    code, traj_path = run_simulation(tmp_path, PERT_CONFIG)
    assert code == cli.EXIT_OK
    return traj_path


def edited_trajectory(pert_run, tmp_path, keep=None, **trailer):
    """A copy of the trajectory file with the records ``keep`` picks (all by
    default) and the given trailer fields replaced."""
    with open(pert_run) as fh:
        lines = fh.read().splitlines()
    lines[-1] = json.dumps(dict(json.loads(lines[-1]), **trailer))
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(keep(lines) if keep else lines) + "\n")
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
        ],
        ids=["config_null", "config_list", "params_null", "params_list"],
    )
    def test_malformed_header_exit_4(self, pert_run, tmp_path, capsys, field, value, message):
        bad = self.with_header(pert_run, tmp_path, **{field: value})
        self.assert_unreadable(capsys, bad, message)

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
                landing=count,
                rhs_evals=count,
                cap_bound_frac=finite,
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

    @pytest.mark.parametrize("T_est", [0, -1])
    def test_normalized_without_snapshot_before_T_exit_1(self, pert_run, tmp_path, capsys, T_est):
        path = edited_trajectory(pert_run, tmp_path, T_est=T_est)
        code = cli.main(["render", "--traj", str(path), "--normalized", "--out", str(tmp_path / "frames")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: no snapshot before the blow-up time") and err.count("\n") == 1
        assert "Traceback" not in err

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


class TestVerifyThreads:
    def test_thread_pool_path(self, capsys, monkeypatch):
        # PCSFLOW_THREADS > 1 routes the independent checks through a pool
        monkeypatch.setenv("PCSFLOW_THREADS", "2")
        monkeypatch.setattr(
            cli,
            "VERIFY_CHECKS",
            (("a", lambda seed: (True, "ok")), ("b", lambda seed: (True, "ok"))),
        )
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_bad_env_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("PCSFLOW_THREADS", "lots")
        assert cli.thread_count() == 1


class TestBench:
    def test_smoke_table_and_exponent(self, capsys):
        rows = cli.bench_table(n_values=(4, 8), p_values=(1,), include_oracle=True)
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


def test_module_entry_point_runs_cli():
    """``python -m pcsflow`` runs the command line from a checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "pcsflow", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: pcsflow")
