"""Span tracer that wraps pcsflow's layer entry points from outside the package.

A wrapper only sees the calls that look the wrapped name up where it is
installed, so each one goes where the caller finds the name:

* ``pcsflow.cli`` imports ``estimate_T``, ``integrate``, ``synthesize`` and
  friends into its own namespace, so those are wrapped on ``pcsflow.cli``
  (and on ``pcsflow.normalize`` / ``pcsflow.blowup`` for their imports);
* ``stepping.step`` binds ``rhs=rhs_fast`` as a default at import time, so
  the RHS wrapper replaces that default in ``step.__defaults__`` as well as
  the module attribute ``_hit_level`` receives from ``integrate``;
* ``SpectralState`` is wrapped on the class, which every constructor call
  goes through.

A name the program no longer has is skipped, and the metrics that depend on
it read 0.  Spans (start, end, parent, name) stay in memory in flat arrays;
``summary`` turns them into per-layer metrics and ``write`` saves them when
the run ends.  A span's self time is its duration minus the durations of
its direct children (single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import math
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

OP_SPAN = "bench.op"
LAYERS = ("bench", "cli", "stepping", "rhs", "spectral", "blowup", "normalize", "geometry")

# (module, attribute, span name); the module is where the caller looks it up
_FUNCTION_SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_trajectory", "cli.write_trajectory"),
    ("cli", "metrics_csv", "cli.metrics_csv"),
    ("cli", "read_trajectory", "cli.read_trajectory"),
    ("cli", "integrate", "stepping.integrate"),
    ("stepping", "integrate", "stepping.integrate"),
    ("stepping", "integrate_normalized", "stepping.integrate_normalized"),
    ("stepping", "_hit_level", "stepping.landing"),
    ("stepping", "step", "stepping.step"),
    ("stepping", "normalized_rhs", "rhs.eval"),
    ("stepping", "grid_extrema", "rhs.grid_extrema"),
    ("cli", "synthesize", "spectral.synthesize"),
    ("blowup", "synthesize", "spectral.synthesize"),
    ("normalize", "synthesize", "spectral.synthesize"),
    ("cli", "estimate_T", "blowup.estimate_T"),
    ("cli", "fit_power", "blowup.fit_power"),
    ("cli", "certify", "blowup.certify"),
    ("cli", "envelope_check", "blowup.envelope_check"),
    ("cli", "check_hypothesis", "blowup.check_hypothesis"),
    ("cli", "normalized_series", "normalize.series"),
    ("normalize", "normalized_series", "normalize.series"),
    ("cli", "fit_exponential", "normalize.fit_exponential"),
    ("normalize", "fit_exponential", "normalize.fit_exponential"),
    ("cli", "rescale_state", "normalize.rescale_state"),
    ("cli", "tau_of_t", "normalize.tau_of_t"),
    ("cli", "reconstruct_curve", "geometry.reconstruct"),
    ("cli", "render_svg", "geometry.render_svg"),
    ("cli", "polyline_csv", "geometry.polyline_csv"),
    ("cli", "radial_perturbation_curvature", "geometry.radial_perturbation"),
)

# per-layer metric -> unit; names and units match BENCHMARK.json
METRIC_UNITS = {
    "rhs.evals": "count",
    "rhs.eval_us": "us",
    "rhs.self_s": "s",
    "rhs.grid_extrema_calls": "count",
    "rhs.grid_extrema_s": "s",
    "spectral.states_built": "count",
    "spectral.state_s": "s",
    "spectral.synthesize_calls": "count",
    "spectral.synthesize_s": "s",
    "spectral.self_s": "s",
    "stepping.step_calls": "count",
    "stepping.steps_accepted": "count",
    "stepping.steps_rejected": "count",
    "stepping.landing_steps": "count",
    "stepping.landing_frac": "ratio",
    "stepping.accept_ratio": "ratio",
    "stepping.cap_bound_frac": "ratio",
    "stepping.rhs_per_accepted": "evals/step",
    "stepping.step_overhead_us": "us",
    "stepping.self_s": "s",
    "stepping.dt_min": "model_t",
    "stepping.dt_max": "model_t",
    "blowup.estimate_T_ms": "ms",
    "blowup.fit_power_ms": "ms",
    "blowup.certify_ms": "ms",
    "blowup.envelope_ms": "ms",
    "blowup.self_s": "s",
    "normalize.series_ms": "ms",
    "normalize.fit_exponential_ms": "ms",
    "normalize.self_s": "s",
    "geometry.reconstruct_ms": "ms",
    "geometry.reconstruct_calls": "count",
    "geometry.render_svg_ms": "ms",
    "geometry.self_s": "s",
    "cli.load_config_ms": "ms",
    "cli.write_trajectory_ms": "ms",
    "cli.metrics_csv_ms": "ms",
    "cli.read_trajectory_ms": "ms",
    "cli.traj_bytes": "bytes",
    "cli.snapshots_written": "count",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder plus the step and file counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.dt_min = math.inf
        self.dt_max = 0.0
        self._last_gmax = None
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _caller_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def wrap(self, fn, span_name: str, after=None):
        """Return fn wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span is closed, with the caller's span on top of the stack."""
        nid = self._name_id(span_name)
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from pcsflow import blowup, cli, normalize, spectral, stepping

        modules = {"cli": cli, "stepping": stepping, "blowup": blowup, "normalize": normalize}
        hooks = {
            "stepping.step": self._after_step,
            "rhs.grid_extrema": self._after_grid_extrema,
            "cli.write_trajectory": self._after_write,
        }
        rhs_fast = getattr(stepping, "rhs_fast", None)
        if rhs_fast is not None:
            traced_rhs = self.wrap(rhs_fast, "rhs.eval")
            self._patch(stepping, "rhs_fast", traced_rhs)
            step_fn = getattr(stepping, "step", None)
            defaults = getattr(step_fn, "__defaults__", None)
            if defaults and any(d is rhs_fast for d in defaults):
                swapped = tuple(traced_rhs if d is rhs_fast else d for d in defaults)
                self._patch(step_fn, "__defaults__", swapped)
        for mod_name, attr, span_name in _FUNCTION_SITES:
            fn = getattr(modules[mod_name], attr, None)
            if callable(fn):
                self._patch(modules[mod_name], attr, self.wrap(fn, span_name, hooks.get(span_name)))
        state_cls = spectral.SpectralState
        self._patch(state_cls, "__init__", self.wrap(state_cls.__init__, "spectral.state"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counters -----------------------------------------------------------

    def _after_grid_extrema(self, args, kwargs, result):
        self._last_gmax = result[1]

    def _after_write(self, args, kwargs, result):
        path, traj = args[0], args[1]
        self.counts["traj_bytes"] += os.path.getsize(path)
        self.counts["snapshots_written"] += len(traj.snapshots)

    def _after_step(self, args, kwargs, result):
        """Classify one step call as landing, accepted or rejected, and note
        whether the stiffness cap set its dt.

        The caps repeat the formulas of ``integrate`` and
        ``integrate_normalized`` so the benchmark can tell, from outside,
        which limit chose dt.
        """
        caller = self._caller_name()
        if caller == "stepping.landing":
            self.counts["landing_steps"] += 1
            return
        state, dt, control = args[0], args[1], args[2]
        if result[1] > 1.0:
            self.counts["steps_rejected"] += 1
        else:
            self.counts["steps_accepted"] += 1
            self.dt_min = min(self.dt_min, dt)
            self.dt_max = max(self.dt_max, dt)
        params = state.params
        p, lam, n_max = params.p, params.lam, params.n_max
        if caller == "stepping.integrate":
            cap = control.safety / (lam**2 * n_max**2 * max(state.mean, 1e-300) ** (p + 1))
        elif caller == "stepping.integrate_normalized" and self._last_gmax is not None:
            cap = control.safety / (p * lam**2 * n_max**2 * max(self._last_gmax, 1.0) ** (p + 1))
        else:
            return
        if abs(dt - cap) <= 1e-12 * cap:
            self.counts["cap_bound_steps"] += 1

    # -- results ------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - child, name

    def summary(self, untraced_walls: list[float]) -> dict:
        """Per-layer metrics: counts and seconds are means per traced op,
        ms and us are means per call.  The layers' self times add up to
        ``trace.wall_s``, the mean traced op; ``trace.overhead_frac``
        compares it with the mean untraced op of the same process."""
        dur, self_time, name = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        by_name = {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}
        unused = (0, 0.0, 0.0)
        op_walls = dur[name == self._name_ids[OP_SPAN]] if OP_SPAN in self._name_ids else dur[:0]
        ops = len(op_walls)
        if ops == 0:
            raise ValueError("no traced op to summarise")

        def n_calls(span):
            return by_name.get(span, unused)[0] / ops

        def per_op_s(span):
            return by_name.get(span, unused)[1] / ops

        def per_call_ms(span):
            c, t, _ = by_name.get(span, unused)
            return 1e3 * t / c if c else 0.0

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for n, (_, _, s) in by_name.items():
            layer_self[n.split(".", 1)[0]] += s / ops

        counts = Counter({key: value / ops for key, value in self.counts.items()})
        step_calls = n_calls("stepping.step")
        accepted = counts["steps_accepted"]
        main_steps = accepted + counts["steps_rejected"]
        evals = n_calls("rhs.eval")
        traced_wall = float(op_walls.mean())
        m = {
            "rhs.evals": evals,
            "rhs.eval_us": 1e3 * per_call_ms("rhs.eval"),
            "rhs.grid_extrema_calls": n_calls("rhs.grid_extrema"),
            "rhs.grid_extrema_s": per_op_s("rhs.grid_extrema"),
            "spectral.states_built": n_calls("spectral.state"),
            "spectral.state_s": per_op_s("spectral.state"),
            "spectral.synthesize_calls": n_calls("spectral.synthesize"),
            "spectral.synthesize_s": per_op_s("spectral.synthesize"),
            "stepping.step_calls": step_calls,
            "stepping.steps_accepted": accepted,
            "stepping.steps_rejected": counts["steps_rejected"],
            "stepping.landing_steps": counts["landing_steps"],
            "stepping.landing_frac": counts["landing_steps"] / step_calls if step_calls else 0.0,
            "stepping.accept_ratio": accepted / main_steps if main_steps else 0.0,
            "stepping.cap_bound_frac": counts["cap_bound_steps"] / main_steps if main_steps else 0.0,
            "stepping.rhs_per_accepted": evals / accepted if accepted else 0.0,
            "stepping.step_overhead_us": 1e6 * layer_self["stepping"] / step_calls if step_calls else 0.0,
            "stepping.dt_min": self.dt_min if accepted else 0.0,
            "stepping.dt_max": self.dt_max,
            "blowup.estimate_T_ms": per_call_ms("blowup.estimate_T"),
            "blowup.fit_power_ms": per_call_ms("blowup.fit_power"),
            "blowup.certify_ms": per_call_ms("blowup.certify"),
            "blowup.envelope_ms": per_call_ms("blowup.envelope_check"),
            "normalize.series_ms": per_call_ms("normalize.series"),
            "normalize.fit_exponential_ms": per_call_ms("normalize.fit_exponential"),
            "geometry.reconstruct_ms": per_call_ms("geometry.reconstruct"),
            "geometry.reconstruct_calls": n_calls("geometry.reconstruct"),
            "geometry.render_svg_ms": per_call_ms("geometry.render_svg"),
            "cli.load_config_ms": per_call_ms("cli.load_config"),
            "cli.write_trajectory_ms": per_call_ms("cli.write_trajectory"),
            "cli.metrics_csv_ms": per_call_ms("cli.metrics_csv"),
            "cli.read_trajectory_ms": per_call_ms("cli.read_trajectory"),
            "cli.traj_bytes": counts["traj_bytes"],
            "cli.snapshots_written": counts["snapshots_written"],
            "trace.spans": len(dur) / ops,
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / float(np.mean(untraced_walls)) - 1.0,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return {key: m[key] for key in METRIC_UNITS}

    def write(self, path: str):
        """Save every span as flat arrays (npz); ``names`` maps name ids."""
        dur, self_time, name = self._arrays()
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            duration=dur,
            self_time=self_time,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=name,
            names=np.array(self.names),
        )
