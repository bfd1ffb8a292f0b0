"""One workload in one process: set-up, the timed loop, checks and tracing.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --work-dir DIR [--setup-only]

``run.py`` starts this with the thread counts pinned.  The clock starts
before numpy, scipy or pcsflow is imported, so set-up time covers imports,
input generation and any trajectory the workload needs.  The last stdout
line is one JSON object with the raw samples.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy, scipy and pcsflow)
from tracing import METRIC_UNITS, OP_SPAN, Tracer  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PCSFLOW_THREADS")},
    }


def checked(workload, ctx, outputs) -> list[list[str]]:
    """The workload's problem lists; output the check cannot even read fails
    every operation of the body."""
    try:
        return workload.check(ctx, outputs)
    except Exception as exc:  # unreadable output is a failed check, not a crash
        return [[f"check raised {type(exc).__name__}: {exc}"]] * workload.operations_per_body


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str, started: float, setup_only=False) -> dict:
    """Set up, then run bodies until the next would pass ``seconds``.

    Untraced runs time every body.  Traced runs alternate untraced and
    traced bodies (at least one of each), so the tracing overhead is measured
    in the same process; only traced bodies feed the per-layer metrics.
    """
    workload = workloads.WORKLOADS[name]
    os.makedirs(work_dir, exist_ok=True)
    ctx = workload.setup(work_dir, seed)
    result = {"setup_s": time.perf_counter() - started}
    if setup_only:
        return result

    tracer = Tracer() if trace else None
    walls, traced_walls = [], []
    attempted = failed = 0
    problems = []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                outputs = tracer.wrap(workload.body, OP_SPAN)(ctx)
        else:
            outputs = workload.body(ctx)
        (traced_walls if traced else walls).append(time.perf_counter() - t0)
        for op_problems in checked(workload, ctx, outputs):
            attempted += 1
            if op_problems:
                failed += 1
                problems.extend(op_problems)
        if tracer is not None and not traced_walls:
            continue
        next_traced = tracer is not None and len(walls) > len(traced_walls)
        next_cost = statistics.median(traced_walls if next_traced else walls)
        if time.perf_counter() - loop_start + next_cost > seconds:
            break

    result.update(
        wall_s=walls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
    )
    if tracer is not None:
        result["layers"] = tracer.summary(walls)
        result["layer_units"] = METRIC_UNITS
        tracer.write(os.path.join(work_dir, "spans.npz"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(workloads.cli.__file__).startswith(src + os.sep):
        parser.error(f"pcsflow was imported from {workloads.cli.__file__}, not from {src}")
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir, STARTED, args.setup_only
    )
    if not args.setup_only:
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
