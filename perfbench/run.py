"""pcsflow benchmark: one seeded workload, measured in its own processes.

    python3 perfbench/run.py --workload blowup_n8 --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; pcsflow is imported from ``src/``.
Each workload runs in a fresh single-threaded worker process (OMP, OpenBLAS
and MKL pinned to one thread, PCSFLOW_THREADS unset).  With ``--trace 0``
the result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is the JSON result; the lines
before it give the environment and each metric with its sample count.
Working files go to ``.perfbench_out/<workload>/``.  Seed 1207 is held out:
it is not used while tuning the program, and claims are re-checked on it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 3  # fresh processes whose set-up time is sampled
RUN_LIMIT_S = 175  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PCSFLOW_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, work_dir: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcsflow" / "__init__.py").is_file():
        print(f"no pcsflow sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = ROOT / ".perfbench_out" / args.workload
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setup_samples.append(run_worker(args, work_dir, True, deadline)["setup_s"])
        res = run_worker(args, work_dir, False, deadline)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    setup_samples.append(res["setup_s"])

    print("env " + json.dumps(res["env"], sort_keys=True))
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
        units = res["layer_units"]
    else:
        metrics = {
            "wall_s": statistics.median(res["wall_s"]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_rate": 1.0 - res["failed"] / res["attempted"],
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}
        samples = {"wall_s": res["wall_s"], "setup_s": setup_samples}
        for name, values in samples.items():
            print(f"{name}: median {statistics.median(values):.6g} s, {len(values)} samples: "
                  + " ".join(f"{v:.4f}" for v in values))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
