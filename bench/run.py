"""ggdim benchmark: cold-start workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics.  Set-up time is taken first, from
several fresh interpreters that import ggdim.cli and build its parser.  Then
workers (bench/worker.py) run back to back, one fresh interpreter per pass,
until their work time reaches --seconds; each metric is the median over the
passes.

--trace 1 runs the workload's fixed traced unit twice, untraced and then
traced by bench/tracer.py, and reports per-layer calls, self time and
counters, plus the tracing overhead (traced minus untraced wall time).

Every output is checked against golden values.  The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics; the line
before it records the run (seed, nproc, versions, worker pids, per-suite
times for verify).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy  # noqa: E402
from tracer import metric_specs  # noqa: E402

WORKLOADS = ("grid", "dims-large", "wide", "verify")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
SETUP_CODE = ("import time, ggdim.cli; ggdim.cli.build_parser(); "
               "print(time.monotonic())")

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_p90", "ms"),
    ("cpu_ms_per_instance", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark could not run (missing program, worker crash)."""


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"     # traced counts must repeat exactly
    return env


def time_setup(root: str, env: dict) -> list:
    """Seconds from spawning a fresh interpreter to ggdim.cli ready, per sample.

    The child prints the monotonic clock, which Linux keeps system-wide, once
    ggdim.cli is imported and its parser built.  One untimed spawn first
    compiles the bytecode, which an installed package would already have.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing ggdim.cli failed (exit {proc.returncode})")
        if i:
            samples.append(float(proc.stdout) - t0)
    return samples


def run_worker(root: str, env: dict, workload: str, seed: int,
               pass_index: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), *extra]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_vals: list, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def pass_metrics(res: dict) -> dict:
    lat = sorted(res["latencies_s"])
    if not lat:
        raise BenchError("a pass completed no instance")
    n = res["attempted"]
    return {"instances_per_s": n / res["wall_s"],
            "instance_ms_p50": 1000 * percentile(lat, 50),
            "instance_ms_p90": 1000 * percentile(lat, 90),
            "cpu_ms_per_instance": 1000 * res["cpu_s"] / n}


def timed_run(root: str, env: dict, workload: str, seed: int,
              seconds: int) -> tuple:
    """Cold passes until their work time reaches `seconds`.

    Each rate and latency is the median over passes of that pass's figure,
    so a burst of load from elsewhere on the host moves one pass, not the
    result.
    """
    setup = time_setup(root, env)
    passes = []
    work = 0.0
    while work < seconds:
        res = run_worker(root, env, workload, seed, len(passes))
        passes.append(res)
        work += res["wall_s"]
    per_pass = [pass_metrics(res) for res in passes]
    values = {name: statistics.median(m[name] for m in per_pass)
              for name in per_pass[0]}
    values["peak_rss_mb"] = max(res["peak_rss_kb"] for res in passes) / 1024
    values["setup_s"] = statistics.median(setup)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    record = {"passes": len(passes), "work_s": work,
              "pass_work_s": [res["wall_s"] for res in passes],
              "latency_samples": sum(len(res["latencies_s"]) for res in passes),
              "setup_samples_s": setup,
              "pids": [res["pid"] for res in passes],
              "pass_info": [res["info"] for res in passes]}
    return (sum(res["attempted"] for res in passes),
            sum(res["failed"] for res in passes), metrics, record)


def traced_run(root: str, env: dict, workload: str, seed: int) -> tuple:
    """The fixed traced unit, untraced then traced; per-layer metrics."""
    plain = run_worker(root, env, workload, seed, 0, "--fixed")
    spans = os.path.join(root, ".bench_out", f"spans-{workload}-{seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    traced = run_worker(root, env, workload, seed, 0, "--fixed", "--trace",
                        "--spans", spans)
    layers = dict(traced["layers"])
    layers["trace.traced_s"] = traced["wall_s"]
    layers["trace.untraced_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _better in metric_specs()}
    record = {"pids": [plain["pid"], traced["pid"]], "spans_file": spans,
              "bindings": traced["bindings"],
              "pass_info": [plain["info"], traced["info"]]}
    return (traced["attempted"], plain["failed"] + traced["failed"], metrics,
            record)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ggdim benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ggdim", "cli.py")):
        print("error: run from the root of a ggdim checkout (src/ggdim missing)",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    try:
        if args.trace:
            attempted, failed, metrics, record = traced_run(
                root, env, args.workload, args.seed)
        else:
            attempted, failed, metrics, record = timed_run(
                root, env, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=len(os.sched_getaffinity(0)),
                  python=platform.python_version(), numpy=numpy.__version__)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
