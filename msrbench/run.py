"""msrbench: the msrlab benchmark.

    python3 msrbench/run.py --workload {sweep,decay,repair} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the one holding BENCHMARK.json and
src/msrlab). Each workload runs in a fresh worker process, so set-up time
and peak memory belong to it alone. With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it carries the per-layer metrics instead. The line before it is
a report with provenance, sample counts and the tail percentile used.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("sweep", "decay", "repair")
# Fresh set-up-only processes whose median set-up time is reported, half
# of them before the measuring process and half after it, so the median
# spans the whole run rather than one moment of a shared host.
SETUP_RUNS = 16
BUDGET_S = 170.0  # the whole run, set-up processes included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(times) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th largest sample. With fewer than 11 samples
    this falls back to the maximum, reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(worker: dict, setup_s: list[float]) -> dict:
    times = worker["times"]
    value, _ = tail(times)
    return {
        "op_median_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": worker["passed"] / worker["wall_s"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": worker["peak_rss_kib"] / 1024,
    }


def blas_env() -> tuple[dict, dict]:
    """Child environment with every BLAS pool capped at nproc threads."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env, {var: env[var] for var in BLAS_THREAD_VARS}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the worker started")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} exceeded the {BUDGET_S:.0f} s budget") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_metric_specs() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    return spec


def select(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="msrlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    try:
        if not (ROOT / "src" / "msrlab" / "__init__.py").is_file():
            raise BenchError(f"no msrlab sources under {ROOT / 'src'}")
        spec = load_metric_specs()
        env, blas = blas_env()
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setup_runs = 0 if args.trace else SETUP_RUNS // 2

        def setup_times():
            return [run_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                    for _ in range(setup_runs)]

        setup_s = setup_times()
        worker = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
        setup_s += setup_times()
        if args.trace:
            metrics = select(worker["layers"], spec["per_layer"])
            samples = {"untraced_ops": len(worker["untraced"]), "traced_ops": len(worker["traced"])}
        else:
            metrics = select(end_to_end(worker, setup_s), spec["end_to_end"])
            samples = {"timed_ops": len(worker["times"]), "setup_runs": setup_s,
                       "tail_percentile": tail(worker["times"])[1]}
    except BenchError as exc:
        print(f"msrbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = worker["attempted"], worker["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **samples,
        "fail_ratio": failed / attempted,
        "failures": worker["failures"],
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": worker["numpy"],
            "blas_threads": blas,
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
