"""One workload in one fresh process; prints a single JSON line.

    python3 msrbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 msrbench/worker.py --workload W --seed N --setup-only

Untraced (--trace 0): one untimed warm-up op, then timed ops until S
seconds have passed and at least MIN_SAMPLES ops were timed. Prints the
per-op times, the set-up time and the peak resident memory.

Traced (--trace 1): the first `cycle` ops of the seeded sequence form one
pass. Passes alternate untraced and traced until S seconds have passed, so
both sides time the same ops; counts are averaged per traced op and repeat
exactly for a seed. Spans go to msrbench/_work/ at the end.

--setup-only imports msrlab, builds the workload's inputs and exits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from before `import msrlab`

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import msrlab  # noqa: E402

if Path(msrlab.__file__).resolve().parent != ROOT / "src" / "msrlab":
    raise SystemExit(f"msrlab imported from {msrlab.__file__}, not from {ROOT / 'src'}")

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKDIR = BENCH_DIR / "_work"
MIN_SAMPLES = 11  # the tail needs ten samples beyond it
HARD_LIMIT_S = 120.0  # stop timing here even with fewer samples


class Tally:
    """Ops attempted and failed; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, workload, params, call=None) -> tuple[float, bool]:
        """Run one op and check its output. Returns (seconds, passed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = call(workload.run, params) if call else workload.run(params)
        except Exception as exc:  # any error in an op is a failed op
            elapsed = time.perf_counter() - start
            return elapsed, self._fail(f"{workload.name} {params}: raised {exc!r}")
        elapsed = time.perf_counter() - start
        try:
            failure = workload.check(params, output)
        except Exception as exc:  # an output the check cannot parse fails it
            failure = f"{workload.name} {params}: check raised {exc!r}"
        return elapsed, failure is None or self._fail(failure)

    def _fail(self, message) -> bool:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)
        return False

    def to_json_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def measure(workload, seconds: float, min_samples: int = MIN_SAMPLES) -> dict:
    """Untraced closed loop: warm-up op, then timed ops."""
    tally = Tally()
    tally.run(workload, workload.params(0))
    times = []
    passed = 0
    start = time.perf_counter()
    while True:
        elapsed, ok = tally.run(workload, workload.params(len(times)))
        times.append(elapsed)
        passed += ok
        wall = time.perf_counter() - start
        if (wall >= seconds and len(times) >= min_samples) or wall >= HARD_LIMIT_S:
            break
    return {"times": times, "wall_s": wall, "passed": passed, **tally.to_json_dict()}


def trace(workload, seconds: float, tracer: tracing.Tracer) -> dict:
    """Alternate untraced and traced passes over the first `cycle` ops."""
    tally = Tally()
    cycle = [workload.params(i) for i in range(workload.cycle)]
    tally.run(workload, cycle[0])
    untraced, traced = [], []

    def traced_call(fn, params):
        tracer.recording = True
        try:
            output = tracer.call("op", fn, (params,))
        finally:
            tracer.recording = False
        tracer.counts["cli.stdout_bytes"] += workload.stdout_bytes(output)
        return output

    start = time.perf_counter()
    while True:
        untraced += [tally.run(workload, params)[0] for params in cycle]
        tracer.install()
        try:
            traced += [tally.run(workload, params, traced_call)[0] for params in cycle]
        finally:
            tracer.restore()
        if time.perf_counter() - start >= seconds:
            break
    return {"untraced": untraced, "traced": traced, **tally.to_json_dict()}


def layer_metrics(tracer: tracing.Tracer, untraced, traced) -> dict:
    """Per traced op: calls, self time and work counts of every layer."""
    ops = len(traced)
    self_s = tracing.self_times(tracer.spans)
    names = sorted({name for name, *_ in tracing.TARGETS})
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = tracer.counts.get(f"{name}.calls", 0) / ops
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    for key in tracing.COUNT_KEYS:
        metrics[key] = tracer.counts.get(key, 0) / ops
    metrics["repair.cutset_ratio"] = tracing.cutset_ratio(tracer.counts)
    metrics["trace.spans"] = (len(tracer.spans) - ops) / ops
    metrics["trace.op_s"] = sum(traced) / ops
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    result = {"setup_s": time.perf_counter() - _T0, "numpy": sys.modules["numpy"].__version__}
    try:
        if args.setup_only:
            pass
        elif args.trace:
            tracer = tracing.Tracer()
            result.update(trace(workload, args.seconds, tracer))
            result["layers"] = layer_metrics(tracer, result["untraced"], result["traced"])
            tracer.dump(WORKDIR / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            result.update(measure(workload, args.seconds))
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
