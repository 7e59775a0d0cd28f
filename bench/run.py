"""Benchmark for atlh: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: threeballot-cli, translation, succinctness, referendum-cli (see
bench/workloads.py). The run sets up the workload several times, computes the
expected answers, then runs whole cycles of ops back to back until their
summed latency reaches --seconds. Every op runs under a per-op time limit
enforced from outside the program by SIGALRM; a timed-out, raising or wrong
op counts as failed, and as missing every latency limit (its latency is
taken as its limit). Set-up and op times in the metrics are scaled to a
reference machine speed (see `measure`); the report keeps the unscaled
figures.

--trace 0 prints the end-to-end metrics. --trace 1 runs every op twice,
untraced then traced, and prints the per-layer metrics from the traced
calls (plus one traced set-up), with the tracing overhead measured against
the untraced ones. Per-layer figures are per traced op.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. A detailed report, the model files and the spans of traced runs
go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from tracing import DERIVED, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9
CALIBRATION_ITERATIONS = 1000
CALIBRATION_S = 0.0004  # reference duration of the calibration loop
SAMPLE_EVERY_S = 0.1
LOCAL_SAMPLES = 15
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
INPUT_COUNTS = ("model_states", "formula_nodes", "subformulas", "strategy_space", "out_nodes")


class OpTimeout(BaseException):
    """Raised by the SIGALRM handler; not an Exception, so the program cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout()


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "1/op", f"{name}.self_s": "s/op", f"{name}.errors": "1/op"})
    units.update({name: "1/op" for name in DERIVED})
    units["translate.out_nodes"] = "nodes/op"
    units.update({"trace.overhead_ratio": "ratio", "trace.spans": "1/op", "op_p90_s": "s"})
    units.update({f"input.{name}": "count" for name in INPUT_COUNTS})
    return units


def load_oracle():
    path = ROOT / "tests" / "bruteforce.py"
    spec = importlib.util.spec_from_file_location("bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "atlh").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        head = ""
    return {"git_revision": head or None, "source_sha256": digest.hexdigest()}


def run_op(op, tracer, op_id, sampler):
    """One op under its time limit: (latency, outcome, detail).

    The latency leaves out the time the speed sampler spent inside the op.
    """
    from workloads import CallCounts

    first = tracer.begin_op(op_id) if tracer else 0
    if tracer:
        tracer.install()
    outcome, detail, result, stop = "ok", "", None, None
    sampled = sampler.spent
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    try:
        try:
            result = op.run()
        finally:
            stop = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        outcome = "timeout"
    except Exception as exc:  # the op's own failure; recorded, the run goes on
        outcome, detail = "error", repr(exc)
    finally:
        if tracer:
            tracer.uninstall()
    latency = (stop or time.perf_counter()) - start - (sampler.spent - sampled)
    if outcome == "ok":
        try:
            op.verify(result)
        except Exception as exc:  # output that does not parse is wrong too
            outcome, detail = "wrong", str(exc) or repr(exc)
    if tracer:
        tracer.settle_op(first, CallCounts)
    return latency, outcome, detail


def calibrate() -> float:
    """Duration of a fixed pure-Python loop doing what the checker does most:
    small tuples, dict lookups and bitmask arithmetic."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i & 63, i >> 6 & 7)
        table[key] = table.get(key, 0) | 1 << (i & 31)
    return time.perf_counter() - start


class SpeedSampler:
    """Times the calibration loop every SAMPLE_EVERY_S of CPU time (SIGVTALRM).

    Samples land inside ops as well as between them, so they see the machine
    speed the ops saw. `spent` sums the sampler's own time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        duration = calibrate()
        self.times.append(time.perf_counter())
        self.samples.append(duration)
        self.spent += duration

    def local_speed(self, start: float, stop: float) -> float:
        """Median calibration time over an op: the samples taken during it,
        or the LOCAL_SAMPLES nearest its middle when it holds fewer."""
        count = min(LOCAL_SAMPLES, len(self.samples))
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, stop)
        if hi - lo < count:
            middle = bisect_left(self.times, (start + stop) / 2)
            lo = max(0, min(middle - count // 2, len(self.times) - count))
            hi = lo + count
        return statistics.median(self.samples[lo:hi])

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def measure(workload, seconds: float, tracer):
    """Closed loop over the workload's op stream: (op records, speed samples).

    Each op's `scaled` latency is its latency times CALIBRATION_S over the
    calibration time around it, which takes out the machine speed changes
    that other tenants cause.
    """
    records = []
    busy = 0.0
    cycle = 0
    with SpeedSampler() as sampler:
        while busy < seconds:
            for op in workload.cycle():
                for traced in (False, True) if tracer else (False,):
                    start = time.perf_counter()
                    latency, outcome, detail = run_op(op, tracer if traced else None, len(records), sampler)
                    records.append(
                        {"cycle": cycle, "kind": op.kind, "traced": traced, "latency": latency,
                         "limit": op.limit_s, "outcome": outcome, "detail": detail,
                         "span": (start, time.perf_counter())}
                    )
                    busy += latency
            cycle += 1
    if not sampler.samples:
        sampler.sample()
    for record in records:
        record["scaled"] = record["latency"] * CALIBRATION_S / sampler.local_speed(*record.pop("span"))
    return records, sampler.samples


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def charged(record, key="scaled") -> float:
    return record[key] if record["outcome"] == "ok" else record["limit"]


def cycles(records):
    by_cycle = {}
    for record in records:
        by_cycle.setdefault(record["cycle"], []).append(record)
    return by_cycle.values()


def end_to_end(records, setup_times, key="scaled") -> dict:
    ok = [r for r in records if r["outcome"] == "ok"]
    rates = [
        sum(r["outcome"] == "ok" for r in group) / sum(charged(r, key) for r in group)
        for group in cycles(records)
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(rates),
        "op_p50_s": statistics.median(charged(r, key) for r in records),
        "ok_ratio": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, records, counts) -> dict:
    metrics = tracer.summary()
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    pairs = [
        (a["latency"], b["latency"])
        for a, b in zip(plain, traced)
        if a["outcome"] == b["outcome"] == "ok"
    ]
    base = sum(a for a, _ in pairs)
    metrics["trace.overhead_ratio"] = (sum(b for _, b in pairs) - base) / base if base else 0.0
    metrics["trace.spans"] = len(tracer.spans) / max(len(traced), 1)
    metrics["op_p90_s"] = nearest_rank([charged(r) for r in plain], 0.9)
    metrics.update({f"input.{k}": float(counts.get(k, 0)) for k in INPUT_COUNTS})
    return metrics


def compare_counts(name: str, seed: int, counts: dict):
    """Input counts must repeat exactly across runs of one workload and seed."""
    path = OUT / f"counts-{name}-{seed}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous != counts:
            return f"input counts {counts} differ from an earlier run's {previous}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return None


def check_declared(metrics: dict, trace: bool) -> None:
    """The metrics printed must be exactly the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        raise SystemExit(f"metrics {sorted(set(want) ^ set(got))} disagree with BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "atlh" / "__init__.py", ROOT / "tests" / "bruteforce.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    oracle = load_oracle()
    workload = workloads.WORKLOADS[args.workload](ROOT, OUT, args.seed, oracle)

    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed = statistics.median(calibrate() for _ in range(5))
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        setup_scaled.append(setup_times[-1] * CALIBRATION_S / speed)
    tracer = Tracer() if args.trace else None
    if tracer:
        # One more set-up, traced, so set-up layers (model generation and
        # saving) show in the per-layer metrics; setup_s does not include it.
        tracer.install()
        workload.setup()
        tracer.uninstall()
    workload.prepare()
    records, calibrations = measure(workload, args.seconds, tracer)

    problems = [f"{r['kind']}: {r['outcome']} {r['detail']}" for r in records if r["outcome"] in ("wrong", "error")]
    try:
        counts = workload.input_counts()
    except workloads.Mismatch as exc:
        counts = {}
        problems.append(f"input counts: {exc}")
    else:
        problem = compare_counts(args.workload, args.seed, counts)
        if problem:
            problems.append(problem)

    if args.trace:
        values = per_layer(tracer, records, counts)
        units = per_layer_units()
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        values = end_to_end(records, setup_scaled)
        units = END_TO_END
    metrics = {name: (values[name], units[name]) for name in units}
    check_declared(metrics, bool(args.trace))

    failed = sum(r["outcome"] != "ok" for r in records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **revision(),
        "setup_times_s": setup_times,
        "calibrations_s": calibrations,
        "unscaled": None if args.trace else end_to_end(records, setup_times, "latency"),
        "input_counts": counts,
        "absent_hooks": tracer.absent if tracer else [],
        "problems": problems,
        "ops": [{k: r[k] for k in ("kind", "traced", "latency", "outcome")} for r in records],
    }
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    for problem in problems:
        print(f"problem: {problem}")
    info = ("python", "cpu_count", "git_revision", "source_sha256", "input_counts", "absent_hooks")
    print(json.dumps({k: report[k] for k in info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(records),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
