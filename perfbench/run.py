"""instanton3 benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload table-wide --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Each operation is one call into the public API, timed on
its own; its output is checked against the benchmark's reference outside the
timed region.  Reported times are normalized for the speed of a shared
machine (see ``calibrate``).  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` a traced pass gives the per-layer metrics and
an untraced pass over the same operations gives the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

#: At least ten operations must lie beyond the 90th percentile.
MIN_OPS = 100
#: Fresh interpreters started per run to time the import of the package.
SETUP_SAMPLES = 15
COLD_START_SAMPLES = 5
#: Untimed operations run first, so lazy set-up is not counted.
WARMUP_OPS = 3
#: Share of --seconds given to the traced pass of a --trace 1 run.
TRACED_SHARE = 0.5
#: The calibration kernel is timed again once this much time has passed.
CALIBRATE_EVERY_NS = 20_000_000

SETUP_CODE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import instanton3, instanton3.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibrate\n"
    "print(t, statistics.median(calibrate.kernel_ns() for _ in range(7)))\n"
)
COLD_START_ARGV = ("chi", "3", "0", "2", "0", "--m", "1")


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import instanton3 and its CLI,
    normalized by the kernel timed in the same interpreter, and raw."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)]
    normalized, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        seconds, kernel = (float(x) for x in proc.stdout.split())
        if i:  # the first start also writes the bytecode caches
            normalized.append(seconds * calibrate.REFERENCE_KERNEL_NS / kernel)
            raw.append(seconds)
    return statistics.median(normalized), statistics.median(raw)


def cold_start_ms() -> float:
    """Median wall time of ``python -m instanton3 chi ...`` as a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "instanton3", *COLD_START_ARGV]
    samples = []
    for _ in range(COLD_START_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        samples.append((time.perf_counter() - start) * 1e3)
        if proc.returncode != 0 or proc.stdout != "6\n":
            raise RuntimeError(f"cold start gave exit {proc.returncode} and {proc.stdout!r}")
    return statistics.median(samples)


class Pass:
    """Latencies and failures of one pass over an operation stream."""

    def __init__(self) -> None:
        self.latencies_ns = array("q")
        # The kernel was timed just before operation cal_at[k] (or after the
        # last one) and took cal_ns[k].
        self.cal_at: list[int] = []
        self.cal_ns: list[int] = []
        self.failed = 0
        self.failures: list[str] = []
        self.inputs = Counter()
        self.widths = Counter()

    def calibrate(self) -> None:
        self.cal_at.append(len(self.latencies_ns))
        self.cal_ns.append(calibrate.kernel_ns())

    def normalized_ns(self) -> list[float]:
        """Each latency scaled by the reference kernel time over the mean of
        the kernel timings just before and just after the operation."""
        out, k = [], 0
        for i, ns in enumerate(self.latencies_ns):
            while self.cal_at[k + 1] <= i:
                k += 1
            out.append(ns * 2 * calibrate.REFERENCE_KERNEL_NS / (self.cal_ns[k] + self.cal_ns[k + 1]))
        return out


def run_pass(stream, seconds: float, *, min_ops: int = 0, max_ops: int | None = None, tracer=None) -> Pass:
    """Closed loop: the next operation starts only after the previous returns."""
    result_pass = Pass()
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + min(4 * seconds, 120)
    last_cal = None
    for op in stream:
        done, now = len(result_pass.latencies_ns), time.perf_counter()
        if done == max_ops or (done >= min_ops and now >= deadline) or now >= hard_deadline:
            break
        if last_cal is None or time.perf_counter_ns() - last_cal >= CALIBRATE_EVERY_NS:
            result_pass.calibrate()
            last_cal = time.perf_counter_ns()
        exc = result = None
        t0 = time.perf_counter_ns()
        if tracer is not None:
            tracer.start_op(t0)
        try:
            result = op.call()
        except Exception as e:  # the check decides whether it was expected
            exc = e
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_op(t1)
        result_pass.latencies_ns.append(t1 - t0)
        try:
            ok = op.check(result, exc)
        except Exception:  # malformed output
            ok = False
        if not ok:
            result_pass.failed += 1
            if len(result_pass.failures) < 3:
                result_pass.failures.append(f"{op.label}: {exc!r}" if exc else op.label)
        inputs = result_pass.inputs
        inputs["ops"] += 1
        inputs[f"kind.{op.kind}"] += 1
        inputs["rows"] += op.rows
        inputs["candidates"] += op.candidates
        if isinstance(result, tuple) and len(result) == 3:  # captured CLI output
            inputs["output_bytes"] += len(result[1].encode()) + len(result[2].encode())
        if op.rows:
            result_pass.widths[op.rows] += 1
    result_pass.calibrate()
    return result_pass


def input_summary(p: Pass) -> dict:
    ops = p.inputs["ops"]
    return {
        "ops": ops,
        "rows_total": p.inputs["rows"],
        "rows_per_op": p.inputs["rows"] / ops,
        "spectra_candidates_total": p.inputs["candidates"],
        "shares": {k[5:]: round(v / ops, 4) for k, v in sorted(p.inputs.items()) if k.startswith("kind.")},
        "window_widths": {"min": min(p.widths), "max": max(p.widths), "mean": sum(w * n for w, n in p.widths.items()) / sum(p.widths.values())} if p.widths else None,
    }


def timings(latencies_ns: list[float]) -> dict:
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    return {
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table-wide", "classify-many", "cli-mix", "verify-replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "instanton3" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'instanton3'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    stream = workloads.WORKLOADS[args.workload]
    setup_s, setup_raw_s = setup_seconds() if not args.trace else (None, None)
    run_pass(stream(args.seed), args.seconds, min_ops=WARMUP_OPS, max_ops=WARMUP_OPS)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(stream(args.seed), TRACED_SHARE * args.seconds, min_ops=1, tracer=tracer)
        finally:
            tracer.uninstall()
        ops = len(traced.latencies_ns)
        metrics = tracing.layer_metrics(tracer, ops)
        tracer.write(SPANS_DIR / f"spans-{args.workload}.tsv.gz")
        del tracer
        plain = run_pass(stream(args.seed), args.seconds, max_ops=ops)
        metrics["cli.output_bytes_per_op"] = (traced.inputs["output_bytes"] / ops, "B")
        metrics["cli.cold_start_ms"] = (cold_start_ms(), "ms")
        metrics["trace.overhead_ratio"] = (sum(plain.normalized_ns()) / sum(traced.normalized_ns()), "ratio")
        passes = (traced, plain)
        summary = input_summary(traced)
    else:
        timed = run_pass(stream(args.seed), args.seconds, min_ops=MIN_OPS)
        # Read before the statistics below allocate their own lists.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (setup_s, "s"), **timings(timed.normalized_ns())}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        raw = {"setup_s": (setup_raw_s, "s"), **timings(timed.latencies_ns)}
        passes = (timed,)
        summary = input_summary(timed)

    attempted = sum(len(p.latencies_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for failure in p.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {len(passes[0].latencies_ns)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in raw.items():
            print(f"{name + ' (wall, not normalized)':48s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':48s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print("inputs " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
