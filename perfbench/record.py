"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/record.py --seeds 1-10

For each workload of BENCHMARK.json this runs ``run.py`` once per seed with
tracing off, reports each end-to-end metric's median and its spread (the
distance between the first and third quartiles over the median), then runs
the first seed once with tracing on for the per-layer split.  The result,
with the inputs of each workload and the machine it ran on, goes to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    inputs = json.loads(next(line for line in lines if line.startswith("inputs "))[len("inputs "):])
    return json.loads(lines[-1]), inputs


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    record = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for wl in bench["workloads"]:
        name = wl["name"]
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, inputs = run(name, seed, bench["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        traced, _ = run(name, seeds[0], bench["run_seconds"], 1)
        end_to_end = {}
        for metric, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            end_to_end[metric] = {"median": median, "spread": (q3 - q1) / median, "values": v}
        record["workloads"][name] = {
            "why": wl["why"],
            "inputs_of_last_seed": inputs,
            "fail_ratio": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer_seed": seeds[0],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        spreads = ", ".join(f"{m} {e['spread']:.3f}" for m, e in end_to_end.items())
        print(f"{name}: fail_ratio {failed}/{attempted}; spread {spreads}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
