"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 10 --trace-seeds 2 --out bench/baseline.json

For every workload, runs ``bench/run.py --trace 0`` once per seed (seeds
1..N) and ``--trace 1`` on the first ``--trace-seeds`` seeds, one process at
a time.  For each metric it prints the median and the spread, the distance
between the first and third quartile of the per-seed values as a share of
their median, and with ``--out`` writes them as JSON.  Every run must be
correct; the script stops at the first one that is not.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} is not correct:\n{proc.stdout}")
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": first["unit"], "median": median, "values": values}
        if len(values) >= 4 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["spread"] = (q3 - q1) / abs(median)
        out[name] = entry
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace-seeds", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {
        "label": args.label,
        "machine": machine(),
        "seconds": args.seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    started = time.time()
    for name in names:
        e2e = [run_once(name, s, args.seconds, 0) for s in range(1, args.seeds + 1)]
        layers = [run_once(name, s, args.seconds, 1) for s in range(1, args.trace_seeds + 1)]
        summary = {"end_to_end": summarise(e2e)}
        if layers:
            summary["per_layer"] = summarise(layers)
        report["workloads"][name] = summary
        for metric, entry in summary["end_to_end"].items():
            spread = entry.get("spread", float("nan"))
            print(f"{name:15s} {metric:12s} median {entry['median']:.6g} {entry['unit']:8s}"
                  f" spread {spread:.3f} (bound {bounds.get(metric, float('nan'))})",
                  flush=True)
    print(f"{time.time() - started:.0f} s in total")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
