#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload spectral-scan --seeds 1-10

Each run measures BENCHMARK.json's run_seconds and reports the end-to-end
metrics. For every metric it prints the median and the interquartile distance
(statistics.quantiles(values, n=4)) as a share of the median, the figure a
bound in BENCHMARK.json has to cover. ``--json PATH`` merges the summary into
a JSON file keyed by workload, which is how bench/baseline.json is written.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[
        "run_seconds"]
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        child = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"seed {seed}: incorrect run")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "values": vals}
        print(f"{name:40s} median {med:.5g} {units[name]:6s} spread {spread:.4f}")
    if args.json:
        path = Path(args.json)
        table = json.loads(path.read_text()) if path.exists() else {}
        table[args.workload] = {"seeds": args.seeds, "seconds": seconds,
                                "metrics": summary}
        path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
