#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the figures.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is its own fresh ``run.py`` process, one after another, so peak
memory belongs to one workload and no state carries over.  For each
end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``), the sample count and the spread
(quartile distance over median) next to the metric's bound from
BENCHMARK.json; one traced run per workload adds the per-layer table and
each layer's share of the traced op time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {
        "median": centre,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / centre if centre else 0.0,
        "bound": bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}

    summary = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in names:
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, bench["run_seconds"], 0))
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1].items()}, flush=True)
        entry = {"why": whys[workload], "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = summarise([r[metric] for r in runs], bound)
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(
                f"{workload:15s} {metric:12s} median {stats['median']:.6g}  "
                f"spread {stats['spread']:.3f} (bound {bound}){flag}",
                flush=True,
            )
        entry["per_layer_seed"] = SEEDS[0]
        layers = run(workload, SEEDS[0], bench["run_seconds"], 1)
        entry["per_layer"] = layers
        entry["share_of_traced_op"] = {
            name: value / layers["trace.op_s"]
            for name, value in layers.items()
            if name.endswith(("self_s", "total_s")) and value
        }
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
