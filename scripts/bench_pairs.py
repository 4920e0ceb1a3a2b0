#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, written as one BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workloads toric_boundary lemma31_sweep --pairs 3 --seed 101 \\
        --parent-commit abc1234 --description "..." --out BENCH_name.json

Each tree is a checkout (best a clean export) holding ``perfbench/`` and
``BENCHMARK.json``.  For every workload, pair k runs seed ``SEED + k`` once
in each tree, as ``python3 perfbench/run.py --workload W --seed S --seconds
RUN --trace 0`` with RUN the ``run_seconds`` of the change tree's
``BENCHMARK.json``.  The side that runs first alternates from pair to pair,
the parent first in the first pair of each workload, so a drift in the
machine's speed weighs on both sides alike.  Workloads take consecutive
seeds.  The output holds ``description``, ``parent_commit`` and ``runs``,
one entry per run in the order run, with the run's end-to-end metrics.
At the end it prints one line per workload and end-to-end metric: the
parent's median, the change's median, and how many pairs the change won,
judged by the metric's ``better`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path
from statistics import median


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    # exit code 1 means some op failed; the report says so and is kept
    if done.returncode not in (0, 1):
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {done.returncode}\n{done.stderr}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
    }


def summary(runs: list[dict], better: dict[str, str]) -> list[str]:
    """Per workload and metric: both medians and the pairs the change won, tied pairs not won."""
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run["metrics"]
    lines = []
    for workload, by_seed in pairs.items():
        for name, direction in better.items():
            parent = [sides["parent"][name] for sides in by_seed.values()]
            change = [sides["change"][name] for sides in by_seed.values()]
            won = sum(c < a if direction == "lower" else c > a for a, c in zip(parent, change))
            lines.append(
                f"{workload} {name}: parent {median(parent):.6g}, change {median(change):.6g}, "
                f"change won {won}/{len(parent)} pairs"
            )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--description", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    runs = []
    seed = args.seed
    for workload in args.workloads:
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                result = run_once(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, **result})
                print(workload, seed, side, json.dumps(result["metrics"]), flush=True)
            seed += 1
    bench = {"description": args.description, "parent_commit": args.parent_commit, "runs": runs}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print("\n".join(summary(runs, {m["name"]: m["better"] for m in benchmark["end_to_end"]})))


if __name__ == "__main__":
    main()
