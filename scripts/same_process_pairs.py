#!/usr/bin/env python3
"""Same-process A/B rounds of one benchmark workload on two checkouts.

    python3 scripts/same_process_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload spectral_pages --seed 1 --rounds 60

Each tree is a checkout holding ``src/dualcech``.  Each package is copied
to a temporary directory under its own name, ``dualcech_parent`` or
``dualcech_change``, with the word ``dualcech`` renamed so in every copied
source, and both are imported into this one process.  The two sides so
share the interpreter, its memory and the machine's drift, which moves
the wall time of identical code by up to 2x from one process to the next
(see ``scripts/bench_pairs.py`` for the fresh-process pairs).

The documents of ``--workload`` for ``--seed`` come from
``perfbench/workloads.py`` of CHANGE_TREE and are written to the same
temporary directory.  Each side first runs one untimed cycle.  A round
then runs one cycle per side, ``cli.main([command, document, "--json"])``
on every document in order, and the side that runs first alternates, the
parent first in the first round.  Every report is checked with
``oracle.mismatches``, and a wrong answer stops the script.  It prints the
median and quartiles of each side's cycle seconds, the rounds the change
won (a tie is not won), and last one JSON line holding the seconds of
every round.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from statistics import quantiles
from time import perf_counter

SIDES = ("parent", "change")


def copy_package(tree: Path, name: str, into: Path) -> None:
    """Copy ``tree``'s ``src/dualcech`` to ``into/name``, with ``dualcech`` renamed ``name`` in its sources."""
    target = into / name
    target.mkdir()
    for path in sorted((tree / "src" / "dualcech").glob("*.py")):
        text = re.sub(r"\bdualcech\b", name, path.read_text(encoding="utf-8"))
        (target / path.name).write_text(text, encoding="utf-8")


def cycle(cli, ops, paths: list[str], oracle) -> float:
    """Seconds of one pass over the documents; a wrong answer stops the script."""
    spent = 0.0
    for op, path in zip(ops, paths):
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([op.command, path, "--json"])
        spent += perf_counter() - start
        text = out.getvalue()
        problems = oracle.mismatches(op.expect, op.code, code, json.loads(text)["result"] if text else None)
        if problems:
            raise SystemExit(f"{cli.__name__} on {path}: {'; '.join(problems)}")
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")
    sys.path.insert(0, str(args.change.resolve() / "perfbench"))
    import oracle
    import workloads

    ops = workloads.make_ops(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = []
        for k, op in enumerate(ops):
            path = root / f"{k:03d}.json"
            path.write_text(json.dumps(op.doc), encoding="utf-8")
            paths.append(str(path))
        sys.path.insert(0, tmp)
        clis = {}
        for side, tree in zip(SIDES, (args.parent, args.change)):
            copy_package(tree.resolve(), f"dualcech_{side}", root)
            clis[side] = importlib.import_module(f"dualcech_{side}.cli")
            cycle(clis[side], ops, paths, oracle)
        seconds: dict[str, list[float]] = {side: [] for side in SIDES}
        for k in range(args.rounds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                seconds[side].append(cycle(clis[side], ops, paths, oracle))
    for side in SIDES:
        q1, q2, q3 = quantiles(seconds[side], n=4)
        print(f"{side}: median {q2 * 1e3:.2f} ms per cycle, quartiles {q1 * 1e3:.2f} to {q3 * 1e3:.2f} ms")
    won = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    print(f"change won {won}/{args.rounds} rounds")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "documents": len(ops), **seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
