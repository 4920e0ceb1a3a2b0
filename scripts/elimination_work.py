#!/usr/bin/env python3
"""Work done inside ``exactla._eliminate`` over one cycle of a benchmark workload.

    python3 scripts/elimination_work.py TREE --workload toric_boundary --seed 3 [--repeat 9]

TREE is a checkout holding ``src/dualcech`` and ``perfbench/``; the script
imports the package from there, so two checkouts can be compared.  The
workload's documents come from ``perfbench/workloads.py`` for the seed,
and one cycle runs each of them once, in this process, as
``dualcech.cli.main([command, document, "--json"])``.  ``_eliminate`` is
wrapped from outside the package for the run; it takes numerators
grouped by row, or a matrix in older checkouts.  Printed, one per line:
the calls, the nonzeros fed in, the pivots, the nonzeros of the pivot
rows handed back, and the seconds spent inside ``_eliminate`` in the
fastest of ``--repeat`` cycles.  The counts are the same in every cycle.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from dualcech import cli, exactla

    ops = workloads.make_ops(args.workload, args.seed)
    original = exactla._eliminate
    work = {"calls": 0, "nnz_in": 0, "pivots": 0, "pivot_row_nnz": 0}
    spent = [0.0]

    # checkouts from before the one pivot rule also pass a pivot order
    def counted(m, *rest, **options):
        # rows grouped by index, consumed by the call, or a matrix in older checkouts
        nnz = sum(map(len, m.values())) if isinstance(m, dict) else len(m.nonzero_entries())
        start = perf_counter()
        pivots = original(m, *rest, **options)
        spent[0] += perf_counter() - start
        work["calls"] += 1
        work["nnz_in"] += nnz
        work["pivots"] += len(pivots)
        work["pivot_row_nnz"] += sum(len(row) for _, _, row in pivots)
        return pivots

    cycles = []
    exactla._eliminate = counted
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for k, op in enumerate(ops):
                path = Path(tmp) / f"{k:03d}.json"
                path.write_text(json.dumps(op.doc), encoding="utf-8")
                paths.append(str(path))
            for _ in range(args.repeat):
                work.update(dict.fromkeys(work, 0))
                spent[0] = 0.0
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    for op, path in zip(ops, paths):
                        cli.main([op.command, path, "--json"])
                cycles.append(spent[0])
    finally:
        exactla._eliminate = original
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} documents, tree {tree}")
    for name, value in work.items():
        print(f"{name} {value}")
    print(f"eliminate_s {min(cycles):.4f} (best of {args.repeat})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
