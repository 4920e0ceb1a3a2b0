#!/usr/bin/env python3
"""Benchmark of the dualcech command line, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload toric_boundary --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process
through ``dualcech.cli.main([command, document, "--json"])``: one client
in a closed loop, each op starting when the previous one returned, no
threads.  Documents are generated from the seed into a temporary
directory inside the checkout; every answer is compared with a closed-form
expectation (``oracle.py``) and a wrong number, a wrong exit code or a
traceback counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  The run repeats whole
cycles over the workload's documents, in one process, for ``--seconds``
and at least twice.  Every time is in seconds at a fixed reference pace:
the wall time scaled by a short reference computation run beside it
(``pace.py``), because the machine's own speed drifts by tens of percent.
The median and the 90th percentile are taken over every timed op, and the
throughput is ops over their summed time.  ``setup_s`` is the median of
cold set-ups (import of dualcech, document generation and one warm-up
op): this process's own, before the first timed op, and about SET_UPS
more, each in a fresh interpreter, spread over the timed phase.
``--trace 1`` alternates untraced and traced passes over the same
documents and prints per-layer metrics, per op, from spans wrapped around
each layer's public functions (``spans.py``); the spans are written to
``.perfbench_out/``.  The last line of standard output is one JSON
object; the exit code is 1 when any op failed and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import pace
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 2
SET_UPS = 20  # cold set-ups spread over a run

END_TO_END = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# span names whose calls and self time are reported per op
CALLS = (
    "presheaf.check_functoriality",
    "exactla.matmul",
    "snc.build_presheaf",
    "toric.is_smooth",
    "toric.boundary_divisor",
    "exactla.smith_normal_form",
    "exactla.rank",
    "localmodel.quotient_basis",
    "exactla.homology_dim",
    "exactla.kernel_basis",
)
SELF_S = (
    "presheaf.check_functoriality",
    "presheaf.cech_complex",
    "exactla.matmul",
    "snc.build_presheaf",
    "toric.make_fan",
    "exactla.smith_normal_form",
    "simplicial.betti_numbers",
    "simplicial.coboundary_matrix",
    "exactla.rank",
    "localmodel.quotient_basis",
    "localmodel.sheaf_cech_complex",
    "presheaf.CochainComplex",
    "presheaf.cohomology",
    "exactla.kernel_basis",
    "bicomplex.make_bicomplex",
    "bicomplex.page",
    "bicomplex.page_infinity",
    "bicomplex.total_complex",
    "formats.load_document",
    "formats.parse",
    "formats.render_report",
    "cli.main",
)
COUNTS = ("exactla.rank.nnz_in", "exactla.rank.rank_out", "exactla.kernel_basis.dense_cells")
PER_LAYER = (
    {f"{name}.calls": "count/op" for name in CALLS}
    | {f"{name}.self_s": "s/op" for name in SELF_S}
    | {"presheaf.check_functoriality.total_s": "s/op"}
    | {name: "count/op" for name in COUNTS}
    | {
        "snc.zero_layer_frac": "ratio",
        "localmodel.monomials_kept_frac": "ratio",
        "trace.op_s": "s",
        "trace.overhead_frac": "ratio",
    }
)


def run_op(cli, op: workloads.Op, path: str) -> tuple[float, list[str]]:
    """Time one CLI call and return its wall seconds and its mismatches with the oracle."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([op.command, path, "--json"])
        elapsed = perf_counter() - start
        text = out.getvalue()
        result = json.loads(text)["result"] if text else None
    except Exception:  # a traceback is a failed op; the run goes on
        return perf_counter() - start, ["traceback: " + traceback.format_exc(limit=4)]
    problems = oracle.mismatches(op.expect, op.code, code, result)
    if problems and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip())
    return elapsed, problems


def set_up(name: str, seed: int, smoke: bool, docs: Path):
    """Import dualcech, generate the workload's documents, run one warm-up op.

    Returns the seconds at the reference pace (``pace.timed``) first.
    Only the warm-up document is written inside the timed part: writing
    hundreds of small files costs the file system, not the program, and
    varies by tens of milliseconds from one run to the next.
    """

    def body():
        cli = importlib.import_module("dualcech.cli")
        ops = workloads.make_ops(name, seed, smoke)
        paths = [docs / f"{k:03d}.json" for k in range(len(ops))]
        paths[0].write_text(json.dumps(ops[0].doc), encoding="utf-8")
        _, problems = run_op(cli, ops[0], str(paths[0]))
        return cli, ops, paths, problems

    (cli, ops, paths, problems), seconds = pace.timed(body)
    for op, path in zip(ops[1:], paths[1:]):
        path.write_text(json.dumps(op.doc), encoding="utf-8")
    return seconds, cli, ops, [str(path) for path in paths], problems


# a cold set-up in a fresh interpreter; prints its seconds and whether its warm-up op passed
COLD_SET_UP = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import run; "
    "seconds, _, _, _, problems = run.set_up(sys.argv[3], int(sys.argv[4]), False, run.Path(sys.argv[5])); "
    "print(seconds, not problems)"
)


def cold_set_up(name: str, seed: int, src: Path, docs: Path) -> tuple[float, list[str]]:
    docs.mkdir()
    command = [sys.executable, "-c", COLD_SET_UP, str(Path(__file__).parent), str(src), name, str(seed), str(docs)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        return float("nan"), [f"cold set-up exited {done.returncode}: {done.stderr.strip()}"]
    seconds, passed = done.stdout.split()
    return float(seconds), [] if passed == "True" else ["cold set-up: warm-up op failed"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def record(self, op: workloads.Op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((op.shape, problems))


def end_to_end(cli, ops, paths, seconds: float, tally: Tally, between=None) -> dict[str, float]:
    """Whole cycles over the documents for ``seconds``, so every run weighs them alike.

    At least MIN_CYCLES run.  A reference (``pace``) runs before the first
    op and after each op, outside its time; every op's wall seconds are
    scaled to the reference pace beside it.  ``between`` is called after
    each ``seconds / SET_UPS`` of timed work, outside the timed loop.
    """
    times = []
    refs = [pace.measure()]
    cycles = 0
    wall = 0.0
    next_call = seconds / SET_UPS
    while cycles < MIN_CYCLES or wall < seconds:
        start = perf_counter()
        for op, path in zip(ops, paths):
            elapsed, problems = run_op(cli, op, path)
            refs.append(pace.measure())
            times.append(elapsed)
            tally.record(op, problems)
            if between and wall + perf_counter() - start >= next_call:
                wall += perf_counter() - start
                between()
                next_call += seconds / SET_UPS
                start = perf_counter()
        wall += perf_counter() - start
        cycles += 1
    paced = [t * pace.NOMINAL_S / pace.around(refs, k) for k, t in enumerate(times)]
    return {
        "op_s.p50": statistics.median(paced),
        "op_s.p90": statistics.quantiles(paced, n=10, method="inclusive")[8],
        "ops_per_s": len(paced) / sum(paced),
    }


def per_layer(cli, ops, paths, seconds: float, tally: Tally, spans_path: Path) -> dict[str, float]:
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    traced_ops = 0
    start = perf_counter()
    while traced_ops == 0 or perf_counter() - start < seconds:
        # untraced, traced, traced, untraced: this order cancels both a slow
        # drift of the machine and the first pass of a round running slower
        for traced in (False, True, True, False):
            if traced:
                tracer.install()
            try:
                for op, path in zip(ops, paths):
                    tracer.current_op = traced_ops
                    elapsed, problems = run_op(cli, op, path)
                    wall[traced] += elapsed
                    traced_ops += traced
                    tally.record(op, problems)
            finally:
                tracer.uninstall()
    calls, self_s, total_s = tracer.totals()
    counters = tracer.counters
    metrics = {f"{name}.calls": calls.get(name, 0) / traced_ops for name in CALLS}
    for name in SELF_S:
        if name == "formats.parse":
            seconds_total = sum(v for k, v in self_s.items() if k.startswith("formats.parse_"))
        else:
            seconds_total = self_s.get(name, 0.0)
        metrics[f"{name}.self_s"] = seconds_total / traced_ops
    metrics["presheaf.check_functoriality.total_s"] = (
        total_s.get("presheaf.check_functoriality", 0.0) / traced_ops
    )
    for name in COUNTS:
        metrics[name] = counters[name] / traced_ops
    layers = calls.get("presheaf.presheaf_cohomology", 0)
    zero = counters["presheaf.presheaf_cohomology.zero_layers"]
    metrics["snc.zero_layer_frac"] = zero / layers if layers else 0.0
    enumerated = counters["localmodel.monomials_enumerated"]
    kept = counters["localmodel.monomials_kept"]
    metrics["localmodel.monomials_kept_frac"] = kept / enumerated if enumerated else 0.0
    metrics["trace.op_s"] = wall[True] / traced_ops
    metrics["trace.overhead_frac"] = wall[True] / wall[False] - 1
    spans_path.parent.mkdir(exist_ok=True)
    with gzip.open(spans_path, "wt", compresslevel=1, encoding="utf-8") as handle:
        tracer.write(handle)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="the two cheapest documents, one set-up: a self-test, not a measurement"
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dualcech" / "__init__.py").is_file():
        print(f"error: no dualcech package under {src}", file=sys.stderr)
        return 2
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))

    tally = Tally()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        seconds, cli, ops, paths, problems = set_up(args.workload, args.seed, args.smoke, Path(tmp))
        setups = [seconds]
        tally.record(ops[0], problems)
        if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported dualcech from {cli.__file__}, not from {src}", file=sys.stderr)
            return 2
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            values = per_layer(cli, ops, paths, args.seconds, tally, spans_path)
            units = PER_LAYER
        else:

            def repeat_set_up():
                # the machine's speed drifts over seconds: set-ups spread
                # over the run weigh that drift as the op times do
                seconds, problems = cold_set_up(args.workload, args.seed, src, Path(tmp) / f"cold{len(setups)}")
                setups.append(seconds)
                tally.record(ops[0], problems)

            values = end_to_end(cli, ops, paths, args.seconds, tally, None if args.smoke else repeat_set_up)
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["ok_frac"] = 1 - len(tally.failures) / tally.attempted
            units = END_TO_END

    for shape, problems in tally.failures[:5]:
        print(f"FAILED {args.workload} {shape}: {'; '.join(problems)}", file=sys.stderr)
    report = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 1 if tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
