#!/usr/bin/env python3
"""Compare the CLI output of two checkouts, reading --json reports as JSON values.

    python3 scripts/compare_reports.py PARENT_TREE CHANGE_TREE

Runs each tree's own ``scripts/cli_snapshot.py`` (every command on every
document, as text and with ``--json``, then the help and usage runs) in a
fresh interpreter, keeping each run's stdout and stderr instead of their
digests.  A text, help or usage run must match in exit code, stdout and
stderr byte for byte; a ``--json`` run in exit code and stderr, and its
stdout must be equal or parse to equal JSON values.  Prints each run that
fails that, then one summary line, and exits 1 if any run failed it, the
two trees ran different lists of runs, or either snapshot script failed.
A change that only re-encodes reports passes with its rewritten JSON runs
counted.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# in the child: each digest is replaced by the index of the text it would hash
RAW = """
import json, runpy, sys
texts = []
def keep(text):
    texts.append(text)
    return str(len(texts) - 1)
snapshot = runpy.run_path(sys.argv[1], run_name="cli_snapshot")["lines"].__globals__
snapshot["_digest"] = keep
print(json.dumps([list(snapshot["lines"]()), texts]))
"""


def raw_runs(tree: Path) -> list[tuple[str, str, str, str]]:
    """(label up to the exit code, exit code, stdout, stderr) of each of ``tree``'s snapshot runs."""
    script = tree / "scripts" / "cli_snapshot.py"
    proc = subprocess.run([sys.executable, "-c", RAW, str(script)], capture_output=True, text=True)
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exited {proc.returncode}"]
        raise SystemExit(f"error: {script}: {last[0]}")
    lines, texts = json.loads(proc.stdout)
    out = []
    for line in lines:
        label, rest = line.split(" exit=")
        code, stdout, stderr = rest.split(" ")
        out.append((label, code, texts[int(stdout.removeprefix("stdout="))], texts[int(stderr.removeprefix("stderr="))]))
    return out


def same_json(a: str, b: str) -> bool:
    try:
        return json.loads(a) == json.loads(b)
    except ValueError:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = (raw_runs(tree.resolve()) for tree in (args.parent, args.change))
    if [run[0] for run in parent] != [run[0] for run in change]:
        print("error: the two trees run different lists of commands, documents or modes", file=sys.stderr)
        return 1
    failed = rewritten = 0
    for (label, *old), (_, *new) in zip(parent, change):
        if old == new:
            continue
        json_mode = label.split(" ")[2:3] == ["json"] and not label.startswith("usage ")
        if json_mode and old[0] == new[0] and old[2] == new[2] and same_json(old[1], new[1]):
            rewritten += 1
            continue
        failed += 1
        print(f"differs: {label} exit={old[0]} -> exit={new[0]}")
    print(f"{len(parent)} runs: {len(parent) - failed - rewritten} identical, {rewritten} json rewritten to equal values, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
