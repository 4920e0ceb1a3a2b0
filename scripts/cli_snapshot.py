#!/usr/bin/env python3
"""Fingerprint every CLI command on every example input.

    PYTHONPATH=src python3 scripts/cli_snapshot.py > snapshot.txt

Runs each command of ``dualcech.cli`` on each ``inputs/*.json`` document,
and then on each ``tests/data/*.json`` document, once as text and once
with ``--json``, in this process through ``cli.main``.  Prints one line per
run: command, input (its name for ``inputs/``, its path from the
repository root otherwise), mode, exit code, and the sha256 of stdout and
of stderr.  The absolute document path is replaced by its path from the
repository root before hashing, so the output of two checkouts can be
compared with ``diff``: identical output means every report, verdict and
error message is unchanged.  An exception that escapes ``cli.main`` is
recorded as the exit code ``raised:<type>``.

``tests/data/cli_snapshot.txt`` holds the expected output, and
``tests/test_cli.py`` regenerates it in-process and compares.  When a
report changes on purpose, rewrite that file with the command above.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dualcech import cli


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(command: str, shown: str, label: str, as_json: bool) -> str:
    path = os.path.join(ROOT, shown)
    argv = [command, path] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # the CLI contract forbids this; record it
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    mode = "json" if as_json else "text"
    return (
        f"{command} {label} {mode} exit={code} "
        f"stdout={_digest(out.getvalue().replace(path, shown))} "
        f"stderr={_digest(err.getvalue().replace(path, shown))}"
    )


def documents() -> list[tuple[str, str]]:
    """(path from the repository root, label) of every document, in order."""
    out = []
    for directory in ("inputs", "tests/data"):
        for name in sorted(os.listdir(os.path.join(ROOT, directory))):
            if name.endswith(".json"):
                shown = f"{directory}/{name}"
                out.append((shown, name if directory == "inputs" else shown))
    return out


def lines():
    """One fingerprint line per command, input and mode, in a fixed order."""
    docs = documents()
    for command in cli.COMMANDS:
        for shown, label in docs:
            for as_json in (False, True):
                yield run(command, shown, label, as_json)


def main() -> None:
    for line in lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
