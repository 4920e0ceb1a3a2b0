#!/usr/bin/env python3
"""Fingerprint every CLI command on every example input.

    PYTHONPATH=src python3 scripts/cli_snapshot.py > snapshot.txt

Runs each command of ``dualcech.cli`` on each ``inputs/*.json`` document,
once as text and once with ``--json``, in this process through
``cli.main``.  Prints one line per run: command, input, mode, exit code,
and the sha256 of stdout and of stderr.  The document path is replaced by
``inputs/<name>`` before hashing, so the output of two checkouts can be
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


def run(command: str, name: str, as_json: bool) -> str:
    path = os.path.join(ROOT, "inputs", name)
    argv = [command, path] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # the CLI contract forbids this; record it
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    shown = f"inputs/{name}"
    mode = "json" if as_json else "text"
    return (
        f"{command} {name} {mode} exit={code} "
        f"stdout={_digest(out.getvalue().replace(path, shown))} "
        f"stderr={_digest(err.getvalue().replace(path, shown))}"
    )


def lines():
    """One fingerprint line per command, input and mode, in a fixed order."""
    names = sorted(n for n in os.listdir(os.path.join(ROOT, "inputs")) if n.endswith(".json"))
    for command in cli.COMMANDS:
        for name in names:
            for as_json in (False, True):
                yield run(command, name, as_json)


def main() -> None:
    for line in lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
