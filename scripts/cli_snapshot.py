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
recorded as the exit code ``raised:<type>``.  Then it runs the parser's
help and usage paths: ``--help``, each command's ``--help``, an unknown
command, a command without its input and an unknown flag, one line each,
``usage`` and the arguments, exit code and both digests; the help text
is argparse's, at 80 columns, so it can differ between Python versions.

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
from unittest import mock

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dualcech import cli


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call(argv: list[str]) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # the CLI contract forbids this; record it
            code = f"raised:{type(exc).__name__}"
            print(exc, file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def run(command: str, shown: str, label: str, as_json: bool) -> str:
    path = os.path.join(ROOT, shown)
    code, out, err = call([command, path] + (["--json"] if as_json else []))
    mode = "json" if as_json else "text"
    return (
        f"{command} {label} {mode} exit={code} "
        f"stdout={_digest(out.replace(path, shown))} "
        f"stderr={_digest(err.replace(path, shown))}"
    )


def usage_lines() -> list[str]:
    """One fingerprint line per help text and usage error: ``usage``, the arguments, exit code and digests.

    The parser rejects the arguments before any document is read, so
    ``doc.json`` need not exist.  argparse wraps its text to the
    ``COLUMNS`` of the environment, fixed at 80 for these runs.
    """
    runs = [
        ["--help"],
        *([command, "--help"] for command in cli.COMMANDS),
        ["no-such-command", "doc.json"],
        ["betti"],
        ["betti", "doc.json", "--no-such-flag"],
    ]
    out = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in runs:
            code, stdout, stderr = call(argv)
            out.append(f"usage {' '.join(argv)} exit={code} stdout={_digest(stdout)} stderr={_digest(stderr)}")
    return out


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
    """One fingerprint line per command, input and mode, then per help or usage run, in a fixed order."""
    docs = documents()
    for command in cli.COMMANDS:
        for shown, label in docs:
            for as_json in (False, True):
                yield run(command, shown, label, as_json)
    yield from usage_lines()


def main() -> None:
    for line in lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
