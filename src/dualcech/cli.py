"""Command-line interface.

Every command reads one JSON document of one kind and writes a report, as
aligned text by default or as JSON with --json.  ``COMMANDS`` is the one
table of commands: each row names the document kind, the handler and the
command's one extra option, if it has one.  The kind is checked before
the document is parsed: ``complex`` for betti and integral, ``presheaf``
for presheaf-cohomology, ``fan`` for toric, ``localmodel`` for
verify-lemma31, ``bicomplex`` for bicomplex-pages and degeneration, and
``divisor`` for the other seven.  Exit codes: 0 on success, 1 on bad
input, 2 when the computation ran but a verified identity failed (a
complex that is not exact, a Hodge mismatch, a failed degeneration, a
flagged rationality obstruction).

A command line that starts with a command is parsed by that command's
subparser alone, not by the top-level parser and then again by the
subparser; ``_parse_args`` says why the two give the same namespace.
Whatever the subparser leaves over, and a line that starts with no
command, goes through the full two-level parse, so every help, usage and
error text is argparse's own.

Modules load on first use.  At module level this file imports only
``formats`` and ``errors`` (``formats`` brings ``exactla``); each handler
reads the layers it calls off the package (``dualcech.localmodel``),
which imports a submodule the first time it is named.  A process that
runs one command, as the shell does, then compiles and runs only that
command's modules: ``verify-lemma31`` never loads the simplicial,
presheaf, SNC, bicomplex or toric layers.  After the first call the read
is a plain module attribute: an import statement in the handler would run
the import system's Python code on every call, about 2% of a
``verify-lemma31`` call.  Calls still go through module attributes, so
a wrapper set on ``localmodel.verify_exactness`` is the function called.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import dualcech

from . import formats
from .errors import (
    CheckFailed,
    HodgeMismatch,
    InputError,
    InvalidInput,
    SchemaError,
)

if TYPE_CHECKING:
    from . import bicomplex, snc


def _report_summands(report: snc.CohomologyReport) -> list[dict]:
    return [
        {"p": s.p, "q": s.q, "dim": s.dim, "source": s.source}
        for s in sorted(report.summands, key=lambda s: (s.q, s.p))
    ]


def _cohomology_result(report: snc.CohomologyReport) -> dict:
    return {
        "totals": list(report.totals),
        "summands": _report_summands(report),
        "alternating_sum": report.alternating_sum(),
    }


def _grid(page: bicomplex.SpectralPage, width: int, height: int) -> list[list[int]]:
    return [[page.dim(p, q) for p in range(width + 1)] for q in range(height + 1)]


def cmd_dual_complex(divisor, doc, args):
    simplicial, snc = dualcech.simplicial, dualcech.snc
    delta = snc.dual_complex(divisor)
    return {
        "dimension": delta.dim,
        "simplex_count": len(delta.simplices),
        "simplices": [list(s) for s in sorted(delta.simplices, key=lambda s: (len(s), s))],
        "euler_characteristic": simplicial.euler_characteristic(delta),
    }, 0


def cmd_betti(complex_, doc, args):
    simplicial = dualcech.simplicial
    return {
        "betti": simplicial.betti_numbers(complex_),
        "euler_characteristic": simplicial.euler_characteristic(complex_),
    }, 0


def cmd_integral(complex_, doc, args):
    simplicial = dualcech.simplicial
    rows = [
        {"degree": p, "free_rank": free, "torsion": torsion}
        for p, (free, torsion) in enumerate(simplicial.integral_cohomology(complex_))
    ]
    return {"degrees": rows}, 0


def cmd_presheaf_cohomology(v, doc, args):
    presheaf = dualcech.presheaf
    complex_ = presheaf.cech_complex(v)
    return {
        "cohomology": complex_.cohomology(),
        "space_dims": list(complex_.space_dims),
    }, 0


def cmd_snc_cohomology(divisor, doc, args):
    snc = dualcech.snc
    return _cohomology_result(snc.structure_sheaf_cohomology(divisor)), 0


def cmd_forms(divisor, doc, args):
    snc = dualcech.snc
    result = _cohomology_result(snc.reduced_forms_cohomology(divisor, args.form_degree))
    result["form_degree"] = args.form_degree
    return result, 0


def cmd_derham(divisor, doc, args):
    snc = dualcech.snc
    return _cohomology_result(snc.derham_cohomology(divisor)), 0


def _hodge_result(table: snc.HodgeTable, match: bool) -> dict:
    return {
        "table": [list(row) for row in table.entries],
        "row_sums": list(table.row_sums),
        "column_sums": list(table.column_sums),
        "antidiagonal_sums": list(table.antidiagonal_sums),
        "derham_totals": list(table.derham_totals),
        "match": match,
    }


def cmd_hodge(divisor, doc, args):
    snc = dualcech.snc
    try:
        table = snc.hodge_decomposition(divisor)
    except HodgeMismatch as exc:
        result = _hodge_result(exc.table, match=False)
        result["mismatch"] = str(exc)
        result["diagnostics"] = exc.diagnostics
        return result, 2
    return _hodge_result(table, match=True), 0


def cmd_euler(divisor, doc, args):
    simplicial, snc = dualcech.simplicial, dualcech.snc
    delta = snc.dual_complex(divisor)
    return {
        "sheaf_euler_characteristic": snc.sheaf_euler_characteristic(divisor),
        "dual_complex_euler_characteristic": simplicial.euler_characteristic(delta),
    }, 0


def cmd_toric(fan_and_selected, doc, args):
    simplicial, toric = dualcech.simplicial, dualcech.toric
    fan, selected = fan_and_selected
    # the totals are the Betti numbers of the dual complex; checked_boundary
    # refuses a selected stratum that is not complete.  Projectivity is the
    # caller's assertion
    certificate, delta = toric.checked_boundary(fan, selected)
    totals = simplicial.betti_numbers(delta)
    # one Euler cross-check: face numbers against the alternating sum of the totals
    return {
        "smooth": True,
        "completeness": certificate,
        "selected_rays": sorted(set(selected)),
        "totals": totals,
        "dual_complex_euler_characteristic": simplicial.euler_characteristic(delta),
        "sheaf_euler_characteristic": sum((-1) ** k * t for k, t in enumerate(totals)),
    }, 0


def cmd_verify_lemma31(spec, doc, args):
    localmodel = dualcech.localmodel
    if args.degree_bound is not None:
        spec = localmodel.make_local_model(
            spec.ambient, spec.components, spec.multiplicities, args.degree_bound
        )
    verdict = localmodel.verify_exactness(spec)
    result = {
        "exact": verdict.exact,
        "degree_bound": verdict.degree_bound,
        "per_degree": [
            {"degree": k, "homology": list(row)} for k, row in enumerate(verdict.homology)
        ],
        "verdict_text": (
            f"exact in all degrees <= {verdict.degree_bound}"
            if verdict.exact
            else f"not exact; failing (degree, joint) pairs: {verdict.failures()}"
        ),
    }
    return result, 0 if verdict.exact else 2


def cmd_bicomplex_pages(b, doc, args):
    bicomplex = dualcech.bicomplex
    max_page = args.max_page if args.max_page is not None else 3
    if max_page < 0:
        raise InvalidInput("max page must be nonnegative")
    pages = {}
    for r in range(min(max_page, 2) + 1):
        pages[f"E{r}"] = _grid(bicomplex.page(b, r), b.width, b.height)
    if max_page >= 3:
        pages["Einf"] = _grid(bicomplex.page_infinity(b), b.width, b.height)
    return {
        "width": b.width,
        "height": b.height,
        "pages": pages,
        "total_cohomology": bicomplex.total_cohomology(b),
    }, 0


def cmd_degeneration(b, doc, args):
    bicomplex = dualcech.bicomplex
    e2 = bicomplex.page(b, 2)
    einf = bicomplex.page_infinity(b)
    ok = e2.dims == einf.dims
    return {
        "degenerates_at_second_page": ok,
        "E2": _grid(e2, b.width, b.height),
        "Einf": _grid(einf, b.width, b.height),
    }, 0 if ok else 2


def cmd_rational_check(divisor, doc, args):
    snc = dualcech.snc
    if "rational_check" not in doc:
        raise SchemaError("/rational_check", "missing required section for this command")
    claimed, sections_presheaf, unit = formats.parse_rational_check(
        doc["rational_check"], divisor, "/rational_check"
    )
    report = snc.rational_singularity_check(divisor, claimed, sections_presheaf, unit)
    result = {
        "betti": list(report.betti),
        "scheme_cohomology": list(report.scheme_cohomology),
        "complement_cohomology": list(report.complement_cohomology),
        "inclusion_holds": report.inclusion_holds,
        "claimed_rational": report.claimed_rational,
        "obstruction_degrees": list(report.obstruction_degrees),
        "conditional_on": report.conditional_on,
    }
    failed = report.claimed_rational and bool(report.obstruction_degrees)
    return result, 2 if failed else 0


class Command(NamedTuple):
    """A row of ``COMMANDS``: the document kind a command reads, its handler and its one extra option.

    ``main`` checks the document's kind against ``kind`` before anything is
    parsed, parses the document with the kind's parser and calls
    ``handler(parsed, doc, args)``; only ``rational-check`` reads ``doc``,
    for its ``rational_check`` section.  ``option`` is the flag of an
    integer option with ``default`` and ``help``; the report's ``options``
    echo its value unless that is None.
    """

    kind: str
    handler: Callable[[Any, dict, argparse.Namespace], tuple[dict, int]]
    option: str | None = None
    default: int | None = None
    help: str | None = None


COMMANDS = {
    "dual-complex": Command("divisor", cmd_dual_complex),
    "betti": Command("complex", cmd_betti),
    "integral": Command("complex", cmd_integral),
    "presheaf-cohomology": Command("presheaf", cmd_presheaf_cohomology),
    "snc-cohomology": Command("divisor", cmd_snc_cohomology),
    "forms": Command("divisor", cmd_forms, "--form-degree", 0),
    "derham": Command("divisor", cmd_derham),
    "hodge": Command("divisor", cmd_hodge),
    "euler": Command("divisor", cmd_euler),
    "toric": Command("fan", cmd_toric),
    "verify-lemma31": Command("localmodel", cmd_verify_lemma31, "--degree-bound"),
    "bicomplex-pages": Command(
        "bicomplex", cmd_bicomplex_pages, "--max-page", help="highest page to print; 3 or more includes the limit page"
    ),
    "degeneration": Command("bicomplex", cmd_degeneration),
    "rational-check": Command("divisor", cmd_rational_check),
}


def _render_value(value, indent=""):
    lines = []
    if isinstance(value, dict):
        width = max((len(str(k)) for k in value), default=0)
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner and not _is_flat(inner):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_value(inner, indent + "  "))
            else:
                lines.append(f"{indent}{str(key).ljust(width)}  {_flat(inner)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.extend(_render_value(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_flat(item)}")
    else:
        lines.append(f"{indent}{_flat(value)}")
    return lines


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    if isinstance(value, dict):
        return all(not isinstance(x, (dict, list)) for x in value.values())
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "(" + ", ".join(_flat(x) for x in value) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_flat(v)}" for k, v in value.items()) + "}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"input: {report['input']}"]
    lines.extend(_render_value(report["result"]))
    lines.append(f"ok: {_flat(report['ok'])}")
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    It holds no state from any input: ``parse_args`` returns a fresh
    namespace on every call, and help and usage errors go to the streams
    current at that call.  ``parser.commands`` maps each command to its
    subparser, the subparsers action's own ``choices``.
    """
    parser = argparse.ArgumentParser(
        prog="dualcech",
        description=(
            "Exact cohomology of normal crossings configurations from incidence "
            "data and per-stratum cohomology tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("input", help="path to a JSON input document")
        cmd.add_argument("--json", action="store_true", help="emit the report as JSON")
        cmd.add_argument(
            "--field",
            default="rational",
            choices=["rational"],
            help="coefficient field (reserved; only 'rational' is implemented)",
        )
        if command.option is not None:
            cmd.add_argument(command.option, type=int, default=command.default, help=command.help)
    parser.commands = sub.choices
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, parsed by the command's subparser alone where that gives the same.

    When ``argv[0]`` names a command, its subparser parses ``argv[1:]``
    into a namespace that already carries ``command``.  That is the work
    ``parser.parse_args`` does, less its own pass over ``argv``: the
    top-level parser's only option is ``-h``, and its subparsers action
    takes the command and hands every argument after it, ``-h`` and
    ``--`` included, to the subparser, which parses them into a fresh
    namespace whose attributes are then set on one holding ``command``.
    So whenever the subparser leaves nothing over, the two namespaces are
    equal, and a help text or usage error raised on the way is the
    subparser's in both.  What the subparser leaves over, and an ``argv``
    that starts with no command (help, an unknown command, nothing at
    all), goes to ``parser.parse_args``, so every other message stays
    argparse's own.
    """
    subparser = parser.commands.get(argv[0]) if argv else None
    if subparser is not None:
        args, extras = subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(build_parser(), sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # keep exit code 2 reserved for failed identity checks; argparse
        # usage errors are input errors
        return 0 if exc.code == 0 else 1
    command = COMMANDS[args.command]
    try:
        doc = formats.load_document(args.input)
        if doc["kind"] != command.kind:
            raise SchemaError(
                "/kind", f"command {args.command!r} expects a document of kind {command.kind}"
            )
        result, code = command.handler(formats.parse_document(doc), doc, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema_version": formats.SCHEMA_VERSION,
        "command": args.command,
        "input": args.input,
        "options": _echo_options(command, args),
        "ok": code == 0,
        "result": result,
    }
    if args.json:
        sys.stdout.write(formats.render_report(report))
    else:
        sys.stdout.write(render_text(report))
    return code


def _echo_options(command: Command, args) -> dict:
    if command.option is None:
        return {}
    key = command.option[2:].replace("-", "_")  # argparse's dest for the flag
    value = getattr(args, key)
    return {} if value is None else {key: value}


def console_main() -> None:
    sys.exit(main())

