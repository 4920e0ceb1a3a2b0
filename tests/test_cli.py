import contextlib
import copy
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualcech import cli, formats, simplicial
from dualcech.errors import DualCechError

from helpers import (
    bicomplex_document,
    cli_outcome,
    conjugate_bicomplex,
    direct_sum_bicomplex,
    disguised_rays,
    dispatch_corpus,
    dispatch_mismatches,
    oracle_betti,
    plain_args_mismatch,
    schema_errors,
    simplex_boundary_cochains,
    tensor_bicomplex,
    zigzag_bicomplex,
)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
INPUTS = os.path.join(ROOT, "inputs")


def input_path(name: str) -> str:
    return os.path.join(INPUTS, name)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def load_schema(name: str) -> dict:
    with open(os.path.join(ROOT, "schemas", name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_snc_cohomology_hyperplanes(capsys):
    code, report = run_json(capsys, "snc-cohomology", input_path("pn_hyperplanes_4.json"))
    assert code == 0
    assert report["result"]["totals"] == [1, 0, 0, 1]


def test_verify_lemma31(capsys):
    code, report = run_json(capsys, "verify-lemma31", input_path("lm_2_1_1.json"))
    assert code == 0
    assert report["result"]["exact"] is True
    assert report["result"]["verdict_text"] == "exact in all degrees <= 6"


def test_verify_lemma31_degree_bound_flag(capsys):
    code, report = run_json(
        capsys, "verify-lemma31", input_path("lm_2_1_1.json"), "--degree-bound", "3"
    )
    assert code == 0
    assert report["result"]["degree_bound"] == 3
    assert report["options"] == {"degree_bound": 3}


def test_verify_lemma31_huge_multiplicity(capsys, tmp_path):
    # a multiplicity far past an explicit degree bound costs nothing extra
    doc = {
        "schema_version": 1,
        "kind": "localmodel",
        "n": 2,
        "components": [1, 2],
        "multiplicities": [10**12, 1],
        "degree_bound": 2,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify-lemma31", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["result"]["exact"] is True


def test_verify_lemma31_wide_ambient(capsys, tmp_path):
    # more coordinates than the interpreter's default recursion limit
    doc = {
        "schema_version": 1,
        "kind": "localmodel",
        "n": 1200,
        "components": [1],
        "multiplicities": [1],
        "degree_bound": 1,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify-lemma31", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["result"]["exact"] is True


def test_betti_empty(capsys):
    code, report = run_json(capsys, "betti", input_path("empty.json"))
    assert code == 0
    assert report["result"]["betti"] == []


def test_betti_triangle(capsys):
    code, report = run_json(capsys, "betti", input_path("triangle_boundary.json"))
    assert code == 0
    assert report["result"]["betti"] == [1, 1]


def test_betti_on_a_huge_vertex_range_within_budget(capsys, tmp_path):
    # a circle on three vertices near 10**12 and the isolated vertex 0: a
    # cell keyed by its vertices stays a few words wide, where one bit per
    # vertex index would take 125 GB
    n = 10**12
    facets = [[0], [n - 3, n - 2], [n - 3, n - 1], [n - 2, n - 1]]
    path = tmp_path / "huge_range.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "complex", "vertex_count": n, "facets": facets}))
    start = time.perf_counter()
    code, report = run_json(capsys, "betti", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0
    expected = oracle_betti(simplicial.from_facets(n, facets))
    assert report["result"]["betti"] == expected == [2, 1]


def test_integral_projective_plane(capsys):
    code, report = run_json(capsys, "integral", input_path("projective_plane.json"))
    assert code == 0
    assert report["result"]["degrees"][2] == {"degree": 2, "free_rank": 0, "torsion": [2]}


def test_dual_complex_command(capsys):
    code, report = run_json(capsys, "dual-complex", input_path("elliptic_triangle.json"))
    assert code == 0
    assert report["result"]["dimension"] == 1
    assert report["result"]["simplex_count"] == 6


def test_presheaf_cohomology_command(capsys):
    code, report = run_json(
        capsys, "presheaf-cohomology", input_path("vertex_presheaf_triangle.json")
    )
    assert code == 0
    assert report["result"]["cohomology"] == [3, 0]


def test_forms_command(capsys):
    code, report = run_json(
        capsys, "forms", input_path("three_lines_p2.json"), "--form-degree", "1"
    )
    assert code == 0
    assert report["result"]["totals"] == [0, 3, 0]


def test_presheaf_zero_restrictions_shorthand(capsys, tmp_path):
    doc = {
        "kind": "presheaf",
        "complex": {"vertex_count": 3, "facets": [[0, 1], [0, 2], [1, 2]]},
        "dims": {"0": 1, "1": 1, "2": 1, "0,1": 1, "0,2": 1, "1,2": 1},
        "restrictions": "zero",
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "presheaf-cohomology", str(path))
    assert code == 0
    assert report["result"]["cohomology"] == [3, 3]


def test_forms_defaults_to_structure_sheaf(capsys):
    _, with_default = run_json(capsys, "forms", input_path("three_lines_p2.json"))
    _, structure = run_json(capsys, "snc-cohomology", input_path("three_lines_p2.json"))
    assert with_default["result"]["totals"] == structure["result"]["totals"]


def test_divisor_with_explicit_restriction_matrices(capsys, tmp_path):
    doc = {
        "kind": "divisor",
        "components": [{"name": "S0", "dim": 2}, {"name": "S1", "dim": 2}],
        "strata": [[0], [1], [0, 1]],
        "tables": [
            {"tuple": [0], "r": 0, "q": 0, "dim": 1, "restriction": "constant"},
            {"tuple": [0], "r": 0, "q": 1, "dim": 1},
            {"tuple": [0], "r": 0, "q": 2, "dim": 0},
            {"tuple": [1], "r": 0, "q": 0, "dim": 1, "restriction": "constant"},
            {"tuple": [1], "r": 0, "q": 1, "dim": 1},
            {"tuple": [1], "r": 0, "q": 2, "dim": 0},
            {"tuple": [0, 1], "r": 0, "q": 0, "dim": 1, "restriction": "constant"},
            {
                "tuple": [0, 1],
                "r": 0,
                "q": 1,
                "dim": 1,
                "restriction": {"matrices": {"0": [["1"]], "1": [["1"]]}},
            },
        ],
    }
    path = tmp_path / "surfaces.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "snc-cohomology", str(path))
    assert code == 0
    assert report["result"]["totals"] == [1, 1, 0]


def test_derham_command(capsys):
    code, report = run_json(capsys, "derham", input_path("three_lines_p2.json"))
    assert code == 0
    assert report["result"]["totals"] == [1, 1, 3, 0]


def test_hodge_command(capsys):
    code, report = run_json(capsys, "hodge", input_path("three_lines_p2.json"))
    assert code == 0
    assert report["result"]["match"] is True
    assert report["result"]["antidiagonal_sums"] == [1, 1, 3, 0]


def test_hodge_mismatch_exit_code(capsys, tmp_path):
    with open(input_path("three_lines_p2.json"), "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    for row in doc["tables"]:
        if row["tuple"] == [0] and row.get("r") == 1 and row["q"] == 1:
            row["dim"] += 1
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    code, report = run_json(capsys, "hodge", str(bad))
    assert code == 2
    assert report["ok"] is False
    assert report["result"]["match"] is False
    assert report["result"]["diagnostics"]["stratum_derham_consistent"] is False


def test_euler_command(capsys):
    code, report = run_json(capsys, "euler", input_path("elliptic_triangle.json"))
    assert code == 0
    assert report["result"]["sheaf_euler_characteristic"] == -3
    assert report["result"]["dual_complex_euler_characteristic"] == 0


def test_toric_command(capsys):
    code, report = run_json(capsys, "toric", input_path("p1xp1_fan.json"))
    assert code == 0
    assert report["result"]["totals"] == [1, 1]
    assert report["result"]["completeness"] == "certified"


def test_bicomplex_pages_command(capsys):
    code, report = run_json(capsys, "bicomplex-pages", input_path("bicomplex_d2.json"))
    assert code == 0
    pages = report["result"]["pages"]
    assert pages["E2"] == [[0, 0, 1], [1, 0, 0]]
    assert pages["Einf"] == [[0, 0, 0], [0, 0, 0]]
    assert report["result"]["total_cohomology"] == [0, 0, 0, 0]


def test_bicomplex_pages_max_page(capsys):
    code, report = run_json(
        capsys, "bicomplex-pages", input_path("bicomplex_d2.json"), "--max-page", "1"
    )
    assert code == 0
    assert sorted(report["result"]["pages"]) == ["E0", "E1"]
    # a negative page is refused, like a negative --form-degree or --degree-bound
    assert run_cli(capsys, "bicomplex-pages", input_path("bicomplex_d2.json"), "--max-page", "-1") == (1, "")


def test_degeneration_failure_exit_code(capsys):
    code, report = run_json(capsys, "degeneration", input_path("bicomplex_d2.json"))
    assert code == 2
    assert report["ok"] is False
    assert report["result"]["degenerates_at_second_page"] is False


def test_degeneration_success(capsys):
    code, report = run_json(capsys, "degeneration", input_path("bicomplex_row.json"))
    assert code == 0
    assert report["result"]["degenerates_at_second_page"] is True


def test_degeneration_d3_staircase_exits_2(capsys):
    code, report = run_json(capsys, "degeneration", input_path("bicomplex_d3.json"))
    assert code == 2
    assert report["result"]["E2"] == [[0, 0, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0]]
    assert report["result"]["Einf"] == [[0] * 4] * 3


def test_bicomplex_pages_with_rational_entries(capsys):
    code, report = run_json(capsys, "bicomplex-pages", input_path("bicomplex_rational.json"))
    assert code == 0
    pages = report["result"]["pages"]
    assert [pages[k] for k in ("E0", "E1", "E2", "Einf")] == [
        [[6, 6], [3, 3]],
        [[3, 3], [0, 0]],
        [[1, 1], [0, 0]],
        [[1, 1], [0, 0]],
    ]


def test_boolean_matrix_entry_exits_1_with_its_path(capsys):
    assert cli.main(["degeneration", input_path("bicomplex_bad_entry.json")]) == 1
    assert "/horizontal/0/matrix/0/0" in capsys.readouterr().err


@pytest.mark.parametrize("a, b, zigzag", [(5, 5, False), (6, 5, False), (6, 5, True)])
def test_degeneration_on_disguised_sphere_products(capsys, tmp_path, a, b, zigzag):
    # the tensor product of the Cech cochains of two simplex boundaries has
    # E2 = E_inf = the Kunneth product of two sphere cohomologies; a zigzag
    # summand adds one nonzero d_2, whose two ends sit on E2 only
    bi = tensor_bicomplex(simplex_boundary_cochains(a), simplex_boundary_cochains(b))
    if zigzag:
        bi = direct_sum_bicomplex(bi, zigzag_bicomplex())
    bi = conjugate_bicomplex(random.Random(f"{a}x{b}{zigzag}"), bi)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(bicomplex_document(bi)))
    code, report = run_json(capsys, "degeneration", str(path))
    sphere = lambda n: [1 if k in (0, n - 2) else 0 for k in range(n - 1)]  # noqa: E731
    kunneth = [[x * y for x in sphere(a) + [0] * (bi.width + 2 - a)] for y in sphere(b)]
    result = report["result"]
    assert result["Einf"] == kunneth
    if zigzag:
        kunneth[1][0] += 1
        kunneth[0][2] += 1
    assert result["E2"] == kunneth
    assert (code, result["degenerates_at_second_page"]) == ((2, False) if zigzag else (0, True))


def test_rational_check_obstruction_exit_code(capsys):
    code, report = run_json(capsys, "rational-check", input_path("rational_triangle_check.json"))
    assert code == 2
    assert report["result"]["obstruction_degrees"] == [1]
    assert report["result"]["betti"] == [1, 1]
    assert report["result"]["scheme_cohomology"] == [4, 1]
    assert report["result"]["complement_cohomology"] == [3, 0]
    assert "unproven" in report["result"]["conditional_on"]


def test_rational_check_contractible(capsys):
    code, report = run_json(capsys, "rational-check", input_path("segment_rational_check.json"))
    assert code == 0
    assert report["result"]["obstruction_degrees"] == []


def test_usage_errors_exit_one(capsys):
    assert cli.main(["betti", input_path("empty.json"), "--field", "real"]) == 1
    assert cli.main(["no-such-command", "x.json"]) == 1


def test_parser_is_reused_without_carrying_state(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    lemma = input_path("lm_2_1_1.json")
    code, report = run_json(capsys, "verify-lemma31", lemma, "--degree-bound", "3")
    assert code == 0 and report["options"] == {"degree_bound": 3}
    code, report = run_json(capsys, "verify-lemma31", lemma)
    assert code == 0 and report["options"] == {}
    assert report["result"]["degree_bound"] == 6
    assert cli.main(["verify-lemma31", lemma, "--degree-bound", "three"]) == 1
    assert "usage: dualcech verify-lemma31" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: dualcech")
    reused = run_cli(capsys, "toric", input_path("p1xp1_fan.json"), "--json")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run_cli(capsys, "toric", input_path("p1xp1_fan.json"), "--json") == reused


def test_table_path_matches_the_full_parse(monkeypatch):
    # argparse's behaviour differs between Python versions, so CI runs this
    # test on the oldest and newest the package allows
    corpus = dispatch_corpus(INPUTS)
    assert dispatch_mismatches(INPUTS) == []
    # the corpus takes both paths
    read = sum(cli._plain_args(argv) is not None for argv in corpus)
    assert 0 < read < len(corpus)
    # and a report line never builds the parser
    def no_parser():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out, err = cli_outcome(["verify-lemma31", input_path("lm_2_1_1.json"), "--json"])
    assert code == 0 and json.loads(out)["result"]["exact"] is True and err == ""


# every flag in full and abbreviated, and values each path might read otherwise
ARGV_TOKENS = [
    *cli.COMMANDS,
    "--json", "--js", "--field", "--fi", "--degree-bound", "--degree", "--form-degree",
    "--form", "--max-page", "--max", "--help", "-h", "--", "rational", "real", "3", "-3",
    "x.json", "",
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(cli.COMMANDS)), st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
def test_table_path_namespace_matches_argparse(command, tokens):
    assert plain_args_mismatch([command, *tokens]) is None
    assert plain_args_mismatch(tokens) is None


A2_RESOLUTION = {"n": 2, "rays": [[1, 0], [1, 1], [1, 2], [1, 3]], "cones": [[0, 1], [1, 2], [2, 3]]}
WEDGE = {"n": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}
# the fan of P^3 and the ray (1, 1, 0) listed as a cone of its own, which the completeness test fails
STRAY_RAY = {
    "n": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 0]],
    "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [4]],
}
BOUNDARY_RAY = "the stratum of ray {0} is not complete: cone [{0}] is a facet of only one full-dimensional cone"


def test_toric_incomplete_fan_still_computes(capsys, tmp_path):
    # the interior rays of the A_2 resolution cut out the exceptional curves,
    # which are complete; the wedge's rays cut out affine lines
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"kind": "fan", **A2_RESOLUTION, "selected_rays": [1, 2]}))
    code, report = run_json(capsys, "toric", str(path))
    assert code == 0
    assert report["result"]["totals"] == [1, 0]
    assert report["result"]["completeness"].startswith("failed:")
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps({"kind": "fan", **WEDGE}))
    assert cli.main(["toric", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not complete" in captured.err


SINGULAR_FAN = {"n": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
P2_FAN = {"n": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize(
    "fan, selected, message",
    [
        (SINGULAR_FAN, None, "boundary components of a singular fan are not handled"),
        (P2_FAN, [], "select at least one ray"),
        (P2_FAN, [0, 3], "selected ray index out of range"),
        # smoothness is a property of the fan and is refused before the selection
        (SINGULAR_FAN, [], "boundary components of a singular fan are not handled"),
        (A2_RESOLUTION, None, BOUNDARY_RAY.format(0)),
        (WEDGE, None, BOUNDARY_RAY.format(0)),
        (A2_RESOLUTION, [2, 3], BOUNDARY_RAY.format(3)),
        (STRAY_RAY, [0, 4], "the stratum of ray 4 is not complete: cone [4] is maximal with fewer than 3 rays"),
        # an incomplete stratum is refused after the selection is validated
        (WEDGE, [0, 2], "selected ray index out of range"),
    ],
    ids=[
        "singular",
        "empty-selection",
        "out-of-range",
        "singular-before-empty",
        "a2-every-ray",
        "wedge",
        "a2-boundary-ray",
        "stray-ray",
        "out-of-range-before-stratum",
    ],
)
def test_toric_refusals_and_their_order(capsys, tmp_path, fan, selected, message):
    doc = {"schema_version": 1, "kind": "fan", **fan}
    if selected is not None:
        doc["selected_rays"] = selected
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["toric", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_toric_refuses_an_oversized_cone_before_its_faces(capsys, tmp_path):
    # 2^40 faces: the refusal must come before the face closure
    rays = [[1, k] for k in range(40)]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "fan", "n": 2, "rays": rays, "cones": [list(range(40))]}))
    start = time.perf_counter()
    assert cli.main(["toric", str(path), "--json"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cone {list(range(40))} has more rays than the ambient dimension\n"


def test_float_matrix_entries_rejected(capsys, tmp_path):
    doc = {
        "kind": "bicomplex",
        "dims": [[1, 1]],
        "horizontal": [{"p": 0, "q": 0, "matrix": [[0.5]]}],
    }
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["bicomplex-pages", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "/horizontal/0/matrix/0/0" in captured.err


def test_bad_input_exit_code_missing_file(capsys):
    code = cli.main(["betti", input_path("does_not_exist.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_bad_input_exit_code_wrong_kind(capsys):
    code = cli.main(["betti", input_path("p1xp1_fan.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "/kind" in captured.err


def test_schema_error_has_json_pointer(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "complex", "vertex_count": 2, "facets": [[0, "x"]]}))
    code = cli.main(["betti", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "/facets/0/1" in captured.err


def test_reports_validate_against_published_schema(capsys):
    schema = load_schema("report.v1.schema.json")
    invocations = [
        ("dual-complex", "elliptic_triangle.json"),
        ("betti", "triangle_boundary.json"),
        ("integral", "projective_plane.json"),
        ("presheaf-cohomology", "vertex_presheaf_triangle.json"),
        ("snc-cohomology", "pn_hyperplanes_2.json"),
        ("forms", "three_lines_p2.json"),
        ("derham", "three_lines_p2.json"),
        ("hodge", "three_lines_p2.json"),
        ("euler", "elliptic_triangle.json"),
        ("toric", "pn_fan_2.json"),
        ("verify-lemma31", "lm_2_1_1.json"),
        ("bicomplex-pages", "bicomplex_row.json"),
        ("degeneration", "bicomplex_d2.json"),
        ("rational-check", "segment_rational_check.json"),
    ]
    for command, name in invocations:
        _, out = run_cli(capsys, command, input_path(name), "--json")
        assert out.endswith("\n") and out.count("\n") == 1, command
        assert schema_errors(json.loads(out), schema) == [], command


def test_command_and_kind_tables_match_published_schemas():
    report_schema = load_schema("report.v1.schema.json")
    assert list(cli.COMMANDS) == report_schema["properties"]["command"]["enum"]
    input_schema = load_schema("input.v1.schema.json")
    kinds = [kind for branch in input_schema["oneOf"] for kind in branch["properties"]["kind"]["enum"]]
    assert list(formats.PARSERS) == kinds
    assert {command.kind for command in cli.COMMANDS.values()} == set(kinds)


def test_inputs_validate_against_published_schema():
    schema = load_schema("input.v1.schema.json")
    for name in sorted(os.listdir(INPUTS)):
        with open(input_path(name), "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert schema_errors(doc, schema) == [], name


def test_schema_enum_compares_json_values():
    # JSON Schema's enum tells a boolean from a number, and has 1.0 equal to 1
    doc = {"schema_version": 1, "kind": "fan", "n": 1, "rays": [[1], [-1]], "cones": [[0], [1]]}
    schema = load_schema("input.v1.schema.json")
    assert schema_errors(doc, schema) == []
    assert schema_errors({**doc, "schema_version": True}, schema) != []
    assert schema_errors({**doc, "schema_version": 1.0}, schema) == []
    assert schema_errors(False, {"enum": [0]}) != []
    assert schema_errors(1, {"enum": [True]}) != []
    assert schema_errors([1], {"enum": [[True]]}) != []
    assert schema_errors({"a": 1.0}, {"enum": [{"a": 1}]}) == []
    assert schema_errors("1", {"enum": [1]}) != []


def test_console_script_exits_with_mains_code(capsys, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["dualcech"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.console_main
    # a report, and a usage error (no input), which is an input error
    for argv, code in ((["betti", input_path("projective_plane.json")], 0), (["betti"], 1)):
        expected = (cli.main(argv), capsys.readouterr())
        monkeypatch.setattr(sys, "argv", ["dualcech", *argv])
        with pytest.raises(SystemExit) as caught:
            entry()
        assert (caught.value.code, capsys.readouterr()) == expected
        assert caught.value.code == code


def test_json_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "snc-cohomology", input_path("pn_hyperplanes_3.json"), "--json")
    _, second = run_cli(capsys, "snc-cohomology", input_path("pn_hyperplanes_3.json"), "--json")
    assert first == second


# the exact stdout of two small --json reports: one line, sorted keys, no spaces
PINNED_REPORTS = [
    (
        ["verify-lemma31", "inputs/lm_2_1_1.json", "--degree-bound", "1"],
        '{"command":"verify-lemma31","input":"inputs/lm_2_1_1.json","ok":true,"options":{"degree_bound":1},'
        '"result":{"degree_bound":1,"exact":true,"per_degree":[{"degree":0,"homology":[0,0,0]},'
        '{"degree":1,"homology":[0,0,0]}],"verdict_text":"exact in all degrees <= 1"},"schema_version":1}\n',
    ),
    (
        ["betti", "inputs/triangle_boundary.json"],
        '{"command":"betti","input":"inputs/triangle_boundary.json","ok":true,"options":{},'
        '"result":{"betti":[1,1],"euler_characteristic":0},"schema_version":1}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_REPORTS, ids=[argv[0] for argv, _ in PINNED_REPORTS])
def test_json_report_bytes_are_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == expected


def test_text_output_mentions_totals(capsys):
    code, out = run_cli(capsys, "snc-cohomology", input_path("elliptic_triangle.json"))
    assert code == 0
    assert "totals" in out and "(1, 4, 0)" in out


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "dualcech", "betti", input_path("triangle_boundary.json"), "--json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["betti"] == [1, 1]


# one command in a fresh interpreter: its exit code and the package modules
# it loaded, and argparse if that was loaded
LOADED_MODULES = """
import contextlib, io, json, sys
from dualcech import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("dualcech.") or m == "argparse")]))
"""


def loaded_modules(*argv) -> tuple[int, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, loaded


@pytest.mark.parametrize(
    "command, name, code, absent",
    [
        ("verify-lemma31", "lm_2_1_1.json", 0, ["simplicial", "snc", "presheaf", "bicomplex", "toric"]),
        # the nonzero-d2 instance: both pages are computed and differ, so it exits 2
        ("degeneration", "bicomplex_d2.json", 2, ["snc", "presheaf", "toric", "localmodel"]),
        ("betti", "projective_plane.json", 0, ["snc", "presheaf", "bicomplex", "toric", "localmodel"]),
    ],
)
def test_command_loads_only_the_modules_it_calls(command, name, code, absent):
    got_code, loaded = loaded_modules(command, input_path(name))
    assert got_code == code
    assert not {f"dualcech.{m}" for m in absent} & set(loaded), loaded
    # a report line is read off the command table; only help builds the parser
    assert "argparse" not in loaded
    help_code, help_loaded = loaded_modules(command, "--help")
    assert help_code == 0 and "argparse" in help_loaded


# documents that json.load refuses with something other than JSONDecodeError,
# or reads by keeping the last of two equal keys in one object; each is
# refused as it is read, before its kind is checked, with this error line
NOT_JSON = "error: /: not valid JSON: "
HOSTILE_DOCUMENTS = {
    "deep_array": (b"[" * 100_000 + b"]" * 100_000, NOT_JSON),  # RecursionError
    "long_integer": (b"1" * 5_000, NOT_JSON),  # ValueError past Python's 4300-digit limit
    "bad_byte": (b"\xff", NOT_JSON),  # UnicodeDecodeError
    "byte_order_mark": (b"\xef\xbb\xbf{}", NOT_JSON + "Unexpected UTF-8 BOM"),
    # presheaf-cohomology would answer (2) from the second value
    "repeated_dims_key": (
        b'{"kind": "presheaf", "complex": {"vertex_count": 1, "facets": [[0]]}, "dims": {"0": 1, "0": 2}}',
        "error: /dims: duplicate key '0' in one object",
    ),
    # the first object the decoder closes with a key written twice is named
    "repeated_key_in_an_array": (
        b'{"kind": "complex", "facets": [{"a": 1}, {"b": {"c": 1, "c": 2}}], "facets": []}',
        "error: /facets/1/b: duplicate key 'c' in one object",
    ),
    # the decoder stops at the repeated key; the text after it is not JSON
    "repeated_key_then_not_json": (b'{"kind": {"a": 1, "a": 2}, "facets": nope}', NOT_JSON),
    "repeated_top_level_key": (
        b'{"kind": "complex", "vertex_count": 1, "facets": [], "kind": "complex"}',
        "error: /: duplicate key 'kind' in one object",
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_hostile_json_exits_one_without_traceback(tmp_path, name):
    text, error = HOSTILE_DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "dualcech", "betti", str(path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(error), proc.stderr


def test_toric_projective_boundaries_at_depth(capsys, tmp_path):
    rng = random.Random(3)
    for n in range(2, 9):
        rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
        doc = {
            "schema_version": 1,
            "kind": "fan",
            "n": n,
            "rays": disguised_rays(rng, rays),
            "cones": [list(c) for c in combinations(range(n + 1), n)],
        }
        # the full boundary is the boundary of an n-simplex, a sphere S^{n-1}
        path = tmp_path / f"p{n}.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "toric", str(path))
        assert code == 0
        result = report["result"]
        assert result["totals"] == [1] + [0] * (n - 2) + [1]
        euler = 1 + (-1) ** (n - 1)
        assert result["dual_complex_euler_characteristic"] == euler
        assert result["sheaf_euler_characteristic"] == euler
        # a proper subset of the rays spans a cone: the dual complex is a full simplex
        subset = sorted(rng.sample(range(n + 1), rng.randint(1, n)))
        path = tmp_path / f"p{n}_ball.json"
        path.write_text(json.dumps({**doc, "selected_rays": subset}))
        code, report = run_json(capsys, "toric", str(path))
        assert code == 0
        assert report["result"]["totals"] == [1] + [0] * (len(subset) - 1)
        assert report["result"]["selected_rays"] == subset
        assert report["result"]["sheaf_euler_characteristic"] == 1


@pytest.mark.parametrize(
    "command, path, cell",
    [
        ("snc-cohomology", os.path.join(ROOT, "tests", "data", "nonfunctorial_q1.json"), "(1,) -> (0, 1, 2)"),
        ("presheaf-cohomology", input_path("nonfunctorial_presheaf.json"), "(0,) -> (0, 1, 2)"),
        ("rational-check", input_path("nonfunctorial_rational_check.json"), "(0,) -> (0, 1, 2)"),
    ],
    ids=["snc-cohomology", "presheaf-cohomology", "rational-check"],
)
def test_nonfunctorial_higher_layer_exits_1(capsys, command, path, cell):
    code = cli.main([command, path, "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert f"restriction composites {cell} disagree" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_snapshot_unchanged():
    # every command on every input, text and --json: exit code and sha256
    # of stdout and stderr, against the committed scripts/cli_snapshot.py output
    spec = importlib.util.spec_from_file_location("cli_snapshot", os.path.join(ROOT, "scripts", "cli_snapshot.py"))
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    with open(os.path.join(ROOT, "tests", "data", "cli_snapshot.txt"), encoding="utf-8") as f:
        expected = f.read().splitlines()
    actual = list(snapshot.lines())
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


# small replacement values: wrong types, edge numbers and the presheaf
# shorthands, none large enough to make any document allocate much
FUZZ_VALUES = (
    0, 1, -1, 2, 10, "1/2", "0", "x", "", None, True, False, 1.5,
    [], [0], [[1]], {}, "constant", "identity", "zero",
)
FUZZ_KEYS = (
    "kind", "schema_version", "complex", "facets", "facts", "dims", "matrix", "r", "degree_bound", "0", "0,1",
)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    docs = {}
    for name in sorted(os.listdir(INPUTS)):
        with open(input_path(name), encoding="utf-8") as f:
            docs[name] = json.load(f)
    return docs, tmp_path_factory.mktemp("fuzz") / "doc.json"


def _slots(value, out):
    """Every (container, key) slot below ``value``, parents before children."""
    if isinstance(value, (dict, list)):
        for key, child in list(value.items() if isinstance(value, dict) else enumerate(value)):
            out.append((value, key))
            _slots(child, out)
    return out


def _mutated(docs, data):
    """A committed document with one to three slots deleted, replaced or duplicated, or a key added beside one."""
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(sorted(docs)))])
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(_slots(doc, [(None, None)])))
        action = data.draw(st.sampled_from(("delete", "replace", "duplicate", "add")))
        if container is None:
            doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
        elif action == "delete":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        elif action == "add" and isinstance(container, dict):
            # a field of some document kind, a misspelling, or a simplex key
            added = data.draw(st.sampled_from(FUZZ_KEYS))
            container[added] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
        else:
            container[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
    return doc


@settings(max_examples=200)
@given(st.data())
def test_cli_survives_mutated_documents(fuzz_inputs, data):
    docs, path = fuzz_inputs
    doc = _mutated(docs, data)
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in cli.COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, str(path), "--json"])
        assert code in (0, 1, 2), (command, doc)


@settings(max_examples=300)
@given(st.data())
def test_documents_formats_accepts_validate_against_schema(fuzz_inputs, data):
    # whatever formats accepts, the published schema accepts.  The converse
    # does not hold, by design: formats also checks minimums, tuple order and
    # matrix shapes, which the schema does not state
    docs, path = fuzz_inputs
    doc = _mutated(docs, data)
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        parsed = formats.parse_document(formats.load_document(str(path)))
        if "rational_check" in doc:
            formats.parse_rational_check(doc["rational_check"], parsed, "/rational_check")
    except DualCechError:
        return
    assert schema_errors(doc, load_schema("input.v1.schema.json")) == [], doc


# documents the schema refuses: a schema version other than 1, null in an
# optional field, which is refused rather than read as a missing field, and a
# key that no reader of its object knows, at any depth
@pytest.mark.parametrize(
    "command, name, field, value, message",
    [
        ("betti", "triangle_boundary.json", ["schema_version"], 2,
         "/schema_version: unsupported schema version 2, expected 1"),
        ("toric", "pn_fan_2.json", ["selected_rays"], None, "/selected_rays: expected an array"),
        ("snc-cohomology", "pn_hyperplanes_2.json", ["multiplicities"], None, "/multiplicities: expected an array"),
        ("verify-lemma31", "lm_2_1_1.json", ["degree_bound"], None, "/degree_bound: expected an integer"),
        ("hodge", "three_lines_p2.json", ["tables", 0, "restriction"], None,
         "/tables/0/restriction: expected an object"),
        ("betti", "triangle_boundary.json", ["facts"], [[0, 1]], "/facts: unknown field"),
        ("presheaf-cohomology", "vertex_presheaf_triangle.json", ["complex", "kind"], "complex",
         "/complex/kind: unknown field"),
        ("verify-lemma31", "lm_2_1_1.json", ["degree_bond"], 3, "/degree_bond: unknown field"),
        ("toric", "pn_fan_2.json", ["selected_ray"], [0], "/selected_ray: unknown field"),
        ("hodge", "three_lines_p2.json", ["tables", 0, "restricton"], "constant",
         "/tables/0/restricton: unknown field"),
        ("degeneration", "bicomplex_d2.json", ["horizontal", 0, "r"], 2, "/horizontal/0/r: unknown field"),
        ("rational-check", "rational_triangle_check.json", ["rational_check", "claimed"], True,
         "/rational_check/claimed: unknown field"),
    ],
    ids=[
        "schema-version-2", "null-selected-rays", "null-multiplicities", "null-degree-bound", "null-restriction",
        "unknown-top-level-key", "kind-in-nested-complex", "misspelled-degree-bound", "misspelled-selected-rays",
        "misspelled-restriction", "unknown-placed-matrix-key", "unknown-rational-check-key",
    ],
)
def test_documents_the_schema_refuses_exit_1(capsys, tmp_path, command, name, field, value, message):
    with open(input_path(name), encoding="utf-8") as f:
        doc = json.load(f)
    holder = doc
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
