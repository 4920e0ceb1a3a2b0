from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dualcech import formats
from dualcech.errors import SchemaError
from dualcech.exactla import RationalMatrix

from helpers import oracle_matrix, oracle_rational, same_storage

ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from(["1/2", "-3/4", "0/3", "0", "7", "1/0", "2/x", ""]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
)
ROWS = st.one_of(st.lists(ENTRIES, max_size=4), ENTRIES)


def _outcome(parse, value, rows, cols):
    try:
        return parse(value, "/m", rows, cols)
    except SchemaError as exc:
        return ("error", exc.pointer, exc.message)


@given(
    st.one_of(st.lists(ROWS, max_size=4), ENTRIES),
    st.none() | st.integers(0, 4),
    st.none() | st.integers(0, 4),
)
@example([[1, 0, "0/3", "-3/4"], [0, -2, 5, "1/2"]], 2, 4)
@example([[2, True]], None, None)
@example([[0, False]], None, None)
@example([[1, 0.5]], None, None)
@example([[0, "1/0"]], None, None)
@example([[1, 2], [3]], None, None)
@example([[1, 2]], 2, None)
@example([[1, 2]], None, 3)
@example([], 0, 3)
@settings(max_examples=300)
def test_matrix_parsing_matches_entrywise_oracle(value, rows, cols):
    got = _outcome(formats._matrix, value, rows, cols)
    assert got == _outcome(oracle_matrix, value, rows, cols)
    if isinstance(got, RationalMatrix):
        assert all(type(v) is Fraction and v != 0 for _, _, v in got.nonzero_entries())


# the plain ASCII "p/q" form and the other forms Fraction's parser accepts
ACCEPTED = [
    ("1/2", Fraction(1, 2)),
    ("-3/4", Fraction(-3, 4)),
    ("6/4", Fraction(3, 2)),
    ("0/3", Fraction(0)),
    ("-0/5", Fraction(0)),
    ("007/21", Fraction(1, 3)),
    ("1/02", Fraction(1, 2)),
    ("7", Fraction(7)),
    ("1.5", Fraction(3, 2)),
    ("1e3", Fraction(1000)),
    (" 3 ", Fraction(3)),
    ("+1/2", Fraction(1, 2)),
    ("1_0/3", Fraction(10, 3)),
    ("\u0661/\u0662", Fraction(1, 2)),  # Arabic-Indic digits
    ("\uff11/\uff12", Fraction(1, 2)),  # fullwidth digits
]


@pytest.mark.parametrize("text, value", ACCEPTED)
def test_rational_accepts_the_forms_fraction_accepts(text, value):
    got = formats._rational(text, "/m/0/0")
    assert type(got) is Fraction and got == value


REFUSED = [
    ("1/0", "bad rational entry: Fraction(1, 0)"),
    ("x", "bad rational entry: Invalid literal for Fraction: 'x'"),
    ("1/-2", "bad rational entry: Invalid literal for Fraction: '1/-2'"),
    ("1 /2", "bad rational entry: Invalid literal for Fraction: '1 /2'"),
    ("", "bad rational entry: Invalid literal for Fraction: ''"),
    ("\u00b2/3", "bad rational entry: Invalid literal for Fraction: '\u00b2/3'"),  # a superscript is no digit
]


@pytest.mark.parametrize("text, message", REFUSED)
def test_rational_refusals_keep_their_messages(text, message):
    with pytest.raises(SchemaError) as caught:
        formats._rational(text, "/m/0/0")
    assert (caught.value.pointer, caught.value.message) == ("/m/0/0", message)


def _rational_outcome(parse, value):
    try:
        return parse(value, "/v")
    except SchemaError as exc:
        return ("error", exc.pointer, exc.message)


@given(st.text(alphabet="0123456789-+/ ._e\u0661\u00b2x", max_size=8))
@example("1" * 5000 + "/3")
@example("3/" + "1" * 5000)
@settings(max_examples=500)
def test_rational_matches_fraction_parser_oracle(text):
    got = _rational_outcome(formats._rational, text)
    assert got == _rational_outcome(oracle_rational, text)
    assert type(got) is tuple or type(got) is Fraction


# ints of every size, and strings of the ASCII "p/q" form (reduced or not,
# signed or not) and of the other forms Fraction's parser accepts
PARSED_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from(["2/4", "-6/3", "0/7", "+1/2", " 3/9 ", "-0/5", "7", "1/3", "-10/4"]),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-12, 12), st.integers(1, 12)),
)


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=300)
def test_matrix_parse_matches_the_constructor(rows, cols, data):
    # _matrix makes the constructor's checks itself and wraps the result
    # with _of; the storage must be what the public constructor builds
    value = [[data.draw(PARSED_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    expected = RationalMatrix(rows, cols, {(i, j): x for i, row in enumerate(value) for j, x in enumerate(row)})
    assert same_storage(formats._matrix(value, "/m", rows, cols), expected)
    assert same_storage(formats._matrix(value, "/m"), expected if rows else RationalMatrix.zeros(0, 0))


@pytest.mark.parametrize(
    "value, pointer, message",
    [
        ([[1, "1/2"], [0, 0.5]], "/m/1/1", "rational entries must be integers or 'p/q' strings"),
        ([["2/4", True]], "/m/0/1", "rational entries must be integers or 'p/q' strings"),
        ([[False, 1]], "/m/0/0", "rational entries must be integers or 'p/q' strings"),
        ([[3, "1/0"]], "/m/0/1", "bad rational entry: Fraction(1, 0)"),
        ([[1, "2/4"], ["1/3"]], "/m/1", "ragged matrix rows"),
    ],
    ids=["float", "true", "false", "zero-denominator", "ragged"],
)
def test_matrix_refusals_keep_their_pointer_and_text(value, pointer, message):
    with pytest.raises(SchemaError) as caught:
        formats._matrix(value, "/m")
    assert (caught.value.pointer, caught.value.message) == (pointer, message)


INT_ITEMS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.floats(), st.text(max_size=2))


@given(st.one_of(st.lists(INT_ITEMS, max_size=5), INT_ITEMS), st.none() | st.integers(-1, 2))
@example([1, True, 3], None)
@example([2, 0, -1], 1)
@settings(max_examples=300)
def test_int_array_reader_matches_itemwise_reads(value, minimum):
    # _ints is _each over _int written as one loop: same tuple, or the same first refusal
    def outcome(read):
        try:
            return tuple(read(value, "/a", minimum))
        except SchemaError as exc:
            return ("error", exc.pointer, exc.message)

    assert outcome(formats._ints) == outcome(lambda v, p, m: formats._each(v, p, formats._int, m))


def _segment_presheaf(restrictions, dims=None) -> dict:
    return {
        "kind": "presheaf",
        "complex": {"vertex_count": 2, "facets": [[0, 1]]},
        "dims": dims or {"0": 1, "1": 1, "0,1": 1},
        "restrictions": restrictions,
    }


def _segment_divisor(section=None, matrices=None) -> dict:
    tables = [{"tuple": t, "r": 0, "q": 0, "dim": 1, "restriction": "constant"} for t in ([0], [1], [0, 1])]
    tables += [{"tuple": [t], "r": 0, "q": 1, "dim": 0} for t in (0, 1)]
    if matrices is not None:
        tables.append({"tuple": [0, 1], "flavor": "derham", "q": 0, "dim": 1, "restriction": {"matrices": matrices}})
    doc = {
        "kind": "divisor",
        "components": [{"name": "C0", "dim": 1}, {"name": "C1", "dim": 1}],
        "strata": [[0], [1], [0, 1]],
        "tables": tables,
    }
    if section is not None:
        doc["rational_check"] = {"claimed_rational": True, "dims": {"0": 1, "1": 1, "0,1": 1}, **section}
    return doc


def _rational_check(doc):
    return formats.parse_rational_check(doc["rational_check"], formats.parse_divisor(doc), "/rational_check")


ONE = [["1"]]
TO_EDGE = [{"from": [0], "to": [0, 1], "matrix": ONE}, {"from": [1], "to": [0, 1], "matrix": ONE}]
REPEAT = {"from": [0], "to": [0, 1], "matrix": [["0"]]}
UNIT = {"0": ["1"], "1": ["1"], "0,1": ["1"]}


@pytest.mark.parametrize(
    "parse, doc, pointer, key",
    [
        # a presheaf's restrictions, the repeat after and before the first
        (formats.parse_presheaf, _segment_presheaf(TO_EDGE + [REPEAT]), "/restrictions/2", ((0,), (0, 1))),
        (formats.parse_presheaf, _segment_presheaf([REPEAT] + TO_EDGE), "/restrictions/1", ((0,), (0, 1))),
        # a rational_check section reads its restrictions the same way
        (
            _rational_check,
            _segment_divisor({"restrictions": TO_EDGE + [REPEAT], "unit": UNIT}),
            "/rational_check/restrictions/2",
            ((0,), (0, 1)),
        ),
        (
            formats.parse_bicomplex,
            {
                "kind": "bicomplex",
                "dims": [[1, 1]],
                "horizontal": [{"p": 0, "q": 0, "matrix": [[1]]}, {"p": 0, "q": 0, "matrix": [[0]]}],
            },
            "/horizontal/1",
            (0, 0),
        ),
        (
            formats.parse_bicomplex,
            {
                "kind": "bicomplex",
                "dims": [[1], [1]],
                "vertical": [{"p": 0, "q": 0, "matrix": [[1]]}, {"p": 0, "q": 0, "matrix": [[1]]}],
            },
            "/vertical/1",
            (0, 0),
        ),
        # keys of simplex-keyed objects that name one simplex
        (
            formats.parse_presheaf,
            _segment_presheaf(TO_EDGE, {"0": 1, "1": 1, "0,1": 1, "0, 1": 0}),
            "/dims/0, 1",
            (0, 1),
        ),
        (
            _rational_check,
            _segment_divisor({"restrictions": "identity", "unit": {**UNIT, " 0": ["2"]}}),
            "/rational_check/unit/ 0",
            (0,),
        ),
        (formats.parse_divisor, _segment_divisor(matrices={"0": ONE, "1": ONE, "1 ": ONE}), "/tables/5/restriction/matrices/1 ", (1,)),
    ],
)
def test_a_repeated_entry_is_refused_at_its_own_pointer(parse, doc, pointer, key):
    with pytest.raises(SchemaError) as caught:
        parse(doc)
    assert (caught.value.pointer, caught.value.message) == (pointer, f"duplicate entry for {key}")
