from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from dualcech import formats
from dualcech.errors import SchemaError
from dualcech.exactla import RationalMatrix

from helpers import oracle_matrix

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
