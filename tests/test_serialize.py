from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitkit.errors import InputFormatError
from circuitkit.generate import GeneratorSpec, generate
from circuitkit.lp import LPInstance
from circuitkit.ratmat import RatMatrix, as_fraction, vec
from circuitkit.serialize import (
    _FRACTION_RE,
    SCHEMA_VERSION,
    dumps,
    frac_str,
    loads,
    lp_from_obj,
    lp_to_csv,
    lp_to_obj,
    make_report,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
    parse_frac,
)
from util import lp_from_csv, matrix_from_csv

fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97
)


def test_frac_str_forms():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(-7, 2)) == "-7/2"
    assert parse_frac("3") == 3
    assert parse_frac("-7/2") == Fraction(-7, 2)
    assert parse_frac(5) == 5


@given(fractions)
def test_frac_round_trip(q):
    assert parse_frac(frac_str(q)) == q


@pytest.mark.parametrize(
    "bad",
    ["1.5", "1/0", "1/-2", "", "a", "1e3", "--1", True, pytest.param("7" * 5000, id="5000-digits")],
)
def test_parse_frac_rejects(bad):
    with pytest.raises(InputFormatError):
        parse_frac(bad)


def test_matrix_obj_round_trip(A_app):
    obj = matrix_to_obj(A_app)
    assert obj == [["1", "3", "4", "3"], ["0", "13", "9", "10"]]
    back = matrix_from_obj(obj)
    assert back.data == A_app.data


def test_lp_obj_round_trip():
    lp = generate(GeneratorSpec("flow", size=4, seed=3))
    obj = lp_to_obj(lp)
    back = lp_from_obj(obj)
    assert back.A.data == lp.A.data
    assert back.b == lp.b
    assert back.c == lp.c
    assert back.u == lp.u


def test_lp_obj_round_trip_with_caps():
    A = RatMatrix.from_rows([[1, 1]], cols=2)
    lp = LPInstance.bounded(A, [1], [0, 1], [Fraction(1, 2), None])
    back = lp_from_obj(lp_to_obj(lp))
    assert back.u == (Fraction(1, 2), None)


def test_loads_rejects_floats():
    with pytest.raises(InputFormatError):
        loads('{"schema_version": "1", "b": [1.5]}')


@pytest.mark.parametrize(
    "text",
    ["[1,", "[" + "7" * 5000 + "]", "[" * 100000],
    ids=["truncated", "5000-digit-literal", "nested-past-the-stack"],
)
def test_loads_refuses_what_it_cannot_read(text):
    # Outside `cli.main` the int/str digit limit stands, and a library
    # caller still gets the input error class, not a ValueError.
    with pytest.raises(InputFormatError):
        loads(text)


def test_matrix_csv_round_trip(A_app):
    text = matrix_to_csv(A_app)
    back = matrix_from_csv(text)
    assert back.data == A_app.data


def test_lp_csv_round_trip():
    A = RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3)
    lp = LPInstance.bounded(A, [2, 2], [1, 0, 1], [3, None, Fraction(5, 2)])
    text = lp_to_csv(lp)
    back = lp_from_csv(text)
    assert back.A.data == lp.A.data
    assert back.b == lp.b
    assert back.c == lp.c
    assert back.u == (3, None, Fraction(5, 2))


def test_make_report_shape():
    rep = make_report("analysis", {"kappa": "25/9"})
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["kind"] == "analysis"
    assert rep["kappa"] == "25/9"


def test_dumps_is_stable():
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})
    assert dumps({}).endswith("\n")


@given(
    st.lists(
        st.lists(fractions, min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_matrix_round_trip_property(rows):
    A = RatMatrix.from_rows(rows, cols=len(rows[0]))
    assert matrix_from_obj(matrix_to_obj(A)).data == A.data
    assert matrix_from_csv(matrix_to_csv(A)).data == A.data


def test_matrix_from_obj_rejects_ragged():
    with pytest.raises(InputFormatError):
        matrix_from_obj([["1", "2"], ["3"]])


def test_matrix_from_obj_rejects_empty():
    with pytest.raises(InputFormatError):
        matrix_from_obj([])


# Signs, whitespace (ASCII and not), underscores, slashes, ASCII and
# non-ASCII decimal digits, digits that are not decimal (superscript two,
# a vulgar fraction), and the characters of float and exponent text.
_NUMBER_CHARS = [
    *"0123456789+-_/ .eE\t\n",
    *"\xa0\x1c\u2007\u3000",
    *"\u0663\u0660\u0967\uff13\U0001d7d9\u00b2\u2155",
]


@st.composite
def number_text(draw):
    """Free text over `_NUMBER_CHARS`, or an optionally signed and padded
    p or p/q with digit runs joined by underscores."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(_NUMBER_CHARS), max_size=10))
    space = st.text(st.sampled_from([" ", "\t", "\n", "\xa0", "\u3000"]), max_size=2)
    digit = st.sampled_from([*"0123456789", "\u0663", "\u0967", "\uff13"])
    runs = st.lists(st.text(digit, min_size=1, max_size=3), min_size=1, max_size=3)
    part = st.builds("_".join, runs)
    text = draw(st.sampled_from(["", "+", "-"])) + draw(part)
    if draw(st.booleans()):
        text += "/" + draw(part)
    return draw(space) + text + draw(space)


def _outcome(read, text):
    """The value `read` returns on `text`, or the class of what it raises."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError, InputFormatError) as exc:
        return type(exc)


@given(number_text())
@settings(max_examples=500)
def test_strings_read_as_fraction_reads_them(text):
    # as_fraction and parse_frac read integer strings with int(), which
    # must give Fraction(str)'s value, or its exception class.
    want = _outcome(Fraction, text)
    got = _outcome(as_fraction, text)
    assert got == want and type(got) is type(want)
    got = _outcome(parse_frac, text)
    if _FRACTION_RE.match(text) and isinstance(want, Fraction):
        assert got == want and type(got) is Fraction
    else:
        assert got is InputFormatError
