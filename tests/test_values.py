from hypothesis import given, settings
from hypothesis import strategies as st

from sprego.evaluator import EvalContext, evaluate
from sprego.formula import parse
from sprego.values import coerce_text, format_value, number_to_text

from helpers import make_table, oracle_number_to_text

_EDGES = (0.0, -0.0, 1.0, -1.0, 0.1, 1e15, 1e16, -1e16, 9999999999999998.0, 2.0**53, 1e22, 5e-324, 1e308, -1e308)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**60), 2**60).map(float)))
def test_number_to_text_matches_the_int_form(x):
    assert number_to_text(x) == oracle_number_to_text(x)


def test_number_to_text_edges():
    for x in _EDGES:
        assert number_to_text(x) == oracle_number_to_text(x), x
    assert number_to_text(-0.0) == format_value(-0.0) == coerce_text(-0.0) == "0"
    assert number_to_text(7) == "7"
    t = make_table(x=(-0.0, 1e16, 2.5, 3.0))
    assert evaluate(parse('{=x&""}'), EvalContext(t)).cells == ("0", "1e+16", "2.5", "3")
