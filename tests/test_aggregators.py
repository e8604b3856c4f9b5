"""SUM, AVERAGE, MIN, MAX, SMALL and LARGE against plain copies of their
per-cell loops (tests/helpers.py).

Each aggregator takes the numbers (the ints of a hand-built table among
them) and skips logicals, text and blanks, adds or compares the numbers
left to right, and returns the first error in argument-then-cell order. Results must match by type and
repr, so the last bits of a sum and the sign of a zero count too."""

import dataclasses
import itertools
import random

import pytest

from sprego.evaluator import FUNCTION_SPECS, EvalContext, evaluate
from sprego.formula import parse
from sprego.table import Table
from sprego.values import ErrorKind

from helpers import reference_average, reference_minmax, reference_small_large, reference_sum
from test_evaluator import _same_cell

_REFERENCES = {
    "SUM": reference_sum,
    "AVERAGE": reference_average,
    "MIN": reference_minmax(min),
    "MAX": reference_minmax(max),
    "SMALL": reference_small_large(False),
    "LARGE": reference_small_large(True),
}

ROWS = 6
# ints (a hand-built table may hold them) are numbers; logicals, text and
# blanks are skipped; ties, zeros of both signs and 1e308 pairs included
_NUMBERS = (1.5, -2.0, 2.0, 2.0, 0.0, -0.0, 1e308, 1e308, -1e308, 5e-324, 3, -7)
_SKIPPED = (True, False, "a", "12", "", None)
_ERRORS = (ErrorKind.NA, ErrorKind.DIV0, ErrorKind.VALUE, ErrorKind.NUM)


def _column(rng: random.Random, errors: float) -> tuple:
    pools = (_NUMBERS, _SKIPPED, _ERRORS)
    return tuple(rng.choice(rng.choices(pools, (1 - errors - 0.25, 0.25, errors))[0]) for _ in range(ROWS))


def _tables():
    """Tables of columns a, b, c: some without errors, some with errors at
    random positions, and one with only skipped cells."""
    out = []
    for seed in range(24):
        rng = random.Random(seed)
        errors = (0.0, 0.05, 0.2)[seed % 3]
        out.append(Table("t", ("a", "b", "c"), tuple(_column(rng, errors) for _ in range(3))))
    out.append(Table("t", ("a", "b", "c"), (_SKIPPED, _SKIPPED[::-1], (None,) * ROWS)))
    return out


_ARGS = (
    "a", "a,b", "b,a,c", "A1:C6", "A2:A4,c", "c,A1:B3", "a,1e308", "TRUE,a,\"7\"", "a,(1/0)",
    "(1/0),a", "a+0", "a,-0", "1e308,1e308",
)
_KS = ("1", "2", "3", "6", "7", "0", "-1", "2.9", '"2"', '"x"', "TRUE", "(1/0)", "b", "A1")
_SOURCES = [f"{f}({args})" for f in ("SUM", "AVERAGE", "MIN", "MAX") for args in _ARGS] + [
    f"{f}({r},{k})" for f in ("SMALL", "LARGE") for r in ("a", "A1:C6", "c", "5") for k in _KS
]


@pytest.fixture
def reference(monkeypatch):
    """evaluate() with each aggregator its per-cell loop, over evaluated
    arguments."""

    def run(formula, ctx):
        with monkeypatch.context() as m:
            for name, impl in _REFERENCES.items():
                m.setitem(FUNCTION_SPECS, name, dataclasses.replace(FUNCTION_SPECS[name], call="evaluated", impl=impl))
            return evaluate(formula, ctx)

    return run


def _check(reference, source, t, **ctx):
    formula = parse(source)
    got = evaluate(formula, EvalContext(t, **ctx))
    want = reference(formula, EvalContext(t, **ctx))
    assert _same_cell(got, want), (source, t.columns, ctx, got, want)
    return got


def test_aggregators_match_their_per_cell_loops(reference):
    results = []
    for t, source in itertools.product(_tables(), _SOURCES):
        results.append(_check(reference, "{=" + source + "}", t))
        _check(reference, "=" + source, t, mode="scalar", current_row=2)
    # the cases reach numbers, each error and #NUM!
    kinds = {r if isinstance(r, ErrorKind) else type(r) for r in results}
    assert kinds == {float, *_ERRORS}, kinds


def test_first_error_in_argument_then_cell_order(reference):
    na, div0, value = ErrorKind.NA, ErrorKind.DIV0, ErrorKind.VALUE
    t = Table("t", ("a", "b"), ((1.0, na, 2.0, div0), (value, 3.0, div0, 1.0)))
    for f in ("SUM", "AVERAGE", "MIN", "MAX"):
        assert _check(reference, f"={f}(a,b)", t) is na
        assert _check(reference, f"={f}(b,a)", t) is value
        assert _check(reference, f"={f}(A1:B2)", t) is value  # row-major: B1 before A2
        assert _check(reference, f"={f}(A1,(1/0),b)", t) is div0
    for f in ("SMALL", "LARGE"):
        assert _check(reference, f"={f}(a,(1/0))", t) is div0  # k is read before the cells
        assert _check(reference, f'={f}(a,"x")', t) is na  # then the cells, then k coerced
        assert _check(reference, f'={f}(A1:A1,"x")', t) is value


def test_sums_keep_their_left_to_right_bits(reference):
    t = Table("t", ("a", "b"), ((0.1, 0.2, 0.3, 1e16, 1.0, -1e16), (1e308, 1e308, -0.0, -0.0, "x", 2)))
    assert _check(reference, "=SUM(a)", t) == 0.0  # math.fsum gives 1.6
    assert _check(reference, "=AVERAGE(a)", t) == 0.0
    assert _check(reference, "=SUM(B1:B2)", t) is ErrorKind.NUM
    assert _check(reference, "=AVERAGE(B1:B2)", t) is ErrorKind.NUM
    assert repr(_check(reference, "=MIN(B3:B4)", t)) == "-0.0"
    assert repr(_check(reference, "=MAX(0,B3:B4)", t)) == "0.0"  # the first of equal values
    assert _check(reference, "=LARGE(b,1)", t) == 1e308
    assert _check(reference, "=SMALL(b,6)", t) is ErrorKind.NUM  # five numbers, the int 2 among them
