import dataclasses
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sprego
from sprego import evaluator
from sprego.criteria import Criteria
from sprego.equivalence import ColumnSpec, DatasetSchema, gen_dataset
from sprego.evaluator import (
    BASELINE_FUNCTIONS,
    CORE_FUNCTIONS,
    EXTENDED_FUNCTIONS,
    FUNCTION_SPECS,
    EvalContext,
    evaluate,
    index_select,
    match_position,
    precedents,
    search_position,
)
from sprego.formula import Call, CellRef, NameRef, NumberLit, RangeRef, format, parse
from sprego.rewrite import rewrite
from sprego.table import PARTITION_MIN_ROWS, RangeView, Table, vector
from sprego.values import ErrorKind

from helpers import (
    make_table,
    oracle_countif,
    oracle_criteria_reduce,
    oracle_match_ascending,
    oracle_match_descending,
    oracle_match_exact,
    random_elementwise_source,
    reference_matches,
    reference_propagating,
)


def ev(src, table=None, mode="array", row=None, seed=0):
    ctx = EvalContext(table or Table("empty", (), ()), current_row=row, rng_seed=seed, mode=mode)
    return evaluate(parse(src), ctx)


@pytest.fixture
def nums():
    return make_table(x=(1, 2, 3))


# ---------------------------------------------------------------------------
# catalog sets
# ---------------------------------------------------------------------------


def test_function_sets_exact():
    assert CORE_FUNCTIONS == {
        "LEN", "LEFT", "RIGHT", "SEARCH",
        "SUM", "AVERAGE", "MIN", "MAX",
        "IF", "MATCH", "INDEX", "ISERROR",
    }
    assert EXTENDED_FUNCTIONS == {
        "SUBSTITUTE", "SMALL", "LARGE", "AND", "OR", "NOT",
        "INT", "ROUND", "RAND", "OFFSET", "ROW", "COLUMN",
    }
    assert BASELINE_FUNCTIONS == {
        "COUNT", "COUNTA", "COUNTIF", "COUNTIFS", "SUMIF",
        "SUMIFS", "AVERAGEIF", "VLOOKUP", "HLOOKUP", "IFERROR",
    }
    assert not CORE_FUNCTIONS & EXTENDED_FUNCTIONS
    assert not (CORE_FUNCTIONS | EXTENDED_FUNCTIONS) & BASELINE_FUNCTIONS
    for name in CORE_FUNCTIONS | EXTENDED_FUNCTIONS | BASELINE_FUNCTIONS:
        assert name in FUNCTION_SPECS


def test_only_the_functions_that_need_syntax_take_it_unevaluated():
    # IF evaluates a branch only when it may be taken; OFFSET, ROW and COLUMN
    # read the reference itself, and RAND draws at each call. SUM reads its
    # arguments' values, IF's masked view among them
    assert {name for name, spec in FUNCTION_SPECS.items() if spec.call == "raw"} == {
        "IF", "OFFSET", "ROW", "COLUMN", "RAND",
    }
    assert FUNCTION_SPECS["SUM"].shape == "scalar"


# ---------------------------------------------------------------------------
# operators and coercion
# ---------------------------------------------------------------------------


def test_sum_example(nums):
    assert ev("=SUM(A1:A3)", nums) == 6.0


def test_sum_accumulates_left_to_right():
    # a plain += in cell order: 1e16 + 1 rounds back to 1e16, so the 1 is
    # lost; a compensated sum (math.fsum, or sum() from Python 3.12 on)
    # would return 1.0
    t = make_table(x=(1e16, 1.0, -1e16))
    assert repr(ev("=SUM(x)", t)) == "0.0"
    assert repr(ev("{=SUM(IF(x<>0,x,0))}", t)) == "0.0"


def test_average_accumulates_left_to_right():
    # the same plain += as SUM: a compensated sum would give 1/3
    t = make_table(x=(1e16, 1.0, -1e16))
    assert repr(ev("=AVERAGE(x)", t)) == "0.0"
    assert repr(ev("=AVERAGE(x,x)", t)) == "0.0"


def test_array_broadcast(nums):
    out = ev("{=A1:A3*2}", nums)
    assert out.cells == (2.0, 4.0, 6.0)


def test_sum_if_composite(nums):
    # brute-force filter-count over [1,2,3] with >1: two cells qualify
    assert ev("{=SUM(IF(A1:A3>1,1,0))}", nums) == 2.0


def test_divide_by_zero():
    assert ev("=1/0") is ErrorKind.DIV0


def test_numeric_text_coerces():
    assert ev('="5"+1') == 6.0


def test_non_numeric_text_value_error():
    assert ev('="a"+1') is ErrorKind.VALUE


def test_logical_and_blank_coercion(nums):
    assert ev("=TRUE+1") == 2.0
    assert ev("=FALSE*9") == 0.0
    t = make_table(x=(None, 1))
    assert ev("=A1+5", t) == 5.0


def test_percent_postfix():
    assert ev("=50%") == 0.5
    assert ev("=200%%") == 0.02


def test_power_and_unary():
    assert ev("=-2^2") == 4.0
    assert ev("=2^-1") == 0.5
    assert ev("=0^0") is ErrorKind.NUM
    assert ev("=(0-8)^0.5") is ErrorKind.NUM


def test_zero_to_a_negative_power_is_div0():
    # Excel: 0^-1 is #DIV/0!, while 0^0 stays #NUM!
    assert ev("=0^-1") is ErrorKind.DIV0
    assert ev("=0^-0.5") is ErrorKind.DIV0
    assert ev("{=x^-1}", make_table(x=(2, 0, -4))).cells == (0.5, ErrorKind.DIV0, -0.25)


def test_overflow_is_error_not_inf():
    assert ev("=1e308*10") is ErrorKind.NUM


def test_concat_coercions():
    assert ev('="n="&5') == "n=5"
    assert ev("=TRUE&1") == "TRUE1"
    t = make_table(x=(None,))
    assert ev('=A1&"x"', t) == "x"


def test_comparison_total_order():
    assert ev("=1<2") is True
    assert ev('="b">"AX"') is True  # case-insensitive text
    assert ev('="B"="b"') is True
    assert ev('=360>"42"') is False  # every number < every text
    assert ev('="zz"<TRUE') is True  # every text < every logical
    assert ev("=FALSE<TRUE") is True


def test_blank_comparisons():
    t = make_table(x=(None,))
    assert ev("=A1=0", t) is True
    assert ev('=A1=""', t) is True
    assert ev("=A1=FALSE", t) is True
    assert ev("=A1<1", t) is True


def test_error_propagates_through_operators():
    assert ev("=1/0+5") is ErrorKind.DIV0
    assert ev('=LEN(1/0)&"x"') is ErrorKind.DIV0


def test_unknown_function_name():
    assert ev("=NOPE(1)") is ErrorKind.NAME


def test_wrong_arity_value_error():
    assert ev("=LEN()") is ErrorKind.VALUE
    assert ev("=LEN(1,2)") is ErrorKind.VALUE


# ---------------------------------------------------------------------------
# array and scalar modes
# ---------------------------------------------------------------------------


def test_vector_length_mismatch_fills_value_errors():
    t = make_table(a=(1, 2, 3), b=(1, 2, 3))
    out = ev("{=A1:A3+B1:B2}", t)
    assert all(c is ErrorKind.VALUE for c in out.cells)
    assert len(out) == 3


def test_scalar_mode_indexes_vectors(nums):
    assert ev("=A1:A3+1", nums, mode="scalar", row=2) == 3.0
    assert ev("=x*10", nums, mode="scalar", row=3) == 30.0


def test_scalar_mode_aggregates_whole_range(nums):
    for row in (1, 2, 3):
        assert ev("=SUM(x)/3", nums, mode="scalar", row=row) == 2.0


def test_scalar_mode_requires_current_row(nums):
    with pytest.raises(ValueError):
        ev("=x+1", nums, mode="scalar")


def test_scalar_mode_single_cell_range(nums):
    assert ev("=A2:A2*5", nums, mode="scalar", row=1) == 10.0


def test_if_scalar_lazy_branches(nums):
    # untaken branch errors are irrelevant
    assert ev("=IF(TRUE,1,1/0)") == 1.0
    assert ev("=IF(FALSE,1/0,2)") == 2.0


def test_if_vector_condition(nums):
    out = ev('{=IF(A1:A3>1,"y","n")}', nums)
    assert out.cells == ("n", "y", "y")


def test_if_vector_with_vector_branches(nums):
    out = ev("{=IF(A1:A3>1,A1:A3,0)}", nums)
    assert out.cells == (0.0, 2.0, 3.0)


def test_if_condition_error_propagates():
    assert ev("=IF(1/0,1,2)") is ErrorKind.DIV0


def test_if_text_condition_value_error():
    assert ev('=IF("x",1,2)') is ErrorKind.VALUE


def test_if_omitted_else_is_false():
    assert ev("=IF(FALSE,1)") is False


def test_if_per_cell_error_only_taken_branch(nums):
    out = ev("{=IF(A1:A3>1,A1:A3/0,9)}", nums)
    assert out.cells == (9.0, ErrorKind.DIV0, ErrorKind.DIV0)


def test_array_vs_copy_small(nums):
    array = ev("{=LEN(x&\"!\")+1}", nums)
    per_row = [ev("=LEN(x&\"!\")+1", nums, mode="scalar", row=r) for r in (1, 2, 3)]
    assert list(array.cells) == per_row


@pytest.mark.parametrize("seed", range(10))
def test_array_vs_copy_random(seed):
    rng = random.Random(seed)
    t = make_table(
        a=tuple(rng.randint(0, 9) for _ in range(6)),
        b=tuple(rng.choice(["x", "yy", "5", ""]) for _ in range(6)),
        c=tuple(rng.choice([True, False, None, 2.5]) for _ in range(6)),
    )
    src = random_elementwise_source(rng, ["a", "b", "c"])
    array = ev(src, t)
    per_row = [ev(src, t, mode="scalar", row=r) for r in range(1, 7)]
    if isinstance(array, RangeView):
        assert list(array.cells) == per_row
    else:
        assert per_row == [array] * 6


# ---------------------------------------------------------------------------
# number kernels against the per-cell operators
# ---------------------------------------------------------------------------

_KERNEL_OPS = ("+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=")
_EDGE_FLOATS = (0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1.5, -2.0)


def _same_cell(got, want) -> bool:
    """Same type and equal, or the same error; repr also tells -0.0 from 0.0."""
    if isinstance(want, ErrorKind):
        return got is want
    return type(got) is type(want) and got == want and repr(got) == repr(want)


def _per_cell(op, xs, ys):
    return [evaluator._BINARY_OPS[op](x, y) for x, y in zip(xs, ys)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts kernel calls per operator, so a case cannot pass by falling
    back to the per-cell path."""
    calls = dict.fromkeys(_KERNEL_OPS, 0)
    for op in _KERNEL_OPS:
        kernel = evaluator._BINARY_KERNELS[op]

        def counted(xs, ys, op=op, run=kernel.run):
            calls[op] += 1
            return run(xs, ys)

        monkeypatch.setitem(evaluator._BINARY_KERNELS, op, evaluator.Kernel(kernel.accepts, counted))
    return calls


def _check_lift(op, table, left, right, xs, ys, calls):
    before = calls[op]
    got = ev(f"{{={left}{op}{right}}}", table)
    want = _per_cell(op, xs, ys)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got.cells, want)):
        assert _same_cell(g, w), (op, left, right, i, xs[i], ys[i], g, w)
    assert calls[op] == before + 1


@pytest.mark.parametrize("op", _KERNEL_OPS)
def test_kernels_match_per_cell_on_generated_columns(op, kernel_calls):
    schema = DatasetSchema(
        (
            ColumnSpec("a"),
            ColumnSpec("b", integers=True, lo=0, hi=4),
            ColumnSpec("c", "sorted-ascending", lo=-5, hi=5),
            ColumnSpec("d", "sorted-descending", integers=True, lo=0, hi=3),
        ),
        rows=40,
    )
    for seed in range(5):
        t = gen_dataset(schema, seed)
        cols = dict(zip("abcd", t.columns))
        for x, y in itertools.permutations("abcd", 2):
            _check_lift(op, t, x, y, cols[x], cols[y], kernel_calls)
        # vector against scalar, in both orders
        _check_lift(op, t, "a", "B2", cols["a"], [cols["b"][1]] * 40, kernel_calls)
        _check_lift(op, t, "B2", "c", [cols["b"][1]] * 40, cols["c"], kernel_calls)
        _check_lift(op, t, "d", "2", cols["d"], [2.0] * 40, kernel_calls)


@pytest.mark.parametrize("op", _KERNEL_OPS)
def test_kernels_match_per_cell_on_edge_floats(op, kernel_calls):
    # every pair of edge values: zeros of both signs (the divisor gives
    # #DIV/0!), +-1e308 (overflow to #NUM! under + and *), the smallest
    # subnormal
    pairs = list(itertools.product(_EDGE_FLOATS, repeat=2))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    t = make_table(x=xs, y=ys)
    _check_lift(op, t, "x", "y", xs, ys, kernel_calls)
    n = len(pairs)
    for i, v in enumerate(_EDGE_FLOATS, 1):
        _check_lift(op, t, "x", f"B{i}", xs, [ys[i - 1]] * n, kernel_calls)
        _check_lift(op, t, f"A{i * len(_EDGE_FLOATS)}", "y", [v] * n, ys, kernel_calls)


@pytest.mark.parametrize("op", _KERNEL_OPS)
def test_kernels_row_against_column_and_length_mismatch(op, kernel_calls):
    t = make_table(a=(1.5, 0.0, -2.0, 7.0), b=(0.0, 3.0, -2.0, 1e308), c=(2.0, 2.0, 2.0, 5e-324))
    across, down = (t.cell(1, 1), t.cell(1, 2), t.cell(1, 3)), t.columns[0][:3]
    # A1:C1 runs along row 1; it pairs positionally with a column of three
    got = ev(f"{{=A1:C1{op}A1:A3}}", t)
    assert (got.rows, got.cols) == (1, 3)
    assert all(_same_cell(g, w) for g, w in zip(got.cells, _per_cell(op, across, down)))
    assert kernel_calls[op] == 1
    # a length mismatch is #VALUE! in every cell and runs no kernel
    got = ev(f"{{=A1:A4{op}B1:B3}}", t)
    assert got.cells == (ErrorKind.VALUE,) * 4
    assert kernel_calls[op] == 1


@pytest.mark.parametrize("op", _KERNEL_OPS)
def test_kernels_skip_columns_that_are_not_all_floats(op, kernel_calls):
    # one blank, text, logical or error cell sends the whole range down the
    # per-cell path, which coerces it
    for odd in (None, "3", True, ErrorKind.NA):
        xs = (1.0, 2.0, odd, 4.0)
        ys = (2.0, 0.0, 1.0, 4.0)
        t = make_table(x=xs, y=ys)
        got = ev(f"{{=x{op}y}}", t)
        assert all(_same_cell(g, w) for g, w in zip(got.cells, _per_cell(op, xs, ys)))
    assert kernel_calls[op] == 0


# ---------------------------------------------------------------------------
# the mixed path: text kernels, the error scan and IF against per-cell
# ---------------------------------------------------------------------------

# every kind of cell: numbers (integral, -0.0, 1e16, fractions), numeric
# and other text, "", logicals, blank and each error
_ODD_CELLS = (
    1.0, -0.0, 0.0, 1e16, 123.0, 0.1, -2.5, 1e-7,
    "12", " 3 ", "", "abc", "TRUE",
    True, False, None,
    *ErrorKind,
)


def _mixed_columns():
    """Columns of 40 cells: gen_dataset's with-errors, with-blanks and mixed
    kinds over a few seeds, plus _ODD_CELLS in two orders."""
    schema = DatasetSchema(
        (
            ColumnSpec("e", "with-errors"),
            ColumnSpec("b", "with-blanks", integers=True, lo=0, hi=3),
            ColumnSpec("m", "mixed", mixed_types=("number", "text", "logical", "blank", "error")),
            ColumnSpec("t", "text", alphabet=("a", " ", "é", "1")),
        ),
        rows=40,
    )
    cols = []
    for seed in range(3):
        cols.extend(gen_dataset(schema, seed).columns)
    odd = (_ODD_CELLS * 3)[:40]
    cols += [odd, odd[::-1], *_logical_columns()]
    return cols


def _logical_columns():
    """Columns of 40 cells that each equal TRUE or FALSE, which IF reads
    by truth: logicals, 1 and 0 of both signs; mostly true, mostly false,
    all one way."""
    flags = (True, 1.0, False, 0.0, -0.0) * 8
    coin = gen_dataset(DatasetSchema((ColumnSpec("l", "logical"),), rows=40), 5).columns[0]
    return [flags, flags[::-1], coin, (True,) * 37 + (False, 0.0, -0.0), (False,) * 40, (1.0,) * 40]


def _lifted_cases():
    """(formula over columns x and y, per-cell reference, whether the
    reference propagates errors, the columns it takes in order)."""
    ops = evaluator._BINARY_OPS
    specs = FUNCTION_SPECS
    return [
        ("x&y", ops["&"], True, "xy"),
        ('x&""', lambda a: ops["&"](a, ""), True, "x"),
        ('"<"&x', lambda a: ops["&"]("<", a), True, "x"),
        ("x&1", lambda a: ops["&"](a, 1.0), True, "x"),
        ("LEN(x)", specs["LEN"].impl, True, "x"),
        # LEN of what x&"" gives, x's errors passing through
        ('LEN(x&"")', lambda a: specs["LEN"].impl(ops["&"](a, "")), True, "x"),
        ("ISERROR(x)", specs["ISERROR"].impl, False, "x"),
        ("x+y", ops["+"], True, "xy"),
        ("x/y", ops["/"], True, "xy"),
        ("x^y", ops["^"], True, "xy"),
        ("x<y", ops["<"], True, "xy"),
        ("-x", evaluator._UNARY_OPS["-"], True, "x"),
        ("LEFT(x,y)", specs["LEFT"].impl, True, "xy"),
        ("SEARCH(x,y)", specs["SEARCH"].impl, True, "xy"),
        ("ROUND(x,y)", specs["ROUND"].impl, True, "xy"),
        ("NOT(x)", specs["NOT"].impl, True, "x"),
        ("IF(x,y,x)", evaluator._if_cell, False, "xyx"),
        ("IF(x,1,y)", lambda c, e: evaluator._if_cell(c, 1.0, e), False, "xy"),
    ]


@pytest.mark.parametrize("source,fn,propagate,names", _lifted_cases(), ids=[c[0] for c in _lifted_cases()])
def test_mixed_path_matches_per_cell(source, fn, propagate, names):
    ref = reference_propagating(fn) if propagate else fn
    cols = _mixed_columns()
    for xs, ys in itertools.product(cols, cols[::3]):
        got = ev("{=" + source + "}", make_table(x=xs, y=ys))
        want = [ref(*cells) for cells in zip(*({"x": xs, "y": ys}[n] for n in names))]
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got.cells, want)):
            assert _same_cell(g, w), (source, i, xs[i], ys[i], g, w)


def test_if_picks_by_truth_on_logical_conditions(monkeypatch):
    picks = []
    select = evaluator._select
    monkeypatch.setattr(evaluator, "_select", lambda *a: picks.append(None) or select(*a))
    cols = _mixed_columns()
    conds = _logical_columns()
    for cond, xs in itertools.product(conds, cols[::2]):
        t = make_table(c=cond, x=xs, y=xs[::-1])
        for source, then_s, else_s in (
            ("{=IF(c,x,y)}", xs, xs[::-1]),
            ("{=IF(c,x)}", xs, [False] * 40),
            ('{=IF(c,"t",y)}', ["t"] * 40, xs[::-1]),
        ):
            got = ev(source, t)
            want = [evaluator._if_cell(c, a, b) for c, a, b in zip(cond, then_s, else_s)]
            assert all(_same_cell(g, w) for g, w in zip(got.cells, want)), (source, cond)
    assert len(picks) == 3 * len(conds) * len(cols[::2])


def test_if_reads_a_branch_of_the_conditions_size_by_position():
    # a branch view as long as a vector condition is read cell by cell in
    # row-major order, in the condition's shape, whatever its own; a view
    # of any other size is #VALUE! wherever it is taken
    t = make_table(a=(1, 2, 3, 4, 5, 6), b=(1, 0, 1, 0, 1, 0), c=(9, 8, 7, 6, 5, 4))
    v = ErrorKind.VALUE
    for source, shape, cells in (
        ("{=IF(A1:A6>2,C1:C3,0)}", (6, 1), (0.0, 0.0, v, v, v, v)),
        ("{=IF(A1:A6>2,0,C1:C3)}", (6, 1), (v, v, 0.0, 0.0, 0.0, 0.0)),
        # A1:B3 is 1,1 / 2,0 / 3,1: only A3 is past 2, every cell but B2 past 0
        ("{=IF(A1:B3>2,C1:C6,0)}", (3, 2), (0.0, 0.0, 0.0, 0.0, 5.0, 0.0)),
        ("{=IF(A1:B3>0,C1:C6,-1)}", (3, 2), (9.0, 8.0, 7.0, -1.0, 5.0, 4.0)),
        ("{=IF(A1:B3>2,A1:C2,0)}", (3, 2), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        ("{=IF(A1:B3>0,A1:C2,-1)}", (3, 2), (1.0, 1.0, 9.0, -1.0, 0.0, 8.0)),
        ("{=IF(A1:B3>0,C1:C6,A1:C2)}", (3, 2), (9.0, 8.0, 7.0, 2.0, 5.0, 4.0)),
        ("{=IF(C1:C6>6,A1:B3)}", (6, 1), (1.0, 1.0, 2.0, False, False, False)),
        ("{=IF(A1:A1>0,C1:C3,0)}", (1, 1), (v,)),
        ("{=IF(A1:A6>0,A1:B3,C1:C2)}", (6, 1), (1.0, 1.0, 2.0, 0.0, 3.0, 1.0)),
    ):
        got = ev(source, t)
        assert (got.rows, got.cols) == shape, source
        assert len(got.cells) == len(cells) and all(map(_same_cell, got.cells, cells)), (source, got.cells)


def test_if_over_a_split_column_reads_a_branch_of_another_size_as_value():
    # the dirty column is long enough to split, and each IF's condition is
    # split over it or is the column itself; a branch as long as the column
    # is read by position, and one of any other length is #VALUE!
    rows = PARTITION_MIN_ROWS + 16
    xs = tuple(("", "abc", True, None, ErrorKind.NA)[i % 5] if i % 3 == 0 else float(i % 7) for i in range(rows))
    fs = tuple(float(i % 5) for i in range(rows))
    t = make_table(x=xs, f=fs)
    short = f"B1:B{rows - 1}"
    ops, v = evaluator._BINARY_OPS, ErrorKind.VALUE

    def iserror_plus_0(x):
        return isinstance(ops["+"](x, 0.0), ErrorKind)

    for source, want in (
        (f"IF(ISERROR(x+0),{short},x)", lambda x, f: v if iserror_plus_0(x) else x),
        (f"IF(ISERROR(x+0),x,{short})", lambda x, f: x if iserror_plus_0(x) else v),
        (f"IF(x>3,{short},f)", lambda x, f: evaluator._if_cell(ops[">"](x, 3.0), v, f)),
        (f"IF(x,{short},x+0)", lambda x, f: evaluator._if_cell(x, v, ops["+"](x, 0.0))),
    ):
        got = ev("{=" + source + "}", t)
        assert (got.rows, got.cols) == (rows, 1), source
        for i, (g, x, f) in enumerate(zip(got.cells, xs, fs)):
            assert _same_cell(g, want(x, f)), (source, i, x, g)


def test_error_argument_wins_over_failed_coercion():
    # the first error argument is the result, even when an argument before
    # it fails to coerce: "abc"+#N/A is #N/A, not #VALUE!
    errs = make_table(e=(ErrorKind.NA, 2.0, ErrorKind.DIV0), t=("x", "abc", "y"))
    assert ev('{="abc"+e}', errs).cells == (ErrorKind.NA, ErrorKind.VALUE, ErrorKind.DIV0)
    assert ev('{=ROUND("x",e)}', errs).cells == (ErrorKind.NA, ErrorKind.VALUE, ErrorKind.DIV0)
    assert ev("{=ROUND(t,e)}", errs).cells == (ErrorKind.NA, ErrorKind.VALUE, ErrorKind.DIV0)
    assert ev("{=e&t}", errs).cells == (ErrorKind.NA, "2abc", ErrorKind.DIV0)
    assert ev('="abc"+A1', errs) is ErrorKind.NA
    assert ev('=ROUND("x",A3)', errs) is ErrorKind.DIV0


# two errors, texts that do and do not read as numbers, a blank, the
# logicals and numbers from zeros of both signs to the edge of overflow
_ERROR_RULE_GRID = (
    ErrorKind.NA, ErrorKind.DIV0, "", "abc", " 3 ", "-1", None, True, False,
    0.0, -0.0, 1.0, 2.7, -1.0, 1e20, 1e308,
)


def _error_rule_cases():
    """(name, per-cell function, arity): every operator and every
    elementwise function at each arity, but ISERROR and IFERROR, which read
    errors as values."""
    cases = [(op, fn, 2) for op, fn in evaluator._BINARY_OPS.items()]
    cases += [("unary " + op, fn, 1) for op, fn in evaluator._UNARY_OPS.items()]
    cases.append(("emptiness test", evaluator._fn_is_empty, 1))
    for name, spec in FUNCTION_SPECS.items():
        if spec.call == "elementwise" and name not in ("ISERROR", "IFERROR"):
            cases += [(name, spec.impl, n) for n in range(spec.min_args, spec.max_args + 1)]
    return cases


@pytest.mark.parametrize("name,fn,arity", _error_rule_cases(), ids=[f"{c[0]}/{c[2]}" for c in _error_rule_cases()])
def test_each_function_returns_its_first_error_argument(name, fn, arity):
    # an error argument wins over a failed coercion, the first in argument
    # order wins; with no error argument the function is left as it is
    ref = reference_propagating(fn)
    for args in itertools.product(_ERROR_RULE_GRID, repeat=arity):
        assert _same_cell(fn(*args), ref(*args)), (name, args, fn(*args))


# column A holds the grid, a cell per value; B and C a 3x2 table, and D a
# column with an error cell
_EVALUATED_GRID_TABLE = make_table(
    a=_ERROR_RULE_GRID,
    b=(1.0, 2.0, 3.0) + (None,) * 13,
    c=("a", "b", "c") + (None,) * 13,
    d=(2.0, ErrorKind.NA, 1.0) + (None,) * 13,
)


def _evaluated_error_cases():
    """(name, arity, the range argument, its position): MATCH, INDEX,
    VLOOKUP, HLOOKUP, SMALL and LARGE at each arity over each range they
    take, and OFFSET, whose arguments after the reference are its offsets."""
    cases = []
    for name, ranges, position in (
        ("MATCH", ("B1:B3", "B1:C3"), 1), ("INDEX", ("B1:B3", "B1:C3"), 0), ("VLOOKUP", ("B1:C3",), 1),
        ("HLOOKUP", ("B1:C3",), 1), ("SMALL", ("B1:B3", "D1:D3"), 0), ("LARGE", ("B1:B3", "D1:D3"), 0),
        ("OFFSET", ("B2",), 0),
    ):
        spec = FUNCTION_SPECS[name]
        cases += [(name, n, r, position) for n in range(spec.min_args, spec.max_args + 1) for r in ranges]
    return cases


@pytest.mark.parametrize(
    "name,arity,range_arg,position",
    _evaluated_error_cases(),
    ids=[f"{c[0]}/{c[1]}/{c[2]}" for c in _evaluated_error_cases()],
)
def test_each_evaluated_function_returns_its_first_error_argument(name, arity, range_arg, position):
    # every other argument is a cell of the grid, its value once collapsed:
    # an error argument wins over a failed coercion and the first one wins,
    # and a range is never an error argument (a first error cell of SMALL's
    # or LARGE's range is its failed read)
    ctx = EvalContext(_EVALUATED_GRID_TABLE)
    grid_cells = [CellRef("A", row) for row in range(1, len(_ERROR_RULE_GRID) + 1)]
    range_expr = parse("=" + range_arg).body
    for rows in itertools.product(range(len(_ERROR_RULE_GRID)), repeat=arity - 1):
        args = [grid_cells[i] for i in rows]
        args.insert(position, range_expr)
        got = evaluate(Call(name, tuple(args)), ctx)
        want = next((v for v in map(_ERROR_RULE_GRID.__getitem__, rows) if type(v) is ErrorKind), got)
        assert _same_cell(got, want), (name, format(Call(name, tuple(args))), got)


@pytest.fixture
def spies(monkeypatch):
    """Counts runs of the & and LEN kernels."""
    calls = {"&": 0, "LEN": 0}

    def counting(name, kernel):
        def run(*streams):
            calls[name] += 1
            return kernel.run(*streams)

        return evaluator.Kernel(kernel.accepts, run)

    monkeypatch.setitem(evaluator._BINARY_KERNELS, "&", counting("&", evaluator._BINARY_KERNELS["&"]))
    spec = FUNCTION_SPECS["LEN"]
    monkeypatch.setitem(FUNCTION_SPECS, "LEN", dataclasses.replace(spec, kernel=counting("LEN", spec.kernel)))
    return calls


def test_text_kernels_run_by_argument_type(spies):
    t = make_table(n=(1.0, -0.0, 1e16, 0.25), s=("a", "", "bc", "12"), m=(True, None, "x", 2.0))
    # & takes any cells but errors; LEN only text
    assert ev('{=n&s&m&""}', t).cells == ("1aTRUE", "0", "1e+16bcx", "0.25122")
    assert spies == {"&": 3, "LEN": 0}
    assert ev("{=LEN(s)}", t).cells == (1.0, 0.0, 2.0, 2.0)
    assert ev("{=LEN(m)}", t).cells == (4.0, 0.0, 1.0, 1.0)
    assert spies == {"&": 3, "LEN": 1}
    # an error cell or argument sends the call down the per-cell path,
    # where each function returns its first error argument
    e = make_table(s=("a", ErrorKind.NA, "b"))
    assert ev('{=LEN(s&"!")}', e).cells == (2.0, ErrorKind.NA, 2.0)
    assert ev('{=s&(1/0)}', e).cells == (ErrorKind.DIV0, ErrorKind.NA, ErrorKind.DIV0)
    assert spies == {"&": 3, "LEN": 1}


def test_per_cell_lift_gives_failed_coercions_and_error_cells():
    t = make_table(x=(1.0, None, "3", True, "abc"), y=(2.0, 2.0, "", 0.0, 1.0))
    assert ev("{=x/y}", t).cells == (0.5, 0.0, ErrorKind.VALUE, ErrorKind.DIV0, ErrorKind.VALUE)
    assert ev("{=ROUND(x,y)}", t).cells == (1.0, 0.0, ErrorKind.VALUE, 1.0, ErrorKind.VALUE)
    # a view holding errors, here ones the division made, passes them on
    assert ev("{=x/y+1}", t).cells == (1.5, 1.0, ErrorKind.VALUE, ErrorKind.DIV0, ErrorKind.VALUE)


# ---------------------------------------------------------------------------
# shared subtrees
# ---------------------------------------------------------------------------


def test_shared_subtree_is_evaluated_once(monkeypatch):
    calls = []
    div = evaluator._BINARY_OPS["/"]
    monkeypatch.setitem(evaluator._BINARY_OPS, "/", lambda a, b: calls.append((a, b)) or div(a, b))
    t = make_table(x=(6, 0), y=(3, "n"))
    # R7 rewrites IFERROR(x, y) to IF(ISERROR(x), y, x) with one x node
    shared = rewrite(parse("=IFERROR(A1/B1,-1)"))[0]
    assert format(shared) == "=IF(ISERROR(A1/B1),-1,A1/B1)"
    ctx = EvalContext(t)
    assert evaluate(shared, ctx) == 2.0
    assert len(calls) == 1
    # the parser builds two x nodes from the same text, and each divides
    assert evaluate(parse(format(shared)), ctx) == 2.0
    assert len(calls) == 3
    # the value is reused within one evaluation only
    assert evaluate(shared, ctx) == 2.0
    assert len(calls) == 4
    # an error x is reused as well: A2/B2 is #VALUE!, so the fallback
    assert evaluate(rewrite(parse("=IFERROR(A2/B2,-1)"))[0], ctx) == -1.0
    assert len(calls) == 5
    # nested, each level's x holds the level below: still one division,
    # where evaluating each x twice would make 2**12
    nested = rewrite(parse("=" + "IFERROR(" * 12 + "A1/B1" + ",-1)" * 12))[0]
    assert evaluate(nested, ctx) == 2.0
    assert len(calls) == 6


def test_shared_subtree_over_rand_draws_twice(monkeypatch):
    # R7's note on IFERROR(1/(RAND()>0.5),-1): the rewrite evaluates its x
    # twice, and the two draws may differ
    draws = []
    spec = FUNCTION_SPECS["RAND"]

    def counted(args, st):
        draws.append(None)
        return spec.impl(args, st)

    monkeypatch.setitem(FUNCTION_SPECS, "RAND", dataclasses.replace(spec, impl=counted))
    shared, plans = rewrite(parse("=IFERROR(1/(RAND()>0.5),-1)"))
    assert "twice" in " ".join(plans[0].notes)
    unshared = parse(format(shared))
    t = Table("empty", (), ())
    results = set()
    for seed in range(40):
        del draws[:]
        got = evaluate(shared, EvalContext(t, rng_seed=seed))
        # a first draw of 0.5 or less makes x an error and IF takes -1;
        # a higher one sends IF to x, which draws again
        assert len(draws) == (1 if random.Random(seed).random() <= 0.5 else 2)
        assert got == evaluate(unshared, EvalContext(t, rng_seed=seed))
        results.add(got)
    # #DIV/0! comes from a second draw of 0.5 or less after a first above,
    # which one draw could never give
    assert results == {1.0, -1.0, ErrorKind.DIV0}


# ---------------------------------------------------------------------------
# text functions
# ---------------------------------------------------------------------------


def test_len_counts_characters():
    assert ev('=LEN("abc")') == 3.0
    assert ev('=LEN("")') == 0.0
    assert ev('=LEN("héllo")') == 5.0
    assert ev("=LEN(707)") == 3.0
    assert ev("=LEN(TRUE)") == 4.0


def test_left_right_defaults():
    assert ev('=LEFT("abc")') == "a"
    assert ev('=RIGHT("abc")') == "c"
    assert ev('=LEFT("abc",2)') == "ab"
    assert ev('=RIGHT("abc",2)') == "bc"
    assert ev('=LEFT("abc",9)') == "abc"
    assert ev('=LEFT("abc",0)') == ""
    assert ev('=LEFT("abc",0-1)') is ErrorKind.VALUE


def test_substitute_all_and_instance():
    assert ev('=SUBSTITUTE("aXaX","X","y")') == "ayay"
    assert ev('=SUBSTITUTE("aXaX","X","y",2)') == "aXay"
    assert ev('=SUBSTITUTE("aXaX","X","y",3)') == "aXaX"
    assert ev('=SUBSTITUTE("abc","","y")') == "abc"
    assert ev('=SUBSTITUTE("abc","b","y",0)') is ErrorKind.VALUE


def test_substitute_instance_is_a_count_of_at_least_one():
    # the instance argument coerces as every count does: a blank is 0, not
    # the argument left out, and it is checked before an empty old text
    blank = make_table(a=("aaa",), b=(None,))
    assert ev('=SUBSTITUTE("aaa","a","b",B1)', blank) is ErrorKind.VALUE
    assert ev('=SUBSTITUTE("abc","","y",0)') is ErrorKind.VALUE
    assert ev('=SUBSTITUTE("abc","","y",1)') == "abc"


# one cell of each argument form: an error, text, a blank, a logical and a
# negative number (a negative count where a count is wanted)
_ARGUMENT_FORMS = (ErrorKind.NA, "x", None, True, -1.0)
NA, VAL = ErrorKind.NA, ErrorKind.VALUE


@pytest.mark.parametrize(
    "call, want",
    [
        ("LEN(v)", (NA, 1.0, 0.0, 4.0, 2.0)),
        ("LEFT(v,2)", (NA, "x", "", "TR", "-1")),
        ('LEFT("abc",v)', (NA, VAL, "", "a", VAL)),
        ("RIGHT(v,2)", (NA, "x", "", "UE", "-1")),
        ('RIGHT("abc",v)', (NA, VAL, "", "c", VAL)),
        ('SEARCH(v,"x-1TRUE")', (NA, 1.0, 1.0, 4.0, 2.0)),
        ('SEARCH("u",v)', (NA, VAL, VAL, 3.0, VAL)),
        ('SEARCH("b","abcb",v)', (NA, VAL, VAL, 2.0, VAL)),
        ('SUBSTITUTE(v,"1","z")', (NA, "x", "", "TRUE", "-z")),
        ('SUBSTITUTE("a-1a",v,"z")', (NA, "a-1a", "a-1a", "a-1a", "aza")),
        ('SUBSTITUTE("abc","b",v)', (NA, "axc", "ac", "aTRUEc", "a-1c")),
        ('SUBSTITUTE("aaa","a","b",v)', (NA, VAL, VAL, "baa", VAL)),
        ("INT(v)", (NA, VAL, 0.0, 1.0, -1.0)),
        ("ROUND(v,1)", (NA, VAL, 0.0, 1.0, -1.0)),
        ("ROUND(15.25,v)", (NA, VAL, 15.0, 15.3, 20.0)),
        ("NOT(v)", (NA, VAL, True, False, False)),
        ("-v", (NA, VAL, -0.0, -1.0, 1.0)),
        ("+v", (NA, VAL, 0.0, 1.0, -1.0)),
        ("v%", (NA, VAL, 0.0, 0.01, -0.01)),
    ],
)
def test_each_argument_coerces_in_place(call, want):
    # every argument position of the text, math and logic functions and the
    # unary operators, given each form: per cell in array mode, split over
    # a column past the partition floor, and cell by cell in scalar mode
    short = make_table(v=_ARGUMENT_FORMS)
    assert all(map(_same_cell, ev("{=" + call + "}", short).cells, want)), call
    copies = -(-PARTITION_MIN_ROWS // len(want))
    got = ev("{=" + call + "}", make_table(v=_ARGUMENT_FORMS * copies)).cells
    assert len(got) == len(want) * copies and all(map(_same_cell, got, want * copies)), call
    for row, w in enumerate(want, 1):
        assert _same_cell(ev("=" + call, short, mode="scalar", row=row), w), (call, row)


def test_substitute_case_sensitive():
    assert ev('=SUBSTITUTE("aA","a","x")') == "xA"


def test_search_examples():
    assert ev('=SEARCH("b","abc")') == 2.0
    assert ev('=SEARCH("B","abc")') == 2.0  # case-insensitive
    assert ev('=SEARCH("z","abc")') is ErrorKind.VALUE
    assert ev('=SEARCH("b","abcb",3)') == 4.0
    assert ev('=SEARCH("b","abc",9)') is ErrorKind.VALUE


def test_search_position_direct():
    assert search_position("b", "abc") == 2.0
    assert search_position("B", "abc") == 2.0
    assert search_position("z", "abc") is ErrorKind.VALUE
    assert search_position("", "abc") == 1.0
    assert search_position("a", "abc", 0) is ErrorKind.VALUE


# ---------------------------------------------------------------------------
# math and logic functions
# ---------------------------------------------------------------------------


def test_aggregators_ignore_text_and_logicals():
    t = make_table(x=(1, "9", True, None, 2))
    assert ev("=SUM(x)", t) == 3.0
    assert ev("=AVERAGE(x)", t) == 1.5
    assert ev("=MIN(x)", t) == 1.0
    assert ev("=MAX(x)", t) == 2.0
    assert ev("=COUNT(x)", t) == 2.0


def test_aggregators_propagate_errors():
    t = make_table(x=(1, ErrorKind.NA, 2))
    for fn in ("SUM", "AVERAGE", "MIN", "MAX", "SMALL", "LARGE"):
        src = f"={fn}(x)" if fn not in ("SMALL", "LARGE") else f"={fn}(x,1)"
        assert ev(src, t) is ErrorKind.NA


def test_average_of_nothing_div0():
    t = make_table(x=("a", "b"))
    assert ev("=AVERAGE(x)", t) is ErrorKind.DIV0


def test_minmax_of_nothing_zero():
    t = make_table(x=("a", None))
    assert ev("=MIN(x)", t) == 0.0
    assert ev("=MAX(x)", t) == 0.0


def test_and_or_not():
    assert ev("=AND(TRUE,1,5)") is True
    assert ev("=AND(TRUE,0)") is False
    assert ev("=OR(FALSE,0)") is False
    assert ev("=OR(FALSE,2)") is True
    assert ev("=NOT(0)") is True
    assert ev('=AND("x")') is ErrorKind.VALUE
    t = make_table(x=(None, None))
    assert ev("=AND(x)", t) is ErrorKind.VALUE  # nothing to aggregate


def test_and_or_skip_the_text_cells_of_a_range():
    # as blanks are: a range's text is no argument; text given directly is
    # #VALUE!, and so is a range with nothing else
    t = make_table(y=(4, "a", None), z=(0, "TRUE", None), w=("a", None, "b"), e=("a", ErrorKind.NA, 1))
    assert ev("=AND(y)", t) is True
    assert ev("=OR(y)", t) is True
    assert ev("=AND(z)", t) is False
    assert ev("=OR(z)", t) is False
    assert ev("=AND(y,w)", t) is True
    assert ev("=AND(w)", t) is ErrorKind.VALUE
    assert ev('=AND(y,"a")', t) is ErrorKind.VALUE
    assert ev("=OR(e)", t) is ErrorKind.NA
    assert ev("=AND(A2)", t) is ErrorKind.VALUE  # one cell: its value, given directly


def test_int_floor():
    assert ev("=INT(3.7)") == 3.0
    assert ev("=INT(0-3.2)") == -4.0


def test_round_half_away_from_zero():
    assert ev("=ROUND(2.5)") == 3.0
    assert ev("=ROUND(0-2.5)") == -3.0
    assert ev("=ROUND(1.234,2)") == 1.23
    assert ev("=ROUND(15,0-1)") == 20.0


def test_round_halves_away_from_zero_at_any_digit():
    for src, want in (
        ("=ROUND(0.5)", 1.0), ("=ROUND(-0.5)", -1.0), ("=ROUND(0.49)", 0.0),
        ("=ROUND(1.25,1)", 1.3), ("=ROUND(-1.25,1)", -1.3), ("=ROUND(0.125,2)", 0.13),
        ("=ROUND(125,-1)", 130.0), ("=ROUND(-125,-1)", -130.0), ("=ROUND(-149,-2)", -100.0),
        ("=ROUND(2.5,0.9)", 3.0), ("=ROUND(1e15+0.5)", 1e15 + 1),
    ):
        assert ev(src) == want, src


def test_round_extreme_digits_follow_excel():
    # 10**d or x * 10**d overflows: x has no digit past the d-th to round
    assert ev("=ROUND(1e300,10)") == 1e300
    assert ev("=ROUND(-1e300,10)") == -1e300
    assert ev("=ROUND(1.5,309)") == 1.5
    assert ev("=ROUND(1,400)") == 1.0
    assert ev("=ROUND(1,1e9)") == 1.0
    # 10**-d underflows to 0: every x rounds to 0
    assert ev("=ROUND(123,-400)") == 0.0
    assert ev("=ROUND(-1e308,0-400)") == 0.0
    assert ev("=ROUND(1,-1e9)") == 0.0
    # at the edges that still scale, the rounding itself
    assert ev("=ROUND(9.99e307,-307)") == 1e308
    assert ev("=ROUND(1.7e308,-308)") is ErrorKind.NUM


def test_round_reads_the_decimal_excel_shows():
    # 1.005 and 0.285 are stored just below their halves; Excel rounds the
    # decimal it shows
    assert ev("=ROUND(1.005,2)") == 1.01
    assert ev("=ROUND(0.285,2)") == 0.29
    assert ev("=ROUND(-1.005,2)") == -1.01


def test_round_is_exact_at_tiny_magnitudes():
    # dividing by 10.0**302 gave 2.3499999999999997e-300
    assert repr(ev("=ROUND(2.345e-300,302)")) == "2.35e-300"
    assert repr(ev("=ROUND(2.345e-307,309)")) == "2.35e-307"


def test_round_never_raises_at_high_precision():
    # 1e300 to 2 places needs 303 digits, past any decimal context's
    # precision: nothing to round, so x itself
    assert ev("=ROUND(1e300,2)") == 1e300
    assert ev("=ROUND(-1.7e308,300)") == -1.7e308
    assert ev("=ROUND(5e-324,400)") == 5e-324


def test_small_large():
    t = make_table(x=(5, 1, 4, 1))
    assert ev("=SMALL(x,1)", t) == 1.0
    assert ev("=SMALL(x,2)", t) == 1.0
    assert ev("=SMALL(x,3)", t) == 4.0
    assert ev("=LARGE(x,1)", t) == 5.0
    assert ev("=LARGE(x,9)", t) is ErrorKind.NUM
    assert ev("=SMALL(x,0)", t) is ErrorKind.NUM


def test_rand_seeded_and_deterministic():
    a = ev("=RAND()", seed=42)
    b = ev("=RAND()", seed=42)
    c = ev("=RAND()", seed=43)
    assert a == b
    assert a != c
    assert 0.0 <= a < 1.0


def test_rand_draw_order_within_formula():
    # two draws in one evaluation differ; a repeated evaluation replays both
    one = ev("=RAND()-RAND()", seed=7)
    two = ev("=RAND()-RAND()", seed=7)
    assert one == two
    assert one != 0.0


def test_offset(nums):
    assert ev("=OFFSET(A1,1,0)", nums) == 2.0
    out = ev("=OFFSET(A1,0,0,3,1)", nums)
    assert out.cells == (1.0, 2.0, 3.0)
    assert out.kind is float  # the view resolve gives a reference
    assert ev("=OFFSET(A1,5,0)", nums) is ErrorKind.REF
    assert ev("=OFFSET(A1,0,0,0,1)", nums) is ErrorKind.REF
    for past_an_edge in ("=OFFSET(A1,-1,0)", "=OFFSET(A1,0,-1)", "=OFFSET(A1,0,0,1,0)", "=OFFSET(A1,0,1E300)"):
        assert ev(past_an_edge, nums) is ErrorKind.REF, past_an_edge
    assert ev("=SUM(OFFSET(x,1,0,2,1))", nums) == 5.0


def test_row_column(nums):
    assert ev("=ROW(A2)", nums) == 2.0
    assert ev("=ROW(A1:A3)", nums).cells == (1.0, 2.0, 3.0)
    assert ev("=ROW()", nums, mode="scalar", row=2) == 2.0
    assert ev("=ROW()", nums).cells == (1.0, 2.0, 3.0)
    assert ev("=COLUMN(B7)", nums) == 2.0
    assert ev("=COLUMN()", nums) is ErrorKind.VALUE


def test_row_before_the_first_is_ref(nums):
    # in scalar mode ROW() is the current row; before row 1 it is #REF!, as
    # a vector operand indexed there is
    for row in (0, -1):
        assert ev("=x", nums, mode="scalar", row=row) is ErrorKind.REF
        assert ev("=ROW()", nums, mode="scalar", row=row) is ErrorKind.REF
    assert ev("=ROW()", nums, mode="scalar", row=1) == 1.0


def test_references_before_the_first_row_or_column_are_ref(nums):
    # a hand-built reference can name row 0, which no sheet has: ROW,
    # COLUMN and OFFSET give #REF! for it as resolve does
    a0 = CellRef("A", 0)
    for call in (Call("ROW", (a0,)), Call("ROW", (RangeRef(a0, CellRef("A", 2)),)), Call("COLUMN", (a0,)),
                 Call("OFFSET", (a0, NumberLit(1.0), NumberLit(0.0)))):
        assert evaluate(call, EvalContext(nums)) is ErrorKind.REF, call
    assert evaluate(a0, EvalContext(nums)) is ErrorKind.REF


def test_references_past_the_sheet_edge(nums):
    # past Excel's last row or column a reference names no cell; ROW and
    # COLUMN would otherwise build one number per row or column of it
    assert ev("{=SUM(ROW(A1:A99999999999))}", nums) is ErrorKind.REF
    assert ev("=COLUMN(A1:ZZZZ1)", nums) is ErrorKind.REF
    assert ev("=ROW(A1048576)", nums) == 1048576.0
    assert ev("=ROW(A1048577)", nums) is ErrorKind.REF
    assert ev("=COLUMN(XFD1)", nums) == 16384.0
    assert ev("=COLUMN(XFE1)", nums) is ErrorKind.REF
    assert ev("=OFFSET(A1:A99999999999,0,0,1,1)", nums) is ErrorKind.REF
    # a table larger than the sheet moves the edge to its own
    wide = make_table(**{f"c{i}": (1,) for i in range(16385)})
    assert ev("=COLUMN(XFE1)", wide) == 16385.0
    assert ev("=COLUMN(XFF1)", wide) is ErrorKind.REF


def test_iserror_and_iferror():
    assert ev("=ISERROR(1/0)") is True
    assert ev("=ISERROR(1)") is False
    assert ev("=IFERROR(1/0,9)") == 9.0
    assert ev("=IFERROR(5,9)") == 5.0


def test_iserror_elementwise(nums):
    out = ev("{=ISERROR(A1:A3/(A1:A3-2))}", nums)
    assert out.cells == (False, True, False)


# ---------------------------------------------------------------------------
# match / index / lookup
# ---------------------------------------------------------------------------


def test_match_examples_from_oracles():
    # ascending: largest value <= lookup
    assert oracle_match_ascending(3, [1, 2, 3, 5]) == 3
    assert match_position(3.0, vector([1.0, 2.0, 3.0, 5.0]), 1) == 3
    # exact
    assert match_position("b", vector(["a", "b", "c"]), 0) == 2
    # descending: smallest value >= lookup
    assert oracle_match_descending(4, [9, 7, 4, 1]) == 3
    assert match_position(4.0, vector([9.0, 7.0, 4.0, 1.0]), -1) == 3
    # nothing <= 0
    assert oracle_match_ascending(0, [1, 2, 3]) is None
    assert match_position(0.0, vector([1.0, 2.0, 3.0]), 1) is ErrorKind.NA


def test_match_case_insensitive_text():
    assert match_position("B", vector(["a", "b", "c"]), 0) == 2


def test_match_matrix_rejected():
    m = RangeView(2, 2, (1.0, 2.0, 3.0, 4.0))
    assert match_position(1.0, m, 0) is ErrorKind.VALUE


def test_match_row_or_column_vector():
    row = RangeView(1, 3, (1.0, 5.0, 9.0))
    assert match_position(5.0, row, 0) == 2


def test_match_unsorted_garbage_tolerated():
    # sorted-assumption scan: stops at the first violation
    assert match_position(4.0, vector([1.0, 9.0, 2.0]), 1) == 1
    assert match_position(4.0, vector([9.0, 1.0, 5.0]), -1) == 1


def test_match_skips_error_cells():
    assert match_position(3.0, vector([1.0, ErrorKind.NA, 3.0]), 1) == 3


def test_match_via_formula(nums):
    assert ev("=MATCH(2,x,0)", nums) == 2.0
    assert ev("=MATCH(9,x,0)", nums) is ErrorKind.NA
    assert ev("=MATCH(2.5,x)", nums) == 2.0  # type defaults to 1


def test_match_exhaustive_small():
    alphabet = [1.0, 3.0, 5.0, 7.0]
    lookups = [0.0, 1.0, 3.0, 4.0, 5.0, 7.0, 8.0]
    for n in range(1, 5):
        for cells in itertools.product(alphabet, repeat=n):
            for lu in lookups:
                got = match_position(lu, vector(cells), 0)
                want = oracle_match_exact(lu, cells)
                assert got == (want if want is not None else ErrorKind.NA)
        for combo in itertools.combinations_with_replacement(alphabet, n):
            asc = vector(combo)
            desc = vector(tuple(reversed(combo)))
            for lu in lookups:
                got = match_position(lu, asc, 1)
                want = oracle_match_ascending(lu, combo)
                assert got == (want if want is not None else ErrorKind.NA)
                got = match_position(lu, desc, -1)
                want = oracle_match_descending(lu, tuple(reversed(combo)))
                assert got == (want if want is not None else ErrorKind.NA)


def test_index_select():
    assert index_select(vector([10.0, 20.0, 30.0]), 2) == 20.0
    m = RangeView(2, 2, (1.0, 2.0, 3.0, 4.0))
    assert index_select(m, 2, 1) == 3.0
    assert index_select(vector([10.0]), 0) is ErrorKind.REF
    assert index_select(vector([10.0]), 2) is ErrorKind.REF
    assert index_select(m, 1) is ErrorKind.VALUE
    assert index_select(m, 3, 1) is ErrorKind.REF


def test_index_via_formula(nums):
    assert ev("=INDEX(x,2)", nums) == 2.0
    assert ev("=INDEX(A1:A3,5)", nums) is ErrorKind.REF


def test_vlookup_exact_and_approx():
    t = make_table(k=(1, 3, 5), u=("a", "b", "c"), v=(10, 30, 50))
    assert ev("=VLOOKUP(3,A1:C3,3,FALSE)", t) == 30.0
    assert ev("=VLOOKUP(4,A1:C3,3,FALSE)", t) is ErrorKind.NA
    assert ev("=VLOOKUP(4,A1:C3,3,TRUE)", t) == 30.0
    assert ev("=VLOOKUP(4,A1:C3,3)", t) == 30.0
    assert ev("=VLOOKUP(0,A1:C3,3)", t) is ErrorKind.NA
    assert ev("=VLOOKUP(3,A1:C3,9,FALSE)", t) is ErrorKind.REF
    assert ev("=VLOOKUP(3,A1:C3,2,FALSE)", t) == "b"


def test_hlookup_over_rows():
    t = make_table(a=(1, "x"), b=(3, "y"), c=(5, "z"))
    assert ev("=HLOOKUP(3,A1:C2,2,FALSE)", t) == "y"
    assert ev("=HLOOKUP(4,A1:C2,2,TRUE)", t) == "y"
    assert ev("=HLOOKUP(4,A1:C2,2,FALSE)", t) is ErrorKind.NA
    assert ev("=HLOOKUP(3,A1:C2,3,FALSE)", t) is ErrorKind.REF


@pytest.mark.parametrize("mode, row", [("array", None), ("scalar", 2)])
@pytest.mark.parametrize("given", ["1/0", "nosuch", "Z1:AA3"])
@pytest.mark.parametrize(
    "template",
    [
        "=MATCH(1,{},0)", "=MATCH(1,{})", "=MATCH(1,{},-1)", "=INDEX({},1)", "=INDEX({},2,1)",
        "=VLOOKUP(1,{},1)", "=VLOOKUP(1,{},1,FALSE)", "=HLOOKUP(1,{},1)", "=HLOOKUP(1,{},1,FALSE)",
    ],
)
def test_an_error_given_as_a_range_is_the_error_argument(template, given, mode, row, nums):
    # a range position reads its argument as SMALL's does: a #DIV/0!, an
    # unknown name's #NAME? and a range past the table's edge's #REF! are
    # the result, not a one-cell range that holds the error
    want = ev(f"=SMALL({given},1)", nums, mode=mode, row=row)
    assert want in (ErrorKind.DIV0, ErrorKind.NAME, ErrorKind.REF)
    assert ev(template.format(given), nums, mode=mode, row=row) is want


# ---------------------------------------------------------------------------
# baselines: counting family
# ---------------------------------------------------------------------------


def test_count_ignores_errors_and_non_numbers():
    t = make_table(x=(1, "a", "5", True, None, ErrorKind.NA, 2))
    assert ev("=COUNT(x)", t) == 2.0


def test_counta_counts_nonblank_and_propagates_errors():
    t = make_table(x=(1, "a", None, False))
    assert ev("=COUNTA(x)", t) == 3.0
    t2 = make_table(x=(1, ErrorKind.REF, None))
    assert ev("=COUNTA(x)", t2) is ErrorKind.REF


def test_countif_criteria_forms():
    t = make_table(x=(1, 6, 8, 3))
    assert ev('=COUNTIF(x,">5")', t) == 2.0
    assert ev('=COUNTIF(x,"<=3")', t) == 2.0
    assert ev("=COUNTIF(x,6)", t) == 1.0
    assert ev('=COUNTIF(x,"6")', t) == 1.0
    assert ev('=COUNTIF(x,"<>6")', t) == 3.0


def test_countif_text_and_blank_criteria():
    t = make_table(x=("apple", "APPLE", "pear", None))
    assert ev('=COUNTIF(x,"apple")', t) == 2.0  # case-insensitive
    assert ev('=COUNTIF(x,"")', t) == 1.0  # blank compares equal to ""


def test_countif_reference_operand():
    t = make_table(x=(1, 6, 8, 3), t_=(5, 0, 0, 0))
    assert ev('=COUNTIF(A1:A4,">"&B1)', t) == 2.0


def test_countif_error_cell_propagates():
    t = make_table(x=(1, ErrorKind.NUM, 9))
    assert ev('=COUNTIF(x,">0")', t) is ErrorKind.NUM


def test_countif_matches_brute_force():
    rng = random.Random(1)
    alphabet = [0.0, 5.0, 7.0, "b"]
    cases = []
    for n in range(1, 5):
        cases.extend(itertools.product(alphabet, repeat=n))
    for n in (5, 6, 7, 8):
        cases.extend(tuple(rng.choice(alphabet) for _ in range(n)) for _ in range(120))
    for cells in cases:
        t = Table("t", ("x",), (tuple(cells),))
        got = ev('=COUNTIF(x,">5")', t)
        want = oracle_countif(cells, lambda v: isinstance(v, float) and v > 5)
        # text cells sort above any number under the engine's total order
        want_text = sum(1 for v in cells if isinstance(v, str))
        if not isinstance(want, ErrorKind):
            want += want_text
        assert got == want


# every kind of cell: numbers on both sides of the thresholds, text,
# logicals, blank and errors
_CRITERIA_ALPHABET = (0.0, 5.0, 7.0, 9.0, "b", True, False, None, ErrorKind.NA, ErrorKind.DIV0)


def _gt5(v):
    # text and logicals sort above every number; blank counts as 0
    return isinstance(v, (str, bool)) or (isinstance(v, float) and v > 5)


def _lt8(v):
    return v is None or (isinstance(v, float) and v < 8)


def test_criteria_aggregators_match_brute_force():
    formulas = {
        "sumif": parse('=SUMIF(x,">5",s)'),
        "sumif-self": parse('=SUMIF(x,">5")'),
        "averageif": parse('=AVERAGEIF(x,">5",s)'),
        "countifs": parse('=COUNTIFS(x,">5",y,"<8")'),
        "sumifs": parse('=SUMIFS(s,x,">5",y,"<8")'),
    }
    rng = random.Random(3)
    for _ in range(1500):
        n = rng.randint(1, 8)
        x, y, s = (tuple(rng.choice(_CRITERIA_ALPHABET) for _ in range(n)) for _ in range(3))
        ctx = EvalContext(Table("t", ("x", "y", "s"), (x, y, s)), mode="array")
        got = {name: evaluate(f, ctx) for name, f in formulas.items()}

        sumif = oracle_criteria_reduce([x], [_gt5], s)
        assert _agrees(got["sumif"], sumif, lambda matched, total: total)
        assert _agrees(
            got["averageif"], sumif, lambda matched, total: total / matched if matched else ErrorKind.DIV0
        )
        self_sum = oracle_criteria_reduce([x], [_gt5], x)
        assert _agrees(got["sumif-self"], self_sum, lambda matched, total: total)
        countifs = oracle_criteria_reduce([x, y], [_gt5, _lt8])
        assert _agrees(got["countifs"], countifs, lambda matched, total: float(matched))
        sumifs = oracle_criteria_reduce([x, y], [_gt5, _lt8], s)
        assert _agrees(got["sumifs"], sumifs, lambda matched, total: total)


def _agrees(got, oracle, expected):
    """got is the oracle's error, or expected(matched, total) exactly."""
    if isinstance(oracle, ErrorKind):
        return got is oracle
    want = expected(*oracle)
    return got is want if isinstance(want, ErrorKind) else (type(got) is float and got == want)


def test_criteria_aggregators_skip_errors_off_matched_rows():
    # an error in the sum range on a row that does not match is never read
    t = make_table(x=(1, 6), s=(ErrorKind.NA, 20))
    assert ev('=SUMIF(x,">5",s)', t) == 20.0
    assert ev('=AVERAGEIF(x,">5",s)', t) == 20.0
    assert ev('=SUMIFS(s,x,">5")', t) == 20.0
    # nor is one in a later criteria range once an earlier criteria missed
    t = make_table(x=(1, 6), y=(ErrorKind.DIV0, 2), s=(10, 20))
    assert ev('=COUNTIFS(x,">5",y,"<8")', t) == 1.0
    assert ev('=SUMIFS(s,x,">5",y,"<8")', t) == 20.0
    # but the error in the first range of that row is
    assert ev('=COUNTIFS(y,"<8",x,">5")', t) is ErrorKind.DIV0


@pytest.mark.parametrize("mode, row", [("array", None), ("scalar", 1)])
def test_criteria_argument_left_over_is_value_error(mode, row):
    # a range with no criteria after it, or a sum range with no pair at all
    t = make_table(x=(1, 2, 3))
    assert ev('=COUNTIFS(A1:A3,">1",B1:B3)', t, mode=mode, row=row) is ErrorKind.VALUE
    assert ev("=SUMIFS(C1:C3,A1:A3)", t, mode=mode, row=row) is ErrorKind.VALUE
    # or criteria ranges of unequal size
    t = make_table(x=(1, 2, 3), y=(2, 3, 4), s=(10, 20, 30))
    assert ev('=COUNTIFS(A1:A3,">1",B1:B2,">1")', t, mode=mode, row=row) is ErrorKind.VALUE
    assert ev('=SUMIFS(C1:C3,A1:A3,">1",B1:B2,">1")', t, mode=mode, row=row) is ErrorKind.VALUE


def test_averageif_counts_matched_rows_with_text_sums():
    t = make_table(x=(6, 7, 1), s=(10, "abc", 40))
    assert ev('=AVERAGEIF(x,">5",s)', t) == 5.0


@pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
def test_binary_comparison_agrees_with_criteria(op):
    universe = (-1.0, 0.0, 2.5, "", "abc", "ABC", "b", True, False, None, *ErrorKind)
    formula = parse(f"=A1{op}B1")
    for a, b in itertools.product(universe, repeat=2):
        ctx = EvalContext(Table("t", ("a", "b"), ((a,), (b,))), mode="array")
        assert evaluate(formula, ctx) is reference_matches(Criteria(op, b), a), (a, op, b)


@pytest.mark.parametrize(
    "src, want, runs",
    [
        ('=COUNTIF(xs,">5")', 2.0, {">": 1}),
        ('=SUMIF(xs,">5",ys)', 4.0, {">": 1}),
        ('=COUNTIFS(xs,">2",ys,"<8")', 3.0, {">": 1, "<": 1}),
    ],
)
def test_criteria_run_the_comparison_kernels_on_floats(src, want, runs, kernel_calls):
    t = make_table(xs=(1, 6, 8, 3), ys=(9, 1, 3, 7))
    assert ev(src, t) == want
    assert {op: n for op, n in kernel_calls.items() if n} == runs


def test_sumif_with_and_without_sum_range():
    t = make_table(x=(1, 6, 8, 3), y=(10, 20, 30, 40))
    assert ev('=SUMIF(x,">5",y)', t) == 50.0
    assert ev('=SUMIF(x,">5")', t) == 14.0
    assert ev('=SUMIF(x,">99",y)', t) == 0.0


def test_sumif_length_mismatch():
    t = make_table(x=(1, 6), y=(10, 20))
    assert ev('=SUMIF(A1:A2,">0",B1:B1)', t) is ErrorKind.VALUE


def test_averageif_and_div0():
    t = make_table(x=(1, 6, 8), y=(10, 20, 30))
    assert ev('=AVERAGEIF(x,">5",y)', t) == 25.0
    assert ev('=AVERAGEIF(x,">5")', t) == 7.0
    assert ev('=AVERAGEIF(x,">99")', t) is ErrorKind.DIV0


def test_countifs_and_sumifs():
    t = make_table(x=(1, 6, 8, 3), y=(1, 1, 9, 1), s=(10, 20, 30, 40))
    assert ev('=COUNTIFS(x,">2",y,"<5")', t) == 2.0
    assert ev('=SUMIFS(s,x,">2",y,"<5")', t) == 60.0
    assert ev('=COUNTIFS(x,">2")', t) == 3.0


def test_countifs_is_and_only():
    t = make_table(x=(1, 9), y=(9, 1))
    assert ev('=COUNTIFS(x,">5",y,">5")', t) == 0.0


def test_ifs_error_order_matches_nested_if():
    # position order decides which error surfaces, like the rewrite's vector
    t = make_table(x=(1, ErrorKind.NA, 2), y=(ErrorKind.DIV0, 1, 1))
    assert ev('=COUNTIFS(x,">0",y,">0")', t) is ErrorKind.DIV0
    t2 = make_table(x=(ErrorKind.NUM, 1), y=(1, ErrorKind.REF))
    assert ev('=COUNTIFS(x,">0",y,">0")', t2) is ErrorKind.NUM


def test_criteria_wildcards_match_literally():
    t = make_table(x=("a*b", "ab"))
    assert ev('=COUNTIF(x,"a*b")', t) == 1.0


# ---------------------------------------------------------------------------
# precedents
# ---------------------------------------------------------------------------


def test_precedents_examples():
    refs = precedents(parse("=SUM(A1:A3)+B2"))
    assert refs == [RangeRef(CellRef("A", 1), CellRef("A", 3)), CellRef("B", 2)]
    assert precedents(parse("=1+2")) == []
    refs = precedents(parse("=IF(age>5,LEN(name),0)"))
    assert refs == [NameRef("age"), NameRef("name")]


def test_precedents_deduplicated():
    refs = precedents(parse("=A1+A1+A1"))
    assert refs == [CellRef("A", 1)]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_full_determinism_with_rand(nums):
    src = "{=SUM(IF(x>RAND()*3,1,0))}"
    assert ev(src, nums, seed=9) == ev(src, nums, seed=9)


def test_error_propagation_property(nums):
    # any error argument in an evaluated position surfaces unchanged
    for kind in ErrorKind:
        t = make_table(x=(kind,))
        assert ev("=LEN(A1)", t) is kind
        assert ev("=A1+1", t) is kind
        assert ev("=SUM(A1)", t) is kind
        assert ev("=NOT(A1)", t) is kind


@pytest.mark.parametrize("seed", range(6))
def test_random_formulas_never_raise(seed):
    # data failures come back as error values, not exceptions
    from helpers import random_source

    rng = random.Random(seed)
    t = make_table(
        age=tuple(rng.randint(0, 9) for _ in range(5)),
        name=tuple(rng.choice(["ann", "bo", "", "5"]) for _ in range(5)),
        score=tuple(rng.choice([1.5, None, True, ErrorKind.NA]) for _ in range(5)),
    )
    for _ in range(300):
        src = random_source(rng, depth=3)
        result = ev(src, t)
        assert result is None or isinstance(result, (float, str, bool, ErrorKind, RangeView))


# ---------------------------------------------------------------------------
# re-import
# ---------------------------------------------------------------------------

_REIMPORT = """
import gc, sys
sys.path.insert(0, {src!r})
import sprego.cli
for _ in range(5):
    for name in [m for m in sys.modules if m == "sprego" or m.startswith("sprego.")]:
        del sys.modules[name]
    import sprego.cli
gc.collect()
print(sum(isinstance(o, type) and o.__qualname__ == "ErrorKind" for o in gc.get_objects()))
"""


def test_reimport_frees_the_old_modules():
    # nothing the package registers at import (such as a typing cache
    # entry keyed by its classes) may keep an earlier import alive
    src = str(Path(sprego.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _REIMPORT.format(src=src)], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


def test_numeral_text_padded_with_information_separators_coerces():
    # str.strip drops U+001C-U+001F, float() alone rejects them
    t = make_table(v=(1,))
    for src in ['="1\x1c"+0', '="\x1f1"*1', '=COUNTIF(v,"\x1e1")']:
        assert evaluate(parse(src), EvalContext(t)) == 1.0, src
