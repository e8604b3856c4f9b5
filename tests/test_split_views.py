"""Split results kept split from node to node.

An elementwise node over a partitioned column gives a split view: its
result on the float cells and on the other cells, not yet merged into
column order. The next elementwise node, ISERROR, the emptiness test, IF
and IFERROR run part by part over it; SUM adds it part by part only where
that gives the bits of a left-to-right sum in column order; evaluate()
hands the caller a plain view with its cells built. A column of text has
kind str: a node whose kernel takes it (LEN, &) reads it whole, and any
other node splits it, once per distinct text."""

import dataclasses
import random
from collections import Counter

import pytest

from sprego import evaluator, load_csv, table
from sprego.evaluator import FUNCTION_SPECS, EvalContext, Kernel, evaluate
from sprego.formula import parse
from sprego.rewrite import rewrite
from sprego.table import PARTITION_MIN_ROWS, RangeView
from sprego.values import ErrorKind

from helpers import make_table, reference_sum
from test_evaluator import _same_cell
from test_range_kinds import fused  # noqa: F401

ROWS = 2 * PARTITION_MIN_ROWS
_ODD = ("12", " 3.5", "abc", "", None, True, ErrorKind.NA, ErrorKind.DIV0)


def _dirty(seed: int, odd: float = 1 / 6) -> tuple:
    """Floats with one decimal, zeros among them, and odd cells, numeric
    text included."""
    rng = random.Random(seed)
    return tuple(rng.choice(_ODD) if rng.random() < odd else round(rng.uniform(-3, 3), 1) for _ in range(ROWS))


def _csv(**columns) -> str:
    def field(v):
        return "" if v is None else v.value if isinstance(v, ErrorKind) else str(v).upper() if v is True else str(v)

    lines = [",".join(columns)] + [",".join(map(field, row)) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


@pytest.fixture
def builds(monkeypatch):
    """The columns each partition build is made from."""
    built = []
    partition = table._partition
    monkeypatch.setattr(table, "_partition", lambda cells: built.append(cells) or partition(cells))
    return built


@pytest.fixture
def split_totals(monkeypatch):
    """Whether each split view SUM met was added part by part."""
    taken = []
    split_total = evaluator._split_total

    def counted(v, total):
        out = split_total(v, total)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(evaluator, "_split_total", counted)
    return taken


def _same_as_scalar_mode(t, source):
    got = evaluate(parse("{=" + source + "}"), EvalContext(t))
    assert type(got) is RangeView and len(got) == t.row_count, source
    for row in range(1, t.row_count + 1):
        want = evaluate(parse("=" + source), EvalContext(t, mode="scalar", current_row=row))
        assert _same_cell(got.element(row), want), (source, row, got.element(row), want)
    return got


def test_len_kernel_reads_a_whole_text_column(monkeypatch, builds):
    rng = random.Random(5)
    names = tuple("".join(rng.choice("abcxyz ") for _ in range(rng.randint(0, 9))) + str(i) for i in range(ROWS))
    calls = []
    spec = FUNCTION_SPECS["LEN"]
    kernel = Kernel(spec.kernel.accepts, lambda ts: calls.append(None) or spec.kernel.run(ts))
    monkeypatch.setitem(FUNCTION_SPECS, "LEN", dataclasses.replace(spec, kernel=kernel))
    t = make_table(name=names, f=tuple(map(float, range(ROWS))))
    assert t.column_kind(1) is str
    for source in ("{=LEN(name)}", f"{{=LEN(A1:A{ROWS})}}"):
        before = len(calls)
        got = evaluate(parse(source), EvalContext(t))
        assert len(calls) == before + 1, source
        assert got.kind is float
        assert all(map(_same_cell, got.cells, map(evaluator._fn_len, names))), source
    # &'s kernel takes text whole too
    assert _same_as_scalar_mode(t, 'name&"x"').kind is str
    assert builds == []
    # a range over two text columns is text too; one with a float column is not
    t = make_table(a=names, b=names[::-1], f=tuple(map(float, range(ROWS))))
    assert evaluate(parse(f"=A1:B{ROWS}"), EvalContext(t)).kind is str
    assert evaluate(parse(f"=B1:C{ROWS}"), EvalContext(t)).kind is None


def test_a_node_whose_kernel_does_not_take_text_splits_a_text_column(monkeypatch, builds):
    # a comparison's kernel takes floats alone, LEFT and + have none: each
    # runs once per distinct text, and IF selects from the split condition
    runs = []
    split_cells = evaluator._split_cells
    monkeypatch.setattr(evaluator, "_split_cells", lambda *args: runs.append(None) or split_cells(*args))
    rng = random.Random(6)
    cats = tuple(rng.choice(("A", "b", "12", "")) for _ in range(ROWS))
    t = make_table(cat=cats, f=tuple(float(i % 9) for i in range(ROWS)))
    for source in ('cat="A"', 'IF(cat="A",f,0)', 'IF(cat="A",1,0)', "LEFT(cat,1)", "cat+1", "ISERROR(cat+0)"):
        before = len(runs)
        _same_as_scalar_mode(t, source)
        assert len(runs) > before, source
    assert builds == [cats]


# the shapes a split takes: a column alone, with a scalar, with a float view,
# part by part through ISERROR, the emptiness test, IF and IFERROR, and a
# shared node (R7's rewrite of IFERROR)
_SHAPES = (
    "x+0", "f/x", "x&f", "ISERROR(x+0)", "ISERROR(f/x)", 'LEN(x&"")=0', 'IF(x>1,x*2,x&"")', "IFERROR(f/x,-1)",
    'IF(ISERROR(x+0),0,IF(LEN(x&"")=0,0,1))', "IF(ISERROR(x+0),f,x)", "NOT(ISERROR(x/0))", "IF(f>3,f,0)+x",
)


def test_evaluate_returns_plain_views_and_builds_one_partition_per_column(builds):
    x, y = _dirty(1), _dirty(2, odd=1 / 2)
    f = tuple(float(i % 7) for i in range(ROWS))
    csv = _csv(x=x, y=y, f=f)
    for source in _SHAPES:
        for formula in (parse("{=" + source + "}"), rewrite(parse("{=" + source + "}"))[0]):
            before = len(builds)
            t = load_csv(csv)
            for _ in range(2):  # cold, then warm
                got = evaluate(formula, EvalContext(t))
                assert type(got) is RangeView and type(got.cells) is tuple, source
                assert len(got.cells) == ROWS and (got.rows, got.cols) == (ROWS, 1)
            assert len(builds) == before + 1, source
    # two dirty columns take the per-cell path, built or not
    t = load_csv(csv)
    for source in ("{=x+y}", "{=(x+0)+y}", "{=IF(ISERROR(x+0),y,0)}"):
        got = evaluate(parse(source), EvalContext(t))
        assert type(got) is RangeView and type(got.cells) is tuple
    # a masked IF, nested or not, is built too, and reads no partition
    for source, below in (("{=IF(f>3,f,0)}", 7), ("{=IF(f>3,IF(f<6,f,0),0)}", 6)):
        got = evaluate(parse(source), EvalContext(t))
        assert type(got) is RangeView and type(got.cells) is tuple and got.kind is float
        assert got.cells == tuple(v if 3 < v < below else 0.0 for v in f)
    assert builds[-1:] == [t.columns[0]] and len(builds) == 2 * len(_SHAPES) + 1


def test_iserror_folds_over_a_float_part(monkeypatch):
    calls = []
    spec = FUNCTION_SPECS["ISERROR"]
    kernel = spec.kernel._replace(run=lambda vs: calls.append(len(vs)) or spec.kernel.run(vs))
    monkeypatch.setitem(FUNCTION_SPECS, "ISERROR", dataclasses.replace(spec, kernel=kernel))
    x = _dirty(3)
    t = make_table(x=x, f=tuple(float(i % 5) for i in range(ROWS)))
    floats = sum(type(c) is float for c in x)
    # x+0 keeps kind float on the floats: no scan there
    evaluate(parse("{=ISERROR(x+0)}"), EvalContext(t))
    assert calls == []
    # x/0 is #DIV/0! on every float, a part of no kind: the kernel scans
    # it, and the function runs once per distinct other value
    evaluate(parse("{=ISERROR(x/0)}"), EvalContext(t))
    assert calls == [floats]
    # f/x gives #DIV/0! at x's zeros, and its other part is per cell beside
    # the float view f: ISERROR splits it as any node does, and the kernel
    # scans each part
    assert 0.0 in x
    calls.clear()
    evaluate(parse("{=ISERROR(f/x)}"), EvalContext(t))
    assert calls == [floats, ROWS - floats]


def _check_sum(t, source):
    got = evaluate(parse("{=SUM(" + source + ")}"), EvalContext(t))
    want = reference_sum([evaluate(parse("{=" + source + "}"), EvalContext(t))], None)
    assert _same_cell(got, want), (source, got, want)
    return got


def test_sum_over_a_split_keeps_its_bits(split_totals):
    # non-integral results in both parts: added part by part, 0.7 times the
    # float cells and 0.1 times the errors would lose bits
    x = _dirty(4)
    t = make_table(x=x)
    for source in ("x+0.1", "IF(ISERROR(x+0),0.1,0.7)", "IF(ISERROR(x+0),x+0.1,0.7)"):
        _check_sum(t, source)
    assert split_totals and not any(split_totals)
    # integral addends whose total passes 2**53: 2**52 + 2**52 + 1 rounds
    # the 1 away in column order, but not when the 1s are added first
    split_totals.clear()
    assert _check_sum(t, "IF(ISERROR(x+0),2^52,1)") >= 2.0**53
    assert split_totals == [False]
    # R4's COUNT: 1s and 0s, added part by part
    split_totals.clear()
    count = rewrite(parse("=COUNT(x)"))[0]
    got = evaluate(count, EvalContext(t))
    assert _same_cell(got, _check_sum(t, 'IF(ISERROR(x+0),0,IF(LEN(x&"")=0,0,1))'))
    assert split_totals == [True, True]


def test_a_node_over_a_masked_if_runs_on_its_split_value(monkeypatch):
    # x>0 differs from float to float and, with x's errors blanked, holds
    # logicals, so each IF below is a masked view; a node that reads cells,
    # not masks, takes the IF's split value and splits again, and
    # evaluate() merges the parts once, at the end. Each comparison, each
    # IF's value and the node over it is one split run
    runs, merges = [], []
    split_cells, merge = evaluator._split_cells, evaluator._SplitView._build
    monkeypatch.setattr(evaluator, "_split_cells", lambda *args: runs.append(None) or split_cells(*args))
    monkeypatch.setattr(evaluator._SplitView, "_build", lambda v: merges.append(None) or merge(v))
    t = make_table(x=tuple(None if isinstance(c, ErrorKind) else c for c in _dirty(7)))
    for source, splits in (("ISERROR(IF(x>0,1,0))", 3), ("IF(x>0,1,0)*2", 3), ("ISERROR(IF(x>0,IF(x<2,1,0),0))", 5)):
        runs.clear(), merges.clear()
        _same_as_scalar_mode(t, source)
        assert (len(runs), len(merges)) == (splits, 1), source


def test_sum_masks_a_split_condition_that_differs_on_the_floats(fused):  # noqa: F811
    # x>0 differs from float to float: its IF is the masked sum, as over a
    # plain condition of logicals (x holds no error); the emptiness test is
    # FALSE on every float, so its IF goes part by part and SUM adds the
    # parts. _check_sum evaluates each IF twice, with SUM and without, and
    # without SUM evaluate() builds the masked view
    t = make_table(x=tuple(None if isinstance(c, ErrorKind) else c for c in _dirty(5)))
    _check_sum(t, "IF(x>0,1,0)")
    assert fused == Counter(masked=1, built=1)
    _check_sum(t, 'IF(LEN(x&"")=0,0,1)')
    assert fused == Counter(masked=1, built=3)
