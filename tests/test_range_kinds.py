"""Cell kinds on ranges, SUM over IF as one masked sum, and the IFERROR
kernel, each against what it stands in for.

A view's kind, when set, is the type of every one of its cells. SUM must
give what the per-cell SUM loop over the IF's built cells gives, bit for
bit, whether or not it adds the IF up as a masked sum; IFERROR's kernel
must give what _fn_iferror gives, cell by cell."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from sprego import evaluator, load_csv
from sprego.equivalence import ColumnSpec, DatasetSchema, default_rule_cases, gen_dataset
from sprego.evaluator import FUNCTION_SPECS, EvalContext, Kernel, evaluate
from sprego.formula import Call, parse
from sprego.rewrite import rewrite
from sprego.table import PARTITION_MIN_ROWS, RangeView
from sprego.values import ErrorKind

from helpers import make_table, reference_if, reference_sum
from test_evaluator import _EDGE_FLOATS, _lifted_cases, _logical_columns, _mixed_columns, _same_cell
from test_result_digest import _sheet_csv, _sheet_formulas


def _float_columns():
    """Columns of 40 floats: the edge values (zeros of both signs, +-1e308,
    subnormals), all -0.0, and gen_dataset's numbers over two seeds."""
    schema = DatasetSchema((ColumnSpec("n", "numeric", lo=-5, hi=5),), rows=40)
    generated = [gen_dataset(schema, seed).columns[0] for seed in range(2)]
    return [(_EDGE_FLOATS * 5)[:40], (-0.0,) * 40, *generated]


def _same_result(got, want) -> bool:
    if isinstance(want, RangeView):
        return (
            isinstance(got, RangeView)
            and (got.rows, got.cols) == (want.rows, want.cols)
            and all(map(_same_cell, got.cells, want.cells))
        )
    return _same_cell(got, want)


# ---------------------------------------------------------------------------
# the kind invariant
# ---------------------------------------------------------------------------


@pytest.fixture
def views_by_kind(monkeypatch):
    """Checks that every view built holds only cells of its kind, and counts
    the views by kind."""
    seen = Counter()
    post_init = RangeView.__post_init__

    def checked(self):
        post_init(self)
        assert self.kind is None or all(type(c) is self.kind for c in self.cells), (self.kind, self.cells)
        seen[self.kind] += 1

    monkeypatch.setattr(RangeView, "__post_init__", checked)
    return seen


_KIND_SOURCES = [c[0] for c in _lifted_cases()] + [
    "x>y", "x*y", "x-y", "ISERROR(x/y)", 'LEN(x&"")', "IFERROR(x,y)", "IFERROR(x>y,-1)",
    "IF(x>y,x,y)", "IF(ISERROR(x),0,y)", "IF(ISERROR(1/x),y*2,0)", "IF(y>0,IF(x<1,x,0),0)",
    "SUM(IF(x>y,x,0))", "SUM(IF(ISERROR(x),0,IF(LEN(x&\"\")=0,0,1)))", "INDEX(x,MATCH(1,y,0))",
]


def test_views_hold_only_cells_of_their_kind(views_by_kind):
    # the mixed, logical and float columns, paired
    cols = _mixed_columns() + _float_columns()
    for xs, ys in itertools.product(cols, cols[::3]):
        t = make_table(x=xs, y=ys)
        for source in _KIND_SOURCES:
            evaluate(parse("{=" + source + "}"), EvalContext(t))
    # every rule case, baseline and rewrite
    for case in default_rule_cases():
        for schema in case.schemas:
            original = parse(case.original_for(schema))
            for formula in (original, rewrite(original)[0]):
                for seed in range(3):
                    evaluate(formula, EvalContext(gen_dataset(schema, seed), rng_seed=seed))
    # the sheet formulas and their rewrites on a loaded table
    table = load_csv(_sheet_csv(3, 200))
    for source in _sheet_formulas(table):
        original = parse(source)
        for formula in (original, rewrite(original, table)[0]):
            evaluate(formula, EvalContext(table))
    assert all(views_by_kind[kind] > 0 for kind in (None, float, bool, str)), views_by_kind


def test_a_vector_if_is_of_kind_float_where_both_branches_give_floats(monkeypatch):
    # a branch is a value or a view, or, on the float part of a split
    # column, a value repeated; a view of no kind does not count, even when
    # its cells are all floats
    t = make_table(c=(True, False, 1.0, 0.0), f=(1.0, 2.0, 3.0, 4.0), s=("a", "b", "c", "d"), m=(1.0, 2.0, 3.0, None))
    for source, kind in (
        ("IF(c,f,0)", float), ("IF(c,1,-2.5)", float), ("IF(c,f,f*2)", float), ('IF(c,f,"a")', None),
        ("IF(c,f,s)", None), ("IF(c,f)", None), ("IF(c,f,m)", None), ("IF(c,f,IF(c,m,0))", None),
    ):
        got = evaluate(parse("{=" + source + "}"), EvalContext(t))
        assert got.kind is kind, source
    rows = PARTITION_MIN_ROWS + 16
    xs = tuple("t" if i % 4 == 0 else float(i % 9) - 4 for i in range(rows))
    t = make_table(x=xs, f=tuple(map(float, range(rows))))
    splits = []
    split_cells = evaluator._split_cells
    monkeypatch.setattr(evaluator, "_split_cells", lambda *args: splits.append(split_cells(*args)) or splits[-1])
    for source, kind in (("IF(x>0,1.5,f)", float), ("IF(x<0,f,-1)", float), ('IF(x>0,f,"n")', None)):
        got = evaluate(parse("{=" + source + "}"), EvalContext(t))
        assert isinstance(splits[-1].floats, RangeView) and splits[-1].kind is got.kind is kind, source
        assert kind is None or all(type(c) is float for c in got.cells), source


def test_table_columns_know_when_they_hold_only_floats():
    t = make_table(a=(1.0, -0.0), b=(1.0, None), c=(True, False))
    assert [t.column_kind(c) for c in (1, 2, 3)] == [float, None, None]
    view = evaluate(parse("=A1:A2"), EvalContext(t))
    assert view.kind is float and view.column(1).kind is float
    assert evaluate(parse("=A1:B2"), EvalContext(t)).kind is None
    # load_csv's typing knows the column of plain numerals; " 2" takes the
    # per-cell typing, and its column is scanned when first asked for
    loaded = load_csv("n,m,q\n1,1, 2\n2.5,x,3\n")
    assert loaded.kinds == {1: float}
    assert [loaded.column_kind(c) for c in (1, 2, 3)] == [float, None, float]


# ---------------------------------------------------------------------------
# SUM over IF as one masked sum, against the per-cell SUM over built cells
# ---------------------------------------------------------------------------


@pytest.fixture
def reference(monkeypatch):
    """evaluate() with SUM over evaluated arguments and the IF that builds
    every vector IF's cells, as they were before the masked sum."""

    def run(formula, ctx):
        with monkeypatch.context() as m:
            sum_spec, if_spec = FUNCTION_SPECS["SUM"], FUNCTION_SPECS["IF"]
            m.setitem(FUNCTION_SPECS, "SUM", dataclasses.replace(sum_spec, call="evaluated", impl=reference_sum))
            m.setitem(FUNCTION_SPECS, "IF", dataclasses.replace(if_spec, impl=reference_if))
            return evaluate(formula, ctx)

    return run


@pytest.fixture
def fused(monkeypatch):
    """Counts the masked IFs that SUM added up as masked sums ("masked"),
    and the vector IFs given a value by _if_value instead ("built"): an IF
    not kept as a masked view, or a masked view that a node read as its
    value. An IF kept inside a masked IF is counted by neither."""
    calls = Counter()
    masked_numbers, if_value = evaluator._masked_numbers, evaluator._if_value

    def summed(v):
        calls["masked"] += 1
        return masked_numbers(v)

    def built(*args):
        calls["built"] += 1
        return if_value(*args)

    monkeypatch.setattr(evaluator, "_masked_numbers", summed)
    monkeypatch.setattr(evaluator, "_if_value", built)
    return calls


def _check(reference, formula, table, **ctx):
    got = evaluate(formula, EvalContext(table, **ctx))
    want = reference(formula, EvalContext(table, **ctx))
    assert _same_result(got, want), (formula, ctx, got, want)


# c: a condition column; x: a mixed column; f, g: float columns. Column A is c.
_SUM_SOURCES = (
    "SUM(IF(ISERROR(1/c),f,0))",
    "SUM(IF(ISERROR(1/c),0,f))",
    "SUM(IF(ISERROR(1/c),-0,f))",  # a zero branch of either sign
    "SUM(IF(ISERROR(1/c),f,-0))",
    "SUM(IF(f>0,f,0))",
    "SUM(IF(f>g,0,f*g))",  # * overflows to #NUM! on the edge floats
    "SUM(IF(ISERROR(x),f,0))",
    "SUM(IF(ISERROR(x),0,x))",  # x's text, logical and blank cells
    "SUM(IF(f>0,x,0))",  # errors of x in cells taken and in cells not taken
    "SUM(IF(c,f,0))",  # a condition of logicals and of 1 and 0 numbers, of no kind
    "SUM(IF(x,f,0))",
    "SUM(IF(f>0,1,0))",
    "SUM(IF(f<=0,0,2.5))",
    "SUM(IF(f>0,IF(g<1,g,0),0))",
    'SUM(IF(ISERROR(x+0),0,IF(LEN(x&"")=0,0,1)))',
    "SUM(IF(ISERROR(1/c),f))",  # two arguments
    "SUM(IF(ISERROR(1/c),A1:A39,0))",  # a branch of another size
    "SUM(IF(f>0,C1:C39,0))",
    "SUM(IF(f>0,0,D2:D40))",
    "SUM(IF(f>0,f,0),x,IF(ISERROR(x),0,f),1e308)",  # several arguments
    'SUM(f,f>0,f&"",IF(f>0,g,0),g)',
)


def test_masked_sum_matches_per_cell_sum(reference, fused):
    floats = _float_columns()
    for c, x, f in itertools.product(_logical_columns(), _mixed_columns()[::2], floats):
        t = make_table(c=c, x=x, f=f, g=floats[-1])
        for source in _SUM_SOURCES:
            _check(reference, parse("{=" + source + "}"), t)
    # both ways are taken, the masked sum on most IFs
    assert fused["masked"] > fused["built"] > 0, fused


def test_sum_in_scalar_mode_matches_per_cell_sum(reference, fused):
    floats = _float_columns()
    for c, x in zip(_logical_columns(), _mixed_columns()):
        t = make_table(c=c, x=x, f=floats[0], g=floats[-1])
        for source, row in itertools.product(_SUM_SOURCES, (1, 2, 17, 40)):
            _check(reference, parse("=" + source), t, mode="scalar", current_row=row)
    assert fused == Counter()


def test_shared_if_is_summed_from_its_one_value(reference, fused):
    floats = _float_columns()
    t = make_table(f=floats[0], x=_mixed_columns()[0])
    # one IF node twice in SUM's arguments: evaluated once per evaluate(),
    # and its one masked view added up twice; the outer SUM in the second
    # stops at the inner SUM's #NUM! (f holds 1e308) before its node
    node = parse("=IF(f>0,f,0)").body
    _check(reference, Call("SUM", (node, node)), t)
    _check(reference, Call("SUM", (Call("SUM", (node,)), node)), t)
    assert fused == Counter(masked=3), fused
    # R7 shares IFERROR's x, here an IF, between ISERROR(x) and the branch
    # SUM adds up: in the first, ISERROR builds the masked x and SUM masks
    # the IF over it; f/x and ISERROR(f) are not floats, so the other IFs
    # are built
    for source in ("=SUM(IFERROR(IF(f>0,f,0),0))", "=SUM(IFERROR(IF(f>0,f/x,0),0))", "=SUM(IFERROR(f,-1))"):
        shared = rewrite(parse(source))[0]
        _check(reference, shared, t)
    assert fused == Counter(masked=4, built=4), fused


def test_masked_sum_keeps_the_rand_draws_in_order(reference, fused):
    t = make_table(f=_float_columns()[2], c=_logical_columns()[2])
    for source in (
        "=SUM(IF(f>RAND()*5,f,0),RAND())",
        "=SUM(IF(f>RAND(),0,f))+RAND()",
        "=SUM(RAND(),IF(ISERROR(1/c),f*RAND(),0),RAND())",
        "=SUM(IF(ISERROR(1/c),RAND(),0))*RAND()",
        # SUM evaluates every argument, an error before it or not
        "=IFERROR(SUM(1/c,RAND()),0)+RAND()",
        "=IFERROR(SUM(IF(f>RAND(),1/c,0),IF(f>0,f,0),RAND()),RAND())",
    ):
        formula = parse(source)
        for seed in range(10):
            _check(reference, formula, t, rng_seed=seed)
    # four masked IFs a seed; in the last formula SUM stops at the built
    # IF's #DIV/0! before it reaches the masked one
    assert fused == Counter(masked=40, built=10), fused


def test_masked_sum_adds_from_left_to_right():
    # 1 + 1e16 - 1e16 is 0 from the left and 1 with compensation (sum() on
    # floats from Python 3.12 on)
    t = make_table(f=(1.0, 1e16, -1e16), g=(1.0, 1.0, 1.0))
    assert evaluate(parse("{=SUM(IF(g>0,f,0))}"), EvalContext(t)) == 0.0
    assert evaluate(parse("{=SUM(IF(g<0,0,f),f)}"), EvalContext(t)) == 0.0
    assert evaluate(parse("{=SUM(f,IF(g>0,f,0))}"), EvalContext(t)) == 0.0


# ---------------------------------------------------------------------------
# IFERROR's kernel against the per-cell IFERROR
# ---------------------------------------------------------------------------


def test_iferror_kernel_matches_per_cell(monkeypatch):
    spec = FUNCTION_SPECS["IFERROR"]
    runs = []

    def run(*streams):
        runs.append(None)
        return spec.kernel.run(*streams)

    monkeypatch.setitem(FUNCTION_SPECS, "IFERROR", dataclasses.replace(spec, kernel=Kernel(spec.kernel.accepts, run)))
    cols = _mixed_columns()
    n = 0
    for xs, ys in itertools.product(cols, cols[::3]):
        t = make_table(x=xs, y=ys)
        for source, x_cells, fallbacks in (
            ("IFERROR(x,y)", xs, ys),
            ("IFERROR(x,-1)", xs, [-1.0] * 40),
            ('IFERROR(x,"n/a")', xs, ["n/a"] * 40),
            ("IFERROR(x,1/0)", xs, [ErrorKind.DIV0] * 40),
            ("IFERROR(x,B2)", xs, [ys[1]] * 40),
            ("IFERROR(1/0,y)", [ErrorKind.DIV0] * 40, ys),
            ("IFERROR(A3,y)", [xs[2]] * 40, ys),
        ):
            got = evaluate(parse("{=" + source + "}"), EvalContext(t))
            want = [spec.impl(a, b) for a, b in zip(x_cells, fallbacks)]
            assert len(got) == 40 and all(map(_same_cell, got.cells, want)), (source, xs, ys)
            n += 1
    assert len(runs) == n


def test_iferror_passes_a_view_of_a_kind_through():
    rng = random.Random(4)
    t = make_table(x=[rng.uniform(-1, 1) for _ in range(30)], y=[ErrorKind.NA] * 30)
    for x, kind in (("x*2", float), ("x>0", bool), ('x&""', str)):
        want = evaluate(parse("{=" + x + "}"), EvalContext(t))
        got = evaluate(parse("{=IFERROR(" + x + ",y)}"), EvalContext(t))
        assert (got.kind, got.cells) == (kind, want.cells)
