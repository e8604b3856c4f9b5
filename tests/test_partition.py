"""Type-partitioned columns: the split path of the elementwise lift against
the per-cell path.

A table column that is neither all floats nor shorter than
PARTITION_MIN_ROWS has a Partition, which the table builds the first
time an elementwise function splits over a whole-column view of it. The
split runs the function's kernel on the float cells and, on the other
cells, once per distinct value (or per cell, when a float view of
another column takes part), and keeps the two parts in a split view,
whose cells are built in column order when a node that does not read
the parts reads them. Every cell must be the one the per-cell path
gives, by type and repr, and every kind it sets must hold for every
cell. SUM over an IF whose taken branch is another such IF ANDs the
inner condition into its mask, and must give the per-cell SUM's bits.
The criteria baselines split the column as their comparison operators
do, and must give the per-cell criteria's results."""

import itertools
import random
from collections import Counter

import pytest

from sprego import evaluator, load_csv, table
from sprego.evaluator import FUNCTION_SPECS, EvalContext, evaluate
from sprego.formula import parse
from sprego.table import PARTITION_MIN_ROWS, Table
from sprego.values import ErrorKind

from helpers import make_table, reference_criteria_reduce, reference_propagating
from test_evaluator import _EDGE_FLOATS, _ODD_CELLS, _same_cell, kernel_calls  # noqa: F401
from test_range_kinds import _check as _check_sum
from test_range_kinds import _float_columns, fused, reference, views_by_kind  # noqa: F401

ROWS = 2 * PARTITION_MIN_ROWS
_CELLS = _ODD_CELLS + _EDGE_FLOATS + (None,)


def _dirty_columns():
    """Columns of ROWS cells drawn from _ODD_CELLS, _EDGE_FLOATS and
    blanks: mostly floats as in a dirty sheet column, evenly mixed, one odd
    cell among floats, and no float at all."""
    floats = [c for c in _CELLS if type(c) is float]
    odd = [c for c in _CELLS if type(c) is not float]
    cols = []
    for seed in range(3):
        rng = random.Random(seed)
        cols.append(tuple(rng.choice(odd) if rng.random() < 1 / 6 else rng.choice(floats) for _ in range(ROWS)))
        cols.append(tuple(rng.choice(_CELLS) for _ in range(ROWS)))
    cols.append(tuple(floats * ROWS)[: ROWS - 1] + ("x",))
    cols.append((odd * ROWS)[:ROWS])
    return cols


def _float_column():
    """ROWS floats: every edge value against every cell, zeros of both signs
    among them."""
    return tuple((_EDGE_FLOATS * ROWS)[:ROWS])


@pytest.fixture
def splits(monkeypatch):
    """Counts the runs of the split path."""
    calls = []
    split = evaluator._split_cells

    def counted(*args):
        calls.append(None)
        return split(*args)

    monkeypatch.setattr(evaluator, "_split_cells", counted)
    return calls


def _per_cell(fn, propagate, columns):
    ref = reference_propagating(fn) if propagate else fn
    return [ref(*cells) for cells in zip(*columns)]


def _check(source, t, fn, propagate, *columns):
    got = evaluate(parse("{=" + source + "}"), EvalContext(t))
    want = _per_cell(fn, propagate, columns)
    assert len(got) == len(want), source
    for i, (g, w) in enumerate(zip(got.cells, want)):
        assert _same_cell(g, w), (source, i, [c[i] for c in columns], g, w)
    return got


_OPS = evaluator._BINARY_OPS
_SCALARS = ("0", "-0", "1", "0.5", "1e308", "-1e308", '""', '"12"', '"abc"', "TRUE", "(1/0)")


def _scalar(text):
    return evaluate(parse("=" + text), EvalContext(Table("empty", (), ())))


@pytest.mark.parametrize("op", sorted(_OPS))
def test_binary_operators_split_as_per_cell(op, splits):
    fn = _OPS[op]
    floats = _float_column()
    for x in _dirty_columns():
        t = make_table(x=x, f=floats)
        # the column with itself, and with every scalar in both orders
        _check(f"x{op}x", t, fn, True, x, x)
        for s in _SCALARS:
            v = (_scalar(s),) * ROWS
            _check(f"x{op}{s}", t, fn, True, x, v)
            _check(f"{s}{op}x", t, fn, True, v, x)
        # the mixed case: a float column of another table column, both
        # orders, and the whole-column range form of the same columns
        _check(f"f{op}x", t, fn, True, floats, x)
        _check(f"x{op}f", t, fn, True, x, floats)
        _check(f"B1:B{ROWS}{op}A1:A{ROWS}", t, fn, True, floats, x)
    assert len(splits) == len(_dirty_columns()) * (4 + 2 * len(_SCALARS))


@pytest.mark.parametrize("op", ["-", "+", "%"])
def test_unary_operators_split_as_per_cell(op, splits):
    fn = evaluator._UNARY_OPS[op]
    for x in _dirty_columns():
        source = f"{op}x" if op != "%" else "x%"
        _check(source, make_table(x=x), fn, True, x)
    assert len(splits) == len(_dirty_columns())


def test_functions_split_as_per_cell(splits):
    specs = FUNCTION_SPECS
    floats = _float_column()
    for x in _dirty_columns():
        t = make_table(x=x, f=floats)
        _check("LEN(x)", t, specs["LEN"].impl, True, x)
        _check('LEN(x&"")', t, lambda a: specs["LEN"].impl(_OPS["&"](a, "")), True, x)
        _check("ISERROR(x)", t, specs["ISERROR"].impl, False, x)
        _check("ISERROR(x+0)", t, lambda a: specs["ISERROR"].impl(_OPS["+"](a, 0.0)), False, x)
        _check("IFERROR(x,-1)", t, specs["IFERROR"].impl, False, x, (-1.0,) * ROWS)
        _check("IFERROR(f/x,-1)", t, lambda a, b: specs["IFERROR"].impl(_OPS["/"](a, b), -1.0), False, floats, x)
        _check("ROUND(x,1)", t, specs["ROUND"].impl, True, x, (1.0,) * ROWS)
        _check("NOT(x)", t, specs["NOT"].impl, True, x)
    # each of them splits the column, ISERROR and IFERROR among them
    assert splits


def test_concat_writes_floats_as_number_to_text():
    # the floats' text at C speed: zeros of both signs are "0", 1e16 keeps
    # its exponent, integral floats lose ".0"
    cells = (0.0, -0.0, 1e16, 5e-324, -5e-324, 1e308, 123.0, 0.1, -2.5, 1e15, 1e-7, "a", None, True)
    x = (cells * ROWS)[:ROWS]
    got = _check('x&""', make_table(x=x), _OPS["&"], True, x, ("",) * ROWS)
    assert got.cells[:11] == ("0", "0", "1e+16", "5e-324", "-5e-324", "1e+308", "123", "0.1", "-2.5",
                              "1000000000000000", "1e-07")
    assert got.kind is str


def test_split_views_hold_only_cells_of_their_kind(views_by_kind, splits):
    floats = _float_column()
    sources = ["x+0", "x*f", "f/x", 'x&""', "x&x", "x>0", "f<x", "LEN(x)", "-x", "x=x", 'x=""', "ROUND(x,0)"]
    for x in _dirty_columns() + [(1.0,) * (ROWS - 1) + ("2",), ("a", "bc") * (ROWS // 2)]:
        t = make_table(x=x, f=floats)
        for source in sources:
            evaluate(parse("{=" + source + "}"), EvalContext(t))
    assert splits
    # the split path sets each kind: numbers, logicals and text
    assert all(views_by_kind[kind] > 0 for kind in (None, float, bool, str)), views_by_kind


def test_cold_equals_warm_and_each_partition_is_built_once(monkeypatch):
    built = []
    partition = table._partition

    def counted(cells):
        built.append(cells)
        return partition(cells)

    monkeypatch.setattr(table, "_partition", counted)
    x, y = _dirty_columns()[:2]
    csv = "x,y,f\n" + "\n".join(f"{a},{b},{float(i)}" for i, (a, b) in enumerate(zip(x, y))) + "\n"
    sources = ["{=x+0}", '{=x&""}', "{=f/y}", "{=x+y}", f"{{=A1:A{ROWS}*x}}", "=SUM(IF(ISERROR(x+0),0,1))"]
    for source in sources:
        formula = parse(source)
        fresh = load_csv(csv)
        cold = evaluate(formula, EvalContext(fresh))
        warm = evaluate(formula, EvalContext(fresh))
        assert type(cold) is type(warm)
        if isinstance(cold, evaluator.RangeView):
            assert cold.kind == warm.kind
            cold, warm = cold.cells, warm.cells
        else:
            cold, warm = (cold,), (warm,)
        assert all(map(_same_cell, cold, warm)), source
    # one build per column each fresh table splits, none for the float
    # column, and none for x+y, which two dirty columns send per cell
    assert len(built) == 1 + 1 + 1 + 0 + 1 + 1
    t = load_csv(csv)
    for source in sources * 3:
        evaluate(parse(source), EvalContext(t))
    assert len(built) == 5 + 2


def test_partition_needs_a_whole_column_of_odd_cells_above_the_floor(splits):
    x = _dirty_columns()[0]
    t = make_table(x=x, f=_float_column(), s=x[: PARTITION_MIN_ROWS - 1] + (None,) * (ROWS - PARTITION_MIN_ROWS + 1))
    assert t.partition(2) is None  # all floats
    part = t.partition(1)
    assert part is not None and t.partition(1) is part
    assert len(part.floats) + len(part.codes) == ROWS
    assert set(part.values) == {c for c in x if type(c) is not float}
    # a range over the whole column splits, one over part of it does not
    before = len(splits)
    _check(f"A1:A{ROWS}+0", t, _OPS["+"], True, x, (0.0,) * ROWS)
    assert len(splits) == before + 1
    _check(f"A2:A{ROWS}+0", t, _OPS["+"], True, x[1:], (0.0,) * ROWS)
    matrix = evaluate(parse(f"{{=A1:B{ROWS}+0}}"), EvalContext(t))
    assert matrix.cells[::2] == evaluate(parse("{=x+0}"), EvalContext(t)).cells
    assert len(splits) == before + 2  # x+0 alone
    # shorter than the floor: no partition
    short = make_table(x=x[: PARTITION_MIN_ROWS - 1])
    assert short.partition(1) is None
    # a cell outside the engine's types (an int, equal to TRUE) leaves the
    # column to the per-cell path
    ints = Table("t", ("x",), ((1, True, "a") * (ROWS // 3),))
    assert ints.partition(1) is None
    assert evaluate(parse("{=x+0}"), EvalContext(ints)).cells[:3] == (1.0, 1.0, ErrorKind.VALUE)
    # two partitioned columns together take the per-cell path
    before = len(splits)
    _check("x+s", t, _OPS["+"], True, x, t.columns[2])
    assert len(splits) == before


def test_division_by_zero_stays_on_the_kernel(kernel_calls, monkeypatch):  # noqa: F811
    # zeros of both signs, 0/0 and overflow in all-float columns: the kernel
    # writes #DIV/0! at the zero divisors only, and never calls _div
    divs = []
    monkeypatch.setattr(evaluator, "_div", lambda x, y: divs.append(None) or ErrorKind.DIV0)
    pairs = list(itertools.product(_EDGE_FLOATS, repeat=2))
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    t = make_table(x=xs, y=ys)
    _check("x/y", t, _OPS["/"], True, xs, ys)
    _check("x/0", t, _OPS["/"], True, xs, (0.0,) * len(xs))
    _check("x/-0", t, _OPS["/"], True, xs, (-0.0,) * len(xs))
    _check("1e308/y", t, _OPS["/"], True, (1e308,) * len(ys), ys)
    assert kernel_calls["/"] == 4
    assert divs == []


# SUM over an IF whose taken branch is itself an IF over a condition of
# logicals: the inner condition ANDs into the mask, and neither IF's cells
# are built. f, g: float columns; x: a dirty column, partitioned
_NESTED_SOURCES = (
    "SUM(IF(f>0,IF(g<1,1,0),0))",
    "SUM(IF(f>0,IF(g<1,g,0),0))",
    "SUM(IF(f>0,0,IF(g<1,0,f)))",
    "SUM(IF(f>0,IF(g<1,0,-0),-0))",
    "SUM(IF(f>0,IF(g<1,IF(f<g,f*g,0),0),0))",  # three levels
    "SUM(IF(f>0,IF(g<1,IF(f<g,0,2.5),0),0),IF(g>0,IF(f>g,f,0),0))",
    'SUM(IF(ISERROR(x+0),0,IF(LEN(x&"")=0,0,1)))',  # R4's COUNT
    "SUM(IF(f>0,IF(x,1,0),0))",  # an inner condition of no kind: built
    "SUM(IF(f>0,IF(g<1,x,0),0))",  # an inner branch of other cells: built
    "SUM(IF(f>0,IF(g<1,g,1),0))",  # no zero branch inside: the inner IF built
    f"SUM(IF(f>0,IF(A1:A{ROWS - 1}>0,1,0),0))",  # an inner IF of another size
    "SUM(IF(f>0,IF(g<RAND(),RAND(),0),0),RAND())",
)


def test_nested_masked_sum_matches_per_cell_sum(reference, fused):  # noqa: F811
    floats = _float_columns()
    for x, f in itertools.product(_dirty_columns()[:3], floats):
        g = tuple((floats[-1] * ROWS)[:ROWS])
        t = make_table(x=x, f=(f * ROWS)[:ROWS], g=g)
        for source in _NESTED_SOURCES:
            _check_sum(reference, parse("{=" + source + "}"), t, rng_seed=3)
            _check_sum(reference, parse("=" + source), t, mode="scalar", current_row=5, rng_seed=3)
    # both ways are taken; "built" counts each IF level that is built
    assert fused["masked"] > 0 and fused["built"] > 0, fused
    # COUNTIFS and SUMIFS in Sprego: the inner IF and the outer one are
    # both masked, not built
    fused.clear()
    t = make_table(f=floats[2], g=floats[3])
    for source in _NESTED_SOURCES[:4]:
        _check_sum(reference, parse("{=" + source + "}"), t)
    assert fused == Counter(masked=4), fused
    # each source's paths: a masked SUM per masked outer IF; an inner IF
    # that cannot be masked is built, and so is an outer IF whose branch
    # it leaves without floats or of another size
    t = make_table(x=_dirty_columns()[0], f=(floats[2] * ROWS)[:ROWS], g=(floats[3] * ROWS)[:ROWS])
    paths = [Counter(masked=1)] * 5 + [Counter(masked=2)] + [Counter(built=2)] * 3
    paths += [Counter(masked=1, built=1), Counter(built=2), Counter(masked=1)]
    for source, want in zip(_NESTED_SOURCES, paths, strict=True):
        fused.clear()
        _check_sum(reference, parse("{=" + source + "}"), t, rng_seed=3)
        assert fused == want, (source, fused)


# criteria over a dirty column: every operator before text, numeral and
# empty operands, and numbers, logicals, a blank cell (E1) and an error
_CRITERIA_OPERANDS = ("2", "-0", "abc", "12", "", "TRUE")
_CRITERIA = (
    *(f'"{op}{x}"' for op in ("", "=", "<>", "<", "<=", ">", ">=") for x in _CRITERIA_OPERANDS),
    "2", "-0", "TRUE", "FALSE", "E1", "1/0",
)


def test_criteria_over_a_split_column_match_the_per_cell_reference(monkeypatch, splits):
    # two dirty columns, mostly floats and evenly mixed, at the partition
    # floor, and the first with its errors blanked, so that the criteria
    # count and sum past the first error too
    rows = PARTITION_MIN_ROWS
    columns = [x[:rows] for x in _dirty_columns()[:2]]
    columns.append(tuple(None if type(c) is ErrorKind else c for c in columns[0]))
    f = tuple((_float_columns()[2] * rows)[:rows])
    checked = Counter()
    for x in columns:
        t = make_table(x=x, f=f, y=x[::-1], e=(None,) * rows)
        for c in _CRITERIA:
            # x first, where it splits, and x and y after f, on the rows left
            for source in (f"=COUNTIF(x,{c})", f'=COUNTIFS(f,"<>1",x,{c},y,{c})', f"=SUMIF(x,{c},f)",
                           f'=SUMIFS(f,x,{c},y,"<5")', f"=AVERAGEIF(x,{c})", f"=AVERAGEIF(x,{c},f)"):
                formula = parse(source)
                got = evaluate(formula, EvalContext(t))
                with monkeypatch.context() as m:
                    m.setattr(evaluator, "_criteria_reduce", reference_criteria_reduce)
                    want = evaluate(formula, EvalContext(t))
                assert _same_cell(got, want), (source, got, want)
                checked[type(want)] += 1
    # the criteria split the column, and both numbers and errors come out
    assert len(splits) > len(columns) * len(_CRITERIA), len(splits)
    assert checked[float] > 200 and checked[ErrorKind] > 200, checked


# criteria over a column of text alone: each operator before text, numeral,
# empty and number operands, a blank cell (E1) and an error
_TEXT_CRITERIA = (
    *(f'"{op}{x}"' for op in ("", "=", "<>", "<", "<=", ">", ">=") for x in ("v3", "n5", "12", "")),
    "12", "0", "E1", "1/0",
)


def test_criteria_over_a_column_of_text_alone_match_the_per_cell_reference(monkeypatch):
    # one column of five distinct texts (a numeral and the empty text among
    # them, and two that differ only in case) and one of all distinct texts
    rows = 2 * PARTITION_MIN_ROWS
    rng = random.Random(19)
    few = tuple(rng.choice(("v1", "v3", "V3", "12", "")) for _ in range(rows))
    distinct = tuple(f"n{i}" for i in rng.sample(range(rows), rows))
    f = tuple(float(rng.randrange(-5, 6)) for _ in range(rows))
    checked = Counter()
    for x, y in ((few, distinct), (distinct, few)):
        t = make_table(x=x, y=y, f=f, g=f[::-1], e=(None,) * rows)
        assert t.column_kind(1) is str and len(set(few)) == 5 and len(set(distinct)) == rows
        for c in _TEXT_CRITERIA:
            for source in (f"=COUNTIF(x,{c})", f'=COUNTIFS(x,{c},f,">0")', f'=COUNTIFS(f,">0",x,{c},y,{c})',
                           f"=SUMIF(x,{c},f)", f"=SUMIF(x,{c})", f'=SUMIFS(g,x,{c},y,"<>v1")',
                           f"=AVERAGEIF(x,{c},f)", f"=AVERAGEIF(x,{c})"):
                formula = parse(source)
                got = evaluate(formula, EvalContext(t))
                with monkeypatch.context() as m:
                    m.setattr(evaluator, "_criteria_reduce", reference_criteria_reduce)
                    want = evaluate(formula, EvalContext(t))
                assert _same_cell(got, want), (source, got, want)
                checked[type(want) if type(want) is not float else want > 0] += 1
    # rows matched and rows not, numbers and errors both come out
    assert checked[True] > 100 and checked[False] > 100 and checked[ErrorKind] > 50, checked


def test_partition_is_built_only_where_a_split_reads_it(monkeypatch):
    built = []
    partition = table._partition
    monkeypatch.setattr(table, "_partition", lambda cells: built.append(cells) or partition(cells))
    rng = random.Random(11)
    odd = ("a", "", None, True, "12")
    dirty, other = (
        tuple(rng.choice(odd) if rng.random() < 1 / 6 else float(rng.randrange(10)) for _ in range(20_000))
        for _ in range(2)
    )
    # COUNTA, MATCH and SUM read the column whole, and two dirty columns
    # together take the per-cell path: no split
    for source in ("=COUNTA(dirty)", "=MATCH(1,dirty,0)", "=SUM(dirty)", "{=dirty+other}"):
        evaluate(parse(source), EvalContext(make_table(dirty=dirty, other=other)))
    assert built == []
    # an operator splits it, and ISERROR and IFERROR split it as operators do
    for source in ("{=dirty+0}", "{=ISERROR(dirty)}", "{=IFERROR(dirty,0)}"):
        built.clear()
        evaluate(parse(source), EvalContext(make_table(dirty=dirty, other=other)))
        assert built == [dirty], source
    # a criteria compares as its operator does, so it splits the column too
    built.clear()
    evaluate(parse('=COUNTIF(dirty,">5")'), EvalContext(make_table(dirty=dirty, other=other)))
    assert built == [dirty]
    # and so does a column of text alone, as its operator splits it
    names = tuple(f"n{i}" for i in range(2 * PARTITION_MIN_ROWS))
    for source in ('=COUNTIF(names,"n5")', '=SUMIF(names,"<n5",dirty)', '{=names="n5"}'):
        built.clear()
        t = make_table(names=names, dirty=dirty[: len(names)])
        assert t.column_kind(1) is str
        evaluate(parse(source), EvalContext(t))
        assert built == [names], source
