"""The baselines' per-range paths against their per-cell references.

COUNTIF(S)/SUMIF(S)/AVERAGEIF with a number criteria over a range of
floats, MATCH/VLOOKUP/HLOOKUP with a number looked up in floats, and
COUNT/COUNTA counting cells by type must give what the per-cell loops in
helpers give, cell for cell and bit for bit, on every input. So must
COUNT and COUNTA over a whole column read from the partition the table
already keeps, and every node over a range of two or more rows and
columns, which the evaluator keeps as its column slices."""

import dataclasses
import random
from collections import Counter

import pytest

from sprego import evaluator, table
from sprego.evaluator import FUNCTION_SPECS, EvalContext, evaluate
from sprego.formula import RangeRef, parse
from sprego.table import PARTITION_MIN_ROWS, RangeView, Table, resolve
from sprego.values import ErrorKind

from helpers import (
    make_table,
    reference_column,
    reference_count,
    reference_counta,
    reference_criteria_reduce,
    reference_match_position,
    reference_row,
)
from test_evaluator import _ODD_CELLS, _same_cell

# numbers with ties at 0 (both signs), at the extremes and between
_FLOATS = (0.0, -0.0, 1.0, 2.0, 2.0, 5.0, 5.5, -3.0, 0.1, 1e308, -1e308, 5e-324, -5e-324)
_NON_FLOATS = tuple(c for c in _ODD_CELLS if type(c) is not float)

# criteria and lookup arguments: numbers, logicals, numeral and other text,
# operators, a blank cell (E1), cells of the table and an error
_CRITERIA = (
    "0", "-0", "2", "5", "5.5", "1e308", "-1e308", "5e-324", "TRUE", "FALSE",
    '"5"', '">5"', '"<=0"', '"<>2"', '">=5e-324"', '"<-0"', '"=-1e308"', '"abc"', '"<>abc"',
    '""', '"="', '">"', '"<"&A1', "A1", "B2", "C1", "E1", "1/0",
)
_LOOKUPS = ("0", "-0", "2", "5", "5.5", "1e308", "5e-324", "TRUE", '"5"', '"abc"', "A1", "B1", "E1", "1/0")


def _column(rng: random.Random, n: int) -> tuple:
    kind = rng.randrange(6)
    floats = [rng.choice(_FLOATS) for _ in range(n)]
    if kind == 0:
        return tuple(floats)
    if kind == 1:
        return tuple(sorted(floats))
    if kind == 2:
        return tuple(sorted(floats, reverse=True))
    if kind == 3:  # sorted runs, unsorted as a whole
        cut = rng.randint(0, n)
        return tuple(sorted(floats[:cut]) + sorted(floats[cut:]))
    if kind == 4:  # floats but one odd cell
        floats[rng.randrange(n)] = rng.choice(_NON_FLOATS)
        return tuple(floats)
    return tuple(rng.choice(_ODD_CELLS) for _ in range(n))


def _formulas(rng: random.Random, n: int) -> list[str]:
    c1, c2, c3 = (rng.choice(_CRITERIA) for _ in range(3))
    v = rng.choice(_LOOKUPS)
    m = rng.choice((n, max(1, n - 1)))  # a sum range of another size gives VALUE
    k = rng.randint(1, min(n, 3))
    exact = rng.choice(("TRUE", "FALSE"))
    return [
        f"=COUNTIF(a,{c1})",
        f"=SUMIF(a,{c1})",
        f"=SUMIF(a,{c1},b)",
        f"=SUMIF(a,{c1},B1:B{m})",
        f"=AVERAGEIF(a,{c1})",
        f"=AVERAGEIF(a,{c1},b)",
        f"=COUNTIFS(a,{c1},b,{c2})",
        f"=COUNTIFS(a,{c1},b,{c2},c,{c3})",
        f"=SUMIFS(c,a,{c1},b,{c2})",
        f"=MATCH({v},a)",
        f"=MATCH({v},a,0)",
        f"=MATCH({v},a,-1)",
        f"=MATCH({v},A1:C1,{rng.choice((-1, 0, 1))})",
        f"=VLOOKUP({v},A1:C{n},2)",
        f"=VLOOKUP({v},A1:C{n},3,{exact})",
        f"=HLOOKUP({v},A1:C{n},{k},{exact})",
        "=COUNT(a)",
        f"=COUNT(a,b,{v})",
        "=COUNTA(a)",
        f"=COUNTA({v},a,b)",
    ]


@pytest.fixture
def reference(monkeypatch):
    """evaluate() with the per-cell references in place of the per-range
    paths."""

    def run(src, table):
        with monkeypatch.context() as m:
            m.setattr(evaluator, "match_position", reference_match_position)
            m.setattr(evaluator, "_criteria_reduce", reference_criteria_reduce)
            m.setattr(RangeView, "column", reference_column)
            m.setattr(RangeView, "row", reference_row)
            m.setattr(evaluator, "_BlockView", _plain_block)
            for name, impl in (("COUNT", reference_count), ("COUNTA", reference_counta)):
                m.setitem(FUNCTION_SPECS, name, dataclasses.replace(FUNCTION_SPECS[name], impl=impl))
            return ev(src, table)

    return run


def _plain_block(slices, kind):
    """A block as resolve's plain view of it, its cells read row by row."""
    rows, cols = len(slices[0]), len(slices)
    return RangeView(rows, cols, tuple(slices[c][r] for r in range(rows) for c in range(cols)), kind=kind)


def ev(src, table):
    return evaluate(parse(src), EvalContext(table))


def _tables(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        cols = {name: _column(rng, n) for name in "abc"}
        yield rng, n, make_table(**cols, e=(None,) * n)


def test_random_tables_match_the_per_cell_references(reference):
    checked = Counter()
    for rng, n, table in _tables(seed=7, count=250):
        for src in _formulas(rng, n):
            got, want = ev(src, table), reference(src, table)
            assert _same_cell(got, want), (src, table.columns, got, want)
            checked[type(want).__name__] += 1
    # numbers and errors both come out, many times
    assert checked["float"] > 2000 and checked["ErrorKind"] > 500


def test_odd_cells_and_float_columns_match_the_per_cell_references(reference):
    odd = _ODD_CELLS[: len(_ODD_CELLS) // 3 * 3]
    third = len(odd) // 3
    floats = tuple(sorted(_FLOATS))
    tables = [
        make_table(a=odd[:third], b=odd[third : 2 * third], c=odd[2 * third :], e=(None,) * third),
        make_table(a=odd[::3], b=odd[1::3], c=odd[2::3], e=(None,) * third),
        make_table(a=floats, b=floats[::-1], c=_FLOATS, e=(None,) * len(floats)),
    ]
    rng = random.Random(3)
    for table in tables:
        for _ in range(40):
            for src in _formulas(rng, table.row_count):
                got, want = ev(src, table), reference(src, table)
                assert _same_cell(got, want), (src, got, want)


def test_match_position_against_the_per_cell_reference():
    # numbers, text, logicals, blanks and every error, with runs of error
    # cells placed before the cell that stops a scan: types 1 and -1 must
    # back off over them to the last cell that compares
    rng = random.Random(11)
    errors = tuple(ErrorKind)
    checked = Counter()
    for _ in range(4000):
        n = rng.randint(1, 8)
        kind = rng.randrange(3)
        if kind == 0:
            cells = [rng.choice(_ODD_CELLS) for _ in range(n)]
        else:
            cells = sorted(rng.choice(_FLOATS) for _ in range(n))
            if kind == 2:
                cells.reverse()
        at = rng.randint(0, n)
        cells[at:at] = rng.choices(errors, k=rng.randint(1, 3))
        vec = RangeView(len(cells), 1, tuple(cells))
        lookup = rng.choice(_ODD_CELLS + _FLOATS)
        for match_type in (0, 1, -1):
            got = evaluator.match_position(lookup, vec, match_type)
            want = reference_match_position(lookup, vec, match_type)
            assert got == want, (lookup, cells, match_type, got, want)
            checked[type(want).__name__] += 1
    assert checked["int"] > 4000 and checked["ErrorKind"] > 2000


@pytest.mark.parametrize(
    "src, want",
    [
        # blank equals 0: a 0 against blank cells takes the per-cell path
        ("=COUNTIF(z,0)", 3.0),
        ("=COUNTIF(z,-0)", 3.0),
        ("=MATCH(0,z,0)", 1.0),
        ("=VLOOKUP(0,B1:B3,1,FALSE)", None),
        # TRUE is not 1, nor "5" 5: both are looked up as they are
        ("=COUNTIF(x,TRUE)", 0.0),
        ("=MATCH(TRUE,x,0)", ErrorKind.NA),
        ('=MATCH("5",x,0)', ErrorKind.NA),
        ("=MATCH(1,l,0)", ErrorKind.NA),
        # numeral criteria text is a number, other text is text
        ('=COUNTIF(x,"5")', 1.0),
        ('=COUNTIF(x,"<>abc")', 3.0),
        # a later range's error is not read on a row an earlier criteria missed
        ('=COUNTIFS(x,">2",err,"<8")', 1.0),
        ('=COUNTIFS(x,"<2",err,"<8")', ErrorKind.DIV0),
        # a sum range error counts only on a matched row
        ('=SUMIF(x,">2",err)', 11.0),
        ('=SUMIF(x,"<2",err)', ErrorKind.DIV0),
        # AVERAGEIF adds the numbers among the matched sum cells and
        # divides by the matched rows
        ('=AVERAGEIF(x,">0",txt)', 4.0 / 3.0),
        ('=AVERAGEIF(x,">1",txt)', 0.0),
        # COUNTA: the first error in argument order, a scalar's or a cell's
        ("=COUNTA(x,MATCH(9,x,0),err)", ErrorKind.NA),
        ("=COUNTA(x,err,MATCH(9,x,0))", ErrorKind.DIV0),
        ("=COUNTA(x,z)", 4.0),
        ("=COUNT(x,err,z,txt,l,1/0)", 7.0),
    ],
)
def test_named_cases(src, want, reference):
    t = make_table(
        x=(1.0, 5.0, 6.0),
        z=(None, 0.0, None),
        err=(ErrorKind.DIV0, 3.0, 8.0),
        txt=(4.0, "4", None),
        l=(True, False, True),
    )
    got = ev(src, t)
    assert _same_cell(got, want), (src, got)
    assert _same_cell(got, reference(src, t))


def test_per_range_paths_run_on_float_columns(monkeypatch):
    calls = Counter()
    compare = evaluator.compare_values
    monkeypatch.setattr(evaluator, "compare_values", lambda a, b: calls.update(["compare"]) or compare(a, b))
    formulas = [
        '=COUNTIF(a,">0")', "=SUMIF(a,5,b)", '=AVERAGEIF(a,"<>2",b)', '=COUNTIFS(a,">0",b,"<=5")',
        '=SUMIFS(b,a,">=-1e308",b,"<5.5")', "=MATCH(5,a,0)", "=MATCH(5,a)", "=MATCH(5,b,-1)",
        "=VLOOKUP(2,A1:B6,2,FALSE)", "=VLOOKUP(2,A1:B6,2)", "=HLOOKUP(2,A1:B6,3,FALSE)",
    ]
    floats = make_table(a=(0.0, -0.0, 2.0, 5.0, 1e308, 5e-324), b=(5.5, 5.0, 2.0, 1.0, -0.0, -1e308))
    for src in formulas:
        ev(src, floats)
    assert calls == Counter()

    # one blank cell sends the same formulas per cell
    blank = make_table(a=(0.0, None, 2.0, 5.0, 1e308, 5e-324), b=(5.5, 5.0, 2.0, 1.0, None, -1e308))
    for src in formulas:
        ev(src, blank)
    assert calls["compare"] > 0


@pytest.mark.parametrize("src, want", [('=SUMIF(a,"<=3")', 2.0), ('=AVERAGEIF(a,"<>2")', (1e308 + 5.0) / 5)])
def test_criteria_range_as_sum_range_is_scanned_once(monkeypatch, src, want):
    # the column's kind is found once, by resolve, and answers both for the
    # comparison kernel and for the sum: no walk of the sum cells for numbers
    calls = Counter()
    column_kind, numbers = Table.column_kind, evaluator._numbers
    monkeypatch.setattr(Table, "column_kind", lambda self, c: calls.update(["column_kind"]) or column_kind(self, c))
    monkeypatch.setattr(evaluator, "_numbers", lambda cells: calls.update(["numbers"]) or numbers(cells))
    table = make_table(a=(0.0, -0.0, 2.0, 5.0, 1e308, 5e-324))
    assert ev(src, table) == want
    assert calls == Counter(column_kind=1)


@pytest.mark.parametrize(
    "src",
    [
        # three pairs, each narrowing the rows the next one compares
        '=COUNTIFS(a,">0",b,"<9",c,"<>2")',
        '=COUNTIFS(a,">2",b,"<9",c,"<>2")',
        '=SUMIFS(s,a,">0",b,"<9",c,"<>2")',
        '=SUMIFS(b,b,"<9",a,">1",c,"<>2")',
        '=SUMIFS(a,c,"<>2",b,">=0",a,"<9")',
        # a first pair that matches nothing
        '=COUNTIFS(a,">100",eb,"<9")',
        '=SUMIFS(s,a,">100",eb,"<9",ea,"<9")',
        '=AVERAGEIF(a,">100",s)',
        # errors in a later pair: only on missed rows, on matched rows,
        # after an earlier pair's first error and before it
        '=COUNTIFS(a,">2",em,"<9")',
        '=COUNTIFS(a,"<=2",em,"<9")',
        '=COUNTIFS(a,">0",eb,"<9")',
        '=COUNTIFS(eb,">0",ea,"<9")',
        '=COUNTIFS(ea,">0",eb,"<9")',
        '=COUNTIFS(a,">0",ea,"<9",eb,"<9")',
        '=COUNTIFS(a,">0",eb,"<9",ea,"<9")',
        '=SUMIFS(s,ea,">0",eb,"<9")',
        # a criteria error and a sum error on one row, and a sum error
        # before a criteria error
        '=SUMIFS(s,a,">5",ea,"<9")',
        '=SUMIFS(em,a,">0",ea,"<9")',
        # sum ranges of blanks, text, logicals and errors, on matched rows
        # and on missed ones
        '=SUMIFS(s,a,">0",b,"<9")',
        '=SUMIFS(s,a,">3",b,"<9")',
        '=SUMIFS(ea,a,">3",b,"<9")',
        '=SUMIFS(ea,a,"<3",b,"<9")',
        '=SUMIF(a,">0",s)',
        '=AVERAGEIF(b,"<9",s)',
    ],
)
def test_later_pairs_compare_only_the_rows_earlier_pairs_matched(src, reference):
    t = make_table(
        a=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        b=(8.0, 1.0, 9.0, 2.0, 0.0, -1.0, 3.0, 4.0),
        c=(2.0, 2.0, 1.0, 2.0, 5.0, 2.0, "2", None),
        s=(1.5, None, "x", True, 2.5, ErrorKind.NA, 4.0, -0.0),
        # ea: errors on rows 3 and 6; eb: on rows 2 and 5; em: on rows 1
        # and 2, which a>2 misses
        ea=(1.0, 1.0, ErrorKind.DIV0, 1.0, 1.0, ErrorKind.NUM, 1.0, 1.0),
        eb=(1.0, ErrorKind.VALUE, 1.0, 1.0, ErrorKind.NA, 1.0, 1.0, 1.0),
        em=(ErrorKind.REF, ErrorKind.NAME, 1.0, 1.0, 1.0, 1.0, 20.0, 1.0),
    )
    got = ev(src, t)
    assert _same_cell(got, reference(src, t)), (src, got)


# ---------------------------------------------------------------------------
# COUNT and COUNTA over a column whose partition the table keeps
# ---------------------------------------------------------------------------


def _counted_columns():
    """Columns of PARTITION_MIN_ROWS + 16 cells: mostly floats among odd
    cells, evenly mixed, with no error, with neither blank nor error, and
    one whose errors first appear after its blanks and text, #N/A before
    the #DIV/0! that ErrorKind lists first."""
    rows = PARTITION_MIN_ROWS + 16
    rng = random.Random(23)
    no_error = [c for c in _NON_FLOATS if type(c) is not ErrorKind]
    late = [None, "x", None, "", False] + [2.0] * (rows - 5)
    late[300], late[350], late[390] = ErrorKind.NA, ErrorKind.DIV0, ErrorKind.NA
    return [
        tuple(rng.choice(_NON_FLOATS) if rng.random() < 1 / 6 else rng.choice(_FLOATS) for _ in range(rows)),
        tuple(rng.choice(_ODD_CELLS) for _ in range(rows)),
        tuple(rng.choice(no_error) if rng.random() < 1 / 4 else rng.choice(_FLOATS) for _ in range(rows)),
        tuple(rng.choice(("a", "", True)) if i % 5 == 0 else float(i) for i in range(rows)),
        tuple(late),
    ]


def test_count_and_counta_match_the_per_cell_reference_with_and_without_a_partition(reference, monkeypatch):
    kept = Counter()
    kept_partition = evaluator._kept_partition
    monkeypatch.setattr(
        evaluator, "_kept_partition", lambda v, t: kept.update([kept_partition(v, t) is not None]) or kept_partition(v, t)
    )
    columns = _counted_columns()
    rows = len(columns[0])
    sources = [
        "=COUNT(x)", "=COUNTA(x)", "=COUNT(x,y)", "=COUNTA(x,y)", "=COUNTA(y,x)", '=COUNT(x,1,"a",y)',
        "=COUNTA(1,x)", "=COUNTA(x,1/0)", f"=COUNTA(A1:A{rows})", f"=COUNT(B1:B{rows})",
        f"=COUNTA(A2:A{rows})", f"=COUNT(A1:A{rows - 1},y)", "=COUNTA(x,A1:B3)", "=COUNT(x+0)", '=COUNTA(x&"",y)',
    ]
    checked = Counter()
    for x, y in zip(columns, columns[1:] + columns[:1]):
        t = make_table(x=x, y=y)
        # a fresh table scans the cells; once the columns are split, the
        # partitions answer
        for fresh in (True, False):
            if not fresh:
                for name in "xy":
                    ev("{=" + name + "+0}", t)
                assert t.partitions[1] is not None and t.partitions[2] is not None
            for src in sources:
                got, want = ev(src, t), reference(src, t)
                assert _same_cell(got, want), (src, fresh, got, want)
                checked[type(want).__name__] += 1
    assert checked["float"] > 50 and checked["ErrorKind"] > 20, checked
    assert kept[True] > 50 and kept[False] > 50, kept
    # the first error in column order, not in ErrorKind's order
    t = make_table(x=columns[-1])
    ev("{=x+0}", t)
    assert t.partitions[1].values[:5] == (None, "x", "", False, ErrorKind.NA)
    assert ev("=COUNTA(x)", t) is ErrorKind.NA and ev("=COUNT(x)", t) == float(rows - 8)


# ---------------------------------------------------------------------------
# ranges of two or more rows and columns, kept as their column slices
# ---------------------------------------------------------------------------


def _block_formulas(rng: random.Random, n: int) -> list[str]:
    v = rng.choice(_LOOKUPS)
    exact = rng.choice(("TRUE", "FALSE"))
    return [
        f"=VLOOKUP({v},A1:C{n},{rng.randint(0, 4)},{exact})",
        f"=VLOOKUP({v},B1:C{n},2)",
        f"=HLOOKUP({v},A1:C{n},{rng.randint(0, n + 1)},{exact})",
        f"=HLOOKUP({v},A1:B{n},2)",
        f"=INDEX(A1:C{n},{rng.randint(0, n + 1)},{rng.randint(0, 4)})",
        f"=INDEX(B1:C{n},{rng.randint(1, n)})",
        f"=SUM(A1:C{n})",
        f"=SUM(IF(A1:B{n}>1,A1:B{n},0))",
        f"=COUNTA(A1:C{n})",
        f"=COUNT(B1:C{n},a)",
        f'=COUNTIF(A1:C{n},"<5")',
        f"=MATCH({v},A1:C{n},0)",
        f"{{=A1:C{n}}}",
        f"{{=A1:C{n}*2}}",
        f"{{=A1:B{n}+B1:C{n}}}",
        f"{{=A1:B{n}&a}}",
        f"{{=ISERROR(A1:C{n})}}",
        f"{{=IFERROR(A1:C{n},-1)}}",
        f"{{=IF(A1:B{n}>0,A1:B{n},1)}}",
    ]


def _same_value(got, want) -> bool:
    if isinstance(want, RangeView):
        return (
            type(got) is RangeView
            and (got.rows, got.cols, got.kind) == (want.rows, want.cols, want.kind)
            and all(map(_same_cell, got.cells, want.cells))
        )
    return _same_cell(got, want)


def test_nodes_over_blocks_match_the_per_cell_reference(reference):
    checked = Counter()
    for rng, n, t in _tables(seed=13, count=150):
        for src in _block_formulas(rng, n):
            got, want = ev(src, t), reference(src, t)
            assert _same_value(got, want), (src, t.columns, got, want)
            checked[type(want).__name__] += 1
        # scalar mode: a block is no one value
        scalar = EvalContext(t, mode="scalar", current_row=1)
        assert evaluate(parse(f"=A1:C{n}"), scalar) is (t.columns[0][0] if n == 1 else ErrorKind.VALUE)
    assert checked["RangeView"] > 500 and checked["float"] > 500 and checked["ErrorKind"] > 500, checked


def test_lookups_over_a_block_never_interleave_it(monkeypatch):
    rows = 400
    t = make_table(
        a=tuple(float(i) for i in range(rows)),
        b=tuple(f"t{i}" for i in range(rows)),
        c=tuple(None if i % 7 == 0 else float(i) * 2 for i in range(rows)),
        d=tuple(-float(i) for i in range(rows)),
    )
    built = []
    for module in (evaluator, table):
        monkeypatch.setattr(module, "row_major", lambda s, f=module.row_major: built.append(len(s)) or f(s))
    assert ev(f"=VLOOKUP(399,A1:D{rows},4,FALSE)", t) == -399.0
    assert ev(f"=VLOOKUP(250.5,A1:D{rows},3)", t) == 500.0
    assert ev(f'=VLOOKUP("t7",B1:D{rows},2,FALSE)', t) is None
    assert ev(f"=HLOOKUP(0,A1:D{rows},300,FALSE)", t) == 299.0
    assert ev(f"=INDEX(A1:D{rows},300,4)", t) == -299.0
    assert built == []
    # a node that reads every cell interleaves the block once
    assert ev(f"=COUNTA(A1:D{rows})", t) == float(4 * rows - len(range(0, rows, 7)))
    assert built == [4]


def test_an_evaluated_block_is_resolves_plain_view():
    t = make_table(a=(1.0, "x", None, True, ErrorKind.NA), b=(-0.0, 2.0, 3.0, 4.0, 5.0), c=("p", "q", "r", "s", "t"))
    for src, ref in (("A1:C5", "A1:C5"), ("B2:C4", "B2:C4"), ("A1:B2", "A1:B2")):
        got = ev("{=" + src + "}", t)
        want = resolve(t, parse("=" + ref).body)
        assert type(got) is RangeView and got == want and repr(got) == repr(want) and got.kind is want.kind
    floats = make_table(a=(1.0, 2.0), b=(3.0, -0.0))
    assert ev("{=A1:B2}", floats).kind is float and ev("{=A1:B2}", floats).cells == (1.0, 3.0, 2.0, -0.0)


@pytest.mark.parametrize(
    "src",
    ["{=A1:D5}", "{=A1:C6}", "=SUM(B1:Z2)", "{=A1:C6*2}", "=VLOOKUP(1,A1:D5,2)", "=HLOOKUP(1,B4:C9,2)",
     "=INDEX(A2:C9,1,1)", "=COUNTA(A1:D2)", "=MATCH(1,A1:D2,0)"],
)
def test_blocks_past_the_table_are_ref_errors(src):
    t = make_table(a=(1.0,) * 5, b=(2.0,) * 5, c=("x",) * 5)
    assert ev(src, t) is ErrorKind.REF
    ref = next(n for n in evaluator.walk(parse(src).body) if type(n) is RangeRef)
    assert resolve(t, ref) is ErrorKind.REF
