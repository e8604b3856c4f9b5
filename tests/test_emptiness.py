"""The emptiness test: x="", ""=x, LEN(x)=0 and 0=LEN(x), with x&"" or
""&x read as x, are one elementwise node that builds no text.

Each form must give, cell for cell and by type and repr, what its nodes
give one by one: the per-cell composition of & (for x&""), LEN and =. The
tables are 40 rows (the kernel or the per-cell path) and 400 rows (a dirty
column splits over its partition), in array and in scalar mode. Trees that
a rewrite shares, and formulas that draw RAND(), must give what they give
with the emptiness test turned off, draw for draw."""

import random
from collections import Counter

import pytest

from sprego import evaluator
from sprego.evaluator import EvalContext, evaluate
from sprego.formula import Binary, Call, NameRef, TextLit, parse
from sprego.rewrite import rewrite
from sprego.table import PARTITION_MIN_ROWS, RangeView
from sprego.values import ErrorKind

from helpers import make_table
from test_evaluator import _same_cell

_CELLS = (
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.5, 123.0,
    None, "", " ", "abc", "0", "#N/A", "TRUE",
    True, False,
    *ErrorKind,
)
_FLOATS = tuple(c for c in _CELLS if type(c) is float)

_CONCAT = evaluator._BINARY_OPS["&"]
_EQ = evaluator._BINARY_OPS["="]
_LEN = evaluator._fn_len


def _len_of_text(c):
    return _LEN(_CONCAT(c, ""))


# each form of the test of x, with the per-cell composition of its nodes
_FORMS = (
    ('({x})=""', lambda c: _EQ(c, "")),
    ('""=({x})', lambda c: _EQ("", c)),
    ("LEN({x})=0", lambda c: _EQ(_LEN(c), 0.0)),
    ("0=LEN({x})", lambda c: _EQ(0.0, _LEN(c))),
    ('LEN(({x})&"")=0', lambda c: _EQ(_len_of_text(c), 0.0)),
    ('0=LEN(({x})&"")', lambda c: _EQ(0.0, _len_of_text(c))),
    ('LEN(""&({x}))=0', lambda c: _EQ(_LEN(_CONCAT("", c)), 0.0)),
    ('({x})&""=""', lambda c: _EQ(_CONCAT(c, ""), "")),
    ('""=""&(({x})&"")', lambda c: _EQ("", _CONCAT("", _CONCAT(c, "")))),
)


def _column(rng: random.Random, rows: int, odd: float) -> tuple:
    """Mostly floats, as a dirty sheet column is, with a share of odd cells."""
    return tuple(rng.choice(_CELLS) if rng.random() < odd else rng.choice(_FLOATS) for _ in range(rows))


def _tables():
    """40 and 400 rows: d, a dirty column; m, an even mix of every cell;
    f, floats; t, text and blanks; c, cells without errors."""
    for rows in (40, PARTITION_MIN_ROWS + 16):
        rng = random.Random(rows)
        no_errors = tuple(c for c in _CELLS if type(c) is not ErrorKind)
        yield make_table(
            d=_column(rng, rows, 1 / 6),
            m=_column(rng, rows, 1.0),
            f=tuple(rng.choice(_FLOATS) for _ in range(rows)),
            t=tuple(rng.choice(("", None, "a", "#N/A")) for _ in range(rows)),
            c=tuple(rng.choice(no_errors) for _ in range(rows)),
        )


# what the test is applied to: columns by name and by range, and the
# results of other nodes, of every kind (float, bool, str, none)
_OPERANDS = ("d", "m", "f", "t", "c", "A1:A{rows}", "B1:B{rows}", "d+0", "f>0", "d>0", "t&c", "ISERROR(m)",
             "IF(f>0,d,t)", "1/f")


def _ev(source, table, **kw):
    return evaluate(parse(source), EvalContext(table, **kw))


@pytest.fixture
def paths(monkeypatch):
    """Counts the runs of the emptiness kernel and of the split path."""
    calls = Counter()
    kernel, split = evaluator._IS_EMPTY_KERNEL, evaluator._split_cells

    def counted_kernel(cs):
        calls["kernel"] += 1
        return kernel.run(cs)

    def counted_split(*args):
        calls["split"] += 1
        return split(*args)

    monkeypatch.setattr(evaluator, "_IS_EMPTY_KERNEL", evaluator.Kernel(kernel.accepts, counted_kernel))
    monkeypatch.setattr(evaluator, "_split_cells", counted_split)
    return calls


def _no_rewrite(monkeypatch):
    monkeypatch.setattr(evaluator, "_emptiness_operand", lambda expr: None)


def test_forms_match_the_per_cell_composition_in_array_mode(paths):
    for table in _tables():
        rows = table.row_count
        for operand in _OPERANDS:
            x = operand.format(rows=rows)
            cells = _ev("{=" + x + "}", table).cells
            for form, reference in _FORMS:
                source = "{=" + form.format(x=x) + "}"
                got = _ev(source, table)
                assert isinstance(got, RangeView) and len(got) == rows, source
                for i, (g, c) in enumerate(zip(got.cells, cells)):
                    assert _same_cell(g, reference(c)), (source, i, c, g)
                if got.kind is not None:
                    assert set(map(type, got.cells)) == {got.kind}, source
    # both the whole-range kernel and the split over a partition ran
    assert paths["kernel"] > 0 and paths["split"] > 0, paths


def test_forms_match_the_per_cell_composition_in_scalar_mode():
    for table in _tables():
        rows = table.row_count
        picked = sorted(random.Random(rows).sample(range(1, rows + 1), 12))
        for operand in _OPERANDS:
            x = operand.format(rows=rows)
            for row in picked:
                cell = _ev("=" + x, table, mode="scalar", current_row=row)
                for form, reference in _FORMS:
                    source = "=" + form.format(x=x)
                    got = _ev(source, table, mode="scalar", current_row=row)
                    assert _same_cell(got, reference(cell)), (source, row, cell, got)


@pytest.mark.parametrize("cell", _CELLS + ("a", "x"), ids=repr)
def test_each_cell_as_a_scalar(cell):
    table = make_table(v=(cell,))
    for form, reference in _FORMS:
        for x in ("v", "A1"):
            source = "=" + form.format(x=x)
            got = _ev(source, table, mode="scalar", current_row=1)
            assert _same_cell(got, reference(cell)), (source, cell, got)


def test_float_and_logical_views_are_never_empty_without_a_scan(paths):
    table = make_table(f=_FLOATS * 50)
    got = _ev('{=LEN(f&"")=0}', table)
    assert got.cells == (False,) * len(_FLOATS) * 50 and got.kind is bool
    got = _ev('{=(f>0)=""}', table)
    assert got.cells == (False,) * len(_FLOATS) * 50 and got.kind is bool
    assert paths == Counter(kernel=2)


@pytest.mark.parametrize(
    "source",
    [
        # = nodes that are not an emptiness test: each runs node by node
        '=LEN(A1)=1', '=LEN(A1,1)=0', '=A1="a"', '=A1=0', '=A1=" "', '=LEN(A1)=FALSE', '=SEARCH(A1,"")=0',
        '=LEN(A1)=LEN("")',
    ],
)
def test_other_shapes_are_not_rewritten(source):
    assert evaluator._emptiness_operand(parse(source).body) is None


def test_matching_ignores_spans():
    # "" and 0 as the parser makes them, with spans, and as built bare
    x = NameRef("x")
    for expr in (parse('=x=""').body, Binary("=", x, TextLit("")), parse('=0=LEN(""&x&"")').body):
        assert evaluator._emptiness_operand(expr) == x
    assert evaluator._emptiness_operand(Binary("=", Call("LEN", (x,)), parse("=0").body)) == x
    # & with other text is tested as it is: its text is built
    assert evaluator._emptiness_operand(parse('=LEN(x&"a")=0').body) == parse('=x&"a"').body


def _dirty_20k() -> tuple:
    rng = random.Random(20)
    words = ("n/a", "#N/A", "missing", "abc", "TRUE")
    return tuple(
        None if r < 0.08 else rng.choice(words) if r < 0.16 else round(rng.uniform(0, 10), 3)
        for r in (rng.random() for _ in range(20_000))
    )


def test_no_text_is_built(monkeypatch):
    calls = Counter()
    texts, concat = evaluator._texts, evaluator._BINARY_KERNELS["&"]

    def counted_texts(stream):
        calls["_texts"] += 1
        return texts(stream)

    def counted_concat(xs, ys):
        calls["_concat_kernel"] += 1
        return concat.run(xs, ys)

    monkeypatch.setattr(evaluator, "_texts", counted_texts)
    monkeypatch.setitem(evaluator._BINARY_KERNELS, "&", evaluator.Kernel(concat.accepts, counted_concat))
    table = make_table(dirty=_dirty_20k())
    for source in ('{=LEN(dirty&"")=0}', '{=SUM(IF(LEN(dirty&"")=0,0,1))}',
                   '{=SUM(IF(ISERROR(dirty+0),0,IF(LEN(dirty&"")=0,0,1)))}'):
        _ev(source, table)
    assert calls == Counter()
    # the spies see the node-by-node path
    _ev('{=LEN(dirty&"")}', table)
    assert calls == Counter(_texts=1, _concat_kernel=1)


def test_r4_composites_match_the_node_by_node_evaluation(monkeypatch):
    for table in _tables():
        for name in ("d", "m", "f", "t", "c", "C1:C40"):
            for call in ("COUNT", "COUNTA"):
                composite, _plans = rewrite(parse(f"={call}({name})"))
                got = evaluate(composite, EvalContext(table))
                with monkeypatch.context() as m:
                    _no_rewrite(m)
                    want = evaluate(composite, EvalContext(table))
                assert _same_cell(got, want), (call, name, table.row_count, got, want)


@pytest.mark.parametrize(
    "source",
    [
        # R7 shares its x: the emptiness test is the shared node, or holds one
        '=IFERROR(LEN(x&"")=0,"err")',
        '=IFERROR(IF(LEN(x&"")=0,1/0,x),LEN(x&"")=0)',
        '=IFERROR(IFERROR(x="",-1)+IFERROR(""=1/x,-2),0)',
        '=SUM(IFERROR(IF(LEN(x)=0,0,1/x),0))',
    ],
)
def test_shared_trees_match_the_node_by_node_evaluation(source, monkeypatch):
    tree, plans = rewrite(parse(source))
    assert "R7" in [p.rule_id for p in plans]
    assert evaluator._shared_nodes(tree.body), source
    for table in _tables():
        t = make_table(x=table.columns[0])
        got = evaluate(tree, EvalContext(t))
        with monkeypatch.context() as m:
            _no_rewrite(m)
            want = evaluate(tree, EvalContext(t))
        if isinstance(want, RangeView):
            assert len(got) == len(want) and all(map(_same_cell, got.cells, want.cells)), source
        else:
            assert _same_cell(got, want), (source, got, want)


def test_a_shared_operand_is_evaluated_where_it_is_used(monkeypatch):
    # s is x&"", one node under the test and in a branch: the test reads x,
    # and the branch evaluates s
    s = parse('=x&""').body
    tree = Call("IF", (Binary("=", Call("LEN", (s,)), parse("=0").body), TextLit("blank"), s))
    for table in _tables():
        t = make_table(x=table.columns[0])
        got = evaluate(tree, EvalContext(t))
        with monkeypatch.context() as m:
            _no_rewrite(m)
            want = evaluate(tree, EvalContext(t))
        assert all(map(_same_cell, got.cells, want.cells))


@pytest.mark.parametrize(
    "source",
    [
        '=IF(LEN(RAND()&"")=0,0,RAND())',
        '=RAND()&""=""',
        '=IF(""=RAND(),RAND(),RAND()*2)+RAND()',
        '=IFERROR(IF(LEN(RAND()&"")=0,1/0,RAND()),RAND())',
    ],
)
def test_rand_draws_in_the_same_order(source, monkeypatch):
    tree, _plans = rewrite(parse(source))
    table = make_table(x=(1.0,))
    for seed in range(5):
        got = evaluate(tree, EvalContext(table, rng_seed=seed))
        with monkeypatch.context() as m:
            _no_rewrite(m)
            want = evaluate(tree, EvalContext(table, rng_seed=seed))
        assert _same_cell(got, want), (source, seed)


def test_the_tested_operand_makes_its_draw():
    # the test draws first, and its text is never empty: the value is the
    # second draw
    rng = random.Random(3)
    rng.random()
    assert _ev('=IF(LEN(RAND()&"")=0,0,RAND())', make_table(x=(1.0,)), rng_seed=3) == rng.random()
