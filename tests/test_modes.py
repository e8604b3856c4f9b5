"""The relation between the two evaluation modes.

Scalar mode never reaches a kernel, a kind, IF's select, a column's
partition or the masked SUM: the elementwise lift scalarises its arguments
first. So for a formula whose array result is a vector as long as the
table, cell i must equal the formula's scalar evaluation at current_row=i,
by type and repr; and SUM over the formula must equal a left-to-right fold
of those cells. The tables are long enough to be partitioned, and the
formulas lean on comparisons over clean float columns, so that IF's
condition is a column of logicals with both branches taken."""

import random
from collections import Counter

from sprego import evaluator
from sprego.evaluator import EvalContext, evaluate
from sprego.formula import parse
from sprego.table import PARTITION_MIN_ROWS, RangeView
from sprego.values import ErrorKind

from helpers import make_table, reference_sum
from test_evaluator import _same_cell
from test_range_kinds import views_by_kind  # noqa: F401

ROWS = PARTITION_MIN_ROWS + 16
_ODD = (None, "", "abc", "12", " 3.5", "#N/A", True, False, *ErrorKind)
# zeros of both signs in every column; 1e308 only in g and y, so that
# SUM over a formula of f and x seldom overflows to #NUM! whatever it adds
_EDGES = (0.0, -0.0, 2.0)
_HUGE = _EDGES + (1e308, -1e308)


def _floats(rng: random.Random, edges) -> tuple:
    return tuple(rng.choice(edges) if rng.random() < 0.1 else round(rng.uniform(-3, 3), 1) for _ in range(ROWS))


def _dirty(rng: random.Random, edges, odd: float) -> tuple:
    return tuple(rng.choice(_ODD) if rng.random() < odd else v for v in _floats(rng, edges))


def _table(seed: int):
    """f, g: floats; x: mostly floats, as a dirty sheet column is; y: one
    cell in two odd; e: blank. Column C is x, and E1 is a blank cell."""
    rng = random.Random(seed)
    return make_table(f=_floats(rng, _EDGES), g=_floats(rng, _HUGE), x=_dirty(rng, _EDGES, 1 / 6),
                      y=_dirty(rng, _HUGE, 1 / 2), e=(None,) * ROWS)


_CLEAN_NAMES = ("f", "g")
_NAMES = ("f", "g", "x", "y", f"C1:C{ROWS}")
_LITERALS = ("0", "1", "2.5", "-0", "1e308", '""', '"a"', '"12"', "TRUE", "FALSE")
_OPS = ("+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">=")
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_CALLS = (("ISERROR", 1), ("IFERROR", 2), ("LEN", 1), ("NOT", 1), ("INT", 1))


def _condition(rng: random.Random, depth: int) -> str:
    """Mostly a comparison over the clean columns: logicals, both ways."""
    if rng.random() < 0.7:
        right = rng.choice(_CLEAN_NAMES + ("0", "1"))
        return rng.choice(_CLEAN_NAMES) + rng.choice(_COMPARISONS) + right
    if rng.random() < 0.5:
        return f"ISERROR({_expr(rng, depth)})"
    return _expr(rng, depth)


def _expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(_NAMES) if rng.random() < 0.6 else rng.choice(_LITERALS)
    k = rng.random()
    if k < 0.35:
        branches = [_expr(rng, depth - 1) for _ in range(rng.choice((1, 2)))]
        if len(branches) == 2 and rng.random() < 0.3:
            branches[rng.randrange(2)] = "0"  # SUM adds such an IF up as a masked sum
        return "IF(" + ",".join([_condition(rng, depth - 1), *branches]) + ")"
    if k < 0.65:
        return "(" + _expr(rng, depth - 1) + rng.choice(_OPS) + _expr(rng, depth - 1) + ")"
    if k < 0.75:
        return rng.choice(("-", "")) + _expr(rng, depth - 1) + rng.choice(("%", ""))
    name, arity = rng.choice(_CALLS)
    return name + "(" + ",".join(_expr(rng, depth - 1) for _ in range(arity)) + ")"


def _check_modes(t, source: str, rows) -> bool:
    """Whether the array result is a vector of the table's length; if so,
    checks it against scalar mode at *rows* and SUM against a fold."""
    got = evaluate(parse("{=" + source + "}"), EvalContext(t))
    if not (isinstance(got, RangeView) and got.is_vector and len(got) == ROWS):
        return False
    for row in rows:
        want = evaluate(parse("=" + source), EvalContext(t, mode="scalar", current_row=row))
        cells = [c[row - 1] for c in t.columns]
        assert _same_cell(got.element(row), want), (source, row, cells, got.element(row), want)
    total = evaluate(parse("{=SUM(" + source + ")}"), EvalContext(t))
    assert _same_cell(total, reference_sum([got], None)), (source, total)
    return True


def test_array_cells_equal_scalar_evaluation_row_by_row():
    checked = 0
    for seed in range(4):
        t = _table(seed)
        rng = random.Random(100 + seed)
        for _ in range(150):
            source = _expr(rng, rng.randint(1, 4))
            rows = (1, ROWS, *rng.sample(range(2, ROWS), 6))
            checked += _check_modes(t, source, rows)
    assert checked > 400, checked


def test_if_and_iferror_pick_by_row():
    # the shapes the relation must hold on, whatever the random draw
    t = _table(9)
    for source in (
        "IF(f>g,x,y)", "IF(f>g,1,x)", "IF(f<=0,x)", "IF(f>0,IF(g<0,x,f),y)", "IF(x,f,g)", "IF(y,1,0)",
        "IFERROR(x,-1)", "IFERROR(1/x,f)", "IFERROR(y+0,x)", "ISERROR(f/x)", "IF(ISERROR(x+0),0,x)",
        'IF(f>g,x&"",LEN(y))', "IF(f>g,f,g)*2", "IF(f>0,f,0)", "IF(f>0,0,f)", "IF(f<g,IF(f>-1,f,0),0)",
        # masked views read by the next node
        "IF(f>1,f,0)+x", "IF(f>-1,IF(f<1,f,0),0)*g", "ISERROR(IF(f>0,0,g))",
    ):
        assert _check_modes(t, source, range(1, ROWS + 1)), source


# chains of three or more nodes over the dirty column x, each node over the
# one before it: the elementwise nodes, ISERROR, the emptiness test, IF and
# IFERROR keep x's split from node to node, and SUM may add a split part by
# part. f is a float column of x's length; C1:C{ROWS} is x as a range
_SPLIT_CHAINS = (
    "ISERROR(x+0)", "NOT(ISERROR(x+0))", "ISERROR(f/x)", "IF(ISERROR(f/x),-1,f/x)", "IFERROR(f/x,-1)*2",
    "(x+0)*2-1", "-(x%)+x", 'LEN(x&"")=0', 'LEN(x&"a")+x', 'IF(LEN(x&"")=0,0,1)', 'IF(x>1,x*2,x&"")',
    'IF(ISERROR(x+0),0,IF(LEN(x&"")=0,0,1))', 'IF(ISERROR(x+0),0,IF(x="",0,1))', "IF(ISERROR(x+0),x,0)",
    'IFERROR(x*2,x&"")', "IF(ISERROR(x/f),x,f)+1", "ROUND(x+0.5,0)*x", "IF(x>0,x,0)*f", "(f&x)+1",
    "(x+0)+(f&x)", 'IF(ISERROR(x+0),"e",x)&""', "ISERROR(IF(x>1,x,\"a\")+1)", "IF(x,1,0)+IF(NOT(x),2,0)",
    f"ISERROR(C1:C{ROWS}+0)+x", "IF(ISERROR(x+0),0.1,0.7)", "IF(ISERROR(x+0),2^52,1)", "INT(x*0+TRUE)+x",
    # IF splits where ISERROR and IFERROR do: over the column itself as its
    # condition, beside a split branch; a split branch beside a condition
    # that is not split; and a blank branch taken on every float, so that
    # the float part's one value is blank and IF runs over a repeated one
    "IF(x,1,x+0)", "IF(f>3,x+0,f)", "IF(ISERROR(x+0),E1,x)", "IF(ISERROR(x+0),x,E1)",
    # ISERROR, IFERROR and IF split the column itself as any node does
    "ISERROR(x)", "IFERROR(x,0)", "IFERROR(x,f)", "IF(ISERROR(x),0,x)",
)


def test_split_chains_equal_scalar_evaluation_row_by_row(monkeypatch, views_by_kind):  # noqa: F811
    splits = []
    split_cells = evaluator._split_cells
    monkeypatch.setattr(evaluator, "_split_cells", lambda *args: splits.append(None) or split_cells(*args))
    # a split view's kind comes from its parts, not from a scan: each one,
    # intermediate nodes' included, must hold only cells of that kind
    split_kinds = Counter()
    unbuilt_init = evaluator._UnbuiltView.__init__

    def checked(self, *args, **kept):
        unbuilt_init(self, *args, **kept)
        assert self.kind is None or all(type(c) is self.kind for c in self.cells), (self.kind, self.cells)
        split_kinds[self.kind] += 1

    monkeypatch.setattr(evaluator._UnbuiltView, "__init__", checked)
    for seed in range(3):
        t = _table(seed)
        for source in _SPLIT_CHAINS:
            assert _check_modes(t, source, range(1, ROWS + 1)), source
    # every chain splits, most of them at more than one node, and the views
    # evaluate() returns hold only cells of their kinds, each kind among them
    assert len(splits) > 2 * 3 * len(_SPLIT_CHAINS), len(splits)
    assert all(views_by_kind[kind] > 0 for kind in (None, float, bool, str)), views_by_kind
    assert all(split_kinds[kind] > 0 for kind in (None, float, bool, str)), split_kinds


def test_every_split_chain_splits(monkeypatch):
    # the count over all chains above cannot tell a chain that stopped
    # splitting: each chain must split on its own, on one table
    splits = []
    split_cells = evaluator._split_cells
    monkeypatch.setattr(evaluator, "_split_cells", lambda *args: splits.append(None) or split_cells(*args))
    t = _table(0)
    unsplit = []
    for source in _SPLIT_CHAINS:
        splits.clear()
        evaluate(parse("{=" + source + "}"), EvalContext(t))
        if not splits:
            unsplit.append(source)
    assert not unsplit, unsplit
