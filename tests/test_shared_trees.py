"""The generic walkers on trees that a rewrite shares: R7 uses its x twice,
so n nested IFERRORs rewrite to a tree of about 3n distinct nodes but 2**n
paths. Each walker must visit a shared node once."""

import pytest

from sprego import formula
from sprego.competency import classify, nesting_depth, static_shape
from sprego.evaluator import precedents
from sprego.formula import (
    Binary,
    BoolLit,
    Call,
    CellRef,
    NameRef,
    NumberLit,
    RangeRef,
    TextLit,
    Unary,
    children,
    format,
    parse,
    walk,
)
from sprego.rewrite import lint, non_sprego_calls, rewrite


def _rewritten_iferrors(levels, inner="A1/B1"):
    out, plans = rewrite(parse("=" + "IFERROR(" * levels + inner + ",0)" * levels))
    assert [p.rule_id for p in plans][-levels:] == ["R7"] * levels
    return out


def test_children_of_each_node_type():
    a1, b2 = CellRef("A", 1), CellRef("B", 2)
    one, two = NumberLit(1.0), NumberLit(2.0)
    assert children(Unary("-", one)) == (one,)
    assert children(Binary("+", one, two)) == (one, two)
    assert children(Call("SUM", (one, a1, two))) == (one, a1, two)
    assert children(Call("RAND", ())) == ()
    assert children(RangeRef(a1, b2)) == (a1, b2)
    for leaf in (one, TextLit("x"), BoolLit(True), a1, NameRef("age")):
        assert children(leaf) == ()


def test_walk_is_pre_order_in_source_order():
    body = parse("=SUM(A1:B2,-C3)*2").body
    kinds = [type(n).__name__ for n in walk(body)]
    assert kinds == ["Binary", "Call", "RangeRef", "CellRef", "CellRef", "Unary", "CellRef", "NumberLit"]


def test_walk_lists_a_shared_leaf_once():
    leaf = CellRef("A", 1)
    expr = Binary("+", leaf, Unary("-", leaf))
    nodes = walk(expr)
    assert [type(n) for n in nodes] == [Binary, CellRef, Unary]
    assert nodes[1] is leaf


def test_walk_of_a_shared_tree_holds_each_node_once():
    # 24,573 nodes by paths, 39 distinct ones
    nodes = list(walk(_rewritten_iferrors(12).body))
    assert len({id(n) for n in nodes}) == len(nodes)


@pytest.fixture
def child_lookups(monkeypatch):
    """How many times the child table is read."""
    count = [0]

    def counted(get):
        def lookup(node):
            count[0] += 1
            return get(node)

        return lookup

    monkeypatch.setattr(formula, "_CHILDREN", {kind: counted(get) for kind, get in formula._CHILDREN.items()})
    return count


def test_walkers_take_linear_time_on_30_levels(child_lookups):
    out = _rewritten_iferrors(30)
    nodes = walk(out.body)
    # 61 operator and call nodes, A1, B1 and the 30 fallback zeros
    assert len(nodes) == 93
    edges = sum(len(children(n)) for n in nodes)
    for run in (
        lambda: lint(out),
        lambda: classify(out),
        lambda: non_sprego_calls(out),
        lambda: precedents(out),
        lambda: nesting_depth(out.body),
        lambda: static_shape(out.body),
    ):
        child_lookups[0] = 0
        run()
        # at most once per node (a walk) and once per edge (a memoised
        # recursion); a walk by paths would read it about 2**30 times
        assert child_lookups[0] <= len(nodes) + edges
    assert lint(out) == []
    assert precedents(out) == [CellRef("A", 1), CellRef("B", 1)]
    assert non_sprego_calls(out) == []
    assert nesting_depth(out.body) == 60
    assert static_shape(out.body) == "scalar"


@pytest.mark.parametrize("inner", ["A1/B1", 'COUNTIF(A1:A4,">2")/B1', "SUM(A1:A4)+C1:C4"])
@pytest.mark.parametrize("levels", range(1, 7))
def test_shared_tree_reads_like_its_printed_copy(levels, inner):
    # the reparsed text holds a copy of every path, so the tools must agree
    out = _rewritten_iferrors(levels, inner)
    copy = parse(format(out))
    assert precedents(out) == precedents(copy)
    assert nesting_depth(out.body) == nesting_depth(copy.body)
    assert static_shape(out.body) == static_shape(copy.body)
    assert classify(out).level == classify(copy).level
