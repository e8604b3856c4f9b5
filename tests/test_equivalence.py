import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprego import equivalence, evaluator
from sprego.equivalence import (
    ColumnSpec,
    DatasetSchema,
    RuleCase,
    SchemaError,
    check_all_rules,
    check_equivalence,
    check_rule_case,
    default_rule_cases,
    gen_dataset,
    numbers_close,
    schemas_for_pair,
    values_match,
)
from sprego.evaluator import EvalContext, evaluate
from sprego.formula import parse
from sprego.rewrite import rewrite
from sprego.table import PARTITION_MIN_ROWS, RangeView
from sprego.values import ErrorKind, format_value

from helpers import reference_values_match


def _schema(kind="numeric", rows=12, **kw):
    return DatasetSchema((ColumnSpec("xs", kind, **kw),), rows)


# ---------------------------------------------------------------------------
# gen_dataset
# ---------------------------------------------------------------------------


def test_gen_deterministic():
    schema = _schema()
    assert gen_dataset(schema, 1) == gen_dataset(schema, 1)
    assert gen_dataset(schema, 1) != gen_dataset(schema, 2)


def test_gen_shapes():
    schema = DatasetSchema((ColumnSpec("a"), ColumnSpec("b", "text")), rows=7)
    t = gen_dataset(schema, 3)
    assert t.headers == ("a", "b")
    assert t.row_count == 7


def test_gen_sorted_columns():
    asc = gen_dataset(_schema("sorted-ascending", rows=30), 5).columns[0]
    assert all(asc[i] <= asc[i + 1] for i in range(len(asc) - 1))
    desc = gen_dataset(_schema("sorted-descending", rows=30), 5).columns[0]
    assert all(desc[i] >= desc[i + 1] for i in range(len(desc) - 1))


def test_gen_bounds_and_integers():
    cells = gen_dataset(_schema(lo=2, hi=4, rows=50), 8).columns[0]
    assert all(2 <= v <= 4 for v in cells)
    ints = gen_dataset(_schema(lo=0, hi=5, integers=True, rows=50), 8).columns[0]
    assert all(float(v).is_integer() for v in ints)


def test_gen_blanks_and_errors_present():
    blanks = gen_dataset(_schema("with-blanks", rows=200), 9).columns[0]
    assert any(v is None for v in blanks)
    assert any(isinstance(v, float) for v in blanks)
    cells = gen_dataset(_schema("with-errors", rows=2000), 9).columns[0]
    kinds = {v for v in cells if isinstance(v, ErrorKind)}
    assert kinds == set(ErrorKind)  # every kind appears with positive probability


def test_gen_text_alphabet():
    cells = gen_dataset(_schema("text", rows=40, alphabet=("x", "y"), maxlen=3), 2).columns[0]
    assert all(0 < len(s) <= 3 and set(s) <= {"x", "y"} for s in cells)


def test_gen_mixed_types():
    cells = gen_dataset(_schema("mixed", rows=300), 4).columns[0]
    types = {type(v) for v in cells}
    assert bool in types and float in types and str in types and type(None) in types


def test_gen_schema_errors():
    with pytest.raises(SchemaError):
        gen_dataset(_schema(rows=0), 1)
    with pytest.raises(SchemaError):
        gen_dataset(_schema("text", alphabet=()), 1)
    with pytest.raises(SchemaError):
        gen_dataset(_schema(lo=5, hi=1), 1)
    with pytest.raises(SchemaError):
        gen_dataset(_schema("nope"), 1)


# ---------------------------------------------------------------------------
# value comparison
# ---------------------------------------------------------------------------


def test_numbers_close_tolerances():
    assert numbers_close(1.0, 1.0 + 5e-10)
    assert not numbers_close(1.0, 1.0 + 5e-9)
    assert numbers_close(0.0, 5e-13)
    assert not numbers_close(0.0, 5e-12)


def test_values_match_types_strict():
    assert values_match(ErrorKind.NA, ErrorKind.NA)
    assert not values_match(ErrorKind.NA, ErrorKind.REF)
    assert not values_match(1.0, True)
    assert not values_match("1", 1.0)
    assert values_match(None, None)
    a = RangeView(2, 1, (1.0, 2.0))
    assert values_match(a, RangeView(2, 1, (1.0, 2.0)))
    assert not values_match(a, RangeView(1, 2, (1.0, 2.0)))
    assert not values_match(a, 1.0)


# cells that == may call equal where values_match must not (True and 1.0,
# a nested view of each), or the reverse (1.0 and 1.0+5e-10), and cells
# values_match takes exactly: zeros of both signs, text, blank, each error
_MATCH_GRID = (
    0.0, -0.0, 1.0, 1.0 + 5e-10, True, False, "1", "a", "A", None, *ErrorKind,
    RangeView(1, 1, (1.0,)), RangeView(1, 1, (True,)), RangeView(1, 2, (1.0 + 5e-10, None)),
)


@st.composite
def _view_pairs(draw):
    """Two views over the grid, the second mostly of the first's shape, its
    cells the first's or, cell by cell, another grid value."""
    cells = draw(st.lists(st.sampled_from(_MATCH_GRID), min_size=1, max_size=8))
    size = len(cells)
    rows = draw(st.sampled_from([r for r in range(1, size + 1) if size % r == 0]))
    others = [draw(st.sampled_from((c, c, c, *_MATCH_GRID))) for c in cells]
    b_rows = draw(st.sampled_from((rows, rows, rows, size // rows)))
    return RangeView(rows, size // rows, tuple(cells)), RangeView(b_rows, size // b_rows, tuple(others))


@settings(max_examples=400, deadline=None)
@given(_view_pairs())
def test_values_match_agrees_with_per_cell_fold(pair):
    a, b = pair
    assert values_match(a, b) == reference_values_match(a, b)
    assert values_match(b, a) == reference_values_match(b, a)


def test_values_match_takes_every_pair_of_grid_cells_as_the_fold_does():
    for x, y in itertools.product(_MATCH_GRID, repeat=2):
        for a, b in ((RangeView(1, 1, (x,)), RangeView(1, 1, (y,))), (RangeView(2, 1, (x, y)), RangeView(2, 1, (y, x)))):
            assert values_match(a, b) == reference_values_match(a, b), (x, y)
    # the pairs the whole-view shortcut sees as == but the fold tells apart
    assert not values_match(RangeView(1, 1, (True,)), RangeView(1, 1, (1.0,)))
    nested = RangeView(1, 1, (RangeView(1, 1, (1.0,)),)), RangeView(1, 1, (RangeView(1, 1, (True,)),))
    assert nested[0] == nested[1] and not values_match(*nested)
    assert values_match(RangeView(1, 2, (0.0, 1.0)), RangeView(1, 2, (-0.0, 1.0 + 5e-10)))


# ---------------------------------------------------------------------------
# check_equivalence
# ---------------------------------------------------------------------------


def test_r1_pair_passes():
    verdict = check_equivalence(
        '=COUNTIF(xs,">5")',
        "{=SUM(IF(xs>5,1,0))}",
        [_schema(rows=24)],
        trials_per_schema=50,
        seed=2,
    )
    assert verdict.passed
    assert verdict.trials == 50


def test_broken_rewrite_fails_with_counterexample():
    verdict = check_equivalence(
        '=COUNTIF(xs,">5")',
        "{=SUM(IF(xs>5,1,1))}",  # deliberately wrong false-branch
        [_schema(rows=24)],
        trials_per_schema=50,
        seed=2,
        rule_id="R1",
    )
    assert not verdict.passed
    assert verdict.failures
    f = verdict.failures[0]
    assert f.original != f.rewritten
    # replay: the recorded seed regenerates the mismatch
    table = gen_dataset(_schema(rows=24), f.dataset_seed)
    ctx = EvalContext(table, mode="array", rng_seed=f.dataset_seed)
    a = evaluate(parse('=COUNTIF(xs,">5")'), ctx)
    b = evaluate(parse("{=SUM(IF(xs>5,1,1))}"), ctx)
    assert not values_match(a, b)


def test_vector_mismatch_records_its_first_row_and_both_vectors():
    schema = _schema(rows=16, lo=1.0, hi=9.0, integers=True)
    verdict = check_equivalence("{=A1:A16*2}", "{=A1:A16*3}", [schema], trials_per_schema=1, seed=0)
    (f,) = verdict.failures
    xs = gen_dataset(schema, f.dataset_seed).columns[0]
    assert f.row == 1
    assert f.original == "[" + ", ".join(format_value(2 * x) for x in xs) + "]"
    assert f.rewritten == "[" + ", ".join(format_value(3 * x) for x in xs) + "]"


def test_rule_case_with_nothing_to_rewrite_fails():
    case = RuleCase("R0", "no baseline call", "=SUM(xs)", (_schema(),))
    verdict = check_rule_case(case, trials_per_schema=5, seed=3)
    assert verdict.trials == 0
    assert [f.to_json() for f in verdict.failures] == [
        {"schema": "", "dataset_seed": 3, "row": None, "original": "=SUM(xs)", "rewritten": "<no rewrite applied>"}
    ]


def test_failures_capped_at_ten_per_schema():
    verdict = check_equivalence(
        "=SUM(xs)",
        "=SUM(xs)+1",
        [_schema(rows=4)],
        trials_per_schema=60,
        seed=0,
    )
    assert len(verdict.failures) == 10
    assert verdict.trials == 60


def test_volatile_pair_skipped_with_note():
    verdict = check_equivalence(
        "=IFERROR(RAND(),0)",
        "=IF(ISERROR(RAND()),0,RAND())",
        [_schema()],
        trials_per_schema=10,
        seed=0,
    )
    assert verdict.trials == 0
    assert verdict.passed
    assert any("RAND" in note for note in verdict.notes)


def test_verdict_json_shape():
    verdict = check_equivalence('=COUNTIF(xs,"<2")', '{=SUM(IF(xs<2,1,0))}', [_schema()], 5, 1, rule_id="R1")
    j = verdict.to_json()
    assert j["rule"] == "R1"
    assert j["passed"] is True
    assert j["trials"] == 5
    assert j["failures"] == []


def test_pair_tables_cover_every_referenced_row():
    # tables cut short of row 100 would make both sides #REF! on every
    # trial, and the wrong threshold below would pass
    original, rewritten = parse('=COUNTIF(A1:A100,">5")'), parse("{=SUM(IF(A1:A100>6,1,0))}")
    schemas = schemas_for_pair(original, rewritten)
    assert [s.rows for s in schemas] == [100] * 3
    verdict = check_equivalence(original, rewritten, schemas, trials_per_schema=10, seed=0)
    assert not verdict.passed


def test_pair_tables_have_at_least_16_rows():
    schemas = schemas_for_pair(parse("=SUM(B2)"), parse("=B2"))
    assert [(len(s.columns), s.rows) for s in schemas] == [(2, 16)] * 4


def test_pair_past_the_cell_budget_is_a_schema_error():
    budget = equivalence.PAIR_CELL_BUDGET
    assert [s.rows for s in schemas_for_pair(parse(f"=SUM(A1:A{budget})"), parse("=0"))] == [budget] * 3
    with pytest.raises(SchemaError):
        schemas_for_pair(parse(f"=SUM(A1:A{budget + 1})"), parse("=0"))
    with pytest.raises(SchemaError):
        schemas_for_pair(parse("=SUM(xs)"), parse(f"=B{budget // 2 + 1}"))
    # 12.4 million columns: refused before any column is built
    with pytest.raises(SchemaError):
        schemas_for_pair(parse("=SUM(ZZZZZ1)"), parse("=ZZZZZ1"))


# Pairs over 400 rows, past table.PARTITION_MIN_ROWS. The rule cases' tables
# have at most 48 rows, so they never reach a column's partition, the split
# path or SUM's part-by-part total; these pairs do, on their with-blanks,
# with-errors and (over more than one column) mixed tables, on both sides
_PAST_THE_PARTITION_FLOOR = (
    '=COUNTIF(A1:A400,">5")',  # R1
    '=AVERAGEIF(A1:A400,">5")',  # R3
    "=COUNT(A1:A400)",  # R4
    "=COUNTA(A1:A400)",  # R4
    "=IFERROR(100/A1:A400,-1)",  # R7 over a division
    '=SUMIFS(A1:A400,B1:B400,">5",C1:C400,"<8")',  # R8
)


@pytest.mark.parametrize("source", _PAST_THE_PARTITION_FLOOR)
def test_rewrites_hold_on_split_columns(source, monkeypatch):
    splits = []
    split_cells = evaluator._split_cells
    monkeypatch.setattr(evaluator, "_split_cells", lambda *args: splits.append(None) or split_cells(*args))
    original = parse(source)
    rewritten, plans = rewrite(original)
    assert len(plans) == 1, source
    schemas = schemas_for_pair(original, rewritten)
    assert {s.rows for s in schemas} == {400} and 400 >= PARTITION_MIN_ROWS
    verdict = check_equivalence(original, rewritten, schemas, trials_per_schema=10, seed=1)
    assert verdict.passed, verdict.to_json()
    assert splits, source


def test_mixed_pair_tables_split_a_dirty_column_beside_a_clean_one(monkeypatch):
    # R7 over two columns: only on the mixed tables is B dirty beside a clean
    # A, so that A/B splits with a per-cell other part and ISERROR, IF and
    # IFERROR split that result again
    splits = []
    split_cells = evaluator._split_cells

    def recorded(*args):
        view = split_cells(*args)
        splits.append((args[2], view.by_value))
        return view

    monkeypatch.setattr(evaluator, "_split_cells", recorded)
    original = parse("=IFERROR(A1:A400/B1:B400,-1)")
    rewritten, _ = rewrite(original)
    schemas = schemas_for_pair(original, rewritten)
    assert [s.label for s in schemas] == ["numeric", "with-blanks", "with-errors", "mixed"]
    assert [c.kind for c in schemas[-1].columns] == ["numeric", "with-errors"]
    for schema in schemas:
        splits.clear()
        verdict = check_equivalence(original, rewritten, [schema], trials_per_schema=5, seed=1)
        assert verdict.passed, verdict.to_json()
        assert bool(splits) == (schema.label == "mixed"), schema.label
    assert not any(by_value for _, by_value in splits)
    names = {fn.__name__ for fn, _ in splits}
    assert {"_fn_iserror", "_fn_iferror", "_if_cell"} <= names, names


# ---------------------------------------------------------------------------
# the shipped suite
# ---------------------------------------------------------------------------


def test_suite_covers_every_rule():
    cases = default_rule_cases()
    assert {c.rule_id for c in cases} == {f"R{i}" for i in range(1, 9)}


def test_suite_covers_documented_edges():
    cases = default_rule_cases()
    by_rule = {}
    for c in cases:
        by_rule.setdefault(c.rule_id, []).extend(c.schemas)
    for rule, schemas in by_rule.items():
        kinds = {col.kind for s in schemas for col in s.columns}
        labels = {s.label for s in schemas}
        assert "with-errors" in kinds, rule
        assert "with-blanks" in kinds, rule
        if rule in ("R1", "R2", "R3", "R8"):
            assert any("all" in lbl for lbl in labels), rule
            assert any("no-match" in lbl for lbl in labels), rule
    r5 = [c for c in cases if c.rule_id == "R5"]
    r5_kinds = {col.kind for c in r5 for s in c.schemas for col in s.columns}
    assert "sorted-ascending" in r5_kinds and "numeric" in r5_kinds


def test_rule_cases_all_pass_quick():
    for case in default_rule_cases():
        verdict = check_rule_case(case, trials_per_schema=12, seed=5)
        assert verdict.passed, (case.name, verdict.failures[:2])


def test_check_all_rules_deterministic():
    a = check_all_rules(trials_per_schema=6, seed=11)
    b = check_all_rules(trials_per_schema=6, seed=11)
    assert [v.to_json() for v in a] == [v.to_json() for v in b]
