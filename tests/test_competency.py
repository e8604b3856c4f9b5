import random

from sprego.competency import (
    ARRAY_CONDITION_CALLS,
    BU,
    GU,
    ITEMS,
    ITEMS_BY_ID,
    NON_ARRAY_CALLS,
    classify,
    nesting_depth,
    render_report,
    report,
    static_shape,
)
from sprego.evaluator import FUNCTION_SPECS
from sprego.formula import parse

from helpers import make_table, random_source


# ---------------------------------------------------------------------------
# the shipped framework table
# ---------------------------------------------------------------------------


def test_item_count_and_groups():
    groups = {}
    for item in ITEMS:
        groups.setdefault(item.group, []).append(item)
    assert len(ITEMS) == 34
    assert len(groups["problem-solving"]) == 10
    assert len(groups["basic-ict"]) == 9
    assert len(groups["design"]) == 2
    assert len(groups["formulas"]) == 10
    assert len(groups["formatting"]) == 3


def test_ids_unique():
    assert len(ITEMS_BY_ID) == len(ITEMS)


def test_gu_cumulative_over_bu():
    for item in ITEMS:
        if item.bu_required:
            assert item.gu_required, item.id
        assert item.gu_required  # every row in the table is required at GU


def test_gu_only_rows_exact():
    gu_only = {item.id for item in ITEMS if item.gu_only}
    assert gu_only == {
        "data-driven-errors",
        "array-error-condition-functions",
        "multi-level-composites",
        "grouping-merging",
    }


def test_input_knowledge_tags():
    assert ITEMS_BY_ID["breaking-down-problems"].input_knowledge == {"MA", "DP", "IS", "AC"}
    assert ITEMS_BY_ID["basic-arithmetic"].input_knowledge == {"MA"}
    assert ITEMS_BY_ID["data-driven-errors"].input_knowledge == {"AC"}
    assert ITEMS_BY_ID["recognizing-data-types"].input_knowledge == {"ICT"}
    # several formula rows carry no tags
    assert ITEMS_BY_ID["handling-vectors"].input_knowledge == frozenset()
    assert ITEMS_BY_ID["multi-level-composites"].input_knowledge == frozenset()
    valid = {"MA", "DP", "IS", "AC", "ICT"}
    for item in ITEMS:
        assert item.input_knowledge <= valid


def test_evaluable_rows_exact():
    evaluable = {item.id for item in ITEMS if item.evaluable}
    assert evaluable == {
        "basic-arithmetic",
        "concept-of-functions",
        "non-array-functions",
        "vector-output-array-formulas",
        "one-value-array-formulas",
        "array-error-condition-functions",
        "two-three-level-composites",
        "multi-level-composites",
    }
    for item in ITEMS:
        if item.group in ("basic-ict", "design", "formatting"):
            assert not item.evaluable, item.id
        if item.group == "problem-solving":
            assert not item.evaluable, item.id


def test_classifier_function_sets():
    assert NON_ARRAY_CALLS == {
        "LEN", "LEFT", "RIGHT", "SEARCH", "SUBSTITUTE", "INT", "ROUND",
        "SUM", "AVERAGE", "MIN", "MAX", "SMALL", "LARGE",
    }
    assert ARRAY_CONDITION_CALLS == {"IF", "MATCH", "INDEX", "ISERROR", "AND", "OR", "NOT", "OFFSET"}


def test_function_spec_competency_tags_name_evaluable_items():
    tags = {spec.competency for spec in FUNCTION_SPECS.values()} - {None}
    assert tags == {"non-array-functions", "array-error-condition-functions"}
    assert all(ITEMS_BY_ID[tag].evaluable for tag in tags)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_arithmetic_is_bu():
    profile = classify(parse("=A1+B1"))
    assert profile.level == BU
    assert set(profile.triggered) == {"basic-arithmetic"}
    assert profile.nesting_depth == 0


def test_sum_if_composite_is_gu():
    profile = classify(parse("{=SUM(IF(A1:A9>5,1,0))}"))
    assert profile.level == GU
    assert "array-error-condition-functions" in profile.triggered
    assert "one-value-array-formulas" in profile.triggered
    assert profile.nesting_depth == 2
    assert "two-three-level-composites" in profile.triggered


def test_depth_four_chain_is_gu():
    profile = classify(parse('=LEFT(RIGHT(SUBSTITUTE(LEN(A1)&"","1","2")))'))
    assert profile.nesting_depth == 4
    assert "multi-level-composites" in profile.triggered
    assert profile.level == GU


def test_depth_counts_calls_not_operators():
    assert nesting_depth(parse("=SUM(A1:A3)").body) == 1
    assert nesting_depth(parse("=SUM(A1:A3)+SUM(B1:B3)*2").body) == 1
    assert nesting_depth(parse("=SUM(LEN(LEFT(A1)))").body) == 3
    assert nesting_depth(parse("=1+2").body) == 0


def test_depth_of_composed_calls_property():
    for f, g, h in (("SUM", "LEN", "LEFT"), ("INT", "ROUND", "MAX")):
        assert nesting_depth(parse(f"={f}({g}({h}(A1)))").body) == 3


def test_non_array_calls_stay_bu():
    for src in ("=LEN(A1)", "=SUM(A1:A9)", '=SUBSTITUTE("a","a","b")', "=SMALL(A1:A9,1)"):
        profile = classify(parse(src))
        assert profile.level == BU, src
        assert "non-array-functions" in profile.triggered


def test_condition_calls_are_gu_even_scalar():
    # Table-1-literal reading: IF alone already needs GU
    profile = classify(parse("=IF(A1>5,1,0)"))
    assert profile.level == GU
    assert "array-error-condition-functions" in profile.triggered


def test_array_entered_vector_vs_scalar_output():
    vec = classify(parse("{=A1:A9*2}"))
    assert "vector-output-array-formulas" in vec.triggered
    assert vec.level == BU
    one = classify(parse("{=SUM(A1:A9*2)}"))
    assert "one-value-array-formulas" in one.triggered
    assert "vector-output-array-formulas" not in one.triggered


def test_static_shape():
    assert static_shape(parse("=A1:A9").body) == "vector"
    assert static_shape(parse("=SUM(A1:A9)").body) == "scalar"
    assert static_shape(parse("=LEN(names)").body) == "vector"
    assert static_shape(parse("=1+2").body) == "scalar"
    assert static_shape(parse("=IF(xs>1,1,0)").body) == "vector"
    assert static_shape(parse("=ROW(A1:A3)").body) == "vector"
    assert static_shape(parse("=ROW(A1)").body) == "scalar"


def test_triggered_spans_point_into_source():
    src = "{=SUM(IF(A1:A9>5,1,0))}"
    profile = classify(parse(src))
    for spans in profile.triggered.values():
        for start, end in spans:
            assert 0 <= start <= end <= len(src)


def test_monotonicity_wrapping_never_lowers_level():
    rng = random.Random(6)
    rank = {BU: 0, GU: 1}
    for _ in range(60):
        src = random_source(rng, depth=2)
        inner = parse(src)
        level = classify(inner).level
        wrapped = parse("=SUM(" + (src.removeprefix("{=").removesuffix("}") if src.startswith("{") else src.lstrip("=")) + ")")
        assert rank[classify(wrapped).level] >= rank[level]


def test_bare_number_is_bu():
    profile = classify(parse("=1"))
    assert profile.level == BU
    assert profile.triggered == {}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_empty_formula_list():
    rep = report([], [])
    assert rep.entries == ()
    assert rep.workbook_level is None
    not_assessed = {i.id for i in rep.not_assessed}
    assert not_assessed == {i.id for i in ITEMS if not i.evaluable}
    assert len(rep.not_assessed) == 26


def test_report_single_bu_formula():
    rep = report([], [("=A1+B1", parse("=A1+B1"))])
    assert rep.workbook_level == BU


def test_report_mixed_levels_max():
    formulas = [
        ("=A1+B1", parse("=A1+B1")),
        ("{=SUM(IF(A1:A9>5,1,0))}", parse("{=SUM(IF(A1:A9>5,1,0))}")),
    ]
    rep = report([], formulas)
    assert rep.workbook_level == GU
    assert rep.histogram["basic-arithmetic"] == 1
    assert rep.histogram["concept-of-functions"] == 1


def test_report_json_schema():
    t = make_table(x=(1,))
    rep = report([t], [("=A1+B1", parse("=A1+B1"))])
    j = rep.to_json()
    assert j["tables"] == ["t"]
    assert j["formulas"][0]["source"] == "=A1+B1"
    assert j["formulas"][0]["level"] == BU
    assert "histogram" in j["workbook"]
    assert isinstance(j["not_assessed"], list)


def test_render_report_text():
    rep = report([], [("=A1+B1", parse("=A1+B1"))])
    text = render_report(rep)
    assert "workbook level: BU" in text
    assert "not assessed" in text
