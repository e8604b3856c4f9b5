import random

import pytest

from sprego import evaluator, formula
from sprego.evaluator import BASELINE_FUNCTIONS, EvalContext, evaluate, precedents
from sprego.formula import NameRef, format, parse
from sprego.rewrite import DiagnosticCode, _contains_rand, lint, non_sprego_calls, rewrite

from helpers import make_table


def lint_codes(src, table=None):
    return [d.code for d in lint(parse(src), table)]


def rewritten(src, table=None):
    out, _plans = rewrite(parse(src), table)
    return format(out)


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def test_lint_countif_flagged_rewritable():
    diags = lint(parse('=COUNTIF(A1:A9,">5")'))
    assert len(diags) == 1
    assert diags[0].code is DiagnosticCode.NON_SPREGO_FUNCTION
    assert diags[0].rewrite_available


def test_lint_absolute_references_two_findings():
    diags = lint(parse("=SUM($A$1:$A$9)"))
    assert [d.code for d in diags] == [DiagnosticCode.ABSOLUTE_REFERENCE] * 2


def test_lint_pure_sprego_clean():
    assert lint(parse("{=SUM(IF(A1:A9>5,1,0))}")) == []


def test_lint_mixed_references():
    codes = lint_codes("=A$1+$B2")
    assert codes == [DiagnosticCode.MIXED_REFERENCE] * 2


def test_lint_every_sprego_function_clean():
    sources = {
        "LEN": '=LEN("a")', "LEFT": '=LEFT("ab",1)', "RIGHT": '=RIGHT("ab")',
        "SEARCH": '=SEARCH("a","ab")', "SUM": "=SUM(A1:A3)", "AVERAGE": "=AVERAGE(A1:A3)",
        "MIN": "=MIN(A1:A3)", "MAX": "=MAX(A1:A3)", "IF": "=IF(TRUE,1,2)",
        "MATCH": "=MATCH(1,A1:A3,0)", "INDEX": "=INDEX(A1:A3,1)", "ISERROR": "=ISERROR(A1)",
        "SUBSTITUTE": '=SUBSTITUTE("ab","a","b")', "SMALL": "=SMALL(A1:A3,1)",
        "LARGE": "=LARGE(A1:A3,1)", "AND": "=AND(TRUE)", "OR": "=OR(FALSE)",
        "NOT": "=NOT(TRUE)", "INT": "=INT(1.5)", "ROUND": "=ROUND(1.5,0)",
        "RAND": "=RAND()", "OFFSET": "=OFFSET(A1,1,0)", "ROW": "=ROW(A1)", "COLUMN": "=COLUMN(A1)",
    }
    for name, src in sources.items():
        assert lint_codes(src) == [], name


def test_lint_every_baseline_flagged():
    sources = {
        "COUNT": "=COUNT(A1:A3)", "COUNTA": "=COUNTA(A1:A3)",
        "COUNTIF": '=COUNTIF(A1:A3,">1")', "COUNTIFS": '=COUNTIFS(A1:A3,">1")',
        "SUMIF": '=SUMIF(A1:A3,">1")', "SUMIFS": '=SUMIFS(B1:B3,A1:A3,">1")',
        "AVERAGEIF": '=AVERAGEIF(A1:A3,">1")', "VLOOKUP": "=VLOOKUP(1,A1:B3,2,FALSE)",
        "HLOOKUP": "=HLOOKUP(1,A1:C2,2,FALSE)", "IFERROR": "=IFERROR(A1,0)",
    }
    assert set(sources) == set(BASELINE_FUNCTIONS)
    for name, src in sources.items():
        codes = lint_codes(src)
        assert DiagnosticCode.NON_SPREGO_FUNCTION in codes, name


def test_lint_ordered_by_span():
    diags = lint(parse('=COUNTIF($A$1:$A$9,">5")+B$2'))
    spans = [d.span for d in diags]
    assert spans == sorted(spans)


def test_lint_wildcard_criteria():
    diags = lint(parse('=COUNTIF(A1:A9,"a*")'))
    codes = {d.code for d in diags}
    assert DiagnosticCode.UNSUPPORTED_CRITERIA in codes
    non_sprego = next(d for d in diags if d.code is DiagnosticCode.NON_SPREGO_FUNCTION)
    assert not non_sprego.rewrite_available


def test_lint_volatile_iferror():
    diags = lint(parse("=IFERROR(RAND()+1,0)"))
    codes = [d.code for d in diags]
    assert DiagnosticCode.VOLATILE_IN_REWRITE in codes
    non_sprego = next(d for d in diags if d.code is DiagnosticCode.NON_SPREGO_FUNCTION)
    assert non_sprego.rewrite_available


def test_diagnostic_json_shape():
    d = lint(parse("=COUNT(A1:A3)"))[0]
    j = d.to_json()
    assert j["code"] == "NON_SPREGO_FUNCTION"
    assert set(j["span"]) == {"start", "end"}
    assert isinstance(j["rewrite_available"], bool)


# ---------------------------------------------------------------------------
# rewrite catalog
# ---------------------------------------------------------------------------


def test_r1_countif():
    assert rewritten('=COUNTIF(A1:A9,">5")') == "{=SUM(IF(A1:A9>5,1,0))}"


def test_r1_criteria_forms():
    assert rewritten("=COUNTIF(A1:A9,6)") == "{=SUM(IF(A1:A9=6,1,0))}"
    assert rewritten('=COUNTIF(A1:A9,"6")') == "{=SUM(IF(A1:A9=6,1,0))}"
    assert rewritten('=COUNTIF(A1:A9,"<>x")') == '{=SUM(IF(A1:A9<>"x",1,0))}'
    assert rewritten('=COUNTIF(A1:A9,B1)') == "{=SUM(IF(A1:A9=B1,1,0))}"
    assert rewritten('=COUNTIF(A1:A9,">"&B1)') == "{=SUM(IF(A1:A9>B1,1,0))}"


def test_r2_sumif():
    assert rewritten('=SUMIF(A1:A9,">5",B1:B9)') == "{=SUM(IF(A1:A9>5,B1:B9,0))}"
    assert rewritten('=SUMIF(A1:A9,">5")') == "{=SUM(IF(A1:A9>5,A1:A9,0))}"


def test_r3_averageif():
    assert rewritten('=AVERAGEIF(A1:A9,">5")') == "{=SUM(IF(A1:A9>5,A1:A9,0))/SUM(IF(A1:A9>5,1,0))}"


def test_r4_count_and_counta():
    assert rewritten("=COUNT(xs)") == '{=SUM(IF(ISERROR(xs+0),0,IF(LEN(xs&"")=0,0,1)))}'
    assert rewritten("=COUNTA(xs)") == '{=SUM(IF(LEN(xs&"")=0,0,1))}'


def test_r4_notes_document_divergence():
    _out, plans = rewrite(parse("=COUNT(A1:A9)"))
    assert any("text" in note for note in plans[0].notes)


def test_r5_vlookup_exact():
    assert rewritten("=VLOOKUP(E1,A1:C9,3,FALSE)") == "{=INDEX(C1:C9,MATCH(E1,A1:A9,0))}"


def test_r5_vlookup_approx_default():
    assert rewritten("=VLOOKUP(E1,A1:C9,2)") == "{=INDEX(B1:B9,MATCH(E1,A1:A9,1))}"
    assert rewritten("=VLOOKUP(E1,A1:C9,2,TRUE)") == "{=INDEX(B1:B9,MATCH(E1,A1:A9,1))}"


def test_r5_nameref_first_column():
    assert rewritten("=VLOOKUP(5,ages,1,FALSE)") == "{=INDEX(ages,MATCH(5,ages,0))}"


def test_r5_nameref_needs_table_for_later_columns():
    src = "=VLOOKUP(5,a,2,FALSE)"
    out, plans = rewrite(parse(src))
    assert not plans  # no table: left alone
    table = make_table(a=(1, 2), b=("x", "y"))
    out, plans = rewrite(parse(src), table)
    assert format(out) == "{=INDEX(b,MATCH(5,a,0))}"
    assert plans[0].notes


def test_r5_index_out_of_range_not_rewritten():
    out, plans = rewrite(parse("=VLOOKUP(1,A1:B9,3,FALSE)"))
    assert not plans
    assert format(out) == "=VLOOKUP(1,A1:B9,3,FALSE)"


def test_r6_hlookup():
    assert rewritten("=HLOOKUP(E1,A1:F2,2,FALSE)") == "{=INDEX(A2:F2,MATCH(E1,A1:F1,0))}"
    assert rewritten("=HLOOKUP(E1,A1:F3,3)") == "{=INDEX(A3:F3,MATCH(E1,A1:F1,1))}"


def test_r7_iferror():
    assert rewritten("=IFERROR(A1/B1,0)") == "=IF(ISERROR(A1/B1),0,A1/B1)"


def test_r7_volatile_note():
    _out, plans = rewrite(parse("=IFERROR(RAND(),0)"))
    assert plans[0].rule_id == "R7"
    assert any("RAND" in note for note in plans[0].notes)


def test_r8_countifs_nested_ifs():
    assert (
        rewritten('=COUNTIFS(A1:A9,">2",B1:B9,"<8")')
        == "{=SUM(IF(A1:A9>2,IF(B1:B9<8,1,0),0))}"
    )


def test_r8_sumifs():
    assert (
        rewritten('=SUMIFS(C1:C9,A1:A9,">2",B1:B9,"<8")')
        == "{=SUM(IF(A1:A9>2,IF(B1:B9<8,C1:C9,0),0))}"
    )


def test_rewrite_nested_baselines():
    out = rewritten('=IFERROR(COUNTIF(A1:A9,">5"),0)')
    assert out == "{=IF(ISERROR(SUM(IF(A1:A9>5,1,0))),0,SUM(IF(A1:A9>5,1,0)))}"


def test_rewrite_inside_larger_expression():
    assert rewritten('=1+COUNTIF(A1:A9,">5")') == "{=1+SUM(IF(A1:A9>5,1,0))}"


def test_rewrite_preserves_untouched_subtrees():
    f = parse('=SUM(B1:B9)+COUNTIF(A1:A9,">5")')
    out, _ = rewrite(f)
    assert out.body.left is f.body.left


def test_rewrite_wildcard_left_alone():
    src = '=COUNTIF(A1:A9,"a?c")'
    out, plans = rewrite(parse(src))
    assert not plans
    assert format(out) == src


def test_rewrite_size_clash_left_alone():
    src = '=SUMIF(A1:A9,">5",B1:B5)'
    out, plans = rewrite(parse(src))
    assert not plans
    diags = lint(parse(src))
    assert not any(d.rewrite_available for d in diags)


def test_rewrite_idempotent():
    sources = [
        '=COUNTIF(A1:A9,">5")',
        "=VLOOKUP(E1,A1:C9,3,FALSE)",
        "=IFERROR(A1/B1,0)",
        '=SUMIFS(C1:C9,A1:A9,">2",B1:B9,"<8")',
        '=COUNT(xs)+COUNTA(ys)',
    ]
    for src in sources:
        once, _ = rewrite(parse(src))
        twice, plans = rewrite(once)
        assert format(twice) == format(once)
        assert not plans


def test_rewrite_closure():
    sources = [
        '=COUNTIF(A1:A9,">5")',
        '=SUMIF(A1:A9,"<3",B1:B9)',
        '=AVERAGEIF(A1:A9,"<>1")',
        "=COUNT(xs)",
        "=COUNTA(xs)",
        "=VLOOKUP(1,A1:C9,2,FALSE)",
        "=HLOOKUP(1,A1:C2,2)",
        "=IFERROR(A1/B1,0)",
        '=COUNTIFS(A1:A9,">2",B1:B9,"<8")',
        '=SUMIFS(C1:C9,A1:A9,">2")',
        '=IFERROR(COUNTIF(A1:A9,">"&B1),COUNT(ys))',
    ]
    for src in sources:
        out, plans = rewrite(parse(src))
        assert plans, src
        assert non_sprego_calls(out) == [], src


def test_rewrite_never_introduces_absolute_references():
    out, _ = rewrite(parse('=COUNTIF(A1:A9,">5")+VLOOKUP(1,B1:D9,2,FALSE)'))
    flagged = [d for d in lint(out) if d.code in (DiagnosticCode.ABSOLUTE_REFERENCE, DiagnosticCode.MIXED_REFERENCE)]
    assert flagged == []


def test_rewrite_preserves_data_precedents():
    for src in ['=COUNTIF(A1:A9,">5")', '=SUMIF(A1:A9,">5",B1:B9)', "=IFERROR(A1/B1,0)"]:
        original = parse(src)
        out, _ = rewrite(original)
        assert set(precedents(original)) <= set(precedents(out))


def test_rewrite_array_flag_rules():
    assert rewritten("=IFERROR(A1,0)").startswith("=")  # R7 alone: no braces
    assert rewritten("=COUNT(xs)").startswith("{=")
    out, _ = rewrite(parse("{=SUM(xs)}"))
    assert format(out) == "{=SUM(xs)}"  # existing flag survives


def test_rewritten_formula_evaluates_equal_spot_check():
    t = make_table(x=(1, 6, 8, 3, None), y=(10, 20, 30, 40, 50))
    for src in ['=COUNTIF(x,">5")', '=SUMIF(x,">5",y)', '=AVERAGEIF(x,">5",y)']:
        original = parse(src)
        out, _ = rewrite(original)
        ctx = EvalContext(t, mode="array")
        assert evaluate(original, ctx) == evaluate(out, ctx)


def test_rewrite_plan_json():
    _out, plans = rewrite(parse('=COUNTIF(A1:A9,">5")'))
    j = plans[0].to_json()
    assert j["rule"] == "R1"
    assert j["replacement"] == "=SUM(IF(A1:A9>5,1,0))"


def test_random_baseline_mixes_close_under_rewrite():
    rng = random.Random(4)
    pieces = [
        '=COUNTIF(A1:A9,">{k}")',
        '=SUMIF(A1:A9,"<{k}",B1:B9)',
        "=VLOOKUP({k},A1:C9,2,FALSE)",
        "=IFERROR(A1/B1,{k})",
        "=COUNT(xs)",
    ]
    for _ in range(30):
        src = rng.choice(pieces).replace("{k}", str(rng.randint(0, 9)))
        out, plans = rewrite(parse(src))
        assert plans
        assert non_sprego_calls(out) == []


# ---------------------------------------------------------------------------
# nested IFERRORs share their x: each shared node is visited once
# ---------------------------------------------------------------------------


def _nested_iferror(levels, inner="1/0"):
    return "=" + "IFERROR(" * levels + inner + ",0)" * levels


@pytest.fixture
def visits(monkeypatch):
    """The operator and call nodes the id-keyed walk visits, in order."""
    seen = []
    counting = {
        kind: (lambda operands: lambda node: seen.append(node) or operands(node))(operands)
        for kind, operands in formula._CHILDREN.items()
    }
    monkeypatch.setattr(formula, "_CHILDREN", counting)
    return seen


def test_nested_iferror_rewrite_visits_each_node_once(visits):
    for levels in (12, 30):  # 12 first: a walk by paths fails there, in time
        visits.clear()
        out, plans = rewrite(parse(_nested_iferror(levels)))
        assert [p.rule_id for p in plans] == ["R7"] * levels
        # level k checks its x for RAND(): the 2k - 1 distinct nodes of the
        # k - 1 levels below it, where walk() would take 2**k - 1 paths
        assert len(visits) == sum(2 * k - 1 for k in range(1, levels + 1))
        visits.clear()
        assert not _contains_rand(out.body)
        assert len(visits) == len({id(n) for n in visits}) == 2 * levels + 1


def test_rand_inside_a_shared_x_is_found():
    out, plans = rewrite(parse(_nested_iferror(30, "RAND()/0")))
    assert all(any("RAND" in note for note in p.notes) for p in plans)
    assert _contains_rand(out.body)
    assert any(d.code is DiagnosticCode.VOLATILE_IN_REWRITE for d in lint(parse(_nested_iferror(2, "RAND()"))))


def test_shared_leftover_call_is_listed_once_in_source_order():
    out, _ = rewrite(parse('=IFERROR(COUNTIF(a,"*x"),0)+COUNTIF(b,"*y")'))
    assert [c.args[0].name for c in non_sprego_calls(out)] == ["a", "b"]
    # calls that only look alike are distinct calls
    twice = parse('=COUNTIF(a,"*x")+COUNTIF(a,"*x")')
    assert [c.func for c in non_sprego_calls(twice)] == ["COUNTIF", "COUNTIF"]


def test_leftover_calls_of_30_shared_levels_visit_each_node_once(visits):
    out, _ = rewrite(parse(_nested_iferror(30, 'COUNTIF(a,"*x")')))
    visits.clear()
    assert [c.func for c in non_sprego_calls(out)] == ["COUNTIF"]
    assert len(visits) == 2 * 30 + 1


@pytest.mark.parametrize("name", sorted(BASELINE_FUNCTIONS))
def test_baseline_call_with_wrong_arity_is_left_alone(name):
    spec = evaluator.FUNCTION_SPECS[name]
    counts = [spec.min_args - 1] + ([spec.max_args + 1] if spec.max_args is not None else [])
    for count in counts:
        src = f"={name}({','.join(['A1'] * count)})+0"
        out, plans = rewrite(parse(src))
        assert plans == [] and format(out) == src
        [diag] = lint(parse(src))
        assert diag.code is DiagnosticCode.NON_SPREGO_FUNCTION and not diag.rewrite_available
        assert "#VALUE!" in diag.message


# ---------------------------------------------------------------------------
# the criteria and COUNT/COUNTA shapes, pinned: rewritten text, rule, notes
# and lint messages
# ---------------------------------------------------------------------------

_NOT_CRITERIA = 'criteria argument is not a literal, reference, or "op"&ref'
_WILDCARD = "wildcard criteria"
_CLASH = "ranges have different sizes"

REWRITTEN_SHAPES = [
    # (formula, rewritten, rule, notes)
    ('=COUNTIF(A1:A9,">5")', "{=SUM(IF(A1:A9>5,1,0))}", "R1", ()),
    ('=COUNTIF(A1:A9,">"&B1)', "{=SUM(IF(A1:A9>B1,1,0))}", "R1", ()),
    ('=SUMIF(A1:A9,">5")', "{=SUM(IF(A1:A9>5,A1:A9,0))}", "R2", ()),
    ('=SUMIF(A1:A9,">5",B1:B9)', "{=SUM(IF(A1:A9>5,B1:B9,0))}", "R2", ()),
    ('=AVERAGEIF(A1:A9,">5")', "{=SUM(IF(A1:A9>5,A1:A9,0))/SUM(IF(A1:A9>5,1,0))}", "R3", ()),
    ('=AVERAGEIF(A1:A9,">5",B1:B9)', "{=SUM(IF(A1:A9>5,B1:B9,0))/SUM(IF(A1:A9>5,1,0))}", "R3", ()),
    ('=AVERAGEIF(A1:A9,"<="&B1,C1:C9)', "{=SUM(IF(A1:A9<=B1,C1:C9,0))/SUM(IF(A1:A9<=B1,1,0))}", "R3", ()),
    ('=COUNTIFS(A1:A9,">2",B1:B9,"<8")', "{=SUM(IF(A1:A9>2,IF(B1:B9<8,1,0),0))}", "R8", ()),
    ('=SUMIFS(C1:C9,A1:A9,">2",B1:B9,"<8")', "{=SUM(IF(A1:A9>2,IF(B1:B9<8,C1:C9,0),0))}", "R8", ()),
    ('=SUMIFS(xs,ys,">2",zs,"<8")', "{=SUM(IF(ys>2,IF(zs<8,xs,0),0))}", "R8", ()),
    (
        "=COUNT(A1:A9)",
        '{=SUM(IF(ISERROR(A1:A9+0),0,IF(LEN(A1:A9&"")=0,0,1)))}',
        "R4",
        ("numeric-looking text and logical cells count under the rewrite but not under COUNT",),
    ),
    ("=COUNTA(A1:A9)", '{=SUM(IF(LEN(A1:A9&"")=0,0,1))}', "R4", ("empty-text cells are not counted by the rewrite",)),
]

REFUSED_SHAPES = [
    # (formula, the reason lint gives for leaving it alone)
    ("=COUNTIF(A1:A9,B1:B2)", _NOT_CRITERIA),
    ("=COUNTIF(A1:A9,1+1)", _NOT_CRITERIA),
    ("=SUMIF(A1:A9,1+1,B1:B9)", _NOT_CRITERIA),
    ('=COUNTIFS(A1:A9,">2",B1:B9,1+1)', _NOT_CRITERIA),
    ('=COUNTIF(A1:A9,"a*")', _WILDCARD),
    ('=SUMIF(A1:A9,"<>b?",B1:B9)', _WILDCARD),
    ('=COUNTIFS(A1:A9,">2",B1:B9)', "COUNTIFS takes range,criteria pairs"),
    ('=SUMIFS(C1:C9,A1:A9,">2",B1:B9)', "SUMIFS takes a sum range then range,criteria pairs"),
    ("=SUMIFS(C1:C9,A1:A9)", "SUMIFS() with 2 arguments is a #VALUE! error"),
    # a size clash in each position
    ('=COUNTIFS(A1:A9,">2",B1:B5,"<8")', _CLASH),
    ('=SUMIFS(C1:C9,A1:A9,">2",B1:B5,"<8")', _CLASH),
    ('=SUMIF(A1:A9,">5",B1:B5)', _CLASH),
    ('=AVERAGEIF(A1:A9,">5",B1:B5)', _CLASH),
    ('=SUMIFS(C1:C5,A1:A9,">2")', _CLASH),
    # a pair's criteria is read before its range's size, and every pair
    # before the sum range's size
    ('=SUMIFS(C1:C5,A1:A9,">2",B1:B5,1+1)', _NOT_CRITERIA),
    ('=COUNTIFS(A1:A9,">2",B1:B5,"a*")', _WILDCARD),
    ("=COUNT(A1:A9,B1:B9)", "only single-range COUNT is rewritten"),
    ("=COUNTA(A1:A9,B1:B9)", "only single-range COUNTA is rewritten"),
]


def _lint_rows(src):
    return [(d.code, d.message, d.rewrite_available) for d in lint(parse(src))]


@pytest.mark.parametrize("src, out, rule, notes", REWRITTEN_SHAPES)
def test_rewritten_shape(src, out, rule, notes):
    f, plans = rewrite(parse(src))
    assert format(f) == out
    assert [(p.rule_id, p.notes) for p in plans] == [(rule, notes)]
    name = parse(src).body.func
    assert _lint_rows(src) == [(DiagnosticCode.NON_SPREGO_FUNCTION, f"problem-specific function {name}()", True)]


@pytest.mark.parametrize("src, reason", REFUSED_SHAPES)
def test_refused_shape(src, reason):
    f, plans = rewrite(parse(src))
    assert format(f) == src and plans == []
    name = parse(src).body.func
    expected = [(DiagnosticCode.NON_SPREGO_FUNCTION, f"problem-specific function {name}(); not rewritten: {reason}", False)]
    if reason == _WILDCARD:
        expected.append((DiagnosticCode.UNSUPPORTED_CRITERIA, "wildcard criteria have no Sprego equivalent", False))
    assert _lint_rows(src) == expected
