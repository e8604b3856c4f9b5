import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprego.competency import classify, nesting_depth, static_shape
from sprego.evaluator import EvalContext, evaluate, precedents
from sprego.formula import (
    MAX_DEPTH,
    MAX_NESTING,
    Binary,
    BoolLit,
    Call,
    CellRef,
    Formula,
    LexError,
    NameRef,
    NumberLit,
    ParseError,
    RangeRef,
    TextLit,
    TokenKind,
    Unary,
    col_letters_to_index,
    expr_to_json,
    format,
    index_to_col_letters,
    parse,
    tokenize,
    walk,
)
from sprego.rewrite import lint, rewrite
from sprego.table import RangeView

from helpers import deep_formulas, make_table, malformed_sources, random_source


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_range():
    kinds = [t.kind for t in tokenize("=A1:B2")]
    assert kinds == [TokenKind.OP, TokenKind.CELLREF, TokenKind.OP, TokenKind.CELLREF]


def test_tokenize_countif_call():
    toks = tokenize('=COUNTIF(A1:A9,">5")')
    lexemes = [t.lexeme for t in toks]
    assert lexemes == ["=", "COUNTIF", "(", "A1", ":", "A9", ",", '">5"', ")"]
    assert toks[1].kind == TokenKind.IDENT
    assert toks[7].kind == TokenKind.STRING


def test_tokenize_malformed_number():
    with pytest.raises(LexError) as exc:
        tokenize("=1..2")
    assert 0 <= exc.value.offset <= 5


def test_tokenize_lexemes_reproduce_source():
    src = '{=SUM( IF(A1:A9>5, 1, 0) ) & "x y"}'
    toks = tokenize(src)
    rebuilt = "".join(t.lexeme for t in toks)
    # dropping only inter-token whitespace reproduces the source
    stripped = list(src)
    spans = [t.span for t in toks]
    for i in range(len(src)):
        if not any(s <= i < e for s, e in spans):
            assert src[i].isspace()
            stripped[i] = ""
    assert "".join(stripped) == rebuilt


def test_tokenize_spans_slice_source():
    src = '=LEFT(name, 2) & "!"'
    for tok in tokenize(src):
        assert src[tok.span[0]:tok.span[1]] == tok.lexeme
        assert tok.lexeme


def test_tokenize_unknown_character():
    with pytest.raises(LexError) as exc:
        tokenize("=1 ; 2")
    assert exc.value.offset == 3


def test_tokenize_unterminated_string():
    with pytest.raises(LexError):
        tokenize('="abc')


@pytest.mark.parametrize(
    "src, offset, message",
    [
        ("=SUM(ñ)", 5, "unexpected character 'ñ'"),
        ("=café", 4, "unexpected character 'é'"),
        ("=A1é", 3, "unexpected character 'é'"),
        ("=١", 1, "malformed number"),
    ],
)
def test_tokenize_non_ascii(src, offset, message):
    # a letter outside ASCII is no identifier character, and a digit
    # outside ASCII no number
    with pytest.raises(LexError) as exc:
        tokenize(src)
    assert (exc.value.offset, exc.value.message) == (offset, message)


def test_cellref_token_pattern():
    import re

    pattern = re.compile(r"[$]?[A-Z]+[$]?[1-9][0-9]*\Z")
    for src in ("=A1", "=$B2", "=C$3", "=$AA$10", "=XFD99"):
        tok = tokenize(src)[1]
        assert tok.kind == TokenKind.CELLREF
        assert pattern.match(tok.lexeme.upper())


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_precedence_mul_over_add():
    f = parse("=2+3*4")
    assert f.body == Binary("+", NumberLit(2.0), Binary("*", NumberLit(3.0), NumberLit(4.0)))
    assert f.body != parse("=(2+3)*4").body


def test_parse_array_entered_composite():
    f = parse("{=SUM(IF(A1:A9>5,1,0))}")
    assert f.array_entered
    assert isinstance(f.body, Call) and f.body.func == "SUM"
    inner = f.body.args[0]
    assert isinstance(inner, Call) and inner.func == "IF"
    cond = inner.args[0]
    assert isinstance(cond, Binary) and cond.op == ">"
    assert isinstance(cond.left, RangeRef)


def test_parse_index_match_composite():
    f = parse("=INDEX(C1:C9,MATCH(E1,A1:A9,0))")
    body = f.body
    assert isinstance(body, Call) and body.func == "INDEX"
    assert isinstance(body.args[0], RangeRef)
    match = body.args[1]
    assert isinstance(match, Call) and match.func == "MATCH"
    assert match.args == (CellRef("E", 1), RangeRef(CellRef("A", 1), CellRef("A", 9)), NumberLit(0.0))


def test_parse_equals_prefix_optional():
    assert parse("1+1").body == parse("=1+1").body


def test_parse_unary_minus_binds_tighter_than_power():
    f = parse("=-2^2")
    assert f.body == Binary("^", Unary("-", NumberLit(2.0)), NumberLit(2.0))


def test_parse_power_left_associative():
    assert parse("=2^3^2").body == Binary("^", Binary("^", NumberLit(2.0), NumberLit(3.0)), NumberLit(2.0))


def test_parse_percent_postfix():
    f = parse("=50%")
    assert f.body == Unary("%", NumberLit(50.0))


def test_parse_concat_below_comparison():
    f = parse('="a"&"b"="ab"')
    assert isinstance(f.body, Binary) and f.body.op == "="


def test_parse_absolute_flag_combinations():
    refs = {src: parse(f"={src}").body for src in ("$A$1", "$A1", "A$1", "A1")}
    assert refs["$A$1"] == CellRef("A", 1, col_abs=True, row_abs=True)
    assert refs["$A1"] == CellRef("A", 1, col_abs=True, row_abs=False)
    assert refs["A$1"] == CellRef("A", 1, col_abs=False, row_abs=True)
    assert refs["A1"] == CellRef("A", 1)
    assert len(set(refs.values())) == 4


def test_parse_range_normalized():
    assert parse("=B3:A1").body == parse("=A1:B3").body


def test_parse_range_orders_columns_by_number():
    # Z is column 26 and AA column 27, though "AA" < "Z" as strings. Each
    # axis keeps the flag that travelled with it; two equal coordinates stay
    # as typed, each with its own flag
    for text, canonical in (
        ("=Z1:AA2", "=Z1:AA2"), ("=AA1:Z2", "=Z1:AA2"), ("=$AA2:Z$1", "=Z$1:$AA2"), ("=A1:A1", "=A1:A1"),
        ("=$A1:A2", "=$A1:A2"), ("=A$2:B2", "=A$2:B2"), ("=a1:$a$1", "=A1:$A$1"),
    ):
        assert format(parse(text)) == canonical, text


def test_parse_range_in_order_keeps_its_endpoints():
    # an ordered range is the two references as parsed, each with the span
    # of its own token; a reversed one is rebuilt, its start at the first
    for text, spans in (("=Z1:AA2", ((1, 3), (4, 7))), ("=A1:A1", ((1, 3), (4, 6))), ("=$A$1:B$20", ((1, 5), (6, 10)))):
        start_tok, _, end_tok = tokenize(text)[1:]
        ref = parse(text).body
        assert (ref.start.span, ref.end.span, ref.span) == (*spans, (1, len(text))), text
        assert (start_tok.span, end_tok.span) == spans
        assert ref.start == parse("=" + start_tok.lexeme).body and ref.end == parse("=" + end_tok.lexeme).body
    ref = parse("=AA1:Z2").body
    assert (ref.start, ref.end) == (CellRef("Z", 1), CellRef("AA", 2))
    assert (ref.start.span, ref.end.span, ref.start.col, ref.end.col) == ((1, 4), (5, 7), 26, 27)


_REVERSED_TABLE = make_table(a=(1, 3, 5), b=(2, 4, 6), c=(7, 8, 9))


def _evaluated(func, *numbers):
    return lambda ref: evaluate(Call(func, (ref, *map(NumberLit, numbers))), EvalContext(_REVERSED_TABLE))


def _printed_and_reparsed(ref):
    return format(ref), parse(format(ref)).body == ref


def _vlookup_rewritten(ref):
    return format(rewrite(Call("VLOOKUP", (NumberLit(5), ref, NumberLit(3), BoolLit(False))))[0])


@pytest.mark.parametrize(
    "of, corners, ordered, want",
    [
        (_evaluated("ROW"), ("A3", "A1"), "A1:A3", RangeView(3, 1, (1.0, 2.0, 3.0))),
        (_evaluated("COLUMN"), ("B1", "A1"), "A1:B1", RangeView(1, 2, (1.0, 2.0))),
        (_evaluated("OFFSET", 0, 0), ("A3", "A1"), "A1:A3", RangeView(3, 1, (1.0, 3.0, 5.0))),
        (_printed_and_reparsed, ("$B1", "A$2"), "A1:$B$2", ("=A1:$B$2", True)),
        (_vlookup_rewritten, ("C3", "A1"), "A1:C3", "{=INDEX(C1:C3,MATCH(5,A1:A3,0))}"),
    ],
    ids=["row", "column", "offset", "format", "rewrite"],
)
def test_range_built_by_hand_with_reversed_corners_is_the_ordered_range(of, corners, ordered, want):
    # RangeRef orders the corners it is given, so every reader of a range
    # (ROW, COLUMN, OFFSET, the printer, the rewriter) sees the same
    # rectangle as for the text in order
    ref = RangeRef(*(parse("=" + corner).body for corner in corners))
    assert of(ref) == of(parse("=" + ordered).body) == want
    assert ref == parse("=" + ordered).body


def test_parse_lowercase_cellref_and_function():
    f = parse("= sum( a1 : a3 )")
    assert format(f) == "=SUM(A1:A3)"


def test_cellref_built_by_hand_with_lowercase_letters_is_the_parsed_reference():
    # CellRef uppercases its letters as the parser does, so the printed
    # text reparses to an equal tree
    for letters in ("a", "aB", "xfd"):
        ref = CellRef(letters, 1, col_abs=True)
        assert ref == parse(f"=${letters}1").body
        assert (format(ref), ref.col_letters) == (f"=${letters.upper()}1", letters.upper())


def test_parse_identifier_vs_cellref():
    assert isinstance(parse("=A1").body, CellRef)
    assert parse("=A1B2").body == NameRef("A1B2")
    assert parse("=age").body == NameRef("age")


def test_parse_string_escapes():
    assert parse('="he said ""hi"""').body == TextLit('he said "hi"')


def test_parse_booleans():
    assert parse("=TRUE").body == BoolLit(True)
    assert parse("=false").body == BoolLit(False)


def test_parse_call_arguments():
    f = parse("=IF(age>5,LEN(name),0)")
    assert isinstance(f.body, Call)
    assert f.body.func == "IF"
    assert len(f.body.args) == 3


def test_parse_error_on_trailing_tokens():
    with pytest.raises(ParseError):
        parse("=1 2")


def test_parse_error_on_missing_close():
    with pytest.raises(ParseError) as exc:
        parse("=SUM(A1")
    assert exc.value.offset == len("=SUM(A1")


def test_parse_error_fields():
    with pytest.raises(ParseError) as exc:
        parse("=1+")
    assert exc.value.expected
    assert exc.value.found == "end of input"


def test_parse_error_on_overflowing_numeral():
    # float("1E400") is inf, which format would print as the name "inf"
    with pytest.raises(ParseError) as exc:
        parse("=1E400")
    assert exc.value.offset == 1
    # an overflow at evaluation is still a value: 1e308*10 parses
    f = parse("=1e308*10")
    assert parse(format(f)) == f


def test_parse_empty_source():
    with pytest.raises(ParseError) as exc:
        parse("")
    assert exc.value.offset == 0


def test_parse_array_brace_must_close():
    with pytest.raises(ParseError):
        parse("{=1")


def test_spans_cover_nodes():
    src = "=SUM($A$1:$A$9)+B2"
    f = parse(src)
    for node in [f.body, f.body.left, f.body.right]:
        start, end = node.span
        assert 0 <= start < end <= len(src)


# ---------------------------------------------------------------------------
# format
# ---------------------------------------------------------------------------


def test_format_canonicalizes():
    assert format(parse("= sum( a1 : a3 )")) == "=SUM(A1:A3)"


def test_format_array_prefix():
    out = format(parse("{= sum(IF(a1:a9>5,1,0)) }"))
    assert out.startswith("{=SUM(IF(")
    assert out.endswith(")}")


def test_format_keeps_required_parens():
    assert format(parse("=(2+3)*4")) == "=(2+3)*4"
    assert format(parse("=2+3*4")) == "=2+3*4"
    assert format(parse("=2-(3-4)")) == "=2-(3-4)"
    assert format(parse("=-(2^2)")) == "=-(2^2)"


def test_format_absolute_flags():
    assert format(parse("=$A$1+A$2+$A3+A4")) == "=$A$1+A$2+$A3+A4"


def test_format_string_escape():
    assert format(parse('="a""b"')) == '="a""b"'


def test_format_parse_format_idempotent_examples():
    for src in ("=1+2*3", '{=SUM(IF(A1:A3>1,1,0))}', '=LEFT("abc",2)&"x"', "=50%^2"):
        once = format(parse(src))
        assert format(parse(once)) == once


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_random_batches(seed):
    rng = random.Random(seed)
    for _ in range(50):
        src = random_source(rng)
        first = parse(src)
        again = parse(format(first))
        assert again.body == first.body
        assert again.array_entered == first.array_entered


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**48))
def test_round_trip_property(seed):
    src = random_source(random.Random(seed))
    first = parse(src)
    again = parse(format(first))
    assert again.body == first.body


def test_malformed_inputs_positioned_errors():
    for src in malformed_sources(40, seed=11):
        with pytest.raises((LexError, ParseError)) as exc:
            parse(src)
        assert 0 <= exc.value.offset <= len(src)


# ---------------------------------------------------------------------------
# nesting limit
# ---------------------------------------------------------------------------


def _nested(levels: int, opener: str, inner: str = "1", closer: str = "") -> str:
    return "=" + opener * levels + inner + closer * levels


@pytest.mark.parametrize(
    "source,offset",
    [
        (_nested(5000, "(", closer=")"), 1 + MAX_NESTING),
        (_nested(5000, "-"), 1 + MAX_NESTING),
        (_nested(2000, "INT(", closer=")"), 1 + 4 * MAX_NESTING),
        (_nested(5000, "(-", closer=")"), 1 + MAX_NESTING),
    ],
    ids=["parentheses", "unary-minuses", "calls", "mixed"],
)
def test_parse_deep_nesting_is_parse_error(source, offset):
    # the level past the limit is reported at its opening token, never as
    # a RecursionError from the recursive descent
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset
    assert exc.value.expected == f"at most {MAX_NESTING} nesting levels"


@pytest.mark.parametrize(
    "opener,inner,closer,value",
    [("(", "1", ")", 1.0), ("-", "1", "", 1.0), ("INT(", "2.5", ")", 2.0), ("+", "A1", "", 3.0)],
    ids=["parentheses", "unary-minuses", "calls", "unary-pluses"],
)
def test_parse_limit_is_64_levels(opener, inner, closer, value):
    assert MAX_NESTING == 64
    formula = parse(_nested(64, opener, inner, closer))
    assert evaluate(formula, EvalContext(make_table(x=(3,)))) == value
    with pytest.raises(ParseError):
        parse(_nested(65, opener, inner, closer))


def test_parse_nesting_counts_open_levels_only():
    # siblings do not add up: one call holding 100 arguments, each 63
    # parentheses deep, is 64 levels
    deep = "(" * 63 + "1" + ")" * 63
    formula = parse("=SUM(" + ",".join([deep] * 100) + ")")
    assert evaluate(formula, EvalContext(make_table(x=(3,)))) == 100.0


def _depth(expr) -> int:
    # operator and call levels, as the parser counts them
    if isinstance(expr, Binary):
        return 1 + max(_depth(expr.left), _depth(expr.right))
    if isinstance(expr, Unary):
        return 1 + _depth(expr.operand)
    if isinstance(expr, Call):
        return 1 + max(map(_depth, expr.args), default=0)
    return 0


@pytest.mark.parametrize("shape", sorted(deep_formulas(MAX_DEPTH)))
def test_deepest_tree_goes_through_every_walker(shape):
    # each recursive walk of a tree, under Python's default recursion limit
    source, _ = deep_formulas(MAX_DEPTH)[shape]
    formula = parse(source)
    assert _depth(formula.body) == MAX_DEPTH
    t = make_table(x=(1, 2, 3))
    assert evaluate(formula, EvalContext(t)) == evaluate(formula, EvalContext(t, current_row=1, mode="scalar"))
    assert parse(format(formula)) == formula
    assert len(list(walk(formula.body))) > MAX_DEPTH
    assert expr_to_json(formula.body)
    assert precedents(formula) == []
    assert classify(formula).level
    assert nesting_depth(formula.body) <= MAX_NESTING
    assert static_shape(formula.body) == "scalar"
    lint(formula, t)
    rewritten, _ = rewrite(formula, t)
    evaluate(rewritten, EvalContext(t))


@pytest.mark.parametrize("shape", sorted(deep_formulas(MAX_DEPTH + 1)))
def test_one_level_past_the_depth_limit_is_parse_error(shape):
    source, offset = deep_formulas(MAX_DEPTH + 1)[shape]
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset
    assert exc.value.expected == f"at most {MAX_DEPTH} operator and call levels"


def test_long_operator_chain_is_parse_error_not_recursion_error():
    # 5,000 terms: rejected at the term that passes the limit
    source = "=1" + "+1" * 4999
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == 2 + 2 * MAX_DEPTH


def test_depth_limit_counts_the_deepest_path_only():
    # 100 arguments, each a chain MAX_DEPTH - 1 deep, under one call
    chain = "1" + "+1" * (MAX_DEPTH - 1)
    formula = parse("=SUM(" + ",".join([chain] * 100) + ")")
    assert _depth(formula.body) == MAX_DEPTH
    assert evaluate(formula, EvalContext(make_table(x=(3,)))) == 100.0 * MAX_DEPTH


# ---------------------------------------------------------------------------
# column letters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("letters,index", [("A", 1), ("Z", 26), ("AA", 27), ("AZ", 52), ("BA", 53), ("ZZ", 702)])
def test_column_letter_mapping(letters, index):
    assert col_letters_to_index(letters) == index
    assert index_to_col_letters(index) == letters


def test_column_letters_round_trip():
    for i in range(1, 1000):
        assert col_letters_to_index(index_to_col_letters(i)) == i


def test_formula_equality_ignores_spans():
    a = parse("=1 + 2")
    b = parse("=1+2")
    assert a.body == b.body
    assert hash(a.body) == hash(b.body)


def test_formula_dataclass_shape():
    f = parse("=A1")
    assert isinstance(f, Formula)
    assert not f.array_entered
