"""formula.tokenize and formula.parse against the reference lexer and
recursive-descent ladder in helpers: the same tokens, trees, spans,
printed text and errors on every input. The one difference allowed is a
letter outside ASCII, on which the reference lexer fails an assertion and
formula.tokenize raises LexError."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprego.formula import MAX_DEPTH, MAX_NESTING, FormulaError, LexError, format, parse, tokenize, walk

from helpers import deep_formulas, malformed_sources, random_source, reference_parse, reference_tokenize

# the characters of the grammar, a non-ASCII letter and a non-ASCII digit
_ALPHABET = 'AaBEeFfLlRrSsTtUuXZ_0159.$"(),{}+-*/^&%:=<> \t' + "é١"

_TRAPS = (
    '"abc""', '"a""b"', '""""', "1.5e", "1e+5x", "1e5", "A1$", "ab$B1", "$", "$1", ".5", "5.", ".",
    "TRUE(1)", "true", "TRUEx", "TRUE1", "=-2^2", "=1%%", "=1+", "=(1", "{=1", "{=1}}", "=A1:", "=A1:x",
    "=café", "=SUM(ñ)", "=A1é", "=1é", "=١", "=²", "=x١", "=FAL\u017fE", "=\x0b1", "=1 <= 2 <> 3",
    "=" + "(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
    "=" + "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
    "=" + "-" * (MAX_NESTING + 1) + "1",
    *(source for depth in (MAX_DEPTH, MAX_DEPTH + 1) for source, _ in deep_formulas(depth).values()),
)


def _lexed(tokenize_fn, source):
    try:
        return [(t.kind, t.lexeme, t.span) for t in tokenize_fn(source)]
    except FormulaError as e:
        return type(e), e.offset, str(e)


def _parsed(parse_fn, source):
    try:
        formula = parse_fn(source)
    except FormulaError as e:
        return type(e), e.offset, str(e)
    return formula, format(formula), [(type(node), node.span) for node in walk(formula.body)]


def assert_same(source: str) -> None:
    try:
        expected = _lexed(reference_tokenize, source)
    except AssertionError:
        # the reference lexer's one crash: a letter outside ASCII
        with pytest.raises(LexError) as exc:
            parse(source)
        ch = source[exc.value.offset]
        assert ch.isalpha() and not ch.isascii()
        assert exc.value.message == f"unexpected character {ch!r}"
        return
    assert _lexed(tokenize, source) == expected
    assert _parsed(parse, source) == _parsed(reference_parse, source)


@pytest.mark.parametrize("source", _TRAPS, ids=lambda s: repr(s) if len(s) < 30 else f"{s[:20]!r}...{len(s)}")
def test_traps(source):
    assert_same(source)


def test_random_sources():
    rng = random.Random(11)
    for _ in range(1500):
        assert_same(random_source(rng, depth=rng.randint(0, 4)))


def test_malformed_sources():
    for source in malformed_sources(400, seed=17):
        assert_same(source)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_ALPHABET, max_size=24))
def test_random_strings(source):
    assert_same(source)
