"""Formula language: tokenizer, precedence-climbing parser, and printer.

Operator precedence, highest to lowest (the binary levels are the one
table ``_BINARY_PREC``, which both the parser and the printer read):

    range         :                    (between cell references only)
    unary         -  +                 (unary minus binds tighter than ^,
                                        so =-2^2 is (-2)^2 = 4)
    postfix       %                    (divide by 100)
    power         ^                    (left-associative)
    multiplicative  *  /
    additive      +  -
    concatenation &
    comparison    =  <>  <  <=  >  >=

A formula may start with ``=`` (optional) or be wrapped in ``{= ... }``,
which sets the array-entered flag. String literals use ``"`` with ``""``
as the escape for an embedded quote. The argument separator is ``,`` and
the decimal point is ``.`` (no locale variants).

A node's children are given by one table, ``_CHILDREN``. ``walk`` is
iterative and lists a node that a rewrite shares once, by ``id``. The walks
that build or print a node by its type are recursive: the parser,
``evaluator._eval``, ``_fmt``, ``expr_to_json`` and ``rewrite._transform``.
Two limits keep them inside Python's default recursion limit: at most
MAX_NESTING (64) parentheses, calls and prefix signs open at once, and a
tree at most MAX_DEPTH (256) operator and call nodes deep. Past either,
parse raises ParseError at the token that goes past it.

``tokenize`` is one ``finditer`` pass of one regex, ``_TOKEN_RE``; text that
no token matches is a LexError at its first character. The parser tests a
token's lexeme alone where only an operator or punctuation token can have
it. A range is the two references it parsed; ``RangeRef`` orders a reversed
pair itself, each ``$`` staying with its coordinate.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from itertools import repeat
from math import inf
from operator import attrgetter
from typing import NamedTuple

from .values import COMPARISONS, number_to_text

Span = tuple[int, int]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class FormulaError(Exception):
    """Base for positioned formula-source errors."""

    offset: int


class LexError(FormulaError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"lex error at offset {offset}: {message}")
        self.offset = offset
        self.message = message


class ParseError(FormulaError):
    def __init__(self, offset: int, expected: str, found: str):
        super().__init__(f"parse error at offset {offset}: expected {expected}, found {found}")
        self.offset = offset
        self.expected = expected
        self.found = found


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


class TokenKind(enum.Enum):
    NUMBER = "number"
    STRING = "string"
    IDENT = "identifier"
    CELLREF = "cell-ref"
    BOOL = "boolean"
    OP = "operator"
    PUNCT = "punctuation"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    span: Span


_CELLREF_RE = re.compile(r"(\$?)([A-Za-z]+)(\$?)([1-9][0-9]*)")

# One alternative per token kind, each group named after its TokenKind. Only
# a cell ref, a boolean and an identifier can start alike, and are tried in
# that order; punctuation and operators, the most common, go first. A number
# or cell ref must not run straight into more word characters, and a string
# ends at the first quote that is not doubled. re.ASCII keeps the case-blind
# TRUE/FALSE from matching letters such as U+017F, which case-fold to ASCII ones.
_TOKEN_RE = re.compile(
    r"""
      (?P<PUNCT>[(),{}])
    | (?P<OP><=|>=|<>|[-+*/^&%:=<>])
    | (?P<CELLREF>\$?[A-Za-z]+\$?[1-9][0-9]*(?![A-Za-z0-9_$.]))
    | (?P<NUMBER>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?![A-Za-z0-9_$.]))
    | (?P<BOOL>(?i:TRUE|FALSE)(?![A-Za-z0-9_]))
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"(?:[^"]|"")*"(?!"))
    | (?P<SPACE>[ \t\r\n]+)
    """,
    re.VERBOSE | re.ASCII,
)
# each group's TokenKind, by group number; SPACE has none, and is dropped
_KINDS = [None, *map(TokenKind.__members__.get, sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))]


def _lex_error(source: str, pos: int) -> LexError:
    """The error for a token that cannot start at *pos*, by its first character."""
    ch = source[pos]
    if ch == '"':
        return LexError(pos, "unterminated string literal")
    if ch.isdigit() or ch == ".":
        return LexError(pos, "malformed number")
    if ch == "$":
        return LexError(pos, "expected cell reference after '$'")
    return LexError(pos, f"unexpected character {ch!r}")


def tokenize(source: str) -> list[Token]:
    """Split *source* into tokens. Raises LexError on anything outside
    the grammar; concatenating the lexemes (plus skipped whitespace)
    reproduces the source."""
    tokens: list[Token] = []
    pos = 0
    # one scan: a match that starts past the previous one's end has
    # skipped text that no token matches, and the error is where it starts
    for m in _TOKEN_RE.finditer(source):
        span = m.span()
        if span[0] != pos:
            raise _lex_error(source, pos)
        pos = span[1]
        if (kind := _KINDS[m.lastindex]) is not None:
            # tuple.__new__ skips the Python-level __new__ of a NamedTuple
            tokens.append(tuple.__new__(Token, (kind, m.group(), span)))
    if pos != len(source):
        raise _lex_error(source, pos)
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base node. Spans locate nodes in the source and are excluded from
    structural equality and hashing."""

    span: Span | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class NumberLit(Expr):
    value: float


@dataclass(frozen=True)
class TextLit(Expr):
    value: str


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class CellRef(Expr):
    col_letters: str
    row: int
    col_abs: bool = False
    row_abs: bool = False
    # the 1-based column index of col_letters, found once, when the node is built
    col: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.col_letters.isupper():  # read as the parser reads them
            object.__setattr__(self, "col_letters", self.col_letters.upper())
        object.__setattr__(self, "col", col_letters_to_index(self.col_letters))


@dataclass(frozen=True)
class RangeRef(Expr):
    """The cells between two corners. ``start`` is the top-left corner and
    ``end`` the bottom-right, however the two were given: columns by number
    (Z before AA), then rows, each ``$`` with its coordinate; corners that
    share a coordinate keep the order given. A pair in order stays the same
    two objects; a reversed one is rebuilt, start with the first one's span."""

    start: CellRef
    end: CellRef

    def __post_init__(self):
        a, b = self.start, self.end
        if a.col <= b.col and a.row <= b.row:
            return
        ca, cb = (a, b) if a.col <= b.col else (b, a)
        ra, rb = (a, b) if a.row <= b.row else (b, a)
        object.__setattr__(self, "start", CellRef(ca.col_letters, ra.row, ca.col_abs, ra.row_abs, span=a.span))
        object.__setattr__(self, "end", CellRef(cb.col_letters, rb.row, cb.col_abs, rb.row_abs, span=b.span))


@dataclass(frozen=True)
class NameRef(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-', '+', or postfix '%'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str  # stored uppercase
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Formula:
    """A parsed formula: the body plus the top-level array-entered flag."""

    body: Expr
    array_entered: bool = False


def col_letters_to_index(letters: str) -> int:
    """Column letters to 1-based index: A=1, Z=26, AA=27."""
    idx = 0
    for ch in letters.upper():
        idx = idx * 26 + ord(ch) - 64  # ord("A") - 1
    return idx


def index_to_col_letters(index: int) -> str:
    if index < 1:
        raise ValueError(f"column index must be >= 1, got {index}")
    letters = ""
    while index:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binding strength, lowest first. The parser takes the level of each binary
# operator from _BINARY_PREC, every one left-associative; the printer reads
# every level to decide where parentheses go. Atoms never need them.
_PREC_COMPARE = 1
_PREC_CONCAT = 2
_PREC_ADD = 3
_PREC_MUL = 4
_PREC_POW = 5
_PREC_PERCENT = 6
_PREC_UNARY = 7
_PREC_ATOM = 9

_BINARY_PREC = {
    **dict.fromkeys(COMPARISONS, _PREC_COMPARE),
    "&": _PREC_CONCAT,
    "+": _PREC_ADD, "-": _PREC_ADD,
    "*": _PREC_MUL, "/": _PREC_MUL,
    "^": _PREC_POW,
}

# Excel's limit. Each parenthesis, call and prefix sign opens a level, so
# the recursive descent never nears Python's recursion limit.
MAX_NESTING = 64

# The depth of the parsed tree, counted in operator and call nodes, so that
# left-deep chains such as =1+1+...+1 count too. Every recursive walk of a
# tree (evaluate, format, classify, rewrite, ...) takes at most two Python
# frames per level, so a tree this deep stays well inside Python's default
# recursion limit of 1000.
MAX_DEPTH = 256

# Excel's last row and last column (XFD). The evaluator gives #REF! for a
# reference that reaches past them, unless the table itself is larger, so
# that ROW, COLUMN and OFFSET never build a range no sheet can hold.
MAX_ROWS = 1_048_576
MAX_COLUMNS = 16_384


class _Parser:
    def __init__(self, tokens: list[Token], source_len: int):
        # ended by a token of no kind and no lexeme, so that one is always next
        self.tokens = [*tokens, Token(None, "", (source_len, source_len))]
        self.pos = 0
        self.depth = 0
        # id of each operator and call node -> its depth. Each such node is
        # built at a token of its own, so a formula of at most MAX_DEPTH
        # tokens cannot pass the limit and is not counted.
        self.levels: dict[int, int] | None = {} if len(tokens) > MAX_DEPTH else None

    def nest(self, tok: Token) -> None:
        """Open one nesting level at *tok*; close it with ``depth -= 1``."""
        if self.depth == MAX_NESTING:
            raise ParseError(tok.span[0], f"at most {MAX_NESTING} nesting levels", repr(tok.lexeme))
        self.depth += 1

    def grow(self, tok: Token, node: Expr) -> Expr:
        """*node*, built at *tok*, one level deeper than the deepest of its
        children; past MAX_DEPTH levels a ParseError at *tok*."""
        if self.levels is None:
            return node
        level = 1 + max(map(self.levels.get, map(id, children(node)), repeat(0)), default=0)
        if level > MAX_DEPTH:
            raise ParseError(tok.span[0], f"at most {MAX_DEPTH} operator and call levels", repr(tok.lexeme))
        self.levels[id(node)] = level
        return node

    def error(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(tok.span[0], expected, "end of input" if tok.kind is None else repr(tok.lexeme))

    def expect(self, lexeme: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.lexeme != lexeme:
            raise self.error(repr(lexeme))
        self.pos += 1
        return tok

    def match(self, lexeme: str) -> Token | None:
        """The next token, taken, if its lexeme is *lexeme*; else None."""
        tok = self.tokens[self.pos]
        if tok.lexeme == lexeme:
            self.pos += 1
            return tok
        return None

    def binary(self, min_prec: int = _PREC_COMPARE) -> Expr:
        """Precedence climbing: the operand with its signs and %s, then every
        binary operator of at least *min_prec* with its right side, grouped to the left."""
        tok = self.tokens[self.pos]
        left = self.unary(tok) if tok.lexeme in ("-", "+") else self.primary()
        while (tok := self.tokens[self.pos]).lexeme == "%":
            self.pos += 1
            span = (left.span[0] if left.span else tok.span[0], tok.span[1])
            left = self.grow(tok, Unary("%", left, span=span))
        while (prec := _BINARY_PREC.get((tok := self.tokens[self.pos]).lexeme, 0)) >= min_prec:
            self.pos += 1
            right = self.binary(prec + 1)
            left = self.grow(tok, Binary(tok.lexeme, left, right, span=_join(left, right)))
        return left

    def unary(self, tok: Token) -> Expr:
        """The prefix sign *tok*, the next token, and its operand."""
        self.nest(tok)
        self.pos += 1
        nxt = self.tokens[self.pos]
        operand = self.unary(nxt) if nxt.lexeme in ("-", "+") else self.primary()
        self.depth -= 1
        end = operand.span[1] if operand.span else tok.span[1]
        return self.grow(tok, Unary(tok.lexeme, operand, span=(tok.span[0], end)))

    def primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind

        if kind is TokenKind.CELLREF:
            self.pos += 1
            if self.tokens[self.pos].lexeme == "(":
                # a cell-ref-shaped word used as a function name
                return self.call(tok)
            ref = _cellref_from_token(tok)
            if self.match(":") is not None:
                end_tok = self.tokens[self.pos]
                if end_tok.kind is not TokenKind.CELLREF:
                    raise self.error("cell reference after ':'")
                self.pos += 1
                return RangeRef(ref, _cellref_from_token(end_tok), span=(tok.span[0], end_tok.span[1]))
            return ref

        if kind is TokenKind.NUMBER:
            value = float(tok.lexeme)
            if value == inf:  # 1E400: no literal prints it back
                raise self.error("a finite number")
            self.pos += 1
            return NumberLit(value, span=tok.span)

        if kind is TokenKind.IDENT:
            self.pos += 1
            if self.tokens[self.pos].lexeme == "(":
                return self.call(tok)
            return NameRef(tok.lexeme, span=tok.span)

        if kind is TokenKind.STRING:
            self.pos += 1
            inner = tok.lexeme[1:-1].replace('""', '"')
            return TextLit(inner, span=tok.span)

        if kind is TokenKind.BOOL:
            self.pos += 1
            return BoolLit(tok.lexeme.upper() == "TRUE", span=tok.span)

        if tok.lexeme == "(":
            self.nest(tok)
            self.pos += 1
            expr = self.binary()
            self.expect(")")
            self.depth -= 1
            return expr

        raise self.error("expression")

    def call(self, name_tok: Token) -> Expr:
        """The call named *name_tok*, whose "(" is the next token."""
        self.nest(name_tok)
        self.pos += 1
        args: list[Expr] = []
        if (tok := self.tokens[self.pos]).kind is not None and tok.lexeme != ")":
            args.append(self.binary())
            while self.match(",") is not None:
                args.append(self.binary())
        close = self.expect(")")
        self.depth -= 1
        call = Call(name_tok.lexeme.upper(), tuple(args), span=(name_tok.span[0], close.span[1]))
        return self.grow(name_tok, call)


def _cellref_from_token(tok: Token) -> CellRef:
    col_abs, letters, row_abs, row = _CELLREF_RE.fullmatch(tok.lexeme).groups()
    return CellRef(letters, int(row), col_abs == "$", row_abs == "$", span=tok.span)


def _join(left: Expr, right: Expr) -> Span | None:
    if left.span is None or right.span is None:
        return None
    return (left.span[0], right.span[1])


def parse(source: str) -> Formula:
    """Parse a formula. A leading ``{=``sets the array-entered flag; a
    leading ``=`` is optional. Raises LexError or ParseError."""
    parser = _Parser(tokenize(source), len(source))
    array_entered = parser.match("{") is not None
    if array_entered:
        parser.expect("=")
    else:
        parser.match("=")

    body = parser.binary()
    if array_entered:
        parser.expect("}")
    if parser.tokens[parser.pos].kind is not None:
        raise parser.error("end of formula")
    return Formula(body, array_entered)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _prec(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return _BINARY_PREC[expr.op]
    if isinstance(expr, Unary):
        return _PREC_PERCENT if expr.op == "%" else _PREC_UNARY
    return _PREC_ATOM


def _fmt(expr: Expr) -> str:
    if isinstance(expr, NumberLit):
        return number_to_text(expr.value)
    if isinstance(expr, TextLit):
        return '"' + expr.value.replace('"', '""') + '"'
    if isinstance(expr, BoolLit):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, CellRef):
        return ("$" if expr.col_abs else "") + expr.col_letters + ("$" if expr.row_abs else "") + str(expr.row)
    if isinstance(expr, RangeRef):
        return _fmt(expr.start) + ":" + _fmt(expr.end)
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, Call):
        return expr.func + "(" + ",".join(_fmt(a) for a in expr.args) + ")"
    if isinstance(expr, Unary):
        inner = _fmt_child(expr.operand, _prec(expr))
        return inner + "%" if expr.op == "%" else expr.op + inner
    if isinstance(expr, Binary):
        prec = _prec(expr)
        left = _fmt_child(expr.left, prec)
        # all binary operators are left-associative: same-precedence right
        # children need parens to keep their grouping
        right = _fmt_child(expr.right, prec + 1)
        return left + expr.op + right
    raise TypeError(f"not an Expr: {expr!r}")


def _fmt_child(child: Expr, min_prec: int) -> str:
    text = _fmt(child)
    if _prec(child) < min_prec:
        return "(" + text + ")"
    return text


def format(formula: Formula | Expr) -> str:
    """Canonical text: uppercase function names, no redundant whitespace,
    ``{=...}`` iff array-entered. Output reparses to an equal tree."""
    if isinstance(formula, Formula):
        body = _fmt(formula.body)
        return "{=" + body + "}" if formula.array_entered else "=" + body
    return "=" + _fmt(formula)


# the children of each node type, in source order; other nodes have none
_CHILDREN = {
    Unary: lambda node: (node.operand,),
    Binary: attrgetter("left", "right"),
    Call: attrgetter("args"),
    RangeRef: attrgetter("start", "end"),
}


def children(expr: Expr) -> tuple[Expr, ...]:
    """The child nodes of *expr* in source order; () for a leaf."""
    kids = _CHILDREN.get(type(expr))
    return () if kids is None else kids(expr)


def walk(expr: Expr) -> list[Expr]:
    """*expr* and every node under it, in pre-order (source order). A node
    that a rewrite shares between parents is listed once, by id."""
    seen: dict[int, Expr] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if (key := id(node)) not in seen:
            seen[key] = node
            if (kids := _CHILDREN.get(type(node))) is not None:
                stack += kids(node)[::-1]
    return [*seen.values()]


def expr_to_json(expr: Expr) -> object:
    """Plain-dict rendering of a tree, for --format json output."""
    if isinstance(expr, NumberLit):
        return {"type": "number", "value": expr.value}
    if isinstance(expr, TextLit):
        return {"type": "text", "value": expr.value}
    if isinstance(expr, BoolLit):
        return {"type": "logical", "value": expr.value}
    if isinstance(expr, CellRef):
        return {"type": "cell", "ref": _fmt(expr)}
    if isinstance(expr, RangeRef):
        return {"type": "range", "ref": _fmt(expr)}
    if isinstance(expr, NameRef):
        return {"type": "name", "name": expr.name}
    if isinstance(expr, Unary):
        return {"type": "unary", "op": expr.op, "operand": expr_to_json(expr.operand)}
    if isinstance(expr, Binary):
        return {
            "type": "binary",
            "op": expr.op,
            "left": expr_to_json(expr.left),
            "right": expr_to_json(expr.right),
        }
    if isinstance(expr, Call):
        return {"type": "call", "func": expr.func, "args": [expr_to_json(a) for a in expr.args]}
    raise TypeError(f"not an Expr: {expr!r}")
