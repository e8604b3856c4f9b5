"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
import re
from itertools import islice, repeat

from sprego import Table
from sprego.evaluator import _as_view, _criteria_arg, _eval, _if_cell, _scalar_arg, _scalarize
from sprego.formula import (
    _CELLREF_RE,
    MAX_DEPTH,
    MAX_NESTING,
    Binary,
    BoolLit,
    Call,
    Expr,
    Formula,
    LexError,
    NameRef,
    NumberLit,
    ParseError,
    RangeRef,
    TextLit,
    Token,
    TokenKind,
    Unary,
    _cellref_from_token,
    _join,
)
from sprego.table import CsvError, RangeView
from sprego.values import (
    COMPARISONS,
    ErrorKind,
    Value,
    coerce_logical,
    coerce_number,
    compare_values,
    finite_or_error,
    is_number,
    parse_number,
)


def make_table(name="t", /, **columns) -> Table:
    cols = {
        k: tuple(float(v) if isinstance(v, int) and not isinstance(v, bool) else v for v in vals)
        for k, vals in columns.items()
    }
    return Table(name, tuple(cols), tuple(cols.values()))


# ---------------------------------------------------------------------------
# Independent MATCH oracles: filter and maximize, no scanning
# ---------------------------------------------------------------------------


def oracle_match_exact(lookup, cells):
    for i, v in enumerate(cells, 1):
        if v == lookup:
            return i
    return None


def oracle_match_ascending(lookup, cells):
    """Largest value <= lookup; last position among equals."""
    candidates = [(v, i) for i, v in enumerate(cells, 1) if v <= lookup]
    if not candidates:
        return None
    best = max(v for v, _ in candidates)
    return max(i for v, i in candidates if v == best)


def oracle_match_descending(lookup, cells):
    """Smallest value >= lookup; last position among equals."""
    candidates = [(v, i) for i, v in enumerate(cells, 1) if v >= lookup]
    if not candidates:
        return None
    best = min(v for v, _ in candidates)
    return max(i for v, i in candidates if v == best)


def oracle_countif(cells, predicate):
    """Brute-force filter-count; error cells surface as the first error."""
    for v in cells:
        if isinstance(v, ErrorKind):
            return v
    return float(sum(1 for v in cells if predicate(v)))


def oracle_criteria_reduce(keys, tests, sums=None):
    """(matched rows, sum of numbers read on them) under the row-order
    error rule: rows in order; within a row each criteria column in
    argument order, stopping at the first miss; an error key met that way,
    or an error in the sum cell of a matched row, is the result."""
    matched, total = 0, 0.0
    for i in range(len(keys[0])):
        for col, test in zip(keys, tests):
            if isinstance(col[i], ErrorKind):
                return col[i]
            if not test(col[i]):
                break
        else:
            matched += 1
            s = sums[i] if sums is not None else None
            if isinstance(s, ErrorKind):
                return s
            if isinstance(s, float):
                total += s
    return matched, total


# ---------------------------------------------------------------------------
# Random valid formulas (seeded, for round-trip and acceptance runs)
# ---------------------------------------------------------------------------

_CALL_SHAPES = [
    ("SUM", 1, 2),
    ("AVERAGE", 1, 2),
    ("MIN", 1, 2),
    ("MAX", 1, 2),
    ("LEN", 1, 1),
    ("LEFT", 1, 2),
    ("RIGHT", 1, 2),
    ("SEARCH", 2, 3),
    ("SUBSTITUTE", 3, 4),
    ("IF", 2, 3),
    ("MATCH", 2, 3),
    ("INDEX", 2, 3),
    ("ISERROR", 1, 1),
    ("AND", 1, 3),
    ("OR", 1, 3),
    ("NOT", 1, 1),
    ("INT", 1, 1),
    ("ROUND", 1, 2),
    ("SMALL", 2, 2),
    ("LARGE", 2, 2),
    ("COUNTIF", 2, 2),
    ("SUMIF", 2, 3),
    ("VLOOKUP", 3, 4),
    ("IFERROR", 2, 2),
]

_BINARY = ["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]
_NAMES = ["age", "name", "score", "total_2", "_x"]


def _rand_cellref(rng: random.Random) -> str:
    col = rng.choice("ABCXZ") + (rng.choice("A") if rng.random() < 0.1 else "")
    row = rng.randint(1, 99)
    return ("$" if rng.random() < 0.2 else "") + col + ("$" if rng.random() < 0.2 else "") + str(row)


def _rand_atom(rng: random.Random) -> str:
    k = rng.randrange(6)
    if k == 0:
        return rng.choice(["0", "1", "7", "42", "3.5", "0.125", "1e3", ".5", "2.5e-2", "007"])
    if k == 1:
        inner = rng.choice(["", "abc", "He said \"\"hi\"\"", ">5", "a,b", " spaced "])
        return '"' + inner + '"'
    if k == 2:
        return rng.choice(["TRUE", "FALSE", "true", "False"])
    if k == 3:
        return _rand_cellref(rng)
    if k == 4:
        a = _rand_cellref(rng).replace("$", "")
        b = _rand_cellref(rng).replace("$", "")
        return f"{a}:{b}"
    return rng.choice(_NAMES)


def random_source(rng: random.Random, depth: int = 3) -> str:
    """A random valid formula string, sometimes array-entered."""
    body = _rand_expr(rng, depth)
    if rng.random() < 0.2:
        return "{=" + body + "}"
    if rng.random() < 0.8:
        return "=" + body
    return body


def _rand_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        return _rand_atom(rng)
    k = rng.randrange(8)
    if k < 3:
        return _rand_atom(rng)
    if k == 3:
        return rng.choice(["-", "+"]) + _rand_expr(rng, depth - 1)
    if k == 4:
        return "(" + _rand_expr(rng, depth - 1) + ")"
    if k == 5:
        return _rand_expr(rng, depth - 1) + "%"
    if k == 6:
        op = rng.choice(_BINARY)
        return _rand_expr(rng, depth - 1) + op + _rand_expr(rng, depth - 1)
    name, lo, hi = rng.choice(_CALL_SHAPES)
    args = [_rand_expr(rng, depth - 1) for _ in range(rng.randint(lo, hi))]
    return name + "(" + ",".join(args) + ")"


def malformed_sources(count: int = 100, seed: int = 5) -> list[str]:
    """Valid formulas corrupted so that lexing or parsing must fail."""
    rng = random.Random(seed)
    suffixes = ["(", '"', "+", "*)"]
    out = []
    while len(out) < count:
        base = random_source(rng, depth=2)
        out.append(base + suffixes[len(out) % len(suffixes)])
    return out[:count]


# ---------------------------------------------------------------------------
# Random elementwise formulas over table columns
# ---------------------------------------------------------------------------

_ELEMENTWISE_CALLS = [
    ("LEN", 1),
    ("LEFT", 2),
    ("RIGHT", 2),
    ("INT", 1),
    ("ROUND", 2),
    ("ISERROR", 1),
    ("NOT", 1),
    ("IF", 3),
]


def random_elementwise_source(rng: random.Random, names: list[str], depth: int = 3) -> str:
    """Formula using only elementwise operators/functions over *names*,
    so per-row scalar evaluation and array evaluation must agree."""
    return "=" + _rand_elementwise(rng, names, depth)


def _rand_elementwise(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        k = rng.randrange(4)
        if k == 0:
            return rng.choice(names)
        if k == 1:
            return rng.choice(["0", "1", "2", "5", "3.5"])
        if k == 2:
            return '"' + rng.choice(["a", "bc", "5", ""]) + '"'
        return rng.choice(["TRUE", "FALSE"])
    if rng.random() < 0.5:
        op = rng.choice(_BINARY)
        return "(" + _rand_elementwise(rng, names, depth - 1) + op + _rand_elementwise(rng, names, depth - 1) + ")"
    name, arity = rng.choice(_ELEMENTWISE_CALLS)
    args = [_rand_elementwise(rng, names, depth - 1) for _ in range(arity)]
    return name + "(" + ",".join(args) + ")"


# ---------------------------------------------------------------------------
# Formulas at the parse depth limit
# ---------------------------------------------------------------------------


def deep_formulas(depth: int) -> dict[str, tuple[str, int]]:
    """Formulas whose parsed tree is *depth* operator and call levels deep,
    by shape, each with the offset of the token that builds its deepest
    level: a left-deep operator chain, a chain of postfix percents, and a
    chain inside 63 nested calls (the most calls MAX_NESTING leaves room
    for around it)."""
    chain = "1" + "+1" * (depth - 63)
    nested = "=" + "IF(TRUE," * 63 + chain + ",0)" * 63
    operators = "=1" + "+1" * depth
    percents = "=1" + "%" * depth
    return {
        "operator-chain": (operators, operators.rindex("+")),
        "percent-chain": (percents, percents.rindex("%")),
        "calls-around-chain": (nested, 1),
    }


# ---------------------------------------------------------------------------
# CSV oracle: the character-at-a-time RFC-4180 reader and per-cell typing
# ---------------------------------------------------------------------------


def oracle_load_csv(text: str, has_header: bool = True) -> tuple[tuple[str, ...], list[list[Value]]]:
    """(headers, columns) as load_csv must build them from *text*, or the
    CsvError it must raise."""
    if text.startswith("\ufeff"):
        text = text[1:]
    records = _read_records(text)
    if not records:
        return (), []
    width = max(len(fields) for fields, _ in records)
    if has_header:
        header_fields, header_line = records[0]
        headers = [raw for raw, _quoted in header_fields]
        headers += [f"C{i + 1}" for i in range(len(headers), width)]
        seen: set[str] = set()
        for h in headers:
            if not h:
                raise CsvError(header_line, "empty header")
            if h.lower() in seen:
                raise CsvError(header_line, f"duplicate header {h!r}")
            seen.add(h.lower())
        records = records[1:]
    else:
        headers = [f"C{i + 1}" for i in range(width)]
    columns: list[list[Value]] = [[] for _ in range(width)]
    for fields, _line in records:
        for c in range(width):
            columns[c].append(_type_cell(*fields[c]) if c < len(fields) else None)
    return tuple(headers), columns


def _type_cell(raw: str, quoted: bool) -> Value:
    if raw == "":
        return "" if quoted else None
    upper = raw.upper()
    if upper == "TRUE":
        return True
    if upper == "FALSE":
        return False
    x = parse_number(raw)
    if x is not None:
        return x
    return raw


_Field = tuple[str, bool]  # (text, was quoted)


def _read_records(text: str) -> list[tuple[list[_Field], int]]:
    """Strict RFC-4180 splitter; returns (fields, starting line) per record."""
    records: list[tuple[list[_Field], int]] = []
    fields: list[_Field] = []
    buf: list[str] = []
    quoted = False
    saw_any = False  # current record has content or separators
    line = 1
    record_line = 1
    i = 0
    n = len(text)

    def end_field():
        nonlocal buf, quoted
        fields.append(("".join(buf), quoted))
        buf = []
        quoted = False

    def end_record():
        nonlocal fields, saw_any, record_line
        end_field()
        records.append((fields, record_line))
        fields = []
        saw_any = False
        record_line = line

    while i < n:
        ch = text[i]
        if ch == '"':
            if buf or quoted:
                raise CsvError(line, "unexpected quote inside field")
            quoted = True
            saw_any = True
            i += 1
            open_line = line
            while True:
                if i >= n:
                    raise CsvError(open_line, "unterminated quoted field")
                ch = text[i]
                if ch == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        buf.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                if ch == "\n":
                    line += 1
                buf.append(ch)
                i += 1
            if i < n and text[i] not in ',\r\n':
                raise CsvError(line, "data after closing quote")
            continue
        if ch == ",":
            end_field()
            saw_any = True
            i += 1
            continue
        if ch == "\r" or ch == "\n":
            if ch == "\r" and i + 1 < n and text[i + 1] == "\n":
                i += 1
            line += 1
            end_record()
            i += 1
            continue
        buf.append(ch)
        saw_any = True
        i += 1

    if saw_any or buf or fields:
        end_record()
    return records


# ---------------------------------------------------------------------------
# Per-cell references for the baselines' per-range paths: the loops the
# evaluator ran on every input before, which it still runs on inputs the
# per-range paths do not take
# ---------------------------------------------------------------------------


def reference_propagating(fn):
    """*fn*, except that its first error argument is the result: the error
    rule of every operator and elementwise function but ISERROR, IFERROR
    and IF, checked before *fn* runs."""

    def apply(*args):
        for a in args:
            if isinstance(a, ErrorKind):
                return a
        return fn(*args)

    return apply


def reference_match_position(lookup: Value, vec, match_type: int) -> Value:
    """evaluator.match_position as a scan of compare_values, cell by cell."""
    view = _as_view(vec)
    if not view.is_vector:
        return ErrorKind.VALUE
    if isinstance(lookup, ErrorKind):
        return lookup

    exact = match_type == 0
    keep = COMPARISONS["=" if exact else "<=" if match_type > 0 else ">="]
    best: int | None = None
    for i, v in enumerate(view.cells, 1):
        c = compare_values(v, lookup)
        if isinstance(c, ErrorKind):
            continue
        if keep(c, 0):
            best = i
            if exact:
                break
        elif not exact:
            break
    return best if best is not None else ErrorKind.NA


def reference_matches(crit, cell: Value) -> bool | ErrorKind:
    """Apply a Criteria to one cell; error cells propagate."""
    c = compare_values(cell, crit.operand)
    if isinstance(c, ErrorKind):
        return c
    return COMPARISONS[crit.op](c, 0)


def reference_criteria_reduce(sums, pair_args, st):
    """evaluator._criteria_reduce with reference_matches per cell, in one
    walk of the rows; *sums* None means the first range."""
    pairs = []
    for j in range(0, len(pair_args), 2):
        view = _as_view(pair_args[j])
        crit = _criteria_arg(pair_args[j + 1], st)
        if isinstance(crit, ErrorKind):
            return crit
        if pairs and len(view) != len(pairs[0][0]):
            return ErrorKind.VALUE
        pairs.append((view, crit))
    (view, crit), *rest = pairs
    if sums is None:
        sums = view
    elif len(sums) != len(view):
        return ErrorKind.VALUE

    # per row, the first criteria result that is not True: False on a
    # miss, the error of an error cell, True when every criteria matched
    hits = [reference_matches(crit, v) for v in view.cells]
    for view, crit in rest:
        hits = [h if h is not True else reference_matches(crit, v) for h, v in zip(hits, view.cells)]

    matched = 0
    total = 0.0
    for h, s in zip(hits, sums.cells):
        if h is True:
            if isinstance(s, ErrorKind):
                return s
            matched += 1
            if is_number(s):
                total += s
        elif h is not False:
            return h
    return matched, total


def _reference_iter_cells(args):
    for a in args:
        if isinstance(a, RangeView):
            yield from a.cells
        else:
            yield a


def reference_count(args, st):
    return float(sum(1 for v in _reference_iter_cells(args) if is_number(v)))


def reference_counta(args, st):
    count = 0
    for v in _reference_iter_cells(args):
        if isinstance(v, ErrorKind):
            return v
        if v is not None:
            count += 1
    return float(count)


# SUM and IF as they were before SUM added up IF(cond, x, 0) as a masked
# sum: the reference for that path


def reference_sum(args, st):
    """evaluator._fn_sum over evaluated arguments: one left-to-right +=
    over every cell of every argument."""
    total = 0.0
    for v in _reference_iter_cells(args):
        if type(v) is float:
            total += v
        elif isinstance(v, ErrorKind):
            return v
        elif is_number(v):
            total += v
    return finite_or_error(total)


# AVERAGE, MIN, MAX, SMALL and LARGE as the per-cell loops they were before
# they shared one number walk


def reference_average(args, st):
    """evaluator._fn_average: the same left-to-right += as SUM, and a count."""
    total = 0.0
    count = 0
    for v in _reference_iter_cells(args):
        if type(v) is float:
            total += v
            count += 1
        elif isinstance(v, ErrorKind):
            return v
        elif is_number(v):
            total += v
            count += 1
    if count == 0:
        return ErrorKind.DIV0
    return finite_or_error(total / count)


def reference_minmax(pick):
    """evaluator._fn_minmax: *pick* of the best so far and each number."""

    def fn(args, st):
        best = None
        for v in _reference_iter_cells(args):
            if isinstance(v, ErrorKind):
                return v
            if is_number(v):
                best = v if best is None else pick(best, v)
        return 0.0 if best is None else float(best)

    return fn


def reference_small_large(reverse):
    """evaluator._fn_small_large: k read first, then the numbers, then k
    coerced."""

    def fn(args, st):
        view = _as_view(args[0])
        k = _scalar_arg(args[1], st)
        if isinstance(k, ErrorKind):
            return k
        numbers = []
        for v in view.cells:
            if isinstance(v, ErrorKind):
                return v
            if is_number(v):
                numbers.append(v)
        kk = coerce_number(k)
        if isinstance(kk, ErrorKind):
            return kk
        kk = math.floor(kk)
        if kk < 1 or kk > len(numbers):
            return ErrorKind.NUM
        return float(sorted(numbers, reverse=reverse)[kk - 1])

    return fn


def reference_if(args, st):
    """evaluator._fn_if building every vector IF's cells, with
    reference_pick over a condition of logicals; its views carry no kind."""
    cond = _eval(args[0], st)
    if st.scalar:
        cond = _scalarize(cond, st)

    if isinstance(cond, RangeView):
        size = len(cond)
        then_s = _branch_cells(_eval(args[1], st), size)
        else_s = _branch_cells(_eval(args[2], st) if len(args) > 2 else False, size)
        trues = cond.cells.count(True)
        if trues + cond.cells.count(False) == size:
            cells = reference_pick(cond.cells, trues, then_s, else_s)
        else:
            cells = tuple(
                (t if c else e) if type(c) is bool else _if_cell(c, t, e)
                for c, t, e in zip(cond.cells, then_s, else_s)
            )
        return RangeView(cond.rows, cond.cols, cells)

    c = coerce_logical(cond)
    if isinstance(c, ErrorKind):
        return c
    if c:
        return _eval(args[1], st)
    if len(args) > 2:
        return _eval(args[2], st)
    return False


def _branch_cells(branch, size: int):
    """A branch's cell at each position of a vector condition: a view of
    the condition's size gives its cells, any other view VALUE, a scalar
    itself."""
    if isinstance(branch, RangeView):
        return branch.cells if len(branch) == size else repeat(ErrorKind.VALUE)
    return repeat(branch)


def reference_pick(cond: tuple, trues: int, then_s, else_s) -> tuple:
    """IF's cells over a condition of logicals as the evaluator built them
    before its one select: the branch taken more often, copied, with the
    other branch's cells written over it where the condition says."""
    size = len(cond)
    if trues * 2 > size:
        target, count, base, other = False, size - trues, then_s, else_s
    else:
        target, count, base, other = True, trues, else_s, then_s
    cells = list(islice(base, size))
    if not isinstance(other, tuple):
        other = tuple(islice(other, size))
    i = -1
    for _ in range(count):
        i = cond.index(target, i + 1)
        cells[i] = other[i]
    return tuple(cells)


def reference_column(self: RangeView, col: int) -> RangeView:
    cells = tuple(self.at(r, col) for r in range(1, self.rows + 1))
    return RangeView(self.rows, 1, cells)


def reference_row(self: RangeView, row: int) -> RangeView:
    cells = tuple(self.at(row, c) for c in range(1, self.cols + 1))
    return RangeView(1, self.cols, cells)


def oracle_number_to_text(x: float) -> str:
    """values.number_to_text through int(): the form for every number."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# Reference lexer and parser: the per-character tokenizer and the
# recursive-descent precedence ladder that formula.tokenize and
# formula.parse replaced, kept to compare them against
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_WS_RE = re.compile(r"[ \t\r\n]+")

_TWO_CHAR_OPS = ("<=", ">=", "<>")
_ONE_CHAR_OPS = "+-*/^&%:=<>"
_PUNCT = "(),{}"

# A cell ref or number must not run straight into more word characters.
_WORD_CHAR = re.compile(r"[A-Za-z0-9_$.]")


def reference_tokenize(source: str) -> list[Token]:
    """formula.tokenize as a per-character `if` chain; raises
    AssertionError on a letter outside ASCII."""
    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _WS_RE.match(source, pos)
        if m:
            pos = m.end()
            continue
        ch = source[pos]

        if ch == '"':
            end = pos + 1
            while True:
                if end >= n:
                    raise LexError(pos, "unterminated string literal")
                if source[end] == '"':
                    if end + 1 < n and source[end + 1] == '"':
                        end += 2  # escaped quote
                        continue
                    end += 1
                    break
                end += 1
            tokens.append(Token(TokenKind.STRING, source[pos:end], (pos, end)))
            pos = end
            continue

        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(source, pos)
            if not m or (m.end() < n and _WORD_CHAR.match(source[m.end()])):
                raise LexError(pos, "malformed number")
            tokens.append(Token(TokenKind.NUMBER, m.group(), (pos, m.end())))
            pos = m.end()
            continue

        if ch == "$" or ch.isalpha() or ch == "_":
            m = _CELLREF_RE.match(source, pos)
            if m and not (m.end() < n and _WORD_CHAR.match(source[m.end()])):
                tokens.append(Token(TokenKind.CELLREF, m.group(), (pos, m.end())))
                pos = m.end()
                continue
            if ch == "$":
                raise LexError(pos, "expected cell reference after '$'")
            m = _IDENT_RE.match(source, pos)
            assert m is not None
            kind = TokenKind.BOOL if m.group().upper() in ("TRUE", "FALSE") else TokenKind.IDENT
            tokens.append(Token(kind, m.group(), (pos, m.end())))
            pos = m.end()
            continue

        two = source[pos : pos + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, (pos, pos + 2)))
            pos += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, ch, (pos, pos + 1)))
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, (pos, pos + 1)))
            pos += 1
            continue

        raise LexError(pos, f"unexpected character {ch!r}")
    return tokens


_COMPARE_OPS = tuple(COMPARISONS)


class ReferenceParser:
    """formula._Parser with one method per precedence level."""

    def __init__(self, tokens: list[Token], source_len: int):
        self.tokens = tokens
        self.pos = 0
        self.source_len = source_len
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

    def grow(self, tok: Token, node: Expr, *children: Expr) -> Expr:
        """*node*, built at *tok* over *children*, one level deeper than the
        deepest of them; past MAX_DEPTH levels a ParseError at *tok*."""
        if self.levels is None:
            return node
        level = 1 + max(map(self.levels.get, map(id, children), repeat(0)), default=0)
        if level > MAX_DEPTH:
            raise ParseError(tok.span[0], f"at most {MAX_DEPTH} operator and call levels", repr(tok.lexeme))
        self.levels[id(node)] = level
        return node

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            return ParseError(self.source_len, expected, "end of input")
        return ParseError(tok.span[0], expected, repr(tok.lexeme))

    def expect(self, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.lexeme != lexeme:
            raise self.error(repr(lexeme))
        self.pos += 1
        return tok

    def match(self, *lexemes: str) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.kind in (TokenKind.OP, TokenKind.PUNCT) and tok.lexeme in lexemes:
            self.pos += 1
            return tok
        return None

    # precedence ladder, lowest first

    def comparison(self) -> Expr:
        left = self.concat()
        while (tok := self.match(*_COMPARE_OPS)) is not None:
            right = self.concat()
            left = self.grow(tok, Binary(tok.lexeme, left, right, span=_join(left, right)), left, right)
        return left

    def concat(self) -> Expr:
        left = self.additive()
        while (tok := self.match("&")) is not None:
            right = self.additive()
            left = self.grow(tok, Binary(tok.lexeme, left, right, span=_join(left, right)), left, right)
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while (tok := self.match("+", "-")) is not None:
            right = self.multiplicative()
            left = self.grow(tok, Binary(tok.lexeme, left, right, span=_join(left, right)), left, right)
        return left

    def multiplicative(self) -> Expr:
        left = self.power()
        while (tok := self.match("*", "/")) is not None:
            right = self.power()
            left = self.grow(tok, Binary(tok.lexeme, left, right, span=_join(left, right)), left, right)
        return left

    def power(self) -> Expr:
        left = self.postfix()
        while (tok := self.match("^")) is not None:
            right = self.postfix()
            left = self.grow(tok, Binary(tok.lexeme, left, right, span=_join(left, right)), left, right)
        return left

    def postfix(self) -> Expr:
        expr = self.unary()
        while (tok := self.match("%")) is not None:
            span = (expr.span[0] if expr.span else tok.span[0], tok.span[1])
            expr = self.grow(tok, Unary("%", expr, span=span), expr)
        return expr

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.OP and tok.lexeme in ("-", "+"):
            self.nest(tok)
            self.pos += 1
            operand = self.unary()
            self.depth -= 1
            end = operand.span[1] if operand.span else tok.span[1]
            return self.grow(tok, Unary(tok.lexeme, operand, span=(tok.span[0], end)), operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise self.error("expression")

        if tok.kind is TokenKind.NUMBER:
            self.pos += 1
            return NumberLit(float(tok.lexeme), span=tok.span)

        if tok.kind is TokenKind.STRING:
            self.pos += 1
            inner = tok.lexeme[1:-1].replace('""', '"')
            return TextLit(inner, span=tok.span)

        if tok.kind is TokenKind.BOOL:
            self.pos += 1
            return BoolLit(tok.lexeme.upper() == "TRUE", span=tok.span)

        if tok.kind is TokenKind.CELLREF:
            self.pos += 1
            nxt = self.peek()
            if nxt is not None and nxt.lexeme == "(":
                # a cell-ref-shaped word used as a function name
                return self.call(tok)
            ref = _cellref_from_token(tok)
            if self.match(":") is not None:
                end_tok = self.peek()
                if end_tok is None or end_tok.kind is not TokenKind.CELLREF:
                    raise self.error("cell reference after ':'")
                self.pos += 1
                return RangeRef(ref, _cellref_from_token(end_tok), span=(tok.span[0], end_tok.span[1]))
            return ref

        if tok.kind is TokenKind.IDENT:
            self.pos += 1
            nxt = self.peek()
            if nxt is not None and nxt.lexeme == "(":
                return self.call(tok)
            return NameRef(tok.lexeme, span=tok.span)

        if tok.lexeme == "(":
            self.nest(tok)
            self.pos += 1
            expr = self.comparison()
            self.expect(")")
            self.depth -= 1
            return expr

        raise self.error("expression")

    def call(self, name_tok: Token) -> Expr:
        self.nest(name_tok)
        self.expect("(")
        args: list[Expr] = []
        if self.peek() is not None and self.peek().lexeme != ")":
            args.append(self.comparison())
            while self.match(",") is not None:
                args.append(self.comparison())
        close = self.expect(")")
        self.depth -= 1
        call = Call(name_tok.lexeme.upper(), tuple(args), span=(name_tok.span[0], close.span[1]))
        return self.grow(name_tok, call, *args)


def reference_parse(source: str) -> Formula:
    """formula.parse over reference_tokenize and ReferenceParser."""
    tokens = reference_tokenize(source)
    parser = ReferenceParser(tokens, len(source))
    array_entered = False

    tok = parser.peek()
    if tok is not None and tok.lexeme == "{":
        parser.pos += 1
        parser.expect("=")
        array_entered = True
    elif tok is not None and tok.lexeme == "=":
        parser.pos += 1

    body = parser.comparison()
    if array_entered:
        parser.expect("}")
    if parser.peek() is not None:
        raise parser.error("end of formula")
    return Formula(body, array_entered)
