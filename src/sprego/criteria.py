"""The criteria baselines' argument shape and criteria strings, shared by
the evaluator and the rewriter.

A criteria string is an optional comparison operator (``>=``, ``<=``,
``<>``, ``>``, ``<``, ``=``) followed by an operand; the default operator
is ``=``. Numeral operands compare numerically, anything else as
case-insensitive text. The rewriter additionally recognizes the syntactic
form ``"op" & ref`` so the operand can stay a reference in the rewritten
formula. Wildcards (``*``/``?``) are unsupported throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Binary, BoolLit, CellRef, Expr, NameRef, NumberLit, TextLit
from .values import COMPARISONS, ErrorKind, Value, parse_number

# longest first, so that ">=" is split off before ">"
_OPS = tuple(sorted(COMPARISONS, key=len, reverse=True))


@dataclass(frozen=True)
class Criteria:
    """A reified criteria: comparison operator plus a concrete operand. The
    evaluator runs it as that operator between each cell and the operand,
    so an error cell gives its error."""

    op: str
    operand: Value


def _split(text: str) -> tuple[str, float | str]:
    """Split a criteria string into its operator and operand; a numeral
    operand comes back as its number."""
    op = next((op for op in _OPS if text.startswith(op)), "")
    rest = text[len(op):]
    x = parse_number(rest)
    return op or "=", rest if x is None else x


def criteria_from_value(v: Value) -> Criteria | ErrorKind:
    """Build a Criteria from an evaluated criteria argument.

    Text splits off a leading operator and re-types numeral operands;
    numbers, logicals, and blank mean equality against themselves.
    Wildcard text is matched literally here (the rewriter refuses it).
    """
    if isinstance(v, ErrorKind):
        return v
    if isinstance(v, str):
        return Criteria(*_split(v))
    return Criteria("=", v)


def criteria_args(name: str, args: tuple) -> tuple[object, tuple] | None:
    """The argument shape of a criteria baseline, for evaluated arguments
    and syntax alike: (sum range or None, the (range, criteria) pair
    arguments), or None when COUNTIFS or SUMIFS has an argument left over.
    SUMIF and AVERAGEIF sum their third argument, else their range; SUMIFS
    sums its first; COUNTIF and COUNTIFS sum nothing."""
    if name in ("SUMIF", "AVERAGEIF"):
        return args[2] if len(args) > 2 else args[0], args[:2]
    if name == "SUMIFS":
        return (args[0], args[1:]) if len(args) % 2 else None
    return None if len(args) % 2 else (None, args)


# ---------------------------------------------------------------------------
# Syntactic criteria, for the rewriter
# ---------------------------------------------------------------------------


class UnsupportedCriteria(Exception):
    """Criteria contains wildcards, which no rewrite covers."""

    def __init__(self, span):
        super().__init__("wildcard criteria are not supported")
        self.span = span


def criteria_expr(arg: Expr) -> tuple[str, Expr] | None:
    """Recognize a criteria argument syntactically as (operator, operand
    expression), or None when the shape is not cleanly rewritable.

    Raises UnsupportedCriteria on wildcards in a literal operand.
    """
    if isinstance(arg, TextLit):
        op, x = _split(arg.value)
        if isinstance(x, float):
            return op, NumberLit(x)
        if "*" in x or "?" in x:
            raise UnsupportedCriteria(arg.span)
        return op, TextLit(x)
    if isinstance(arg, (NumberLit, BoolLit)):
        return "=", arg
    if isinstance(arg, (CellRef, NameRef)):
        return "=", arg
    if isinstance(arg, Binary) and arg.op == "&" and isinstance(arg.left, TextLit):
        if arg.left.value in _OPS:
            return arg.left.value, arg.right
    return None
