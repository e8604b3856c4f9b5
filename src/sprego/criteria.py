"""Criteria strings for the *IF? baseline functions, shared with the rewriter.

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


def split_criteria_text(text: str) -> tuple[str, str]:
    """Split a criteria string into (operator, operand text)."""
    for op in _OPS:
        if text.startswith(op):
            return op, text[len(op):]
    return "=", text


def has_wildcards(text: str) -> bool:
    return "*" in text or "?" in text


def criteria_from_value(v: Value) -> Criteria | ErrorKind:
    """Build a Criteria from an evaluated criteria argument.

    Text splits off a leading operator and re-types numeral operands;
    numbers, logicals, and blank mean equality against themselves.
    Wildcard text is matched literally here (the rewriter refuses it).
    """
    if isinstance(v, ErrorKind):
        return v
    if isinstance(v, str):
        op, rest = split_criteria_text(v)
        x = parse_number(rest)
        return Criteria(op, x if x is not None else rest)
    return Criteria("=", v)


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
        op, rest = split_criteria_text(arg.value)
        if has_wildcards(rest):
            raise UnsupportedCriteria(arg.span)
        x = parse_number(rest)
        if x is not None:
            return op, NumberLit(x)
        return op, TextLit(rest)
    if isinstance(arg, (NumberLit, BoolLit)):
        return "=", arg
    if isinstance(arg, (CellRef, NameRef)):
        return "=", arg
    if isinstance(arg, Binary) and arg.op == "&" and isinstance(arg.left, TextLit):
        if arg.left.value in _OPS:
            return arg.left.value, arg.right
    return None
