"""Typed value model: numbers, text, logicals, errors, and blank.

A cell value is represented with plain Python types:

    number   float (finite; never NaN/inf -- arithmetic yields errors instead)
    text     str
    logical  bool
    error    ErrorKind member
    blank    None

``bool`` is checked before ``float``/``int`` everywhere, since Python's
bool subclasses int.
"""

from __future__ import annotations

import enum
import math
import operator
import re


class ErrorKind(enum.Enum):
    """Spreadsheet error values. The enum member itself is used as the value."""

    DIV0 = "#DIV/0!"
    VALUE = "#VALUE!"
    NA = "#N/A"
    REF = "#REF!"
    NAME = "#NAME?"
    NUM = "#NUM!"

    def __str__(self) -> str:
        return self.value


# a types.UnionType, not typing.Union: typing caches its unions by their
# members, so each import of this module would stay pinned there through
# its ErrorKind class
Value = float | str | bool | None | ErrorKind

# Accepted numerals: optional sign, decimal point, exponent; leading zeros
# allowed. Grouped forms like "1,000" are not numerals.
_NUMERAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")


def parse_number(text: str) -> float | None:
    """Parse a decimal numeral, returning None if *text* is not one.
    float() gets the stripped text: it rejects U+001C-U+001F, which strip drops."""
    text = text.strip()
    if not _NUMERAL_RE.match(text):
        return None
    x = float(text)
    if not math.isfinite(x):
        return None
    return x


def is_number(v: Value) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def value_type(v: Value) -> str:
    """One of "number", "text", "logical", "error", "blank"."""
    if v is None:
        return "blank"
    if isinstance(v, bool):
        return "logical"
    if isinstance(v, ErrorKind):
        return "error"
    if isinstance(v, (int, float)):
        return "number"
    return "text"


def number_to_text(x: float) -> str:
    """Canonical text form of a number: no trailing .0 on integral values."""
    # repr writes an integral float below 1e16 as digits and ".0", and any
    # other float without that ending; x == 0 covers -0.0
    return "0" if x == 0 else repr(float(x)).removesuffix(".0")


def format_value(v: Value) -> str:
    """Display form: TRUE/FALSE, canonical numerals, error codes, "" for blank."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, ErrorKind):
        return v.value
    if isinstance(v, (int, float)):
        return number_to_text(v)
    return v


def finite_or_error(x: float) -> float | ErrorKind:
    if not math.isfinite(x):
        return ErrorKind.NUM
    return float(x)


# ---------------------------------------------------------------------------
# Coercion
# ---------------------------------------------------------------------------


def coerce_number(v: Value) -> float | ErrorKind:
    """Arithmetic coercion: logicals become 1/0, blank becomes 0, numeric
    text parses, other text is a VALUE error."""
    if type(v) is float:
        return v
    if isinstance(v, ErrorKind):
        return v
    if v is None:
        return 0.0
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return float(v)
    x = parse_number(v)
    if x is None:
        return ErrorKind.VALUE
    return x


def coerce_text(v: Value) -> str | ErrorKind:
    """Text coercion for concatenation and the text functions."""
    if type(v) is str:
        return v
    if type(v) is float:
        return number_to_text(v)
    if isinstance(v, ErrorKind):
        return v
    return format_value(v)


def coerce_logical(v: Value) -> bool | ErrorKind:
    """Condition coercion: numbers are truthy unless 0, blank is FALSE,
    text is a VALUE error."""
    if isinstance(v, ErrorKind):
        return v
    if v is None:
        return False
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return v != 0
    return ErrorKind.VALUE


# ---------------------------------------------------------------------------
# Comparison: a single total order over all non-error values
# ---------------------------------------------------------------------------

# Cross-type rank: every number < every text < every logical.
_TYPE_RANK = {"number": 0, "text": 1, "logical": 2}


def compare_values(a: Value, b: Value) -> int | ErrorKind:
    """Three-way comparison (-1, 0, 1) under the engine's total order.

    Numbers compare numerically; text case-insensitively by code point;
    FALSE < TRUE; mixed types by rank number < text < logical. Blank
    compares as 0 against numbers, "" against text, FALSE against
    logicals, and equal to blank. Errors propagate.
    """
    if type(a) is float and type(b) is float:
        return (a > b) - (a < b)
    if isinstance(a, ErrorKind):
        return a
    if isinstance(b, ErrorKind):
        return b
    if a is None and b is None:
        return 0
    if a is None:
        a = _blank_as(b)
    elif b is None:
        b = _blank_as(a)
    ta, tb = value_type(a), value_type(b)
    if ta != tb:
        return -1 if _TYPE_RANK[ta] < _TYPE_RANK[tb] else 1
    if ta == "number":
        return (a > b) - (a < b)
    if ta == "text":
        fa, fb = a.lower(), b.lower()
        return (fa > fb) - (fa < fb)
    # logical: FALSE < TRUE
    return (a > b) - (a < b)


def _blank_as(other: Value) -> Value:
    if isinstance(other, bool):
        return False
    if isinstance(other, (int, float)):
        return 0.0
    return ""


# Each comparison operator as its ``operator`` function. Applied to
# compare_values' three-way result and 0 it is the engine's comparison; on
# two numbers it is the same comparison made directly. The binary
# operators, their number kernels, criteria and MATCH all read this one
# table; bind a function once per operator, not once per cell.
COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
