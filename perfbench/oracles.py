"""Expected results computed in plain Python from the generator's value lists.

Nothing here imports the engine. Values use the engine's plain-Python cell
model (float, str, bool, None for blank) plus ``Err`` for error values, so
that a result can be compared cell by cell with what the program returned.
Sums accumulate left to right from 0.0, as a spreadsheet does; the
comparison still allows the documented 1e-9 relative tolerance.
"""

from __future__ import annotations

import math
import re

REL_TOL = 1e-9
ABS_TOL = 1e-12


class Err:
    """An expected error value, named by its spreadsheet code."""

    __slots__ = ("code",)

    def __init__(self, code: str):
        self.code = code

    def __eq__(self, other):
        return isinstance(other, Err) and other.code == self.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return f"Err({self.code!r})"


DIV0 = Err("#DIV/0!")
VALUE = Err("#VALUE!")
NA = Err("#N/A")


# The documented numeral grammar: sign, digits, decimal point, exponent.
_NUMERAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def as_number(v):
    """Arithmetic coercion of a cell the generators can produce: numbers
    stay, blank is 0, numeral text parses, other text is VALUE."""
    if v is None:
        return 0.0
    if is_num(v):
        return float(v)
    if _NUMERAL.match(v.strip()):
        return float(v)
    return VALUE


# ---------------------------------------------------------------------------
# Masked counts, sums and averages
# ---------------------------------------------------------------------------


def count_where(*masks) -> float:
    return float(sum(1 for bits in zip(*masks) if all(bits)))


def sum_where(values, *masks) -> float:
    total = 0.0
    for v, *bits in zip(values, *masks):
        if all(bits) and is_num(v):
            total += v
    return total


def average_where(values, *masks):
    matched = count_where(*masks)
    if matched == 0:
        return DIV0
    return sum_where(values, *masks) / matched


def count_numbers(cells) -> float:
    return float(sum(1 for v in cells if is_num(v)))


def count_nonblank(cells) -> float:
    return float(sum(1 for v in cells if v is not None))


# ---------------------------------------------------------------------------
# Lookups: filter and take the extreme, never scan for the first hit
# ---------------------------------------------------------------------------


def lookup_exact(key, keys, picked):
    hits = [i for i, k in enumerate(keys) if is_num(k) and k == key]
    return picked[min(hits)] if hits else NA


def lookup_ascending(key, keys, picked):
    """Largest key <= *key*; the last position among equal keys."""
    below = [(k, i) for i, k in enumerate(keys) if is_num(k) and k <= key]
    if not below:
        return NA
    best = max(k for k, _ in below)
    return picked[max(i for k, i in below if k == best)]


# ---------------------------------------------------------------------------
# Elementwise forms
# ---------------------------------------------------------------------------


def divide_or(x, y, fallback):
    """IFERROR(x/y, fallback) for one pair of cells."""
    a, b = as_number(x), as_number(y)
    if isinstance(a, Err) or isinstance(b, Err) or b == 0:
        return fallback
    q = a / b
    return q if math.isfinite(q) else fallback


# ---------------------------------------------------------------------------
# Display and comparison
# ---------------------------------------------------------------------------


def show(v) -> str:
    """The text the REPL prints for one value."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, Err):
        return v.code
    if is_num(v):
        x = float(v)
        if x == int(x) and abs(x) < 1e16:
            return str(int(x))
        return repr(x)
    return v


def numbers_close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def cell_matches(expected, actual) -> bool:
    """Compare one expected cell with one cell the engine returned. Error
    values are recognised by their code, so no engine type is needed."""
    if isinstance(expected, Err):
        return getattr(actual, "value", None) == expected.code
    if expected is None or isinstance(expected, (bool, str)):
        return type(actual) is type(expected) and actual == expected
    return is_num(actual) and numbers_close(float(expected), float(actual))


def result_matches(expected, actual) -> bool:
    """A scalar or a list of cells against a scalar or a range the engine
    returned (anything with ``cells``)."""
    if isinstance(expected, list):
        cells = getattr(actual, "cells", None)
        if cells is None or len(cells) != len(expected):
            return False
        return all(cell_matches(e, a) for e, a in zip(expected, cells))
    return not hasattr(actual, "cells") and cell_matches(expected, actual)


def line_matches(expected: str, actual: str) -> bool:
    """One printed line: numerals at the numeric tolerance, the rest exactly."""
    if expected == actual:
        return True
    try:
        return numbers_close(float(expected), float(actual))
    except ValueError:
        return False
