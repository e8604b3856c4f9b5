"""Tables of typed columns loaded from CSV, plus range and name resolution.

CSV input follows RFC 4180: UTF-8, ``,`` separator, ``"`` quoting with
``""`` escapes, records ended by CRLF, CR or LF. One leading U+FEFF (the
byte order mark of Excel's "CSV UTF-8") is dropped; CsvError lines and
byte offsets still count it. Text with no ``"`` is split by ``str``
methods; text with one takes a compiled field pattern per field, and
lines are counted only to report a quoting error. Cells are typed a
column at a time. The stdlib csv module cannot tell an unquoted empty
field (blank) from a quoted ``""`` (empty text) before Python 3.12.
"""

from __future__ import annotations

import operator
import re
from array import array
from collections import Counter
from collections.abc import Callable, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from math import isfinite
from typing import NamedTuple

from .formula import CellRef, Expr, NameRef, RangeRef
from .values import ErrorKind, Value, is_number, parse_number, value_type


class CsvError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"CSV error on line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Table:
    """Named, immutable columns of equal length. Two facts about a column are
    found once and kept: whether it holds only floats or only text, and its
    Partition, which the evaluator asks for the first time it splits over
    the whole column."""

    name: str
    headers: tuple[str, ...]
    columns: tuple[tuple[Value, ...], ...]
    # 1-based column index -> float when every cell is a float, str when
    # every cell is text, else None: float given by load_csv, or found at
    # the column's first column_kind()
    kinds: dict[int, type | None] = field(default_factory=dict, init=False, compare=False, repr=False)
    # 1-based column index -> its Partition, or None: found at the column's
    # first partition()
    partitions: dict[int, Partition | None] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.headers) != len(self.columns):
            raise ValueError("headers and columns must have the same length")
        lengths = {len(col) for col in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int | None:
        """1-based index of the column named *name*, case-insensitively."""
        target = name.lower()
        for i, header in enumerate(self.headers):
            if header.lower() == target:
                return i + 1
        return None

    def cell(self, row: int, col: int) -> Value:
        return self.columns[col - 1][row - 1]

    def column_kind(self, col: int) -> type | None:
        """float when every cell of column *col* (1-based) is a float, str
        when every cell is text, else None; found at most once, by one scan
        in C. A column of no cells is float."""
        kinds = self.kinds
        if col not in kinds:
            types = set(map(type, self.columns[col - 1])) or {float}
            kinds[col] = types.pop() if len(types) == 1 and types <= {float, str} else None
        return kinds[col]

    def partition(self, col: int) -> Partition | None:
        """The type partition of column *col* (1-based), or None when the
        column holds only floats, is shorter than PARTITION_MIN_ROWS or
        holds a cell outside the engine's value types; built at most once."""
        partitions = self.partitions
        if col not in partitions:
            cells = self.columns[col - 1]
            odd = len(cells) >= PARTITION_MIN_ROWS and self.column_kind(col) is not float
            partitions[col] = _partition(cells) if odd else None
        return partitions[col]

    def to_json(self) -> dict:
        rows = [
            [_cell_to_json(self.columns[c][r]) for c in range(self.column_count)]
            for r in range(self.row_count)
        ]
        return {"name": self.name, "headers": list(self.headers), "rows": rows}


def _cell_to_json(v: Value) -> object:
    if isinstance(v, ErrorKind):
        return {"error": v.value}
    return v


class RangeView:
    """A rectangular window of values, row-major. A vector is a view with
    one row or one column. *kind*, when not None, is the one type of every
    cell (float, bool or str), set only by a producer that knows it, so
    that consumers need not scan the cells for it: resolve sets float over
    columns of floats and str over columns of text, the evaluator's kernels
    the type they make. *source*, when not None, is the 1-based index of a
    table column not all of floats whose rows this vector runs along, one
    cell per row: resolve's view of the whole column, whose cells are the
    column's own tuple, or an evaluator result split over it.

    Equality and hash are over (rows, cols, cells) alone, and equality
    holds only between views of the same class; no code changes a view
    once built. A plain slotted class, not a frozen dataclass: an
    equivalence check builds thousands of small views, and the
    dataclass's __init__ costs three times as much."""

    __slots__ = ("rows", "cols", "cells", "kind", "source")

    def __init__(self, rows: int, cols: int, cells: tuple[Value, ...], kind: type | None = None,
                 source: int | None = None):
        self.rows = rows
        self.cols = cols
        self.cells = cells
        self.kind = kind
        self.source = source
        self.__post_init__()

    def __post_init__(self):
        """The size check, apart from __init__ so that a check of every
        view built can wrap it."""
        if self.rows * self.cols != len(self.cells):
            raise ValueError(f"{self.rows}x{self.cols} view needs {self.rows * self.cols} cells, got {len(self.cells)}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.cells) == (other.rows, other.cols, other.cells)

    def __hash__(self):
        return hash((self.rows, self.cols, self.cells))

    def __repr__(self):
        return f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r}, cells={self.cells!r})"

    @property
    def is_vector(self) -> bool:
        return self.rows == 1 or self.cols == 1

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def at(self, row: int, col: int) -> Value:
        """1-based (row, col) access; bounds are the caller's business."""
        return self.cells[(row - 1) * self.cols + (col - 1)]

    def element(self, i: int) -> Value:
        """1-based access along a vector, whichever way it runs."""
        return self.cells[i - 1]

    def column(self, col: int) -> "RangeView":
        return RangeView(self.rows, 1, self.cells[col - 1 :: self.cols], kind=self.kind)

    def row(self, row: int) -> "RangeView":
        start = (row - 1) * self.cols
        return RangeView(1, self.cols, self.cells[start : start + self.cols], kind=self.kind)


# The shortest column that gets a partition: the length from which one use
# of the split path on a fresh table, partition build included, is no
# slower than the per-cell path. Measured over perfbench's dirty mix (one
# cell in six not a float; f a float column), the median of 7 x 4096/rows
# paired tries of split/per-cell, on a shared 2-core machine, Python 3.11:
#    rows                          128   192   256   384   512  1024  2048
#    {=c+0}                       1.18  1.06  0.96  0.79  0.74  0.72  0.67
#    {=f/c}                       1.21  1.09  1.07  0.85  0.96  0.81  0.86
#    R4's COUNT over c            1.03  0.97  0.93  0.82  0.89  0.78  0.76
#    {=c&""}                      1.31  1.21  1.26  0.99  1.20  1.01  0.99
#    R4's COUNTA over c           1.22  1.16  1.04  1.01  1.05  1.00  1.02
# & stays about even at any length: the text of each float is the cost of
# both paths. Once a column is partitioned, later uses cost 0.20 ({=c+0}),
# 0.34 ({=f/c}), 0.55 (COUNT), 0.66 (&) and 0.71 (COUNTA) of the per-cell
# path at 20,000 rows. The table compares against the per-cell path, but
# ISERROR, IFERROR and IF read a whole column by a C kernel: their first
# split of a fresh 20,000-row column, build included, takes 2-3.5x that
# kernel's time ({=ISERROR(c)} 1.1-1.8 ms whole, 3.9-6.0 ms split), and
# later uses 0.4-0.8x of it.
PARTITION_MIN_ROWS = 384


class Partition(NamedTuple):
    """A table column split by cell type, so that an elementwise function
    can run a kernel on its floats and once per distinct value on the
    rest. Built once per column by Table.partition."""

    floats: tuple[float, ...]  # the float cells, in column order
    mask: bytes  # 1 where the column holds a float, else 0
    values: tuple[Value, ...]  # the other cells' distinct values, in order of first appearance
    codes: array  # each other cell's index into values, in column order
    counts: tuple[int, ...]  # each distinct value's number of cells
    # (results on the float cells + results on the other cells) -> the
    # results in column order
    merge: Callable[[tuple], tuple]


# bytes.translate table that swaps 0 and 1
FLIP = bytes((1, 0)) + bytes(254)
# the types of the cells a partition puts in values: no two of them hold
# equal values, as bool and int would, so a dict can key on the value alone
_ODD_TYPES = frozenset((str, bool, type(None), ErrorKind))


def _partition(cells: tuple[Value, ...]) -> Partition | None:
    """The Partition of a column that is not all floats, or None when a cell
    is of a type outside the engine's values (an int, say). Every pass but
    the merge order runs in C."""
    mask = bytes(map(operator.is_, map(type, cells), repeat(float)))
    others = tuple(compress(cells, mask.translate(FLIP)))
    if not set(map(type, others)) <= _ODD_TYPES:
        return None
    code_of = dict(zip(dict.fromkeys(others), count()))
    floats = tuple(compress(cells, mask))
    # each cell's index in (floats + others): the next float's or the next
    # other cell's
    next_index = (count(len(floats)).__next__, count().__next__)
    order = [next_index[m]() for m in mask]
    codes = array("i", map(code_of.__getitem__, others))
    counts = Counter(codes)
    return Partition(
        floats, mask, tuple(code_of), codes, tuple(map(counts.__getitem__, range(len(code_of)))),
        operator.itemgetter(*order),
    )


def vector(values) -> RangeView:
    """Build a column vector from an iterable of values."""
    cells = tuple(values)
    return RangeView(len(cells), 1, cells)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def load_csv(data: bytes | str, *, has_header: bool = True, table_name: str = "table") -> Table:
    """Load a table from CSV text or bytes.

    Cell typing: ``TRUE``/``FALSE`` (any case) become logicals, decimal
    numerals become numbers (leading zeros fine, grouped ``1,000`` is
    text), unquoted empty fields become blank, quoted ``""`` becomes
    empty text, everything else is text. Ragged rows are padded with
    blanks. Raises CsvError on bad quoting or a non-UTF-8 byte stream.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data[: exc.start].count(b"\n") + 1
            raise CsvError(line, f"invalid UTF-8 at byte {exc.start}") from exc
    else:
        text = data
    if text.startswith("\ufeff"):
        text = text[1:]

    record, columns, quoted_empty = _split_quoted(text) if '"' in text else _split_plain(text)
    if not columns:
        return Table(table_name, (), ())

    width = len(columns)
    if has_header:  # the first record, which starts on line 1
        headers = record + [f"C{i + 1}" for i in range(len(record), width)]
        seen: set[str] = set()
        for h in headers:
            if not h:
                raise CsvError(1, "empty header")
            if h.lower() in seen:
                raise CsvError(1, f"duplicate header {h!r}")
            seen.add(h.lower())
    else:
        headers = [f"C{i + 1}" for i in range(width)]
    first = 1 if has_header else 0
    typed, kinds = zip(*(_type_column(col[first:]) for col in columns))
    for r, c in quoted_empty:  # never in a column of numbers, as "" is no numeral
        if r >= first:
            typed[c][r - first] = ""
    table = Table(table_name, tuple(headers), tuple(map(tuple, typed)))
    table.kinds.update((c, float) for c, kind in enumerate(kinds, 1) if kind)
    return table


# one field, quoted (with "" escapes) or not, and the separator after it
_FIELD = re.compile(r'(?:"([^"]*(?:""[^"]*)*)"|([^,"\r\n]*))(,|\r\n|\r|\n|\Z)')
_QUOTED = re.compile(r'"[^"]*(?:""[^"]*)*"(?!")')
# characters of numerals and of the "," that joins a column's fields, and
# a point with no digit after it, as in "1." or "1.e5"
_NUMERAL_CHARS = re.compile(r"[0-9.eE+,-]*\Z")
_BARE_POINT = re.compile(r"\.(?![0-9])")


def _split_plain(text: str) -> tuple[list[str], list[Sequence[str]], tuple]:
    """Fields of text that holds no quote: the first record, the columns
    and no quoted fields. Not str.splitlines, which also breaks at \\v,
    \\f, \\x1c-\\x1e, \\x85 and U+2028/9. When every line has as many
    fields, a column is a stride of one split of all fields."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    commas = set(map(str.count, lines, repeat(",")))
    if len(commas) != 1:
        return (*_transpose([line.split(",") for line in lines]), ())
    width = commas.pop() + 1
    fields = ",".join(lines).split(",")
    return fields[:width], [fields[c::width] for c in range(width)], ()


def _transpose(rows: list[list[str]]) -> tuple[list[str], list[Sequence[str]]]:
    """The first record and the columns of *rows*, padded with unquoted
    empty fields (blanks)."""
    record = rows[0][:] if rows else []
    width = max(map(len, rows), default=0)
    for row in rows:
        if len(row) < width:
            row.extend([""] * (width - len(row)))
    return record, list(zip(*rows))


def _split_quoted(text: str) -> tuple[list[str], list[Sequence[str]], list[tuple[int, int]]]:
    """Fields of text that holds a quote: the first record, the columns
    and the (record, field) positions of the quoted empty fields, which
    are empty text."""
    rows: list[list[str]] = []
    row: list[str] = []
    quoted_empty = []
    pos, end = 0, len(text)
    while pos < end or row:
        m = _FIELD.match(text, pos)
        if m is None:
            raise _quote_error(text, pos)
        quoted, plain, sep = m.groups()
        if quoted == "":
            quoted_empty.append((len(rows), len(row)))
        row.append(plain if quoted is None else quoted.replace('""', '"'))
        pos = m.end()
        if sep != ",":
            rows.append(row)
            row = []
    return (*_transpose(rows), quoted_empty)


def _quote_error(text: str, pos: int) -> CsvError:
    """The error for the field at *pos*, which _FIELD rejects. Lines are
    counted up to it as records end, plus each LF inside a quoted field."""
    line, at = 1, 0
    while at < pos:
        m = _FIELD.match(text, at)
        line += (m[1] or "").count("\n") + (m[3] != ",")
        at = m.end()
    if text[pos] != '"':
        return CsvError(line, "unexpected quote inside field")
    m = _QUOTED.match(text, pos)
    if m is None:
        return CsvError(line, "unterminated quoted field")
    return CsvError(line + m[0].count("\n"), "data after closing quote")


def _type_column(cells: Sequence[str]) -> tuple[list[Value], type | None]:
    """Type one column's fields, testing for a numeral first, and give
    float as the second item when they are all numerals. Over the
    characters of _NUMERAL_CHARS, float() takes exactly the numerals and
    forms with a bare point, so a column with neither other characters
    nor a bare point is all numerals if float() takes every field."""
    joined = ",".join(cells)
    if _NUMERAL_CHARS.match(joined) and not _BARE_POINT.search(joined):
        with suppress(ValueError):  # "", "1e", "1-2", or a quoted "1,2"
            numbers = list(map(float, cells))
            if all(map(isfinite, numbers)):
                return numbers, float
    typed: list[Value] = []
    for raw in cells:
        x = parse_number(raw)
        if x is None:
            upper = raw.upper()
            x = True if upper == "TRUE" else False if upper == "FALSE" else raw or None
        typed.append(x)
    return typed, None


# ---------------------------------------------------------------------------
# Reference resolution
# ---------------------------------------------------------------------------


def resolve(table: Table, ref: Expr) -> Value | RangeView:
    """Resolve a reference against *table*.

    Names resolve case-insensitively to whole columns (rows x 1 views);
    cell references map column letters to column index and row to cell
    index. A range covers the cells from its start (top-left, as RangeRef
    orders them) to its end.
    Failures come back as error values, never exceptions:
    ErrorKind.NAME for an unknown name, ErrorKind.REF out of bounds.
    """
    if isinstance(ref, NameRef):
        idx = table.column_index(ref.name)
        if idx is None:
            return ErrorKind.NAME
        cells = table.columns[idx - 1]
        kind = table.column_kind(idx)
        return RangeView(len(cells), 1, cells, kind=kind, source=None if kind is float else idx)

    columns = table.columns
    if isinstance(ref, CellRef):
        row, col = ref.row, ref.col
        if not (1 <= col <= len(columns) and 1 <= row <= len(columns[0])):
            return ErrorKind.REF
        return columns[col - 1][row - 1]

    if isinstance(ref, RangeRef):
        if type(block := range_columns(table, ref)) is ErrorKind:
            return block
        slices, kind = block
        rows = len(slices[0])
        if len(slices) == 1:
            # a slice over every row is the column's tuple itself, as a
            # name's view is, and has the same source
            whole = kind is not float and rows == len(columns[0])
            return RangeView(rows, 1, slices[0], kind=kind, source=ref.start.col if whole else None)
        return RangeView(rows, len(slices), row_major(slices), kind=kind)

    raise TypeError(f"not a reference: {ref!r}")


def range_columns(table: Table, ref: RangeRef) -> tuple[list[tuple[Value, ...]], type | None] | ErrorKind:
    """A range's column slices, left to right, and its columns' one kind or
    None; ErrorKind.REF when it reaches past the table."""
    r0, c0, r1, c1 = ref.start.row, ref.start.col, ref.end.row, ref.end.col
    columns = table.columns
    if not (1 <= c0 and c1 <= len(columns) and 1 <= r0 and r1 <= len(columns[0])):
        return ErrorKind.REF
    if c0 == c1:  # every copied-down column reference: no set to build
        return (columns[c0 - 1][r0 - 1 : r1],), table.column_kind(c0)
    kinds = {table.column_kind(c) for c in range(c0, c1 + 1)}
    return [column[r0 - 1 : r1] for column in columns[c0 - 1 : c1]], kinds.pop() if len(kinds) == 1 else None


def row_major(slices) -> tuple[Value, ...]:
    """The cells of equal column slices, interleaved row by row."""
    return tuple(chain.from_iterable(zip(*slices)))


# ---------------------------------------------------------------------------
# Column profiling
# ---------------------------------------------------------------------------

_DOMINANT_ORDER = ("number", "text", "logical", "error")


@dataclass(frozen=True)
class ColumnProfile:
    name: str
    counts: dict[str, int]
    dominant: str
    minimum: float | None
    maximum: float | None

    def to_json(self) -> dict:
        return {
            "column": self.name,
            "counts": dict(self.counts),
            "dominant": self.dominant,
            "min": self.minimum,
            "max": self.maximum,
        }


def profile(table: Table) -> list[ColumnProfile]:
    """Per-column summary: type counts (partitioning the row count), the
    dominant non-blank type (ties break number > text > logical > error),
    and min/max over numeric cells."""
    out = []
    for header, cells in zip(table.headers, table.columns):
        counts = {t: 0 for t in ("number", "text", "logical", "error", "blank")}
        numbers = []
        for v in cells:
            counts[value_type(v)] += 1
            if is_number(v):
                numbers.append(v)
        nonblank = {t: counts[t] for t in _DOMINANT_ORDER if counts[t] > 0}
        if nonblank:
            best = max(nonblank.values())
            dominant = next(t for t in _DOMINANT_ORDER if counts[t] == best)
        else:
            dominant = "blank"
        out.append(
            ColumnProfile(
                name=header,
                counts=counts,
                dominant=dominant,
                minimum=min(numbers) if numbers else None,
                maximum=max(numbers) if numbers else None,
            )
        )
    return out
