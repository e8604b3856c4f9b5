"""Tables of typed columns loaded from CSV, plus range and name resolution.

CSV input follows RFC 4180: UTF-8, ``,`` separator, ``"`` quoting with
``""`` escapes. The reader is strict about quoting and is hand-rolled so
that an unquoted empty field (blank) can be told apart from a quoted
empty string ``""`` (empty text) -- the stdlib csv module collapses the
two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .formula import CellRef, Expr, NameRef, RangeRef, index_to_col_letters
from .values import ErrorKind, Value, is_number, parse_number, value_type


class CsvError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"CSV error on line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Table:
    """Named, immutable columns of equal length."""

    name: str
    headers: tuple[str, ...]
    columns: tuple[tuple[Value, ...], ...]

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


@dataclass(frozen=True)
class RangeView:
    """A rectangular window of values, row-major. A vector is a view with
    one row or one column."""

    rows: int
    cols: int
    cells: tuple[Value, ...]
    origin: CellRef | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rows * self.cols != len(self.cells):
            raise ValueError(f"{self.rows}x{self.cols} view needs {self.rows * self.cols} cells, got {len(self.cells)}")

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
        cells = tuple(self.at(r, col) for r in range(1, self.rows + 1))
        return RangeView(self.rows, 1, cells)

    def row(self, row: int) -> "RangeView":
        cells = tuple(self.at(row, c) for c in range(1, self.cols + 1))
        return RangeView(1, self.cols, cells)


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

    records = _read_records(text)
    if not records:
        return Table(table_name, (), ())

    width = max(len(fields) for fields, _ in records)
    if has_header:
        header_fields, header_line = records[0]
        data_records = records[1:]
        headers = [raw for raw, _quoted in header_fields]
        for i in range(len(headers), width):
            headers.append(f"C{i + 1}")
        seen: set[str] = set()
        for h in headers:
            if not h:
                raise CsvError(header_line, "empty header")
            if h.lower() in seen:
                raise CsvError(header_line, f"duplicate header {h!r}")
            seen.add(h.lower())
    else:
        headers = [f"C{i + 1}" for i in range(width)]
        data_records = records

    columns: list[list[Value]] = [[] for _ in range(width)]
    for fields, _line in data_records:
        for c in range(width):
            if c < len(fields):
                raw, quoted = fields[c]
                columns[c].append(_type_cell(raw, quoted))
            else:
                columns[c].append(None)

    return Table(table_name, tuple(headers), tuple(tuple(col) for col in columns))


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
# Reference resolution
# ---------------------------------------------------------------------------


def resolve(table: Table, ref: Expr) -> Value | RangeView:
    """Resolve a reference against *table*.

    Names resolve case-insensitively to whole columns (rows x 1 views);
    cell references map column letters to column index and row to cell
    index. Failures come back as error values, never exceptions:
    ErrorKind.NAME for an unknown name, ErrorKind.REF out of bounds.
    """
    if isinstance(ref, NameRef):
        idx = table.column_index(ref.name)
        if idx is None:
            return ErrorKind.NAME
        cells = table.columns[idx - 1]
        return RangeView(len(cells), 1, cells, origin=CellRef(index_to_col_letters(idx), 1))

    if isinstance(ref, CellRef):
        if not _in_table(table, ref.row, ref.col):
            return ErrorKind.REF
        return table.cell(ref.row, ref.col)

    if isinstance(ref, RangeRef):
        start, end = ref.start, ref.end
        r0, c0, r1, c1 = start.row, start.col, end.row, end.col
        if not (_in_table(table, r0, c0) and _in_table(table, r1, c1)):
            return ErrorKind.REF
        # one tuple slice per column; several columns interleave row-major
        slices = [column[r0 - 1 : r1] for column in table.columns[c0 - 1 : c1]]
        cells = slices[0] if len(slices) == 1 else tuple(chain.from_iterable(zip(*slices)))
        return RangeView(r1 - r0 + 1, c1 - c0 + 1, cells, origin=start)

    raise TypeError(f"not a reference: {ref!r}")


def _in_table(table: Table, row: int, col: int) -> bool:
    return 1 <= row <= table.row_count and 1 <= col <= table.column_count


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
