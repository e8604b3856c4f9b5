"""Seeded inputs: the 20k-row sheet, its formulas, the classroom table and
the REPL script. Every input comes from ``random.Random(seed)``; each formula
carries its expected result, computed by ``oracles`` from the same value
lists the CSV was written from.

The work each operation does is fixed by construction, not by the seed:
lookup keys sit at a fixed row, copy-down rows are a fixed set, and the REPL
script holds the same number of lines of each template in every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracles as O

SHEET_ROWS = 20_000
COPY_ROWS = 20_000  # the copy-down range
COPY_AT = tuple(1 + 2221 * i for i in range(9)) + (COPY_ROWS,)  # the rows copied to

ERROR_TEXT = ("#N/A", "#DIV/0!", "#VALUE!")
WORDS = ("n/a", "absent", "tbd")


@dataclass
class Sheet:
    headers: tuple[str, ...]
    columns: tuple[list, ...]  # cell values as the loader must type them
    csv: bytes

    def col(self, name: str) -> list:
        return self.columns[self.headers.index(name)]


def _csv_field(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def to_csv(headers, columns) -> bytes:
    lines = [",".join(headers)]
    lines.extend(",".join(_csv_field(v) for v in row) for row in zip(*columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _dirty(rng: random.Random, numbers: Callable[[], float]):
    r = rng.random()
    if r < 0.08:
        return None
    if r < 0.12:
        return rng.choice(ERROR_TEXT)
    if r < 0.16:
        return rng.choice(WORDS)
    return numbers()


def gen_sheet(seed: int, rows: int = SHEET_ROWS) -> Sheet:
    """key: distinct integers, shuffled (exact lookup); step: ascending
    integers (approximate lookup); xs, ys: uniform in [0, 10] to three
    places; dirty: numbers with blanks, error-code text and words."""
    rng = random.Random(seed)
    key = [float(k) for k in range(1, rows + 1)]
    rng.shuffle(key)
    step, s = [], 0
    for _ in range(rows):
        s += rng.randint(1, 5)
        step.append(float(s))
    xs = [round(rng.uniform(0, 10), 3) for _ in range(rows)]
    ys = [round(rng.uniform(0, 10), 3) for _ in range(rows)]
    dirty = [_dirty(rng, lambda: round(rng.uniform(0, 10), 3)) for _ in range(rows)]
    headers = ("key", "step", "xs", "ys", "dirty")
    columns = (key, step, xs, ys, dirty)
    return Sheet(headers, columns, to_csv(headers, columns))


# ---------------------------------------------------------------------------
# Sheet formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SheetFormula:
    case: str  # the default_rule_cases() name it instantiates
    text: str
    expected: object  # a value, or a list of cells for a vector result


def sheet_formulas(sheet: Sheet) -> list[SheetFormula]:
    """Every rule case that reads whole columns, on the 20k table. The two
    HLOOKUP cases read a 2x6 block and the RAND case cannot be compared, so
    they are not here."""
    n = len(sheet.columns[0])
    key, step, xs, ys, dirty = sheet.columns
    gt5 = [x > 5 for x in xs]
    stop = n * 3 // 4  # both lookups stop at this row, whatever the seed
    probe_key = key[stop - 1]
    probe_step = step[stop - 1] + 0.5
    threshold = ys[0]
    return [
        SheetFormula("countif-literal", '=COUNTIF(xs,">5")', O.count_where(gt5)),
        SheetFormula(
            "countif-ref-criteria", f'=COUNTIF(C1:C{n},">"&D1)', O.count_where([x > threshold for x in xs])
        ),
        SheetFormula("sumif-with-sum-range", '=SUMIF(xs,">5",ys)', O.sum_where(ys, gt5)),
        SheetFormula("sumif-self", '=SUMIF(xs,"<=3")', O.sum_where(xs, [x <= 3 for x in xs])),
        SheetFormula("averageif-with-range", '=AVERAGEIF(xs,">5",ys)', O.average_where(ys, gt5)),
        SheetFormula("averageif-self", '=AVERAGEIF(xs,"<>2")', O.average_where(xs, [x != 2 for x in xs])),
        SheetFormula("count", "=COUNT(dirty)", O.count_numbers(dirty)),
        SheetFormula("counta", "=COUNTA(dirty)", O.count_nonblank(dirty)),
        SheetFormula(
            "vlookup-exact", f"=VLOOKUP({O.show(probe_key)},A1:D{n},4,FALSE)", O.lookup_exact(probe_key, key, ys)
        ),
        SheetFormula(
            "vlookup-approx", f"=VLOOKUP({O.show(probe_step)},B1:D{n},3,TRUE)", O.lookup_ascending(probe_step, step, ys)
        ),
        SheetFormula(
            "iferror-division",
            f"=IFERROR(D1:D{n}/E1:E{n},-1)",
            [O.divide_or(y, d, -1.0) for y, d in zip(ys, dirty)],
        ),
        SheetFormula("countifs", '=COUNTIFS(xs,">2",ys,"<8")', O.count_where([x > 2 for x in xs], [y < 8 for y in ys])),
        SheetFormula(
            "sumifs", '=SUMIFS(ys,xs,">2",ys,"<8")', O.sum_where(ys, [x > 2 for x in xs], [y < 8 for y in ys])
        ),
    ]


# The rule cases of the sheet, in sheet_formulas' order: the one list the
# per-layer metric names are built from.
SHEET_CASES = tuple(f.case for f in sheet_formulas(gen_sheet(0, rows=4)))


@dataclass(frozen=True)
class RowFormula:
    name: str
    text: str  # copied down in scalar mode; "{" + text + "}" is its array form
    expected: list  # one cell per row of the range


def row_formulas(sheet: Sheet) -> list[RowFormula]:
    """Row formulas over the first COPY_ROWS rows (all rows of a smaller
    sheet). Each costs the same at every row: the taken IF branch is a
    range either way."""
    rows = min(COPY_ROWS, len(sheet.columns[0]))
    xs, ys, dirty = (sheet.col(c)[:rows] for c in ("xs", "ys", "dirty"))
    return [
        RowFormula("double", f"=C1:C{rows}*2", [x * 2 for x in xs]),
        RowFormula("safe-ratio", f"=IFERROR(D1:D{rows}/E1:E{rows},-1)", [O.divide_or(y, d, -1.0) for y, d in zip(ys, dirty)]),
        RowFormula("pick", f"=IF(C1:C{rows}>5,D1:D{rows},C1:C{rows})", [y if x > 5 else x for x, y in zip(xs, ys)]),
    ]


# ---------------------------------------------------------------------------
# Classroom table and REPL script
# ---------------------------------------------------------------------------

CLASS_ROWS = 300
CLASS_BLOCKS = 6
_LETTERS = "aeioulmnrst"


def gen_classroom(seed: int, rows: int = CLASS_ROWS) -> Sheet:
    rng = random.Random(seed)
    ids = [float(k) for k in range(1, rows + 1)]
    rng.shuffle(ids)
    names = ["".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 8))) for _ in range(rows)]
    score = [float(rng.randint(0, 100)) for _ in range(rows)]
    hours = [round(rng.uniform(0, 20), 1) for _ in range(rows)]
    bonus = [_dirty(rng, lambda: float(rng.randint(0, 10))) for _ in range(rows)]
    headers = ("id", "name", "score", "hours", "bonus")
    columns = (ids, names, score, hours, bonus)
    return Sheet(headers, columns, to_csv(headers, columns))


@dataclass(frozen=True)
class ReplLine:
    text: str
    out: tuple[str, ...]  # expected stdout lines; empty for a command
    lint: str = ""  # a diagnostic code stderr must show for this line

    @property
    def is_formula(self) -> bool:
        return not self.text.startswith(":")


def _template_units(t: Sheet, rng: random.Random) -> list[list[ReplLine]]:
    """One unit per template; a unit is one or more consecutive lines."""
    n = len(t.columns[0])
    ids, names, score, hours, bonus = t.columns
    th = rng.randint(20, 80)
    hcap = rng.randint(5, 15)
    above = [s > th for s in score]
    r, s = rng.randint(1, n), rng.randint(1, n)
    k = rng.randint(1, 6)
    letter = rng.choice(_LETTERS)
    key = float(rng.randint(1, n))
    i, j = r - 1, s - 1

    def one(text, value, lint=""):
        return [ReplLine(text, (O.show(value),), lint)]

    def search(c, word):
        pos = word.lower().find(c)
        return O.VALUE if pos < 0 else float(pos + 1)

    nsg = "NON_SPREGO_FUNCTION"
    count = O.count_where(above)
    total = O.sum_where(hours, above)
    mean = O.average_where(hours, above)
    both = O.count_where(above, [h < hcap for h in hours])
    looked = O.lookup_exact(key, ids, score)
    return [
        one(f'=COUNTIF(score,">{th}")', count, nsg),
        one(f"{{=SUM(IF(score>{th},1,0))}}", count),
        one(f'=SUMIF(score,">{th}",hours)', total, nsg),
        one(f"{{=SUM(IF(score>{th},hours,0))}}", total),
        one(f'=AVERAGEIF(score,">{th}",hours)', mean, nsg),
        one(f"{{=SUM(IF(score>{th},hours,0))/SUM(IF(score>{th},1,0))}}", mean),
        one("=COUNT(bonus)", O.count_numbers(bonus), nsg),
        one('{=SUM(IF(ISERROR(bonus+0),0,IF(LEN(bonus&"")=0,0,1)))}', O.count_numbers(bonus)),
        one("=COUNTA(bonus)", O.count_nonblank(bonus), nsg),
        one('{=SUM(IF(LEN(bonus&"")=0,0,1))}', O.count_nonblank(bonus)),
        one(f"=VLOOKUP({O.show(key)},A1:C{n},3,FALSE)", looked, nsg),
        one(f"{{=INDEX(C1:C{n},MATCH({O.show(key)},A1:A{n},0))}}", looked),
        one(f'=COUNTIFS(score,">{th}",hours,"<{hcap}")', both, nsg),
        one(f"{{=SUM(IF(score>{th},IF(hours<{hcap},1,0),0))}}", both),
        one(f"=C{r}*2+D{s}", score[i] * 2 + hours[j]),
        one(f"=(C{r}+C{s})/2", (score[i] + score[j]) / 2),
        one(f"=LEN(B{r})", float(len(names[i]))),
        one(f"=LEFT(B{r},{k})", names[i][:k]),
        one(f"=RIGHT(B{r},{k})", names[i][-k:]),
        one(f'=SEARCH("{letter}",B{r})', search(letter, names[i])),
        one(f'=B{r}&" "&C{r}', names[i] + " " + O.show(score[i])),
        one(f"=$C${r}*2", score[i] * 2, "ABSOLUTE_REFERENCE"),
        one(f"=C${r}+$D{s}", score[i] + hours[j], "MIXED_REFERENCE"),
        [
            ReplLine(f":row {r}", ()),
            ReplLine(f"=C1:C{n}*2", (O.show(score[i] * 2),)),
            ReplLine(f'=IF(score>{th},"pass","fail")', ("pass" if above[i] else "fail",)),
            ReplLine(":row", ()),
        ],
        [ReplLine(f"{{=IF(score>{th},hours,0)}}", tuple(O.show(h if a else 0.0) for h, a in zip(hours, above)))],
    ]


def gen_script(table: Sheet, seed: int, blocks: int = CLASS_BLOCKS) -> list[ReplLine]:
    """*blocks* blocks, each holding every template once in a seeded order."""
    rng = random.Random(seed ^ 0x5EED)
    lines: list[ReplLine] = []
    for _ in range(blocks):
        units = _template_units(table, rng)
        rng.shuffle(units)
        for unit in units:
            lines.extend(unit)
    return lines
