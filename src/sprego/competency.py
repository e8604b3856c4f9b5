"""Spreadsheet competency items and the formula classifier.

The shipped item table carries the full framework: five groups, each
item with the knowledge it draws on (MA mathematics, DP design and
planning, IS incremental nature of science, AC authentic contents, ICT
general computing) and whether basic users (BU) and general users (GU)
need it. GU requirements are cumulative over BU.

Only formula-shaped items can be detected from a parsed formula; the
rest (file handling, formatting, manual analysis and the like) are
marked non-evaluable and reported as not assessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .evaluator import FUNCTION_SPECS
from .formula import Binary, Call, Expr, Formula, NameRef, RangeRef, Span, Unary, children, walk
from .table import Table

BU = "BU"
GU = "GU"


@dataclass(frozen=True)
class CompetencyItem:
    id: str
    group: str  # problem-solving | formulas | basic-ict | design | formatting
    name: str
    input_knowledge: frozenset[str]
    bu_required: bool
    gu_required: bool
    evaluable: bool

    @property
    def gu_only(self) -> bool:
        return self.gu_required and not self.bu_required

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "group": self.group,
            "name": self.name,
            "input_knowledge": sorted(self.input_knowledge),
            "bu": self.bu_required,
            "gu": self.gu_required,
            "evaluable": self.evaluable,
        }


def _item(id, group, name, knowledge, bu, evaluable=False):
    # every item in the table is required at GU level
    return CompetencyItem(id, group, name, frozenset(knowledge), bu, True, evaluable)


ITEMS: tuple[CompetencyItem, ...] = (
    # problem solving: all manual-analysis items, not detectable from formulas
    _item("breaking-down-problems", "problem-solving", "Breaking down and researching problems", ("MA", "DP", "IS", "AC"), True),
    _item("tracing-errors", "problem-solving", "Tracing errors in spreadsheets they build", ("MA", "ICT", "IS", "AC"), True),
    _item("error-resistant-formulas", "problem-solving", "Building error-resistant formulas", ("MA", "ICT"), True),
    _item("manual-vs-automatic-calculation", "problem-solving", "Understanding manual vs automatic calculation", ("ICT", "MA", "IS", "AC"), True),
    _item("recognizing-error-messages", "problem-solving", "Recognizing error messages", ("ICT", "MA", "IS", "AC"), True),
    _item("data-entering-errors", "problem-solving", "Handling data-entering error messages", ("ICT", "MA", "AC"), True),
    _item("formula-entering-errors", "problem-solving", "Handling formula-entering error messages", ("MA", "AC"), True),
    _item("data-driven-errors", "problem-solving", "Handling data-driven error messages", ("AC",), False),
    _item("recognizing-data-types", "problem-solving", "Recognizing data types", ("ICT",), True),
    _item("manual-data-analysis", "problem-solving", "Analysing data manually", ("MA", "ICT"), True),
    # basic ICT skills
    _item("accessing-saving-files", "basic-ict", "Accessing and saving files", ("ICT",), True),
    _item("reading-entering-data", "basic-ict", "Reading and entering data", ("ICT",), True),
    _item("setup-printing", "basic-ict", "Manipulating set up and printing", ("ICT",), True),
    _item("naming-files", "basic-ict", "Naming files", ("ICT",), True),
    _item("save-as-conversion", "basic-ict", "Converting files with Save As", ("ICT",), True),
    _item("find-replace", "basic-ict", "Managing find and replace processes", ("ICT",), True),
    _item("navigation-shortcuts", "basic-ict", "Understanding and applying navigation shortcuts", ("ICT",), True),
    _item("copy-move-shortcuts", "basic-ict", "Understanding and applying copy and move shortcuts", ("ICT",), True),
    _item("file-management-shortcuts", "basic-ict", "Understanding and applying file management shortcuts", ("ICT",), True),
    # design and best practice
    _item("designing-layout", "design", "Designing layout", ("DP", "ICT", "AC"), True),
    _item("explaining-calculations", "design", "Explaining calculations they build", ("ICT", "MA", "AC"), True),
    # formulas
    _item("basic-arithmetic", "formulas", "Understanding and applying basic arithmetic", ("MA",), True, evaluable=True),
    _item("concept-of-functions", "formulas", "Understanding the concept of functions", ("MA", "ICT"), True, evaluable=True),
    _item("non-array-functions", "formulas", "Calling non-array-based general purpose functions", (), True, evaluable=True),
    _item("handling-vectors", "formulas", "Understanding and handling vectors", (), True),
    _item("vector-output-array-formulas", "formulas", "Building vector output array formulas", (), True, evaluable=True),
    _item("one-value-array-formulas", "formulas", "Building one value output array formulas", (), True, evaluable=True),
    _item("array-error-condition-functions", "formulas", "Calling array-, error-, and condition-based general purpose functions", (), False, evaluable=True),
    _item("two-three-level-composites", "formulas", "Building 2 and 3-level composite functions", (), True, evaluable=True),
    _item("multi-level-composites", "formulas", "Building multi-level composite functions", (), False, evaluable=True),
    _item("precedent-dependent-cells", "formulas", "Understanding precedent and dependent cells", (), True),
    # formatting
    _item("row-column-cell-operations", "formatting", "Understanding and applying hiding, unhiding, deleting, inserting rows, columns, cells", ("ICT",), True),
    _item("grouping-merging", "formatting", "Understanding and applying grouping, merging", ("ICT",), False),
    _item("cell-formatting", "formatting", "Understanding and applying regular cell formatting", ("ICT",), True),
)

ITEMS_BY_ID = {item.id: item for item in ITEMS}

# function sets behind the two call-classification items; classify reads
# each call's item straight from its spec
NON_ARRAY_CALLS = frozenset(n for n, s in FUNCTION_SPECS.items() if s.competency == "non-array-functions")
ARRAY_CONDITION_CALLS = frozenset(
    n for n, s in FUNCTION_SPECS.items() if s.competency == "array-error-condition-functions"
)

_ARITHMETIC_BINARY = frozenset({"+", "-", "*", "/", "^"})


@dataclass(frozen=True)
class CompetencyProfile:
    triggered: dict[str, tuple[Span, ...]] = field(default_factory=dict)
    level: str = BU
    nesting_depth: int = 0

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "nesting_depth": self.nesting_depth,
            "items": [
                {
                    "id": item_id,
                    "name": ITEMS_BY_ID[item_id].name,
                    "spans": [{"start": s[0], "end": s[1]} for s in spans],
                }
                for item_id, spans in sorted(self.triggered.items())
            ],
        }


def nesting_depth(expr: Expr) -> int:
    """Longest function-call-inside-function-call chain; a bare call is 1.
    Operators do not add depth."""
    return _depth(expr, {})


def _depth(node: Expr, memo: dict[int, int]) -> int:
    # memo holds each node with children by id, so a shared node is done once
    own = 1 if isinstance(node, Call) else 0
    kids = children(node)
    if not kids:
        return own
    if (depth := memo.get(id(node))) is None:
        # a loop, not max(map(...)): this runs on every REPL line
        depth = 0
        for kid in kids:
            if (kid_depth := _depth(kid, memo)) > depth:
                depth = kid_depth
        depth = memo[id(node)] = depth + own
    return depth


# functions whose result is one value even over ranged arguments, and those
# (ROW, COLUMN) whose result is a vector exactly when an argument is a range
_COLLAPSING = frozenset(n for n, s in FUNCTION_SPECS.items() if s.shape == "scalar")
_RANGE_SHAPED = frozenset(n for n, s in FUNCTION_SPECS.items() if s.shape == "range")


def static_shape(expr: Expr) -> str:
    """"vector" or "scalar": a conservative syntactic guess at the result
    shape, used to tell vector-output from one-value array formulas."""
    return "vector" if _vector(expr, {}) else "scalar"


def _vector(node: Expr, memo: dict[int, bool]) -> bool:
    if isinstance(node, (RangeRef, NameRef)):
        return True
    if isinstance(node, Call):
        if node.func in _RANGE_SHAPED:
            return any(isinstance(a, RangeRef) for a in children(node))
        if node.func in _COLLAPSING:
            return False
    kids = children(node)
    if not kids:
        return False
    if (vector := memo.get(id(node))) is None:
        vector = memo[id(node)] = any(map(_vector, kids, repeat(memo)))
    return vector


def classify(formula: Formula | Expr) -> CompetencyProfile:
    """Map a formula onto the framework items it demonstrates and the
    resulting user level. GU is reached exactly when a GU-only item
    triggers; everything else stays BU."""
    if isinstance(formula, Formula):
        expr, array_entered = formula.body, formula.array_entered
    else:
        expr, array_entered = formula, False

    triggered: dict[str, list[Span]] = {}

    def hit(item_id: str, node: Expr | None):
        span = node.span if node is not None and node.span is not None else (0, 0)
        triggered.setdefault(item_id, []).append(span)

    for node in walk(expr):
        if isinstance(node, Binary) and node.op in _ARITHMETIC_BINARY:
            hit("basic-arithmetic", node)
        elif isinstance(node, Unary):
            hit("basic-arithmetic", node)
        elif isinstance(node, Call):
            hit("concept-of-functions", node)
            spec = FUNCTION_SPECS.get(node.func)
            if spec is not None and spec.competency is not None:
                hit(spec.competency, node)

    depth = nesting_depth(expr)
    if 2 <= depth <= 3:
        hit("two-three-level-composites", expr)
    elif depth >= 4:
        hit("multi-level-composites", expr)

    if array_entered:
        if static_shape(expr) == "vector":
            hit("vector-output-array-formulas", expr)
        else:
            hit("one-value-array-formulas", expr)

    level = GU if any(ITEMS_BY_ID[i].gu_only for i in triggered) else BU
    return CompetencyProfile(
        triggered={i: tuple(spans) for i, spans in triggered.items()},
        level=level,
        nesting_depth=depth,
    )


# ---------------------------------------------------------------------------
# Workbook report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    table_names: tuple[str, ...]
    entries: tuple[tuple[str, CompetencyProfile], ...]
    workbook_level: str | None
    histogram: dict[str, int]
    not_assessed: tuple[CompetencyItem, ...]

    def to_json(self) -> dict:
        return {
            "tables": list(self.table_names),
            "formulas": [
                {"source": source, **profile.to_json()} for source, profile in self.entries
            ],
            "workbook": {"level": self.workbook_level, "histogram": dict(sorted(self.histogram.items()))},
            "not_assessed": [item.to_json() for item in self.not_assessed],
        }


def report(tables: list[Table], formulas: list[tuple[str, Formula]]) -> Report:
    """Per-formula profiles plus workbook aggregation. Items this engine
    cannot judge from formulas are listed as not assessed."""
    entries = []
    histogram: dict[str, int] = {}
    level: str | None = None
    for source, parsed in formulas:
        profile = classify(parsed)
        entries.append((source, profile))
        for item_id in profile.triggered:
            histogram[item_id] = histogram.get(item_id, 0) + 1
        if level is None or profile.level == GU:
            level = profile.level
    return Report(
        table_names=tuple(t.name for t in tables),
        entries=tuple(entries),
        workbook_level=level,
        histogram=histogram,
        not_assessed=tuple(item for item in ITEMS if not item.evaluable),
    )


def render_report(rep: Report) -> str:
    lines = []
    if rep.table_names:
        lines.append("tables: " + ", ".join(rep.table_names))
    for source, profile in rep.entries:
        lines.append(f"{source}")
        lines.append(f"  level {profile.level}, depth {profile.nesting_depth}")
        for item_id in sorted(profile.triggered):
            lines.append(f"  - {ITEMS_BY_ID[item_id].name}")
    lines.append(f"workbook level: {rep.workbook_level or 'n/a'}")
    lines.append(f"not assessed by this tool: {len(rep.not_assessed)} items")
    for item in rep.not_assessed:
        lines.append(f"  - {item.name}")
    return "\n".join(lines)
