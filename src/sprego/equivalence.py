"""Differential testing: seeded datasets plus original-vs-rewritten checks.

Each catalog rule ships with schemas that exercise its documented edges
(empty match set, all-match, error cells, blank cells, sorted and
unsorted lookup data). check_equivalence evaluates both formulas over
the same generated tables and compares values: numbers at 1e-9 relative
tolerance (1e-12 absolute near zero, sums reassociate between the two
forms), text and logicals exactly, errors by kind. Every failure is
replayable from its recorded dataset seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .evaluator import EvalContext, contains_rand, evaluate, precedents
from .formula import CellRef, Formula, NameRef, RangeRef, parse
from .rewrite import rewrite
from .table import RangeView, Table
from .values import ErrorKind, Value, format_value, value_type

REL_TOL = 1e-9
ABS_TOL = 1e-12


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    """One generated column. *kind* picks the generator:

    numeric, sorted-ascending, sorted-descending  draws in [lo, hi]
    text       strings over *alphabet*, lengths 1..maxlen
    logical    coin flips
    mixed      draws a type from *mixed_types* per cell
    with-blanks / with-errors   numeric with BLANK_RATE blanks / ERROR_RATE errors
    """

    name: str
    kind: str = "numeric"
    lo: float = 0.0
    hi: float = 10.0
    integers: bool = False
    alphabet: tuple[str, ...] = ("a", "b", "c", "d")
    maxlen: int = 6
    mixed_types: tuple[str, ...] = ("number", "text", "logical", "blank")


_KINDS = frozenset(
    {"numeric", "sorted-ascending", "sorted-descending", "text", "logical", "mixed", "with-blanks", "with-errors"}
)

_ERROR_KINDS = tuple(ErrorKind)

BLANK_RATE = 0.25
ERROR_RATE = 0.2

# the most cells (columns times rows) a table of schemas_for_pair may hold:
# at check's default 200 trials a pair of that size takes about 3-4 s on a
# 2-core machine
PAIR_CELL_BUDGET = 4096


@dataclass(frozen=True)
class DatasetSchema:
    columns: tuple[ColumnSpec, ...]
    rows: int
    label: str = ""


def gen_dataset(schema: DatasetSchema, seed: int) -> Table:
    """Deterministic table for (schema, seed): same inputs, same cells."""
    if schema.rows < 1:
        raise SchemaError(f"rows must be positive, got {schema.rows}")
    for col in schema.columns:
        if col.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {col.kind!r}")
        if col.kind in ("text", "mixed") and not col.alphabet:
            raise SchemaError(f"column {col.name!r} has an empty alphabet")
        if col.lo > col.hi:
            raise SchemaError(f"column {col.name!r} has lo > hi")

    rng = random.Random(seed)
    columns = tuple(tuple(_gen_column(col, schema.rows, rng)) for col in schema.columns)
    return Table("dataset", tuple(c.name for c in schema.columns), columns)


def _draw_number(spec: ColumnSpec, rng: random.Random) -> float:
    if spec.integers:
        return float(rng.randint(int(spec.lo), int(spec.hi)))
    return round(rng.uniform(spec.lo, spec.hi), 3)


def _draw_text(spec: ColumnSpec, rng: random.Random) -> str:
    return "".join(rng.choice(spec.alphabet) for _ in range(rng.randint(1, spec.maxlen)))


def _gen_column(spec: ColumnSpec, rows: int, rng: random.Random) -> list[Value]:
    if spec.kind == "numeric":
        return [_draw_number(spec, rng) for _ in range(rows)]
    if spec.kind == "sorted-ascending":
        return sorted(_draw_number(spec, rng) for _ in range(rows))
    if spec.kind == "sorted-descending":
        return sorted((_draw_number(spec, rng) for _ in range(rows)), reverse=True)
    if spec.kind == "text":
        return [_draw_text(spec, rng) for _ in range(rows)]
    if spec.kind == "logical":
        return [rng.random() < 0.5 for _ in range(rows)]
    if spec.kind == "with-blanks":
        return [None if rng.random() < BLANK_RATE else _draw_number(spec, rng) for _ in range(rows)]
    if spec.kind == "with-errors":
        return [
            rng.choice(_ERROR_KINDS) if rng.random() < ERROR_RATE else _draw_number(spec, rng)
            for _ in range(rows)
        ]
    # mixed
    out: list[Value] = []
    for _ in range(rows):
        t = rng.choice(spec.mixed_types)
        if t == "number":
            out.append(_draw_number(spec, rng))
        elif t == "text":
            out.append(_draw_text(spec, rng))
        elif t == "logical":
            out.append(rng.random() < 0.5)
        elif t == "blank":
            out.append(None)
        else:
            out.append(rng.choice(_ERROR_KINDS))
    return out


# ---------------------------------------------------------------------------
# Value comparison
# ---------------------------------------------------------------------------


def numbers_close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def values_match(a, b) -> bool:
    if isinstance(a, RangeView) or isinstance(b, RangeView):
        if not (isinstance(a, RangeView) and isinstance(b, RangeView)):
            return False
        if (a.rows, a.cols) != (b.rows, b.cols):
            return False
        return all(values_match(x, y) for x, y in zip(a.cells, b.cells))
    if value_type(a) != value_type(b):
        return False
    if isinstance(a, ErrorKind):
        return a is b
    if isinstance(a, bool) or isinstance(a, str) or a is None:
        return a == b
    return numbers_close(a, b)


def _first_mismatch_row(a, b) -> int | None:
    if isinstance(a, RangeView) and isinstance(b, RangeView) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a.cells, b.cells), 1):
            if not values_match(x, y):
                return i
    return None


def _show(v) -> str:
    if isinstance(v, RangeView):
        return "[" + ", ".join(format_value(c) if not isinstance(c, RangeView) else "?" for c in v.cells) + "]"
    return format_value(v)


# ---------------------------------------------------------------------------
# The check itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    schema: str
    dataset_seed: int
    row: int | None
    original: str
    rewritten: str

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "dataset_seed": self.dataset_seed,
            "row": self.row,
            "original": self.original,
            "rewritten": self.rewritten,
        }


@dataclass
class Verdict:
    rule_id: str
    name: str
    trials: int
    failures: list[Failure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "name": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "failures": [f.to_json() for f in self.failures],
            "notes": list(self.notes),
        }


_MAX_FAILURES_PER_SCHEMA = 10


def _derive_seed(seed: int, schema_index: int, trial: int) -> int:
    return (seed * 1_000_003 + schema_index * 10_007 + trial) % (2**63)


def check_equivalence(
    original: Formula | str,
    rewritten: Formula | str,
    schemas: list[DatasetSchema] | tuple[DatasetSchema, ...],
    trials_per_schema: int = 200,
    seed: int = 0,
    *,
    rule_id: str = "",
    name: str = "",
) -> Verdict:
    """Evaluate both formulas over seeded datasets under identical
    contexts. Formulas containing RAND() are not run (the two sides would
    draw independently); the verdict records the skip instead."""
    orig = parse(original) if isinstance(original, str) else original
    rewr = parse(rewritten) if isinstance(rewritten, str) else rewritten

    verdict = Verdict(rule_id=rule_id, name=name, trials=0)
    if contains_rand(orig.body) or contains_rand(rewr.body):
        verdict.notes.append("skipped: formula contains RAND(); the pair cannot be compared value-for-value")
        return verdict

    for si, schema in enumerate(schemas):
        label = schema.label or f"schema-{si}"
        recorded = 0
        for t in range(trials_per_schema):
            ds_seed = _derive_seed(seed, si, t)
            table = gen_dataset(schema, ds_seed)
            ctx = EvalContext(table, mode="array", rng_seed=ds_seed)
            a = evaluate(orig, ctx)
            b = evaluate(rewr, ctx)
            verdict.trials += 1
            if not values_match(a, b) and recorded < _MAX_FAILURES_PER_SCHEMA:
                recorded += 1
                verdict.failures.append(
                    Failure(
                        schema=label,
                        dataset_seed=ds_seed,
                        row=_first_mismatch_row(a, b),
                        original=_show(a),
                        rewritten=_show(b),
                    )
                )
    verdict.failures.sort(key=lambda f: (f.schema, f.dataset_seed))
    return verdict


def schemas_for_pair(original: Formula, rewritten: Formula):
    """Dataset schemas sized to the references the pair actually uses:
    named columns first, then enough positional columns and rows (at least
    16) to cover every cell reference. Every column is numeric, with
    blanks or with errors; tables of two or more columns add a fourth,
    mixed, whose last column alone has errors, as a dirty column beside
    clean ones on a sheet. Raises SchemaError when those tables would hold
    more than PAIR_CELL_BUDGET cells."""
    names: list[str] = []
    max_col = 0
    max_row = 0
    for ref in precedents(original) + precedents(rewritten):
        if isinstance(ref, NameRef):
            if ref.name.lower() not in [n.lower() for n in names]:
                names.append(ref.name)
        elif isinstance(ref, CellRef):
            max_col = max(max_col, ref.col)
            max_row = max(max_row, ref.row)
        elif isinstance(ref, RangeRef):
            max_col = max(max_col, ref.end.col)
            max_row = max(max_row, ref.end.row)
    width = max(len(names), max_col, 1)
    rows = max(max_row, 16)
    if width * rows > PAIR_CELL_BUDGET:
        raise SchemaError(
            f"the pair's references need {width} columns by {rows} rows, past the"
            f" {PAIR_CELL_BUDGET}-cell budget of a check"
        )

    def columns(kind, last=None):
        cols = []
        for i in range(width):
            name = names[i] if i < len(names) else f"c{i + 1}"
            cols.append(ColumnSpec(name, last if last and i == width - 1 else kind))
        return tuple(cols)

    schemas = [
        DatasetSchema(columns("numeric"), rows, label="numeric"),
        DatasetSchema(columns("with-blanks"), rows, label="with-blanks"),
        DatasetSchema(columns("with-errors"), rows, label="with-errors"),
    ]
    if width > 1:
        schemas.append(DatasetSchema(columns("numeric", "with-errors"), rows, label="mixed"))
    return schemas


# ---------------------------------------------------------------------------
# The shipped per-rule suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleCase:
    rule_id: str
    name: str
    template: str  # "{n}" expands to the schema's row count
    schemas: tuple[DatasetSchema, ...]

    def original_for(self, schema: DatasetSchema) -> str:
        return self.template.format(n=schema.rows)


def _schema(label: str, rows: int, *columns: ColumnSpec) -> DatasetSchema:
    return DatasetSchema(tuple(columns), rows, label=label)


def _col(name: str, kind: str = "numeric", **kw) -> ColumnSpec:
    return ColumnSpec(name, kind, **kw)


def default_rule_cases() -> tuple[RuleCase, ...]:
    """One or more cases per catalog rule, with schemas covering the
    documented edges. The R4 COUNT case leaves numeric-looking text and
    logicals out of its data: that divergence is documented on the
    rewrite plan rather than patched over."""
    def xs(label, rows=48, **kw):
        return _schema(label, rows, _col("xs", **kw))

    criteria_schemas = (
        xs("some-match"),
        xs("all-match", rows=16, lo=5.5, hi=20),
        xs("no-match", rows=16, lo=0, hi=5),
        xs("blanks", kind="with-blanks"),
        xs("errors", kind="with-errors"),
        _schema("text-mix", 32, _col("xs", "mixed", mixed_types=("number", "text", "blank"))),
    )

    def two_col(label, rows=48, xs_kw=None, ys_kw=None):
        return _schema(label, rows, _col("xs", **(xs_kw or {})), _col("ys", **(ys_kw or {})))

    sum_schemas = (
        two_col("some-match"),
        two_col("all-match", rows=16, xs_kw={"lo": 5.5, "hi": 20}),
        two_col("no-match", rows=16, xs_kw={"lo": 0, "hi": 5}),
        two_col("blank-values", ys_kw={"kind": "with-blanks"}),
        two_col("error-values", ys_kw={"kind": "with-errors"}),
        two_col("error-keys", xs_kw={"kind": "with-errors"}),
    )

    ref_criteria_schemas = (
        two_col("ref-threshold"),
        two_col("ref-all", rows=16, xs_kw={"lo": 8, "hi": 20}, ys_kw={"lo": 0, "hi": 5}),
        two_col("ref-blanks", xs_kw={"kind": "with-blanks"}),
    )

    def lookup_cols(a_kw):
        return (_col("a", **a_kw), _col("b"), _col("c"))

    vlookup_exact = (
        _schema("hit-often", 24, *lookup_cols({"integers": True, "lo": 0, "hi": 9})),
        _schema("no-hit", 16, *lookup_cols({"integers": True, "lo": 10, "hi": 20})),
        _schema("error-values", 24, _col("a", integers=True, lo=0, hi=9), _col("b"), _col("c", "with-errors")),
        _schema("blank-values", 24, _col("a", integers=True, lo=0, hi=9), _col("b"), _col("c", "with-blanks")),
    )
    vlookup_approx = (
        _schema("sorted", 24, *lookup_cols({"kind": "sorted-ascending", "integers": True, "lo": 0, "hi": 9})),
        _schema("all-above", 16, *lookup_cols({"kind": "sorted-ascending", "lo": 6, "hi": 9})),
        _schema("unsorted-tolerated", 24, *lookup_cols({"integers": True, "lo": 0, "hi": 9})),
    )

    def wide(label, lows, kind="numeric", special=()):
        # 6 columns, 2 rows; the first row is ordered when lows ascend
        cols = tuple(
            _col(f"k{j + 1}", kind if j in special else "numeric", integers=True, lo=lo, hi=lo + 1)
            for j, lo in enumerate(lows)
        )
        return _schema(label, 2, *cols)

    ascending = (0, 2, 4, 6, 8, 10)
    hlookup_exact = (
        wide("keys-ascending", ascending),
        wide("keys-unsorted", (8, 2, 10, 0, 6, 4)),
        wide("error-cells", ascending, kind="with-errors", special=(2, 4)),
        wide("blank-cells", ascending, kind="with-blanks", special=(1, 3)),
    )
    hlookup_approx = (
        wide("keys-ascending", ascending),
        wide("keys-high", (20, 22, 24, 26, 28, 30)),
        wide("error-cells", ascending, kind="with-errors", special=(2, 4)),
        wide("blank-cells", ascending, kind="with-blanks", special=(1, 3)),
    )

    iferror_schemas = (
        two_col("divide-by-blank", ys_kw={"kind": "with-blanks"}),
        two_col("error-cells", ys_kw={"kind": "with-errors"}),
        two_col("clean", ys_kw={"lo": 1, "hi": 10}),
    )

    ifs_schemas = (
        two_col("some-match"),
        two_col("all-match", rows=16, xs_kw={"lo": 3, "hi": 7}, ys_kw={"lo": 3, "hi": 7}),
        two_col("no-match", rows=16, xs_kw={"lo": 0, "hi": 1}),
        two_col("blanks", xs_kw={"kind": "with-blanks"}),
        two_col("errors", ys_kw={"kind": "with-errors"}),
    )

    def three_col(label, rows=48, **kw):
        return _schema(label, rows, _col("ss", **kw), _col("xs"), _col("ys"))

    sumifs_schemas = (
        three_col("some-match"),
        three_col("blank-values", kind="with-blanks"),
        three_col("error-values", kind="with-errors"),
        _schema("no-match", 16, _col("ss"), _col("xs", lo=0, hi=1), _col("ys")),
    )

    count_schemas = (
        xs("numbers"),
        xs("blanks", kind="with-blanks"),
        xs("errors", kind="with-errors"),
        _schema("plain-text-mix", 32, _col("xs", "mixed", mixed_types=("number", "text", "blank"))),
    )
    counta_schemas = (
        xs("numbers"),
        xs("blanks", kind="with-blanks"),
        xs("errors", kind="with-errors"),
        _schema("full-mix", 32, _col("xs", "mixed")),
    )

    return (
        RuleCase("R1", "countif-literal", '=COUNTIF(xs,">5")', criteria_schemas),
        RuleCase("R1", "countif-ref-criteria", '=COUNTIF(A1:A{n},">"&B1)', ref_criteria_schemas),
        RuleCase("R2", "sumif-with-sum-range", '=SUMIF(xs,">5",ys)', sum_schemas),
        RuleCase("R2", "sumif-self", '=SUMIF(xs,"<=3")', criteria_schemas),
        RuleCase("R3", "averageif-with-range", '=AVERAGEIF(xs,">5",ys)', sum_schemas),
        RuleCase("R3", "averageif-self", '=AVERAGEIF(xs,"<>2")', criteria_schemas),
        RuleCase("R4", "count", "=COUNT(xs)", count_schemas),
        RuleCase("R4", "counta", "=COUNTA(xs)", counta_schemas),
        RuleCase("R5", "vlookup-exact", "=VLOOKUP(5,A1:C{n},3,FALSE)", vlookup_exact),
        RuleCase("R5", "vlookup-approx", "=VLOOKUP(5,A1:C{n},3,TRUE)", vlookup_approx),
        RuleCase("R6", "hlookup-exact", "=HLOOKUP(4,A1:F2,2,FALSE)", hlookup_exact),
        RuleCase("R6", "hlookup-approx", "=HLOOKUP(7.5,A1:F2,2,TRUE)", hlookup_approx),
        RuleCase("R7", "iferror-division", "=IFERROR(A1:A{n}/B1:B{n},-1)", iferror_schemas),
        RuleCase("R7", "iferror-volatile", "=IFERROR(RAND()+A1,0)", iferror_schemas[:1]),
        RuleCase("R8", "countifs", '=COUNTIFS(xs,">2",ys,"<8")', ifs_schemas),
        RuleCase("R8", "sumifs", '=SUMIFS(ss,xs,">2",ys,"<8")', sumifs_schemas),
    )


def check_rule_case(case: RuleCase, trials_per_schema: int = 200, seed: int = 0) -> Verdict:
    """Rewrite the case's formula and compare it with the original over
    the case's schemas. The rewritten side is produced by rewrite(), so
    this exercises the real transformation, not a transcribed one."""
    verdict = Verdict(rule_id=case.rule_id, name=case.name, trials=0)
    for si, schema in enumerate(case.schemas):
        source = case.original_for(schema)
        original = parse(source)
        rewritten, plans = rewrite(original)
        if not plans:
            verdict.failures.append(Failure(schema.label, seed, None, source, "<no rewrite applied>"))
            continue
        sub = check_equivalence(
            original,
            rewritten,
            [schema],
            trials_per_schema=trials_per_schema,
            seed=_derive_seed(seed, si, 0),
            rule_id=case.rule_id,
            name=case.name,
        )
        verdict.trials += sub.trials
        verdict.failures.extend(
            Failure(schema.label, f.dataset_seed, f.row, f.original, f.rewritten) for f in sub.failures
        )
        for note in sub.notes:
            if note not in verdict.notes:
                verdict.notes.append(note)
    verdict.failures.sort(key=lambda f: (f.schema, f.dataset_seed))
    return verdict


def check_all_rules(trials_per_schema: int = 200, seed: int = 0) -> list[Verdict]:
    return [check_rule_case(case, trials_per_schema, seed) for case in default_rule_cases()]
