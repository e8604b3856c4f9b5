"""Lint for non-Sprego constructs and rewriting into Sprego composites.

The catalog turns each problem-specific call into a composite built only
from the core and extended function sets:

    R1  COUNTIF(r, c)        -> SUM(IF(P, 1, 0))                array
    R2  SUMIF(r, c, s?)      -> SUM(IF(P, s or r, 0))           array
    R3  AVERAGEIF(r, c, s?)  -> SUM(IF(P, s or r, 0)) / SUM(IF(P, 1, 0))
    R4  COUNT(r)             -> SUM(IF(ISERROR(r+0), 0, IF(LEN(r&"")=0, 0, 1)))
        COUNTA(r)            -> SUM(IF(LEN(r&"")=0, 0, 1))
    R5  VLOOKUP(v, rng, k, exact?) -> INDEX(col_k, MATCH(v, col_1, 0|1))
    R6  HLOOKUP: same by rows
    R7  IFERROR(x, y)        -> IF(ISERROR(x), y, x)
    R8  COUNTIFS/SUMIFS      -> SUM(IF(P1, IF(P2, ... , 0), 0))

P is the elementwise predicate built from the range and the reified
criteria. Rules apply bottom-up in one pass; whenever a rule introduces
an elementwise IF over a range (or a lookup composite), the result is
marked array-entered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .criteria import UnsupportedCriteria, criteria_args, criteria_expr
from .evaluator import BASELINE_FUNCTIONS, FUNCTION_SPECS, SPREGO_FUNCTIONS, contains_rand as _contains_rand
from .formula import (
    Binary,
    BoolLit,
    Call,
    CellRef,
    Expr,
    Formula,
    NameRef,
    NumberLit,
    RangeRef,
    Span,
    TextLit,
    Unary,
    index_to_col_letters,
    walk,
)
from .formula import format as format_formula
from .table import Table


class DiagnosticCode(enum.Enum):
    NON_SPREGO_FUNCTION = "NON_SPREGO_FUNCTION"
    ABSOLUTE_REFERENCE = "ABSOLUTE_REFERENCE"
    MIXED_REFERENCE = "MIXED_REFERENCE"
    UNSUPPORTED_CRITERIA = "UNSUPPORTED_CRITERIA"
    VOLATILE_IN_REWRITE = "VOLATILE_IN_REWRITE"


@dataclass(frozen=True)
class Diagnostic:
    code: DiagnosticCode
    span: Span
    message: str
    rewrite_available: bool = False

    def to_json(self) -> dict:
        return {
            "code": self.code.value,
            "span": {"start": self.span[0], "end": self.span[1]},
            "message": self.message,
            "rewrite_available": self.rewrite_available,
        }


@dataclass(frozen=True)
class RewritePlan:
    rule_id: str
    original: Expr
    replacement: Expr
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "original": format_formula(self.original),
            "replacement": format_formula(self.replacement),
            "notes": list(self.notes),
        }


_ZERO = NumberLit(0.0)
_ONE = NumberLit(1.0)


def _len_is_zero(rng: Expr) -> Expr:
    empty = Call("LEN", (Binary("&", rng, TextLit("")),))
    return Binary("=", empty, _ZERO)


@dataclass(frozen=True)
class _Plan:
    rule_id: str
    replacement: Expr
    notes: tuple[str, ...] = ()
    introduces_array: bool = True


def _static_len(ref: Expr) -> int | None:
    """Cell count of a reference when it is known from the syntax alone."""
    if isinstance(ref, RangeRef):
        return (ref.end.row - ref.start.row + 1) * (ref.end.col - ref.start.col + 1)
    if isinstance(ref, CellRef):
        return 1
    return None


def _lengths_clash(a: Expr, b: Expr) -> bool:
    la, lb = _static_len(a), _static_len(b)
    return la is not None and lb is not None and la != lb


def _plan_for_call(call: Call, table: Table | None) -> tuple[_Plan | None, str | None]:
    """Match one baseline call against the catalog. Returns (plan, None)
    on success and (None, reason) when the call shape is not cleanly
    rewritable. Raises UnsupportedCriteria on wildcards."""
    name = call.func
    args = call.args
    if not FUNCTION_SPECS[name].takes(len(args)):
        return None, f"{name}() with {len(args)} arguments is a #VALUE! error"

    if name in ("COUNTIF", "COUNTIFS", "SUMIF", "SUMIFS", "AVERAGEIF"):
        return _plan_criteria(call)

    if name in ("COUNT", "COUNTA"):
        if len(args) != 1:
            return None, f"only single-range {name} is rewritten"
        rng = args[0]
        counted = Call("IF", (_len_is_zero(rng), _ZERO, _ONE))
        note = "empty-text cells are not counted by the rewrite"
        if name == "COUNT":
            counted = Call("IF", (Call("ISERROR", (Binary("+", rng, _ZERO),)), _ZERO, counted))
            note = "numeric-looking text and logical cells count under the rewrite but not under COUNT"
        return _Plan("R4", Call("SUM", (counted,)), notes=(note,)), None

    if name in ("VLOOKUP", "HLOOKUP"):
        return _plan_lookup(call, table)

    if name == "IFERROR":
        x, fallback = args
        notes = ()
        if _contains_rand(x):
            notes = (
                "first argument contains RAND(); the replacement evaluates"
                " it twice and the two draws may differ",
            )
        plan = _Plan(
            "R7",
            Call("IF", (Call("ISERROR", (x,)), fallback, x)),
            notes=notes,
            introduces_array=False,
        )
        return plan, None

    return None, f"{name} has no catalog rule"


def _plan_lookup(call: Call, table: Table | None) -> tuple[_Plan | None, str | None]:
    by_row = call.func == "VLOOKUP"
    rule = "R5" if by_row else "R6"
    args = call.args
    value, rng, k_arg = args[0], args[1], args[2]

    if not isinstance(k_arg, NumberLit) or k_arg.value != int(k_arg.value):
        return None, "the index argument must be an integer literal"
    k = int(k_arg.value)
    if k < 1:
        return None, "the index argument must be at least 1"

    match_type = 1
    if len(args) > 3:
        flag = args[3]
        if isinstance(flag, BoolLit):
            match_type = 1 if flag.value else 0
        elif isinstance(flag, NumberLit):
            match_type = 1 if flag.value != 0 else 0
        else:
            return None, "the range-lookup argument must be a literal"

    notes: tuple[str, ...] = ()
    if isinstance(rng, RangeRef):
        width = (rng.end.col - rng.start.col + 1) if by_row else (rng.end.row - rng.start.row + 1)
        if k > width:
            return None, f"index {k} is outside the {width}-wide range"
        first = _slice(rng, 1, by_row)
        picked = _slice(rng, k, by_row)
    elif isinstance(rng, NameRef) and by_row:
        if k == 1:
            first = picked = rng
        elif table is None:
            return None, "a table is needed to pick a later column from a named one"
        else:
            idx = table.column_index(rng.name)
            if idx is None:
                return None, f"no column named {rng.name!r}"
            if idx + k - 1 > table.column_count:
                return None, f"no column {k} columns from {rng.name!r}"
            first = rng
            picked = NameRef(table.headers[idx + k - 2])
            notes = (
                "the name resolves to a single column when evaluated; the"
                " rewrite reads the table's adjacent columns instead",
            )
    else:
        return None, "the lookup range must be an explicit range"

    replacement = Call(
        "INDEX",
        (picked, Call("MATCH", (value, first, NumberLit(float(match_type))))),
    )
    return _Plan(rule, replacement, notes=notes), None


def _slice(rng: RangeRef, k: int, by_col: bool) -> RangeRef:
    """The k-th column (by_col) or row of a range, as its own range."""
    start, end = rng.start, rng.end
    if by_col:
        letters = index_to_col_letters(start.col + k - 1)
        a = CellRef(letters, start.row, col_abs=start.col_abs, row_abs=start.row_abs)
        b = CellRef(letters, end.row, col_abs=end.col_abs, row_abs=end.row_abs)
    else:
        row = start.row + k - 1
        a = CellRef(start.col_letters, row, col_abs=start.col_abs, row_abs=start.row_abs)
        b = CellRef(end.col_letters, row, col_abs=end.col_abs, row_abs=end.row_abs)
    return RangeRef(a, b)


def _plan_criteria(call: Call) -> tuple[_Plan | None, str | None]:
    """R1, R2, R3 and R8: SUM(IF(P1, IF(P2, ..., body, 0), 0)), whose body
    is 1 for a count and the sum range for a sum; R3 divides the two."""
    name = call.func
    shape = criteria_args(name, call.args)
    if shape is None:
        lead = "a sum range then " if name == "SUMIFS" else ""
        return None, f"{name} takes {lead}range,criteria pairs"
    sums, pair_args = shape
    preds = []
    for j in range(0, len(pair_args), 2):
        crit = criteria_expr(pair_args[j + 1])
        if crit is None:
            return None, "criteria argument is not a literal, reference, or \"op\"&ref"
        if _lengths_clash(pair_args[0], pair_args[j]):
            return None, "ranges have different sizes"
        preds.append(Binary(crit[0], pair_args[j], crit[1]))
    if sums is not None and _lengths_clash(pair_args[0], sums):
        return None, "ranges have different sizes"

    def total(body: Expr) -> Call:
        for pred in reversed(preds):
            body = Call("IF", (pred, body, _ZERO))
        return Call("SUM", (body,))

    if name == "AVERAGEIF":
        return _Plan("R3", Binary("/", total(sums), total(_ONE))), None
    rule = {"COUNTIF": "R1", "SUMIF": "R2"}.get(name, "R8")
    return _Plan(rule, total(_ONE if sums is None else sums)), None


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------


def lint(formula: Formula | Expr, table: Table | None = None) -> list[Diagnostic]:
    """Diagnostics for non-Sprego constructs, ordered by source span."""
    expr = formula.body if isinstance(formula, Formula) else formula
    diags: list[Diagnostic] = []

    for node in walk(expr):
        if isinstance(node, CellRef) and (node.col_abs or node.row_abs):
            code = (
                DiagnosticCode.ABSOLUTE_REFERENCE
                if node.col_abs and node.row_abs
                else DiagnosticCode.MIXED_REFERENCE
            )
            kind = "absolute" if code is DiagnosticCode.ABSOLUTE_REFERENCE else "mixed"
            shown = format_formula(node)[1:]
            diags.append(Diagnostic(code, _span(node), f"{kind} reference {shown} is avoidable with array formulas"))
        elif isinstance(node, Call) and node.func in BASELINE_FUNCTIONS:
            plan = None
            reason = None
            try:
                plan, reason = _plan_for_call(node, table)
            except UnsupportedCriteria as exc:
                reason = "wildcard criteria"
                diags.append(
                    Diagnostic(
                        DiagnosticCode.UNSUPPORTED_CRITERIA,
                        exc.span or _span(node),
                        "wildcard criteria have no Sprego equivalent",
                    )
                )
            message = f"problem-specific function {node.func}()"
            if plan is None and reason:
                message += f"; not rewritten: {reason}"
            diags.append(
                Diagnostic(
                    DiagnosticCode.NON_SPREGO_FUNCTION,
                    _span(node),
                    message,
                    rewrite_available=plan is not None,
                )
            )
            if plan is not None and node.func == "IFERROR" and _contains_rand(node.args[0]):
                diags.append(
                    Diagnostic(
                        DiagnosticCode.VOLATILE_IN_REWRITE,
                        _span(node),
                        "IFERROR argument contains RAND(); the rewrite evaluates it twice",
                        rewrite_available=True,
                    )
                )

    diags.sort(key=lambda d: d.span)
    return diags


def _span(node: Expr) -> Span:
    return node.span if node.span is not None else (0, 0)


# ---------------------------------------------------------------------------
# rewrite
# ---------------------------------------------------------------------------


def rewrite(formula: Formula | Expr, table: Table | None = None) -> tuple[Formula, list[RewritePlan]]:
    """Apply the catalog bottom-up. Untouched subtrees are preserved;
    calls the catalog cannot express (wildcards, non-literal lookup
    indexes, size clashes) stay as they are and keep their lint
    diagnostics."""
    if isinstance(formula, Formula):
        body, array_entered = formula.body, formula.array_entered
    else:
        body, array_entered = formula, False

    plans: list[RewritePlan] = []
    new_body, introduced = _transform(body, table, plans)
    return Formula(new_body, array_entered or introduced), plans


def _transform(expr: Expr, table: Table | None, plans: list[RewritePlan]) -> tuple[Expr, bool]:
    introduced = False

    if isinstance(expr, Unary):
        operand, introduced = _transform(expr.operand, table, plans)
        if operand is not expr.operand:
            expr = Unary(expr.op, operand, span=expr.span)
    elif isinstance(expr, Binary):
        left, a = _transform(expr.left, table, plans)
        right, b = _transform(expr.right, table, plans)
        introduced = a or b
        if left is not expr.left or right is not expr.right:
            expr = Binary(expr.op, left, right, span=expr.span)
    elif isinstance(expr, Call):
        new_args = []
        changed = False
        for arg in expr.args:
            new_arg, a = _transform(arg, table, plans)
            introduced = introduced or a
            changed = changed or new_arg is not arg
            new_args.append(new_arg)
        if changed:
            expr = Call(expr.func, tuple(new_args), span=expr.span)
        if expr.func in BASELINE_FUNCTIONS:
            try:
                plan, _reason = _plan_for_call(expr, table)
            except UnsupportedCriteria:
                plan = None
            if plan is not None:
                plans.append(RewritePlan(plan.rule_id, expr, plan.replacement, plan.notes))
                return plan.replacement, introduced or plan.introduces_array

    return expr, introduced


def non_sprego_calls(formula: Formula | Expr) -> list[Call]:
    """Calls outside the core and extended sets, in source order; a call
    that a rewrite shares between parents is listed once."""
    expr = formula.body if isinstance(formula, Formula) else formula
    return [n for n in walk(expr) if isinstance(n, Call) and n.func not in SPREGO_FUNCTIONS]
