"""Formula evaluation with scalar and array semantics.

Two modes, carried on the EvalContext:

    scalar  one value out; vector operands are indexed at current_row
    array   elementwise operators and functions map over ranges, scalars
            broadcast, aggregators collapse ranges to one value

Elementwise shape rules: two vectors combine positionally when their
lengths match, whatever their orientation; a length mismatch makes every
result cell a VALUE error. True matrices must share shapes exactly.

Whole ranges run through kernels instead of a per-cell loop where the
argument types allow, chosen by those types alone and giving the same
cells bit for bit: a binary arithmetic or comparison operator over floats
or ranges of floats, & over cells without errors, LEN over text, ISERROR,
IFERROR and IF over anything. A column read whole that is not all floats
splits first (below), and the kernels serve its parts. Other arguments
take the per-cell path. IF over a vector condition is its per-cell IF
lifted, each branch view of the condition's size read by position in the
condition's shape and any other view #VALUE!; over a condition of
logicals (or 1 and 0) its kernel selects each cell from the pair of
branch cells in C, as IFERROR's does by whether a cell is an error. The
criteria baselines are one function, which reads their argument shape
from criteria.criteria_args and runs each criteria as its comparison
operator runs, kernel and split and all, each later one only on the rows
the earlier ones matched; MATCH, VLOOKUP and HLOOKUP scan by the
comparison operators (match_position); COUNT and COUNTA count cell types.

A column neither all floats nor shorter than table.PARTITION_MIN_ROWS
has a Partition: the float cells, the other cells as codes into their
distinct values with each value's count, and the order that merges the
two back. An elementwise function over resolve's view of the whole column
(its source), with every other view showing the same column or a float
view of its length, takes the split path (_split_partition): the kernel
on the floats (each zero divisor alone gives #DIV/0!, and & writes floats
as text in C) and the function once per distinct other value (per cell,
after one coercion per value, beside a float view). One kernel rule
stands: over a column of text alone (kind str), a kernel that takes
every argument (LEN, &, ISERROR, IFERROR, IF) reads the column whole,
with no partition built, since text may hold as many distinct values as
cells. The result is a _SplitView, an unbuilt view: it keeps the two
parts and builds its cells in column order only when they are read. The
next elementwise node over it, ISERROR, IFERROR and IF among them,
splits again without a merge. A fold gives a part whole from the
kinds of its arguments alone: ISERROR and the emptiness test over a part
of floats are all FALSE, and IF over a part whose condition is one value
is the taken branch's part, as it is. SUM adds a split
result part by part where the bits cannot differ from a left-to-right sum
in column order (_split_total). Any other consumer reads the cells, which
merges the parts once, and evaluate() builds an unbuilt view it returns.
The Table builds the partition at the column's first split and keeps it,
so a formula that reads the column whole only through an aggregator, a
lookup, COUNT or COUNTA builds none. The first
split on a table pays for the build, so below the floor, where a single
use would not repay it, the per-cell path serves.

An = node that tests x for emptiness (x="", ""=x, LEN(x)=0 or 0=LEN(x),
with x&"" or ""&x read as x) is one elementwise function of x: x's error,
else whether x is blank or the text "". It builds no text, since the text
of a number or a logical is never empty. Its kernel takes any cells
without errors, and answers all FALSE without a scan over a view of
floats or logicals; a dirty column splits first, as above. The matching is
structural, so R4's LEN(r&"")=0 takes it with its printed text unchanged.

A view's kind, when set, is the one type of its cells, and the tests
above read it before they scan: float for a slice of a table column of
floats and for the numbers of LEN, of an arithmetic kernel that made no
#NUM! and of an IF over logicals whose branches both give floats; bool for
the comparison kernels and ISERROR; str for & and a slice of a column of
text; a split view's when both its parts have it. An IF(cond, x, 0) or
IF(cond, 0, x) over a condition of logicals, with floats for x, is the
other unbuilt view, a _MaskedIf of kind float: SUM adds x's floats where
cond takes them, shared node or not, an x that is itself such an IF ANDs
its condition in, and any other node reads the IF's value, split or not.

A subtree that occurs more than once in the tree (the parser never shares
nodes, a rewrite may) is evaluated once per evaluate() call and its value
reused, unless the formula calls RAND(), whose draws are each made.

Error values propagate through every operator and function by one rule,
which each function keeps itself: an error argument wins over a failed
coercion, and the first error in argument order wins. ISERROR, IFERROR
and IF (only the condition and the taken branch matter) read errors as
values. The comparisons and the emptiness test return their first error
argument; arithmetic, the other elementwise functions, MATCH, INDEX,
VLOOKUP, HLOOKUP, SMALL, LARGE and OFFSET's offsets are each a body over
arguments coerced in order (_coerced; arithmetic by the same steps): when
a coercion fails, the first error argument is the result (_first_error),
else the failed coercion's error; an argument left out takes the body's
default. The six functions first collapse each argument to one value but
one in a range position (_evaluated), which is read whole (_range): a
view as it is, any other value as a one-cell view, and an error value is
an error argument. SMALL's and LARGE's range is read as its numbers,
which fails at its first error cell. The aggregators return the
first error cell their one walk meets (COUNT ignores error cells,
mirroring the ISERROR guard in its SUM(IF()) replacement), and the
criteria baselines keep the order _criteria_reduce states.

All failures come back as error values; evaluate never raises for data
reasons.

The function catalog, FUNCTION_SPECS near the end of this module, holds one
spec per function: arity, set, calling convention, implementation, kernel
and competency item. Adding a function means adding one entry there.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import chain, compress, repeat
from typing import Callable, NamedTuple

from .criteria import Criteria, criteria_args, criteria_from_value
from .formula import (
    MAX_COLUMNS,
    MAX_ROWS,
    Binary,
    BoolLit,
    Call,
    CellRef,
    Expr,
    Formula,
    NameRef,
    NumberLit,
    RangeRef,
    TextLit,
    Unary,
    children,
    index_to_col_letters,
    walk,
)
from .table import FLIP, PARTITION_MIN_ROWS, Partition, RangeView, Table, resolve, vector
from .values import (
    COMPARISONS,
    ErrorKind,
    Value,
    coerce_logical,
    coerce_number,
    coerce_text,
    compare_values,
    finite_or_error,
)

# ---------------------------------------------------------------------------
# Evaluation context
# ---------------------------------------------------------------------------


@dataclass
class EvalContext:
    """Evaluation parameters. The random stream is rebuilt from rng_seed
    on every evaluate() call, so equal seeds replay identically."""

    table: Table
    current_row: int | None = None
    rng_seed: int = 0
    mode: str = "array"  # "scalar" | "array"

    def __post_init__(self):
        if self.mode not in ("scalar", "array"):
            raise ValueError(f"mode must be 'scalar' or 'array', got {self.mode!r}")


@dataclass
class _EvalState:
    ctx: EvalContext
    scalar: bool  # ctx.mode == "scalar"
    # id of each shared node -> its value once evaluated, else _PENDING
    reuse: dict[int, object]
    _rng: random.Random | None = None

    @property
    def rng(self) -> random.Random:
        # seeded at the first RAND() call: seeding costs more than many a
        # whole evaluation
        if self._rng is None:
            self._rng = random.Random(self.ctx.rng_seed)
        return self._rng


_PENDING = object()


def evaluate(formula: Formula | Expr, ctx: EvalContext) -> Value | RangeView:
    """Evaluate a parsed formula against ctx.table. Returns a single
    Value in scalar mode, a Value or RangeView in array mode."""
    expr = formula.body if isinstance(formula, Formula) else formula
    reuse = dict.fromkeys(_shared_nodes(expr), _PENDING)
    st = _EvalState(ctx, ctx.mode == "scalar", reuse)
    result = _eval(expr, st)
    if st.scalar:
        result = _scalarize(result, st)
    elif isinstance(result, _UnbuiltView):
        # built here, so that the caller's clock covers it
        result = RangeView(result.rows, result.cols, result.cells, kind=result.kind)
    return result


def _shared_nodes(expr: Expr) -> list[int]:
    """Ids of the operator and call nodes met more than once in the tree.
    The parser never shares a node; a rewrite may (R7 uses its x twice).
    A tree that calls RAND() shares none: each of its draws must be made."""
    seen: set[int] = set()
    shared = []
    stack = [expr]
    while stack:
        node = stack.pop()
        # not ranges: R1-R4 share theirs, and each evaluate would run the RAND test
        if isinstance(node, (Unary, Binary, Call)):
            if id(node) in seen:
                shared.append(id(node))
            else:
                seen.add(id(node))
                stack += children(node)
    return [] if shared and contains_rand(expr) else shared


def contains_rand(expr: Expr) -> bool:
    """Whether *expr* calls RAND() anywhere."""
    return any(isinstance(node, Call) and node.func == "RAND" for node in walk(expr))


def _scalarize(v, st: _EvalState) -> Value:
    if not isinstance(v, RangeView):
        return v
    if len(v) == 1:
        return v.cells[0]
    if not v.is_vector:
        return ErrorKind.VALUE
    row = st.ctx.current_row
    if row is None:
        raise ValueError("scalar mode needs current_row to index vector operands")
    if row < 1 or row > len(v):
        return ErrorKind.REF
    return v.element(row)


# ---------------------------------------------------------------------------
# Core recursion
# ---------------------------------------------------------------------------


def _eval(expr: Expr, st: _EvalState):
    if isinstance(expr, NumberLit):
        return finite_or_error(expr.value)
    if isinstance(expr, TextLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, (CellRef, RangeRef, NameRef)):
        return resolve(st.ctx.table, expr)
    if st.reuse and id(expr) in st.reuse:
        return _reused(expr, st)
    if isinstance(expr, Unary):
        operand = _eval(expr.operand, st)
        return _lift(_UNARY_OPS[expr.op], [operand], st)
    if isinstance(expr, Binary):
        tested = _emptiness_operand(expr) if expr.op == "=" else None
        if tested is not None:
            return _lift(_fn_is_empty, [_eval(tested, st)], st, kernel=_IS_EMPTY_KERNEL)
        left = _eval(expr.left, st)
        right = _eval(expr.right, st)
        return _lift(_BINARY_OPS[expr.op], [left, right], st, kernel=_BINARY_KERNELS.get(expr.op))
    if isinstance(expr, Call):
        return _call(expr, st)
    raise TypeError(f"not an Expr: {expr!r}")


def _reused(expr: Expr, st: _EvalState):
    """The value of a shared node, evaluated on first use."""
    key = id(expr)
    value = st.reuse[key]
    if value is _PENDING:
        del st.reuse[key]  # so that _eval evaluates it this once
        value = st.reuse[key] = _eval(expr, st)
    return value


def _call(expr: Call, st: _EvalState):
    spec = FUNCTION_SPECS.get(expr.func)
    if spec is None:
        return ErrorKind.NAME
    if not spec.takes(len(expr.args)):
        return ErrorKind.VALUE

    if spec.call == "raw":
        return spec.impl(expr.args, st)
    args = [_eval(a, st) for a in expr.args]
    if spec.call == "elementwise":
        return _lift(spec.impl, args, st, kernel=spec.kernel)
    return spec.impl(args, st)


# ---------------------------------------------------------------------------
# Elementwise lifting
# ---------------------------------------------------------------------------


def _coerced(body, *coercers):
    """*body* over its arguments, each coerced in order by its own coercer;
    a failed coercion ends the call (_first_error). An argument left out
    takes the body's default, so arity, not a value, says it is absent."""

    def apply(*args):
        coerced = []
        for coerce, a in zip(coercers, args):
            x = coerce(a)
            if type(x) is ErrorKind:
                return _first_error(args, x)
            coerced.append(x)
        return body(*coerced)

    return apply


def _first_error(args, failed: ErrorKind) -> ErrorKind:
    """The result of a call whose coercion of an argument gave *failed*:
    the first error among *args*, else *failed*. The arguments before the
    one that failed coerced, so none of them is an error."""
    for a in args:
        if type(a) is ErrorKind:
            return a
    return failed


class Kernel(NamedTuple):
    """A whole-range stand-in for an elementwise function. *run* takes one
    stream per argument (a view, which iterates its cells, or a scalar
    repeated) and gives the cells the per-cell function would, with their
    one type when it knows it (else None); it is used when every argument
    passes *accepts*. *fold*, if any, gives the result whole when the
    arguments' kinds alone decide it, else None: the one cell the function
    gives on every cell of its arguments, or, for IF over a condition that
    is one value, the branch it takes, as it is (a view, perhaps)."""

    accepts: Callable[[object], bool]
    run: Callable[..., tuple]
    fold: Callable[..., object] | None = None


def _lift(fn, args, st: _EvalState, kernel: Kernel | None = None):
    """Apply a scalar function across possibly-ranged arguments."""
    if st.scalar:
        return fn(*[_scalarize(a, st) for a in args])
    return _lift_array(fn, args, st.ctx.table, kernel)


def _lift_array(fn, args, table: Table, kernel: Kernel | None):
    """_lift in array mode: views map cell by cell, and a column of *table*
    read whole may split. A masked IF is read as its IF's value."""
    args = [_unmasked(a) for a in args]
    views = [a for a in args if isinstance(a, RangeView)]
    if not views:
        return fn(*args)

    # vectors combine by length whatever their orientation, other views by
    # shape; on a mismatch every cell is VALUE
    first = views[0]
    if len({len(v) if v.is_vector else (v.rows, v.cols) for v in views}) == 1:
        split = _split_partition(args, table, kernel)
        if split is not None:
            return _split_cells(*split, fn, args, kernel)
        cells, kind = _map_cells(fn, args, kernel)
        return RangeView(first.rows, first.cols, cells, kind=kind)
    if not all(v.is_vector for v in views):
        return RangeView(first.rows, first.cols, (ErrorKind.VALUE,) * len(first))
    size = max(map(len, views))  # as long as the longest, running as the first
    rows, cols = (1, size) if first.rows == 1 and first.cols != 1 else (size, 1)
    return RangeView(rows, cols, (ErrorKind.VALUE,) * size)


def _map_cells(fn, args, kernel):
    """(cells, their kind or None): *kernel* over the streams of same-sized
    views taken in step, scalar arguments repeated, when every argument
    passes its test; else *fn* over the same streams."""
    if kernel is not None and all(map(kernel.accepts, args)):
        return kernel.run(*map(_stream, args))
    return tuple(map(fn, *map(_stream, args))), None


class _UnbuiltView(RangeView):
    """A view that keeps what its cells are made from, for the consumers
    that read that instead; _build() makes the cells at their first read."""

    def __init__(self, rows, cols, kind, **kept):
        vars(self).update(rows=rows, cols=cols, kind=kind, **kept)

    @functools.cached_property
    def cells(self):
        return self._build()

    def __len__(self):
        return self.rows * self.cols


class _SplitView(_UnbuiltView):
    """An elementwise result over a partitioned column, its *source*, kept
    in the partition's two parts, so that the next node over it runs part
    by part too: *floats*, the result on the float cells, as a view or as
    the one value of them all; *others*, the results on the other cells,
    one per distinct value when *by_value*, else one per cell. Its cells
    are the two parts merged into column order."""

    def __init__(self, rows, cols, source, part: Partition, floats, others: tuple, by_value: bool):
        kinds = set(map(type, others))
        if part.floats:
            kinds.add(floats.kind if isinstance(floats, RangeView) else type(floats))
        kind = kinds.pop() if len(kinds) == 1 and kinds <= _KINDS else None
        super().__init__(rows, cols, kind, source=source, part=part, floats=floats, others=others, by_value=by_value)

    def _build(self):
        part, floats = self.part, self.floats
        float_cells = floats.cells if isinstance(floats, RangeView) else (floats,) * len(part.floats)
        others = tuple(map(self.others.__getitem__, part.codes)) if self.by_value else self.others
        return part.merge(float_cells + others)


def _split_partition(args, table: Table, kernel: Kernel | None):
    """(column, its Partition) when a lift over *args* takes the split path,
    else None. Every view argument but float views of the table's length
    must show that column (resolve's view of it) or be split over it. One
    rule is the kernel's: when no argument is split yet, a kernel that
    takes every argument (LEN, &, ISERROR, IFERROR, IF) reads a column of
    text, which may hold as many distinct values as cells, whole. The table
    builds the partition at the column's first split; it has none below
    PARTITION_MIN_ROWS."""
    rows = table.row_count
    if rows < PARTITION_MIN_ROWS:
        return None
    col, split = _shown_column(args, rows)
    if col is None:
        return None
    if not split and kernel is not None and table.column_kind(col) is str and all(map(kernel.accepts, args)):
        return None
    part = table.partition(col)
    return None if part is None else (col, part)


def _shown_column(args, rows: int):
    """(the source that every view among *args* but float views of *rows*
    cells shares, or None; whether any of those views is split)."""
    sources = set()
    split = False
    for a in args:
        if type(a) is _SplitView:
            sources.add(a.source)
            split = True
        elif isinstance(a, RangeView) and not (a.kind is float and len(a) == rows):
            sources.add(a.source)
    return sources.pop() if len(sources) == 1 else None, split


def _split_args(part: Partition, args):
    """Each argument of a node split over *part* as its float part and its
    other part, and whether the latter is one cell per distinct value
    (_per_value). A scalar is itself in both parts; a split view has its
    two parts; the column itself is its floats and its distinct values; a
    float view is its cells at the float positions and at the others. A
    view's other part is a vector."""
    float_args, other_args = [], []
    for a in args:
        if type(a) is _SplitView:
            f, o = a.floats, vector(a.others)
        elif not isinstance(a, RangeView):
            f = o = a
        elif a.kind is float:
            f = RangeView(len(part.floats), 1, tuple(compress(a.cells, part.mask)), kind=float)
            others = tuple(compress(a.cells, part.mask.translate(FLIP)))
            o = RangeView(len(others), 1, others, kind=float)
        else:
            f, o = RangeView(len(part.floats), 1, part.floats, kind=float), vector(part.values)
        float_args.append(f)
        other_args.append(o)
    return float_args, other_args, list(map(_per_value, args))


def _per_value(a) -> bool:
    """Whether the other part of a split argument is one cell per distinct
    value, else one per other cell: a float view's and a split view's made
    beside one are per cell."""
    return a.by_value if type(a) is _SplitView else not (isinstance(a, RangeView) and a.kind is float)


def _per_cell(part: Partition, other_args, per_value, coerce=None):
    """The other parts of _split_args, one cell per other cell: each per
    value part taken through the codes, after *coerce* per value."""
    return [
        vector(map((a.cells if coerce is None else tuple(map(coerce, a.cells))).__getitem__, part.codes))
        if v and isinstance(a, RangeView) else a
        for a, v in zip(other_args, per_value)
    ]


def _split_cells(col, part: Partition, fn, args, kernel) -> _SplitView:
    """_map_cells over the column *col* split by *part*, its result kept
    split. Each view argument shows the column, is split over it or is a
    float view of its length (_split_partition). On the float part *kernel*
    runs when it takes the cells, unless a fold gives the part whole or
    arguments that are each one value give one value; on the other part
    *fn* runs once per distinct value when every argument's other part is
    per value, otherwise per cell (by *kernel* when it takes them)."""
    float_args, other_args, per_value = _split_args(part, args)
    floats = _float_part(fn, float_args, kernel)
    by_value = all(per_value)
    if not by_value:
        # beside an operand of floats, arithmetic's result on a cell is the
        # other operand's coercion when that fails, so per value parts are
        # coerced once per distinct value
        arith = fn in _ARITH_OPS and sum(not _all_floats(a) for a in other_args) <= 1
        other_args = _per_cell(part, other_args, per_value, coerce_number if arith else None)
    others, _ = _map_cells(fn, other_args, None if by_value else kernel)
    first = next(a for a in args if isinstance(a, RangeView))
    return _SplitView(first.rows, first.cols, col, part, floats, others, by_value)


def _float_part(fn, args, kernel):
    """The float part of a split result: *fn* over the float parts of the
    arguments as a view, by *kernel* when it takes them; what *kernel*'s
    fold gives; or the one value of every cell, when each argument is one
    value."""
    views = [a for a in args if isinstance(a, RangeView)]
    if not views:
        return fn(*args)
    one = kernel.fold(*args) if kernel is not None and kernel.fold is not None else None
    if one is not None:
        return one
    cells, kind = _map_cells(fn, args, kernel)
    return RangeView(len(views[0]), 1, cells, kind=kind)


# the types a view's kind can name
_KINDS = {float, bool, str}


def _stream(a):
    """A view, which iterates its cells, or a scalar repeated."""
    return a if isinstance(a, RangeView) else repeat(a)


# The argument tests a kernel can state. A view passes when every cell does;
# a view's kind answers first, and otherwise a scan runs in C and stops at
# the first cell that fails.


def _all_floats(a) -> bool:
    if isinstance(a, RangeView):
        return a.kind is float or a.kind is None and all(map(operator.is_, map(type, a.cells), repeat(float)))
    return type(a) is float


def _no_errors(a) -> bool:
    if isinstance(a, RangeView):
        return a.kind is not None or ErrorKind not in map(type, a.cells)
    return type(a) is not ErrorKind


def _all_text(a) -> bool:
    if isinstance(a, RangeView):
        return a.kind is str or a.kind is None and all(map(operator.is_, map(type, a.cells), repeat(str)))
    return type(a) is str


def _any(a) -> bool:
    return True


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _arith(fn):
    def op(a, b):
        x = a if type(a) is float else coerce_number(a)
        if type(x) is ErrorKind:
            return _first_error((a, b), x)
        y = b if type(b) is float else coerce_number(b)
        if type(y) is ErrorKind:
            return y
        return fn(x, y)

    return op


def _finite(fn):
    def checked(x, y):
        z = fn(x, y)
        return z if math.isfinite(z) else ErrorKind.NUM

    return checked


def _div(x, y):
    if y == 0:
        return ErrorKind.DIV0
    return finite_or_error(x / y)


def _pow(x, y):
    if x == 0 and y <= 0:
        # Excel: 0^0 is #NUM!, zero to a negative power #DIV/0!
        return ErrorKind.NUM if y == 0 else ErrorKind.DIV0
    try:
        return finite_or_error(math.pow(x, y))
    except (ValueError, OverflowError):
        return ErrorKind.NUM


def _compare(op):
    def cmp(a, b):
        c = compare_values(a, b)
        if isinstance(c, ErrorKind):
            return c
        return op(c, 0)

    return cmp


_BINARY_OPS = {
    "+": _arith(_finite(operator.add)),
    "-": _arith(_finite(operator.sub)),
    "*": _arith(_finite(operator.mul)),
    "/": _arith(_div),
    "^": _arith(_pow),
    "&": _coerced(operator.add, coerce_text, coerce_text),
    **{op: _compare(fn) for op, fn in COMPARISONS.items()},
}
# the operators that coerce both operands with coerce_number first
_ARITH_OPS = frozenset(_BINARY_OPS[op] for op in "+-*/^")


# Number kernels: the binary operators over two streams of floats, giving
# the cells _BINARY_OPS would. On floats coerce_number is the identity and
# compare_values the plain comparison, so only the finite and zero-divisor
# checks remain.


def _finite_cells(cells: tuple) -> tuple:
    if all(map(math.isfinite, cells)):
        return cells, float
    return tuple(x if math.isfinite(x) else ErrorKind.NUM for x in cells), None


def _arith_kernel(op) -> Kernel:
    return Kernel(_all_floats, lambda xs, ys: _finite_cells(tuple(map(op, xs, ys))))


def _div_kernel(xs, ys):
    try:
        return _finite_cells(tuple(map(operator.truediv, xs, ys)))
    except ZeroDivisionError:
        pass
    # #DIV/0! at the zero divisors, of either sign, and the quotient
    # elsewhere: 1.0 stands in for each zero, which leaves x finite. The
    # streams are views or repeat(), so they can be read again
    if isinstance(ys, repeat):
        return (ErrorKind.DIV0,) * len(xs), None
    divisors = list(ys)
    zeros = _positions(divisors, 0.0)
    for i in zeros:
        divisors[i] = 1.0
    cells = list(_finite_cells(tuple(map(operator.truediv, xs, divisors)))[0])
    for i in zeros:
        cells[i] = ErrorKind.DIV0
    return tuple(cells), None


def _positions(cells, value) -> list[int]:
    """The positions of the cells equal to *value*, by index scans in C."""
    found = []
    i = -1
    for _ in range(cells.count(value)):
        i = cells.index(value, i + 1)
        found.append(i)
    return found


def _compare_kernel(op) -> Kernel:
    return Kernel(_all_floats, lambda xs, ys: (tuple(map(op, xs, ys)), bool))


def _concat_kernel(xs, ys):
    if isinstance(ys, repeat) and coerce_text(next(ys)) == "":
        return tuple(_texts(xs)), str  # x&"", the text of x
    return tuple(map(operator.add, _texts(xs), _texts(ys))), str


def _texts(stream):
    """coerce_text over an error-free stream: text cells, all of them."""
    if isinstance(stream, repeat):
        # a scalar argument: coerce it once
        return repeat(coerce_text(next(stream)))
    if stream.kind is str:
        return stream.cells
    if stream.kind is float:
        # number_to_text in C: adding 0.0 makes -0.0 0.0, and repr ends an
        # integral float below 1e16, and no other, in ".0"
        return map(str.removesuffix, map(repr, map(operator.add, stream.cells, repeat(0.0))), repeat(".0"))
    return map(coerce_text, stream)


# the kernel of each binary operator that has one: the number kernels over
# floats, & over cells without errors
_BINARY_KERNELS = {
    "+": _arith_kernel(operator.add),
    "-": _arith_kernel(operator.sub),
    "*": _arith_kernel(operator.mul),
    "/": Kernel(_all_floats, _div_kernel),
    **{op: _compare_kernel(fn) for op, fn in COMPARISONS.items()},
    "&": Kernel(_no_errors, _concat_kernel),
}


# The emptiness test: a blank equals "" and has no length, and the text of a
# number or a logical is never empty, so each form gives x's error or
# whether x is blank or "", and x&"" or ""&x can be tested as x.

_EMPTY_TEXT = TextLit("")
_ZERO = NumberLit(0.0)


def _emptiness_operand(expr: Binary) -> Expr | None:
    """x, when the = node *expr* is an emptiness test of x, else None."""
    left, right = expr.left, expr.right
    if right == _EMPTY_TEXT:
        x = left
    elif left == _EMPTY_TEXT:
        x = right
    elif right == _ZERO and _is_len(left):
        x = left.args[0]
    elif left == _ZERO and _is_len(right):
        x = right.args[0]
    else:
        return None
    while type(x) is Binary and x.op == "&" and _EMPTY_TEXT in (x.left, x.right):
        x = x.left if x.right == _EMPTY_TEXT else x.right
    return x


def _is_len(expr: Expr) -> bool:
    return type(expr) is Call and expr.func == "LEN" and len(expr.args) == 1


def _fn_is_empty(c):
    return c if type(c) is ErrorKind else c in ("", None)


def _is_empty_fold(cs):
    # by type rank a number or a logical is never empty
    return False if cs.kind is float or cs.kind is bool else None


def _is_empty_kernel(cs):
    if _is_empty_fold(cs) is None:
        return tuple(map(("", None).__contains__, cs.cells)), bool
    return (False,) * len(cs), bool


_IS_EMPTY_KERNEL = Kernel(_no_errors, _is_empty_kernel, _is_empty_fold)


_UNARY_OPS = {
    "-": _coerced(operator.neg, coerce_number),
    "+": coerce_number,
    "%": _coerced(lambda x: x / 100.0, coerce_number),
}


# ---------------------------------------------------------------------------
# The three lookup/position primitives
# ---------------------------------------------------------------------------


def match_position(lookup: Value, vec, match_type: int) -> Value:
    """Position of *lookup* in a vector, 1-based.

    match_type 0: first cell equal to lookup (text case-insensitive),
    else NA. match_type 1: the vector is taken as ascending; position of
    the largest value <= lookup, NA if every value is greater.
    match_type -1: descending; position of the smallest value >= lookup,
    NA if every value is smaller. On unsorted input the +-1 scans return
    whatever the sorted assumption yields; never a crash. One scan finds
    the first cell = lookup (type 0), > it (1) or < it (-1), by the
    comparison's float form over floats and else its per-cell form, which
    is never TRUE for an error cell; types 1 and -1 back off over error
    cells just before the stop, so error cells are skipped.
    """
    view = _as_view(vec)
    if not view.is_vector:
        return ErrorKind.VALUE
    if isinstance(lookup, ErrorKind):
        return lookup

    exact = match_type == 0
    op = "=" if exact else ">" if match_type > 0 else "<"
    stop = COMPARISONS[op] if type(lookup) is float and _all_floats(view) else _BINARY_OPS[op]
    cells = view.cells
    try:
        i = operator.indexOf(map(stop, cells, repeat(lookup)), True)
    except ValueError:  # no cell stops the scan
        i = None if exact else len(cells)
    if exact:
        return ErrorKind.NA if i is None else i + 1
    while i and type(cells[i - 1]) is ErrorKind:
        i -= 1
    return i or ErrorKind.NA


def index_select(source, row: int, col: int | None = None) -> Value:
    """Pick one cell from a view: vector form by position, matrix form by
    (row, col). Out-of-bounds or non-positive indexes give REF; a matrix
    without a column gives VALUE."""
    view = _as_view(source)
    if col is None:
        if not view.is_vector:
            return ErrorKind.VALUE
        if row < 1 or row > len(view):
            return ErrorKind.REF
        return view.element(row)
    if row < 1 or col < 1 or row > view.rows or col > view.cols:
        return ErrorKind.REF
    return view.at(row, col)


def search_position(needle: str, haystack: str, start: int = 1) -> Value:
    """1-based position of the first case-insensitive occurrence of
    *needle* at or after *start*; VALUE if absent or start out of range."""
    if start < 1 or start > max(1, len(haystack)):
        return ErrorKind.VALUE
    pos = haystack.lower().find(needle.lower(), start - 1)
    if pos < 0:
        return ErrorKind.VALUE
    return float(pos + 1)


def _as_view(v) -> RangeView:
    return v if isinstance(v, RangeView) else RangeView(1, 1, (v,))


# ---------------------------------------------------------------------------
# Elementwise functions
# ---------------------------------------------------------------------------


_fn_len = _coerced(lambda s: float(len(s)), coerce_text)


def _len_kernel(ts):
    return tuple(map(float, map(len, ts))), float


def _floored(v):
    """A number argument read as a count or a position: floored to an int."""
    x = coerce_number(v)
    return x if type(x) is ErrorKind else math.floor(x)


def _count_arg(v, *, minimum=0):
    """The count a number argument gives: _floored, #VALUE! when that is
    below *minimum*."""
    k = _floored(v)
    return k if type(k) is ErrorKind or k >= minimum else ErrorKind.VALUE


_ordinal_arg = functools.partial(_count_arg, minimum=1)


def _substitute(s, old, new, k=None):
    """s with the k-th occurrence of old replaced by new, or every one when
    k is left out; s itself when old is ""."""
    if old == "":
        return s
    if k is None:
        return s.replace(old, new)
    pos = -1
    for _ in range(k):
        pos = s.find(old, pos + 1)
        if pos < 0:
            return s
    return s[:pos] + new + s[pos + len(old):]


def _round(v, digits=0.0):
    places = int(digits)
    # the shortest decimal that reads back as v: the 15 digits Excel shows
    # wherever those read back as v, more only when they cannot (1e15+0.5)
    exact = Decimal(repr(v))
    if exact.as_tuple().exponent >= -places:
        return v  # no digit past the place to round (also for any larger d)
    if places < -308:
        return 0.0  # the place is above every float: 10**-d overflows
    # half away from zero; its digits are at most v's 17, plus a carry
    rounded = exact.quantize(Decimal((0, (1,), -places)), context=_ROUND_CONTEXT)
    return finite_or_error(float(rounded))


_ROUND_CONTEXT = Context(prec=40, rounding=ROUND_HALF_UP)

_fn_left = _coerced(lambda s, k=1: s[:k], coerce_text, _count_arg)
_fn_right = _coerced(lambda s, k=1: s[len(s) - min(k, len(s)):], coerce_text, _count_arg)
_fn_search = _coerced(search_position, coerce_text, coerce_text, _ordinal_arg)
_fn_substitute = _coerced(_substitute, coerce_text, coerce_text, coerce_text, _ordinal_arg)
_fn_int = _coerced(lambda x: float(math.floor(x)), coerce_number)
_fn_round = _coerced(_round, coerce_number, coerce_number)
_fn_not = _coerced(operator.not_, coerce_logical)


def _fn_iserror(v):
    return isinstance(v, ErrorKind)


def _iserror_kernel(vs):
    return tuple(map(operator.is_, map(type, vs), repeat(ErrorKind))), bool


def _iserror_fold(vs):
    # a view of one kind holds no error
    return False if vs.kind is not None else None


def _fn_iferror(x, fallback):
    return fallback if isinstance(x, ErrorKind) else x


def _iferror_kernel(xs, fallbacks):
    """IFERROR over whole streams: each (x, fallback) pair indexed in C by
    whether x is an error; x's own view when its kind rules errors out."""
    if isinstance(xs, RangeView) and xs.kind is not None:
        return xs.cells, xs.kind
    return _select(map(operator.is_, map(type, xs), repeat(ErrorKind)), xs, fallbacks), None


def _select(mask, when_false, when_true) -> tuple:
    """when_true's cell where *mask* holds True (or 1), when_false's where it
    holds False (or 0), each pair indexed in C. Either stream may be a
    repeat(); the mask sets the length."""
    return tuple(map(operator.getitem, zip(when_false, when_true), mask))


# ---------------------------------------------------------------------------
# IF
# ---------------------------------------------------------------------------


def _fn_if(args: tuple[Expr, ...], st: _EvalState):
    """IF; over a vector condition, evaluated before both branches (each as
    _branch reads it), a _MaskedIf of them when _masked_parts takes them,
    else _if_value's."""
    cond = _eval(args[0], st)
    if st.scalar:
        cond = _scalarize(cond, st)

    if isinstance(cond, RangeView):
        then_v = _branch(_eval(args[1], st), cond)
        else_v = _branch(_eval(args[2], st), cond) if len(args) > 2 else False
        parts = _masked_parts(cond, then_v, else_v)
        if parts is not None:
            return _MaskedIf(cond, then_v, else_v, *parts, st.ctx.table)
        return _if_value(cond, then_v, else_v, st.ctx.table)

    c = coerce_logical(cond)
    if isinstance(c, ErrorKind):
        return c
    if c:
        return _eval(args[1], st)
    if len(args) > 2:
        return _eval(args[2], st)
    return False


def _branch(branch, cond: RangeView):
    """An IF branch as the lift reads it beside a vector condition: a view
    of the condition's size by position, in the condition's shape; any
    other view VALUE."""
    if not isinstance(branch, RangeView):
        return branch
    if len(branch) != len(cond):
        return ErrorKind.VALUE
    if (branch.rows, branch.cols) == (cond.rows, cond.cols):
        return branch
    return RangeView(cond.rows, cond.cols, branch.cells, kind=branch.kind)


def _if_value(cond: RangeView, then_v, else_v, table: Table) -> RangeView:
    """IF's cells over a vector condition, from its branches as _branch
    gives them: _if_cell lifted, so a column of *table* read whole splits
    as under any elementwise node."""
    return _lift_array(_if_cell, (cond, then_v, else_v), table, _IF_KERNEL)


def _if_cell(c, then_cell, else_cell):
    b = coerce_logical(c)
    if isinstance(b, ErrorKind):
        return b
    return then_cell if b else else_cell


def _if_kernel(cs, thens, elses):
    """IF over whole streams: over a condition of logicals (or the number 1
    or 0, which IF reads the same way) each pair of branch cells indexed in
    C, floats when both branches give floats; else _if_cell per cell, the
    condition perhaps one value repeated."""
    if isinstance(cs, RangeView) and (cs.kind is bool or cs.cells.count(True) + cs.cells.count(False) == len(cs)):
        cells = _select(cs.cells if cs.kind is bool else map(operator.truth, cs.cells), elses, thens)
        return cells, float if _float_branch(thens) and _float_branch(elses) else None
    return tuple((t if c else e) if type(c) is bool else _if_cell(c, t, e) for c, t, e in zip(cs, thens, elses)), None


def _if_fold(c, then_v, else_v):
    # a condition that is one value takes one branch, as it is; a blank
    # branch folds to None, which is no fold, and the kernel then runs over
    # the condition repeated
    return None if isinstance(c, RangeView) else _if_cell(c, then_v, else_v)


_IF_KERNEL = Kernel(_any, _if_kernel, _if_fold)


def _float_branch(branch) -> bool:
    """Whether an IF branch as _branch gives it (a value or a view of the
    condition's size), or a value's repeat(), is floats at every position."""
    if isinstance(branch, RangeView):
        return branch.kind is float
    return type(next(branch) if type(branch) is repeat else branch) is float


class _MaskedIf(_UnbuiltView):
    """A vector IF that SUM adds up without building its cells: *floats*,
    the floats of the branch that is not the number 0, and *takes*, each
    IF's condition, from this one in, with whether TRUE takes that branch
    (_masked_parts). Its cells, all floats, are its *value*'s, _if_value's
    over *table*."""

    def __init__(self, cond: RangeView, then_v, else_v, floats, takes: list, table: Table):
        kept = dict(cond=cond, then_v=then_v, else_v=else_v, floats=floats, takes=takes, table=table)
        super().__init__(cond.rows, cond.cols, float, **kept)

    @functools.cached_property
    def value(self) -> RangeView:
        return _if_value(self.cond, self.then_v, self.else_v, self.table)

    def _build(self):
        return self.value.cells


def _unmasked(v):
    """*v*, or a _MaskedIf's value, for a node that reads cells, not masks:
    over a split condition it is a _SplitView, which that node splits."""
    return v.value if type(v) is _MaskedIf else v


def _masked_parts(cond: RangeView, then_v, else_v):
    """(floats, takes) for a _MaskedIf, or None, from kinds and sizes alone:
    a condition of logicals, one branch the number 0 and the other floats
    (_branch sized it) or a _MaskedIf, whose takes follow this IF's. A split
    condition that is one value on the floats is left to the lift, whose
    fold takes the branch there as it is."""
    if cond.kind is not bool or type(cond) is _SplitView and not isinstance(cond.floats, RangeView):
        return None
    if type(else_v) is float and else_v == 0:
        branch, take = then_v, (cond, True)
    elif type(then_v) is float and then_v == 0:
        branch, take = else_v, (cond, False)
    else:
        return None
    if type(branch) is _MaskedIf:
        return branch.floats, [take, *branch.takes]
    return (_stream(branch), [take]) if _float_branch(branch) else None


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------


def _iter_cells(args):
    return chain.from_iterable(a.cells if isinstance(a, RangeView) else (a,) for a in args)


def _masked_numbers(v: _MaskedIf) -> compress:
    """The floats SUM adds for a _MaskedIf: its branch's where every IF
    takes them. A left-to-right float sum that starts at +0.0 is never
    -0.0, so adding a zero of either sign changes nothing and the zero
    cells need not be made."""
    mask, *inner = (cond.cells if on_true else bytes(cond.cells).translate(FLIP) for cond, on_true in v.takes)
    if not inner:
        return compress(v.floats, mask)
    # the floats where the inner IFs take them (a number's are all one),
    # and this IF's mask there
    taken = functools.reduce(_and, inner)
    floats = v.floats if type(v.floats) is repeat else compress(v.floats, taken)
    return compress(floats, compress(mask, taken))


def _and(a, b) -> bytes:
    return bytes(map(operator.and_, a, b))


def _fn_sum(args, st):
    # explicit left-to-right adds: sum() on floats is compensated from
    # Python 3.12 on and would change the last bits
    total = 0.0
    for v in args:
        if type(v) is _SplitView:
            split_total = _split_total(v, total)
            if split_total is not None:
                total = split_total
                continue
        if type(v) is _MaskedIf:
            numbers = _masked_numbers(v)
        elif isinstance(v, RangeView) and v.kind is not None:
            numbers = v.cells if v.kind is float else ()  # logical and text cells add nothing
        else:
            numbers = _numbers(v.cells if isinstance(v, RangeView) else (v,))
            if type(numbers) is ErrorKind:
                return numbers
        total = functools.reduce(operator.add, numbers, total)
    return finite_or_error(total)


# the types SUM skips in a range
_SKIPPED = frozenset((bool, str, type(None)))


def _split_total(v: _SplitView, total: float) -> float | None:
    """*total* plus the numbers of a split view, added part by part: the
    float part's one value times the float cells, then each distinct
    value's result times its number of cells. That is the left-to-right
    sum in column order when *total* and every number are integral and
    their magnitudes add up to less than 2**53, so that every partial sum
    in either order is exact: COUNT's and COUNTA's 1s and 0s. Otherwise,
    or with an error among the cells, None."""
    if not v.by_value or isinstance(v.floats, RangeView):
        return None
    terms = [(x, n) for x, n in zip((v.floats, *v.others), (len(v.part.floats), *v.part.counts)) if n]
    numbers = [(x, n) for x, n in terms if type(x) not in _SKIPPED]
    if not (total.is_integer() and all(type(x) is float and x.is_integer() for x, _ in numbers)):
        return None
    if functools.reduce(operator.add, (abs(x) * n for x, n in numbers), abs(total)) >= 2.0**53:
        return None
    return functools.reduce(operator.add, (x * n for x, n in numbers), total)


def _numbers(cells):
    """The numbers among *cells*, in order and to be read once, or the first
    error cell; logical, text and blank cells are skipped. Each pass over
    the cells runs in C."""
    cells = tuple(cells)
    types = tuple(map(type, cells))
    present = set(types)
    if ErrorKind in present:
        return cells[types.index(ErrorKind)]
    numeric = {t for t in present if issubclass(t, (int, float)) and t is not bool}
    return compress(cells, map(numeric.__contains__, types))


def _fn_average(args, st):
    # the same left-to-right adds as SUM
    numbers = _numbers(_iter_cells(args))
    if type(numbers) is ErrorKind:
        return numbers
    numbers = list(numbers)
    if not numbers:
        return ErrorKind.DIV0
    return finite_or_error(functools.reduce(operator.add, numbers, 0.0) / len(numbers))


def _fn_minmax(pick):
    def fn(args, st):
        numbers = _numbers(_iter_cells(args))
        # min and max keep the first of equal values: MIN(0,-0) is 0
        return numbers if type(numbers) is ErrorKind else float(pick(numbers, default=0.0))

    return fn


def _fn_bool_agg(identity, short_circuit):
    """AND or OR over the cells of its arguments in order, the blanks and a
    range's text skipped: the first error or text, else the logicals
    combined, #VALUE! when there are none."""

    def fn(args, st):
        acc = identity
        seen = False
        for a in args:
            in_range = isinstance(a, RangeView)
            for v in a.cells if in_range else (a,):
                if isinstance(v, ErrorKind):
                    return v
                if v is None or in_range and type(v) is str:
                    continue
                b = coerce_logical(v)
                if isinstance(b, ErrorKind):
                    return b
                seen = True
                if b == short_circuit:
                    acc = short_circuit
        if not seen:
            return ErrorKind.VALUE
        return acc

    return fn


def _range(v):
    """A range argument read whole: a view, or one value as a one-cell
    view. An error value fails to read, as it does under _range_numbers."""
    return v if type(v) is ErrorKind else _as_view(v)


def _range_numbers(v):
    """A range argument read as its numbers, or its first error cell."""
    return _numbers(_as_view(v).cells)


def _fn_small_large(reverse):
    def kth(numbers, k: int):
        ordered = sorted(numbers, reverse=reverse)
        return float(ordered[k - 1]) if 1 <= k <= len(ordered) else ErrorKind.NUM

    return _evaluated(kth, _range_numbers, _floored)


def _fn_count(args, st):
    # error cells are ignored, not propagated: the SUM(IF(ISERROR(r+0),...))
    # replacement swallows them the same way
    types = Counter(map(type, _iter_cells(args)))
    return float(sum(n for t, n in types.items() if issubclass(t, (int, float)) and t is not bool))


def _fn_counta(args, st):
    types = Counter(map(type, _iter_cells(args)))
    if ErrorKind in types:
        return next(v for v in _iter_cells(args) if type(v) is ErrorKind)
    return float(types.total() - types[type(None)])


def _scalar_arg(v, st: _EvalState):
    """Collapse an argument that must be a single value."""
    if isinstance(v, RangeView):
        if st.scalar:
            return _scalarize(v, st)
        if len(v) == 1:
            return v.cells[0]
        return ErrorKind.VALUE
    return v


def _criteria_arg(v, st: _EvalState) -> Criteria | ErrorKind:
    c = _scalar_arg(v, st)
    if isinstance(c, ErrorKind):
        return c
    return criteria_from_value(c)


def _criteria_reduce(sums, pair_args, st):
    """The one loop behind COUNTIF(S), SUMIF(S) and AVERAGEIF: over
    (range, criteria) argument pairs and a sum range, return (rows
    matched, sum of the numbers in *sums* on those rows) or the first
    error met. With *sums* None it only counts, and the sum is 0.0.

    Each criteria argument is read before its range's size is checked,
    pair by pair, then the sum range's size. A criteria is its comparison
    operator between each cell of the range and the operand, run as the
    operator runs, kernel and split and all. The error returned is the
    first in row order among the criteria results and the sum cells of
    matched rows; an error on a row that an earlier criteria missed, or in
    the sum cell of a row not matched, is ignored.
    """
    pairs = []
    for j in range(0, len(pair_args), 2):
        view = _as_view(pair_args[j])
        crit = _criteria_arg(pair_args[j + 1], st)
        if isinstance(crit, ErrorKind):
            return crit
        if pairs and len(view) != len(pairs[0][0]):
            return ErrorKind.VALUE
        pairs.append((view, crit))
    if sums is not None and len(sums) != len(pairs[0][0]):
        return ErrorKind.VALUE

    # each criteria is compared only on the rows every earlier one matched,
    # before the first error so far: a row's first result that is not TRUE
    # decides it. The rows left stay in row order, so an error found later
    # lies before the one it replaces. Only the first range can be a whole
    # column, which splits as it would under the operator
    masks = []
    error = None
    for view, crit in pairs:
        if masks:
            cells = tuple(_kept(view.cells, masks))
            view = RangeView(len(cells), 1, cells, kind=view.kind)
        compared = _lift_array(_BINARY_OPS[crit.op], (view, crit.operand), st.ctx.table, _BINARY_KERNELS[crit.op])
        hits = compared.cells
        types = () if compared.kind is bool else tuple(map(type, hits))
        if ErrorKind in types:
            stop = types.index(ErrorKind)
            error, hits = hits[stop], hits[:stop]
        masks.append(hits)
    total = 0.0
    if sums is not None:
        # the matched sum cells before the first error, in row order
        cells = _kept(sums.cells, masks)
        numbers = cells if sums.kind is float else _numbers(cells)
        if type(numbers) is ErrorKind:
            return numbers
        total = functools.reduce(operator.add, numbers, 0.0)
    return error if error is not None else (masks[-1].count(True), total)


def _kept(cells, masks):
    """The cells that every mask in turn keeps, in order."""
    for mask in masks:
        cells = compress(cells, mask)
    return cells


def _fn_criteria(name):
    def fn(args, st):
        shape = criteria_args(name, args)
        if shape is None:
            return ErrorKind.VALUE
        sums, pair_args = shape
        reduced = _criteria_reduce(None if sums is None else _as_view(sums), pair_args, st)
        if isinstance(reduced, ErrorKind):
            return reduced
        matched, total = reduced
        if name == "AVERAGEIF":
            return finite_or_error(total / matched) if matched else ErrorKind.DIV0
        return float(matched) if sums is None else finite_or_error(total)

    return fn


def _evaluated(body, *readers):
    """An "evaluated" function: *body* over its arguments read in order by
    *readers*, under the one error rule (_coerced). An argument whose reader
    takes a range (_range, _range_numbers) reaches it as it is, a view to
    read whole or one value, and an error value there is an error argument;
    any other is first collapsed (_scalar_arg)."""
    whole = [i for i, read in enumerate(readers) if read in (_range, _range_numbers)]
    read = _coerced(body, *readers)

    def fn(args, st):
        for i, a in enumerate(args):
            # in _call's own list: a view where one value is read
            if isinstance(a, RangeView) and i not in whole:
                args[i] = _scalar_arg(a, st)
        return read(*args)

    return fn


def _as_is(v):
    """A lookup value, read as it is."""
    return v


def _match(lookup, view: RangeView, match_type: float = 1.0):
    pos = match_position(lookup, view, (match_type > 0) - (match_type < 0))
    return float(pos) if type(pos) is int else pos


def _fn_lookup(by_row: bool):
    """VLOOKUP (*by_row*) or HLOOKUP: the k-th cell of the row (column)
    whose first cell MATCH finds."""

    def body(lookup, view: RangeView, k: int, approx: bool = True):
        if k < 1 or k > (view.cols if by_row else view.rows):
            return ErrorKind.REF
        key = view.column(1) if by_row else view.row(1)
        pos = match_position(lookup, key, 1 if approx else 0)
        if isinstance(pos, ErrorKind):
            return pos
        return view.at(pos, k) if by_row else view.at(k, pos)

    return _evaluated(body, _as_is, _range, _floored, coerce_logical)


# ---------------------------------------------------------------------------
# Functions over unevaluated arguments: OFFSET / ROW / COLUMN / RAND
# ---------------------------------------------------------------------------


def _ref_rect(ref: Expr, table: Table):
    """(row, col, rows, cols) of a reference argument; #REF! when it
    starts before row or column 1, or reaches past the sheet's last row or
    column and the table's too."""
    if isinstance(ref, (CellRef, RangeRef)):
        start, end = (ref, ref) if isinstance(ref, CellRef) else (ref.start, ref.end)
        if min(start.row, start.col) < 1:
            return ErrorKind.REF
        if end.row > max(MAX_ROWS, table.row_count) or end.col > max(MAX_COLUMNS, table.column_count):
            return ErrorKind.REF
        return start.row, start.col, end.row - start.row + 1, end.col - start.col + 1
    if isinstance(ref, NameRef):
        idx = table.column_index(ref.name)
        if idx is None:
            return ErrorKind.NAME
        return 1, idx, table.row_count, 1
    return ErrorKind.VALUE


# OFFSET's rows and columns to move, and the height and width it may give
_offset_moves = _coerced(lambda *moves: moves, _floored, _floored, _floored, _floored)


def _fn_offset(args: tuple[Expr, ...], st: _EvalState):
    rect = _ref_rect(args[0], st.ctx.table)
    if isinstance(rect, ErrorKind):
        return rect
    row, col, height, width = rect
    moves = _offset_moves(*[_scalar_arg(_eval(a, st), st) for a in args[1:]])
    if type(moves) is ErrorKind:
        return moves
    # a height or width left out is the reference's
    dr, dc, height, width = moves + (height, width)[len(moves) - 2:]
    row += dr
    col += dc
    if min(row, col, height, width) < 1:
        return ErrorKind.REF
    start = CellRef(index_to_col_letters(col), row)
    end = CellRef(index_to_col_letters(col + width - 1), row + height - 1)
    view = resolve(st.ctx.table, RangeRef(start, end))
    return view.cells[0] if isinstance(view, RangeView) and len(view) == 1 else view


def _fn_row(args: tuple[Expr, ...], st: _EvalState):
    if not args:
        if st.scalar:
            # a row before the first is #REF!, as for a vector operand there
            row = st.ctx.current_row
            return ErrorKind.VALUE if row is None else ErrorKind.REF if row < 1 else float(row)
        n = st.ctx.table.row_count
        return RangeView(n, 1, tuple(float(i) for i in range(1, n + 1)))
    rect = _ref_rect(args[0], st.ctx.table)
    if isinstance(rect, ErrorKind):
        return rect
    row, _col, height, _width = rect
    if height == 1:
        return float(row)
    return RangeView(height, 1, tuple(float(r) for r in range(row, row + height)))


def _fn_column(args: tuple[Expr, ...], st: _EvalState):
    if not args:
        return ErrorKind.VALUE  # no ambient cell to take a column from
    rect = _ref_rect(args[0], st.ctx.table)
    if isinstance(rect, ErrorKind):
        return rect
    _row, col, _height, width = rect
    if width == 1:
        return float(col)
    return RangeView(1, width, tuple(float(c) for c in range(col, col + width)))


def _fn_rand(args: tuple[Expr, ...], st: _EvalState):
    return st.rng.random()


# ---------------------------------------------------------------------------
# Function catalog: one spec per function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """Everything the engine knows about one function.

    group       "core" | "extended" | "baseline"; baselines are consumed by
                the linter/rewriter, never emitted by it
    call        how _call invokes impl:
                  "elementwise"  impl(*cells), lifted over the evaluated
                                 arguments; impl itself returns its
                                 first error argument, ahead of a failed
                                 coercion (ISERROR and IFERROR read
                                 errors as values); a kernel, if any,
                                 does the same over whole ranges
                  "evaluated"    impl(evaluated arguments, state), read
                                 by the one rule (_evaluated) but in the
                                 aggregators and the criteria baselines
                  "raw"          impl(unevaluated Expr arguments, state)
    shape       the result shape competency's static guess reads: "scalar"
                whatever the arguments, "lifted" (a vector when an argument
                is one), or "range" (a vector when an argument is a range)
    competency  the competency item id a call demonstrates, if any
    """

    name: str
    min_args: int
    max_args: int | None  # None = unbounded
    group: str
    call: str
    impl: Callable
    kernel: Kernel | None
    shape: str
    competency: str | None

    def takes(self, n: int) -> bool:
        """Whether *n* arguments fit the arity; a call with any other
        number is a VALUE error."""
        return self.min_args <= n and (self.max_args is None or n <= self.max_args)


def _spec(name, lo, hi, group, call, impl, *, kernel=None, shape=None, competency=None):
    # functions over evaluated arguments (aggregators, lookups) give one value
    shape = shape or ("scalar" if call == "evaluated" else "lifted")
    return FunctionSpec(name, lo, hi, group, call, impl, kernel, shape, competency)


# the two competency items a call can demonstrate
_NON_ARRAY = "non-array-functions"
_ARRAY_COND = "array-error-condition-functions"

FUNCTION_SPECS: dict[str, FunctionSpec] = {
    spec.name: spec
    for spec in (
        # core: text and math
        _spec(
            "LEN", 1, 1, "core", "elementwise", _fn_len,
            kernel=Kernel(_all_text, _len_kernel), competency=_NON_ARRAY,
        ),
        _spec("LEFT", 1, 2, "core", "elementwise", _fn_left, competency=_NON_ARRAY),
        _spec("RIGHT", 1, 2, "core", "elementwise", _fn_right, competency=_NON_ARRAY),
        _spec("SEARCH", 2, 3, "core", "elementwise", _fn_search, competency=_NON_ARRAY),
        _spec("SUM", 1, None, "core", "evaluated", _fn_sum, competency=_NON_ARRAY),
        _spec("AVERAGE", 1, None, "core", "evaluated", _fn_average, competency=_NON_ARRAY),
        _spec("MIN", 1, None, "core", "evaluated", _fn_minmax(min), competency=_NON_ARRAY),
        _spec("MAX", 1, None, "core", "evaluated", _fn_minmax(max), competency=_NON_ARRAY),
        # core: conditional, array and error
        _spec("IF", 2, 3, "core", "raw", _fn_if, competency=_ARRAY_COND),
        _spec(
            "MATCH", 2, 3, "core", "evaluated", _evaluated(_match, _as_is, _range, coerce_number),
            competency=_ARRAY_COND,
        ),
        _spec(
            "INDEX", 2, 3, "core", "evaluated", _evaluated(index_select, _range, _floored, _floored),
            competency=_ARRAY_COND,
        ),
        _spec(
            "ISERROR", 1, 1, "core", "elementwise", _fn_iserror,
            kernel=Kernel(_any, _iserror_kernel, _iserror_fold), competency=_ARRAY_COND,
        ),
        # extended
        _spec("SUBSTITUTE", 3, 4, "extended", "elementwise", _fn_substitute, competency=_NON_ARRAY),
        _spec("SMALL", 2, 2, "extended", "evaluated", _fn_small_large(False), competency=_NON_ARRAY),
        _spec("LARGE", 2, 2, "extended", "evaluated", _fn_small_large(True), competency=_NON_ARRAY),
        _spec("AND", 1, None, "extended", "evaluated", _fn_bool_agg(True, False), competency=_ARRAY_COND),
        _spec("OR", 1, None, "extended", "evaluated", _fn_bool_agg(False, True), competency=_ARRAY_COND),
        _spec("NOT", 1, 1, "extended", "elementwise", _fn_not, competency=_ARRAY_COND),
        _spec("INT", 1, 1, "extended", "elementwise", _fn_int, competency=_NON_ARRAY),
        _spec("ROUND", 1, 2, "extended", "elementwise", _fn_round, competency=_NON_ARRAY),
        _spec("RAND", 0, 0, "extended", "raw", _fn_rand, shape="scalar"),
        _spec("OFFSET", 3, 5, "extended", "raw", _fn_offset, shape="scalar", competency=_ARRAY_COND),
        _spec("ROW", 0, 1, "extended", "raw", _fn_row, shape="range"),
        _spec("COLUMN", 0, 1, "extended", "raw", _fn_column, shape="range"),
        # problem-specific baselines
        _spec("COUNT", 1, None, "baseline", "evaluated", _fn_count),
        _spec("COUNTA", 1, None, "baseline", "evaluated", _fn_counta),
        _spec("COUNTIF", 2, 2, "baseline", "evaluated", _fn_criteria("COUNTIF")),
        _spec("COUNTIFS", 2, None, "baseline", "evaluated", _fn_criteria("COUNTIFS")),
        _spec("SUMIF", 2, 3, "baseline", "evaluated", _fn_criteria("SUMIF")),
        _spec("SUMIFS", 3, None, "baseline", "evaluated", _fn_criteria("SUMIFS")),
        _spec("AVERAGEIF", 2, 3, "baseline", "evaluated", _fn_criteria("AVERAGEIF")),
        _spec("VLOOKUP", 3, 4, "baseline", "evaluated", _fn_lookup(by_row=True)),
        _spec("HLOOKUP", 3, 4, "baseline", "evaluated", _fn_lookup(by_row=False)),
        _spec("IFERROR", 2, 2, "baseline", "elementwise", _fn_iferror, kernel=Kernel(_any, _iferror_kernel)),
    )
}


def _group(name: str) -> frozenset[str]:
    return frozenset(n for n, spec in FUNCTION_SPECS.items() if spec.group == name)


CORE_FUNCTIONS = _group("core")
EXTENDED_FUNCTIONS = _group("extended")
BASELINE_FUNCTIONS = _group("baseline")
SPREGO_FUNCTIONS = CORE_FUNCTIONS | EXTENDED_FUNCTIONS


# ---------------------------------------------------------------------------
# Precedents
# ---------------------------------------------------------------------------


def precedents(formula: Formula | Expr) -> list[Expr]:
    """The references syntactically present in a formula, deduplicated in
    first-appearance order. Range endpoints are not listed separately."""
    nodes = walk(formula.body if isinstance(formula, Formula) else formula)
    corners = {id(corner) for node in nodes if isinstance(node, RangeRef) for corner in children(node)}
    refs = (n for n in nodes if isinstance(n, (CellRef, RangeRef, NameRef)) and id(n) not in corners)
    return list(dict.fromkeys(refs))
