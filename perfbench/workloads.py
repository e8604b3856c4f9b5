"""The four workloads. Each runs in its own process, one thread, as a closed
loop with one caller: an operation starts when the previous one returned.

A run: build the inputs from the seed (not timed); set up several times; one
warm-up pass; then timed passes, each after ``gc.collect()``, until
``seconds`` have gone and at least ``MIN_PASSES`` passes are done. Every
pass's outputs are checked against ``oracles`` after the pass's clock stops.
The yardstick is timed right before each set-up and each pass (each
operation on the sheets), and the times that follow are scaled by it to
quiet-machine seconds; the end-to-end times are medians of the scaled times.

With tracing on, untraced and traced passes alternate; the layer figures
come from the spans of the traced ones, in this run's raw seconds, and the
ratio of the two median pass times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
import oracles as O
from spans import Tracer, median
from yardstick import Yardstick

now = time.perf_counter

MIN_PASSES = 2
RULE_TRIALS = 10  # datasets per schema in rule-check


def fresh_import(*names: str):
    """Drop every sprego module and import *names* again, so that module
    execution is paid on every set-up, as a new process pays it."""
    for mod in [m for m in sys.modules if m == "sprego" or m.startswith("sprego.")]:
        del sys.modules[mod]
    return [importlib.import_module(n) for n in names]


class Workload:
    name = ""
    modules = ("sprego",)  # what set-up imports
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self.layer: dict[str, float] = {}

    # subclasses fill these in
    def make_inputs(self) -> None: ...
    def setup_once(self) -> float: ...  # returns seconds spent outside import
    def verify_setup(self) -> None: ...
    # one_pass returns each operation's latency, its yardstick scale and its
    # result; scale() times the yardstick and returns the factor to
    # quiet-machine seconds, called before each operation or once per pass
    def one_pass(self, tracer: Tracer | None, scale) -> tuple[list[float], list[float], list]: ...
    def check(self, results: list) -> list[bool]: ...
    def patch(self, tracer: Tracer) -> None: ...
    def layer_metrics(self, tracer: Tracer, op_times: list[float]) -> None: ...

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    workload.make_inputs()
    fresh_import(*workload.modules)  # the first import also loads the stdlib modules sprego uses
    yard = Yardstick()
    setups = []  # each set-up in quiet-machine seconds
    for _ in range(workload.setup_reps):
        scale = yard.scale()
        gc.collect()
        t0 = now()
        fresh_import(*workload.modules)
        imported = now() - t0
        setups.append((imported + workload.setup_once()) * scale)
    workload.verify_setup()

    attempted = failed = 0
    plain_ops: list[list[float]] = []  # per timed pass, each operation's latency
    plain_scaled: list[list[float]] = []  # the same in quiet-machine seconds
    traced_scaled: list[list[float]] = []
    tracer = Tracer() if trace else None

    def one(measured: bool, traced: bool):
        nonlocal attempted, failed
        if traced:
            workload.patch(tracer)
        gc.collect()
        try:
            times, scales, results = workload.one_pass(tracer if traced else None, yard.scale)
        finally:
            if traced:
                tracer.restore()
        verdicts = workload.check(results)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if measured:
            scaled = [t * s for t, s in zip(times, scales)]
            if traced:
                traced_scaled.append(scaled)
            else:
                plain_ops.append(times)
                plain_scaled.append(scaled)

    one(measured=False, traced=False)  # warm-up
    start = now()
    k = 0
    while k < (2 if trace else MIN_PASSES) or now() - start < seconds:
        one(measured=True, traced=trace and k % 2 == 1)
        k += 1

    plain_s = statistics.median(map(sum, plain_scaled))
    if trace:
        layer = workload.layer
        layer["trace.overhead_pct"] = (statistics.median(map(sum, traced_scaled)) / plain_s - 1.0) * 100.0
        layer["trace.spans"] = float(len(tracer))
        layer["machine.yardstick_ms"] = min(yard.tries) * 1e3
        workload.layer_metrics(tracer, [t for times in plain_ops for t in times])
        tracer.write(workload.workdir / f"trace-{workload.name}-{workload.seed}.json")
        names = {name for name, _ in PER_LAYER}
        for name in sorted(set(layer) - names):
            workload.note(f"layer figure {name} is not in PER_LAYER")
        metrics = {name: (layer.get(name, 0.0), unit) for name, unit in PER_LAYER}
    else:
        # each operation's median over the passes, then the median over operations
        per_op = [statistics.median(tries) for tries in zip(*plain_scaled)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (plain_s, "s"),
            "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def percentile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


# ---------------------------------------------------------------------------
# The two sheet workloads
# ---------------------------------------------------------------------------


class _Sheet(Workload):
    setup_reps = 9
    sheet_rows = inputs.SHEET_ROWS

    def make_inputs(self):
        self.sheet = inputs.gen_sheet(self.seed, self.sheet_rows)
        self.formulas = inputs.sheet_formulas(self.sheet)
        self.rows = inputs.row_formulas(self.sheet)

    def setup_once(self):
        self.table = None
        from sprego import load_csv

        t0 = now()
        self.table = load_csv(self.sheet.csv, table_name="sheet")
        elapsed = now() - t0
        self.layer.setdefault("_loads", []).append(elapsed)
        return elapsed

    def verify_setup(self):
        import sprego

        self.sp = sprego
        t = self.table
        if t.headers != self.sheet.headers:
            self.note(f"headers {t.headers} != {self.sheet.headers}")
        for name, got, want in zip(t.headers, t.columns, self.sheet.columns):
            if len(got) != len(want) or any(type(a) is not type(b) or a != b for a, b in zip(got, want)):
                self.note(f"column {name} differs from the generated values")
        self.layer["table.load_csv_s"] = statistics.median(self.layer.pop("_loads"))
        self.layer["table.cells_loaded"] = float(t.row_count * t.column_count)

    def patch(self, tracer):
        tracer.patch(self.sp.formula, "tokenize", "formula.tokenize")
        tracer.patch(self.sp.evaluator, "resolve", "table.resolve")

    def _ctx(self, row=None):
        if row is None:
            return self.sp.EvalContext(self.table, mode="array")
        return self.sp.EvalContext(self.table, current_row=row, mode="scalar")

    def one_pass(self, tracer, scale):
        # an operation takes 5-200 ms, long enough to scale each one by the
        # yardstick timed right before it
        times, scales, results = [], [], []
        for span, text, row in self.work:
            scales.append(scale())
            t0 = now()
            try:
                r = self._op(tracer, span, text, row)
            except Exception as exc:  # check() counts it as a failed operation
                r = exc
            times.append(now() - t0)
            results.append(r)
        return times, scales, results

    def _op(self, tracer, span, text, row):
        """Formula text in, value out: parse, rewrite on the Sprego side,
        evaluate in array mode or, with a row, in scalar mode."""
        sp, ctx = self.sp, self._ctx(row)
        if tracer is None:
            parsed = sp.parse(text)
            if self.rewrites:
                parsed = sp.rewrite(parsed, self.table)[0]
            return sp.evaluate(parsed, ctx)

        def traced():
            parsed = tracer.call("formula.parse", sp.parse, text)
            if self.rewrites:
                parsed = tracer.call("rewrite.rewrite", sp.rewrite, parsed, self.table)[0]
            return tracer.call(span, sp.evaluate, parsed, ctx)

        return tracer.call("op", traced)


class SheetClassic(_Sheet):
    name = "sheet-classic"
    rewrites = False

    def make_inputs(self):
        super().make_inputs()
        self.work = [(f"evaluator.{f.case}.baseline", f.text, None) for f in self.formulas]
        self.work += [("evaluator.copydown_row", rf.text, row) for rf in self.rows for row in inputs.COPY_AT]

    def verify_setup(self):
        super().verify_setup()
        # copy-down and array entry agree by construction: hold each copied
        # row to the array-entered result as well as to the oracle
        self.arrays = [
            self.sp.evaluate(self.sp.parse("{" + rf.text + "}"), self._ctx()) for rf in self.rows
        ]
        for rf, arr in zip(self.rows, self.arrays):
            if not O.result_matches(rf.expected, arr):
                self.note(f"array form of {rf.name} differs from its oracle")

    def check(self, results):
        out = [O.result_matches(f.expected, r) for f, r in zip(self.formulas, results)]
        copied = iter(results[len(self.formulas):])
        for rf, arr in zip(self.rows, self.arrays):
            for row in inputs.COPY_AT:
                got, cell = next(copied), arr.cells[row - 1]
                out.append(O.cell_matches(rf.expected[row - 1], got) and type(got) is type(cell) and got == cell)
        return out

    def layer_metrics(self, tr, op_times):
        for f in self.formulas:
            self.layer[f"evaluator.{f.case}.baseline_s"] = median(tr.durations(f"evaluator.{f.case}.baseline"))
        self.layer["evaluator.copydown_row_ms"] = median(tr.durations("evaluator.copydown_row")) * 1e3
        self.layer["table.resolve_range_ms"] = (
            median(tr.durations("table.resolve", parent="evaluator.copydown_row")) * 1e3
        )
        _parse_layers(self, tr)


class SheetSprego(_Sheet):
    name = "sheet-sprego"

    rewrites = True

    def make_inputs(self):
        super().make_inputs()
        self.work = [(f"evaluator.{f.case}.composite", f.text, None) for f in self.formulas]
        self.work += [("evaluator.array_rowwise", "{" + rf.text + "}", None) for rf in self.rows]

    def check(self, results):
        expected = [f.expected for f in self.formulas] + [rf.expected for rf in self.rows]
        return [O.result_matches(e, r) for e, r in zip(expected, results)]

    def layer_metrics(self, tr, op_times):
        # the ratio's base: each baseline evaluated in this process, on this
        # table, after the passes
        sp, ctx = self.sp, self._ctx()
        for f in self.formulas:
            parsed = sp.parse(f.text)
            base = []
            for _ in range(2):
                gc.collect()
                t0 = now()
                r = sp.evaluate(parsed, ctx)
                base.append(now() - t0)
                if not O.result_matches(f.expected, r):
                    self.note(f"baseline {f.case} differs from its oracle")
            comp = median(tr.durations(f"evaluator.{f.case}.composite"))
            self.layer[f"evaluator.{f.case}.baseline_s"] = median(base)
            self.layer[f"evaluator.{f.case}.composite_s"] = comp
            self.layer[f"evaluator.{f.case}.ratio"] = comp / median(base)
        self.layer["evaluator.array_rowwise_s"] = median(tr.durations("evaluator.array_rowwise"))
        self.layer["rewrite.rewrite_us"] = median(tr.durations("rewrite.rewrite", own=True)) * 1e6
        _parse_layers(self, tr)


def _parse_layers(w: Workload, tr: Tracer) -> None:
    w.layer["formula.tokenize_us"] = median(tr.durations("formula.tokenize")) * 1e6
    w.layer["formula.parse_us"] = median(tr.durations("formula.parse", own=True)) * 1e6


# ---------------------------------------------------------------------------
# rule-check
# ---------------------------------------------------------------------------


class RuleCheck(Workload):
    name = "rule-check"
    setup_reps = 25

    def make_inputs(self):
        pass  # check_rule_case draws its datasets from the seed itself

    def setup_once(self):
        from sprego import equivalence

        t0 = now()
        self.cases = equivalence.default_rule_cases()
        return now() - t0

    def verify_setup(self):
        from sprego import equivalence, formula

        self.eq, self.sp_formula = equivalence, formula
        names = tuple(c.name for c in self.cases)
        if names != RULE_CASES:
            self.note(f"rule cases {names} are not the {len(RULE_CASES)} this benchmark reports")

    def one_pass(self, tracer, scale):
        times, results = [], []
        s = scale()
        for case in self.cases:
            t0 = now()
            try:
                if tracer is None:
                    v = self.eq.check_rule_case(case, RULE_TRIALS, self.seed)
                else:
                    v = tracer.call(f"equivalence.{case.name}.check", self.eq.check_rule_case, case, RULE_TRIALS, self.seed)
            except Exception as exc:  # check() counts it as a failed operation
                v = exc
            times.append(now() - t0)
            results.append(v)
        return times, [s] * len(times), results

    def check(self, results):
        out = []
        self.trials = sum(getattr(v, "trials", 0) for v in results)
        for case, v in zip(self.cases, results):
            if isinstance(v, Exception):
                ok = False
            elif case.name == "iferror-volatile":
                ok = v.trials == 0 and v.passed and any(n.startswith("skipped:") for n in v.notes)
            else:
                ok = v.passed and v.trials == len(case.schemas) * RULE_TRIALS
            if not ok:
                self.note(f"{case.name}: {v if isinstance(v, Exception) else (v.trials, v.failures, v.notes)!r}")
            out.append(ok)
        return out

    def patch(self, tracer):
        eq = self.eq
        tracer.patch(eq, "gen_dataset", "equivalence.gen_dataset")
        tracer.patch(eq, "evaluate", "evaluator.evaluate")
        tracer.patch(eq, "values_match", "equivalence.values_match")
        tracer.patch(eq, "parse", "formula.parse")
        tracer.patch(eq, "rewrite", "rewrite.rewrite")
        tracer.patch(self.sp_formula, "tokenize", "formula.tokenize")

    def layer_metrics(self, tr, op_times):
        for case in self.cases:
            self.layer[f"equivalence.{case.name}.check_s"] = median(tr.durations(f"equivalence.{case.name}.check"))
        self.layer["equivalence.gen_dataset_us"] = median(tr.durations("equivalence.gen_dataset")) * 1e6
        self.layer["equivalence.values_match_us"] = median(tr.durations("equivalence.values_match")) * 1e6
        self.layer["evaluator.small_eval_us"] = median(tr.durations("evaluator.evaluate")) * 1e6
        self.layer["rewrite.rewrite_us"] = median(tr.durations("rewrite.rewrite", own=True)) * 1e6
        self.layer["equivalence.trials"] = float(self.trials)
        _parse_layers(self, tr)


# ---------------------------------------------------------------------------
# classroom-repl
# ---------------------------------------------------------------------------


class ScriptedStdin:
    """The REPL's stdin: hands out the script one line at a time and notes
    when each line was read and how much output the previous one wrote."""

    def __init__(self, lines, out: io.StringIO, err: io.StringIO, tracer: Tracer | None):
        self.lines = lines
        self.out, self.err = out, err
        self.tracer = tracer
        self.i = 0
        self.marks: list[tuple[float, int, int]] = []  # (time, stdout pos, stderr pos)
        self._span = -1

    def isatty(self) -> bool:
        return False

    def readline(self) -> str:
        self.marks.append((now(), self.out.tell(), self.err.tell()))
        if self.tracer is not None and self._span >= 0:
            self.tracer.close(self._span)
            self._span = -1
        if self.i >= len(self.lines):
            return ""
        line = self.lines[self.i]
        self.i += 1
        if self.tracer is not None:
            self._span = self.tracer.open("cli.repl_line")
        return line + "\n"


class ClassroomRepl(Workload):
    name = "classroom-repl"
    modules = ("sprego", "sprego.cli")
    setup_reps = 25

    def make_inputs(self):
        self.table = inputs.gen_classroom(self.seed)
        self.script = inputs.gen_script(self.table, self.seed)
        self.csv_path = self.workdir / f"classroom-{self.seed}.csv"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv_path.write_bytes(self.table.csv)
        self.startups = []

    def session(self, lines, tracer=None):
        from sprego import cli

        out, err = io.StringIO(), io.StringIO()
        stdin = ScriptedStdin(lines, out, err, tracer)
        saved = sys.stdin
        sys.stdin = stdin
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["repl", "--table", str(self.csv_path)])
        except Exception as exc:  # the session died: every unread line fails
            code = f"{type(exc).__name__}: {exc}"
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue(), stdin.marks

    def setup_once(self):
        t0 = now()
        code, _out, err, _marks = self.session([])
        elapsed = now() - t0
        if code != 0 or err:
            self.note(f"empty session: exit {code}, stderr {err[:200]!r}")
        self.startups.append(elapsed)
        return elapsed

    def verify_setup(self):
        from sprego import cli, competency, formula, load_csv

        self.mods = (cli, competency, formula)
        t = load_csv(self.table.csv, table_name="classroom")
        for name, got, want in zip(t.headers, t.columns, self.table.columns):
            if any(type(a) is not type(b) or a != b for a, b in zip(got, want)) or len(got) != len(want):
                self.note(f"classroom column {name} differs from the generated values")
        self.layer["cli.repl_startup_ms"] = statistics.median(self.startups) * 1e3
        self.layer["table.cells_loaded"] = float(t.row_count * t.column_count)

    def one_pass(self, tracer, scale):
        lines = [ln.text for ln in self.script]
        s = scale()
        if tracer is None:
            result = self.session(lines)
        else:
            result = tracer.call("cli.repl_session", self.session, lines, tracer)
        marks = result[3]
        times = [b[0] - a[0] for a, b in zip(marks, marks[1:])]
        return times, [s] * len(times), [result]

    def check(self, results):
        (code, out, err, marks), = results
        verdicts = []
        for n, line in enumerate(self.script):
            if n + 1 >= len(marks):
                verdicts.append(False)
                continue
            got_out = out[marks[n][1]:marks[n + 1][1]].splitlines()
            got_err = err[marks[n][2]:marks[n + 1][2]]
            ok = len(got_out) == len(line.out) and all(map(O.line_matches, line.out, got_out))
            if line.is_formula:
                ok = ok and got_err.count("  level: ") == 1 and (not line.lint or line.lint in got_err)
            if not ok:
                self.note(f"line {n + 1} {line.text!r}: got {got_out[:3]} err {got_err[:120]!r}")
            verdicts.append(ok)
        self.layer["cli.output_bytes"] = float(len(out.encode()) + len(err.encode()))
        if code != 0 or "Traceback" in err:
            self.note(f"session exit {code!r}")
            verdicts[-1] = False
        return verdicts

    def patch(self, tracer):
        cli, competency, formula = self.mods
        tracer.patch(cli, "load_csv", "table.load_csv")
        tracer.patch(cli, "parse", "formula.parse")
        tracer.patch(formula, "tokenize", "formula.tokenize")
        tracer.patch(cli, "evaluate", "evaluator.evaluate")
        tracer.patch(cli, "lint", "rewrite.lint")
        tracer.patch(competency, "classify", "competency.classify")
        tracer.patch(cli, "_value_to_text", "cli.value_to_text")

    def layer_metrics(self, tr, op_times):
        self.layer["table.load_csv_s"] = median(tr.durations("table.load_csv"))
        self.layer["evaluator.repl_eval_us"] = median(tr.durations("evaluator.evaluate")) * 1e6
        self.layer["rewrite.lint_us"] = median(tr.durations("rewrite.lint")) * 1e6
        self.layer["competency.classify_us"] = median(tr.durations("competency.classify")) * 1e6
        self.layer["cli.value_to_text_us"] = median(tr.durations("cli.value_to_text")) * 1e6
        self.layer["cli.line_self_us"] = median(tr.durations("cli.repl_line", own=True)) * 1e6
        self.layer["cli.repl_line_p99_ms"] = percentile(op_times, 0.99) * 1e3
        _parse_layers(self, tr)


WORKLOADS = {w.name: w for w in (SheetClassic, SheetSprego, RuleCheck, ClassroomRepl)}

SHEET_CASES = inputs.SHEET_CASES
RULE_CASES = SHEET_CASES[:10] + ("hlookup-exact", "hlookup-approx", "iferror-division", "iferror-volatile",
                                 "countifs", "sumifs")

# Every layer figure, in the order BENCHMARK.json lists them. A workload
# that makes no call into a layer reports 0 for it.
PER_LAYER = (
    [("table.load_csv_s", "s"), ("table.cells_loaded", "count"), ("table.resolve_range_ms", "ms"),
     ("evaluator.copydown_row_ms", "ms")]
    + [(f"evaluator.{c}.{k}", u) for c in SHEET_CASES for k, u in (("baseline_s", "s"), ("composite_s", "s"),
                                                                    ("ratio", "ratio"))]
    + [("evaluator.array_rowwise_s", "s")]
    + [(f"equivalence.{c}.check_s", "s") for c in RULE_CASES]
    + [("equivalence.gen_dataset_us", "us"), ("equivalence.values_match_us", "us"),
       ("evaluator.small_eval_us", "us"), ("equivalence.trials", "count"),
       ("formula.tokenize_us", "us"), ("formula.parse_us", "us"), ("rewrite.lint_us", "us"),
       ("rewrite.rewrite_us", "us"), ("competency.classify_us", "us"), ("evaluator.repl_eval_us", "us"),
       ("cli.value_to_text_us", "us"), ("cli.line_self_us", "us"), ("cli.repl_line_p99_ms", "ms"),
       ("cli.output_bytes", "count"), ("cli.repl_startup_ms", "ms"),
       ("trace.overhead_pct", "%"), ("trace.spans", "count"), ("machine.yardstick_ms", "ms")]
)
