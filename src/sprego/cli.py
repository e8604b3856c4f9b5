"""Command-line front end: parse, eval, lint, rewrite, check, report,
profile, and a line-oriented REPL.

Exit status: 0 on success, 1 when lint finds something or an equivalence
check fails, 2 on usage or formula-parse errors, unreadable input files,
a SPREGO_SEED that is not an integer, a check --trials below 1, a
check pair whose references need tables past its cell budget or a check
pair that compares nothing (a side calls RAND()). Data
goes to stdout, messages to stderr. The seed defaults to 0 (or
SPREGO_SEED) so identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import competency, equivalence
from .evaluator import EvalContext, evaluate
from .formula import FormulaError, expr_to_json, parse
from .formula import format as format_formula
from .rewrite import lint, non_sprego_calls, rewrite
from .table import CsvError, RangeView, Table, load_csv, profile
from .values import ErrorKind, format_value

SCHEMA_VERSION = 1


class UsageError(Exception):
    """A bad setting argparse does not catch: a SPREGO_SEED that is not an
    integer, a check --trials below 1, a check pair that compares nothing
    because a side calls RAND()."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sprego", description="Sprego formula engine and linter")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, table=False, formula=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=None, help="rng seed (default SPREGO_SEED or 0)")
        if table:
            p.add_argument("--table", action="append", default=[], metavar="CSV")
            p.add_argument("--no-header", action="store_true", help="CSV has no header row")
        if formula:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--formula", "-f")
            group.add_argument("--formula-file", metavar="PATH")

    p = sub.add_parser("parse", help="parse and print the canonical form")
    add_common(p, formula=True)

    p = sub.add_parser("eval", help="evaluate a formula against a table")
    add_common(p, table=True, formula=True)
    p.add_argument("--row", type=int, default=None, help="evaluate in scalar mode at this row")

    p = sub.add_parser("lint", help="diagnose non-Sprego constructs")
    add_common(p, table=True, formula=True)

    p = sub.add_parser("rewrite", help="rewrite problem-specific functions into Sprego composites")
    add_common(p, table=True, formula=True)

    p = sub.add_parser("check", help="differential-test rewrites (prints JSON)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=200, help="datasets per schema")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all-rules", action="store_true")
    group.add_argument("--original")
    p.add_argument("--rewritten", help="required with --original")

    p = sub.add_parser("report", help="competency report over formulas")
    add_common(p, table=True)
    p.add_argument("--formula", "-f", action="append", default=[])
    p.add_argument("--formulas-file", metavar="PATH", help="one formula per line")

    p = sub.add_parser("profile", help="column profile of a table")
    add_common(p, table=True)

    p = sub.add_parser("repl", help="interactive formula loop")
    add_common(p, table=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (FormulaError, CsvError, OSError, UnicodeDecodeError, UsageError, equivalence.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    handler = {
        "parse": _cmd_parse,
        "eval": _cmd_eval,
        "lint": _cmd_lint,
        "rewrite": _cmd_rewrite,
        "check": _cmd_check,
        "report": _cmd_report,
        "profile": _cmd_profile,
        "repl": _cmd_repl,
    }[args.command]
    return handler(args)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("SPREGO_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"SPREGO_SEED must be an integer, got {raw!r}") from None


def _load_tables(args) -> list[Table]:
    tables = []
    for path in getattr(args, "table", []):
        data = Path(path).read_bytes()
        tables.append(load_csv(data, has_header=not args.no_header, table_name=Path(path).stem))
    return tables


def _main_table(args) -> Table:
    tables = _load_tables(args)
    return tables[0] if tables else Table("empty", (), ())


def _formula_source(args) -> str:
    if getattr(args, "formula_file", None):
        return Path(args.formula_file).read_text(encoding="utf-8").strip()
    return args.formula


def _print_json(obj) -> None:
    """Print a JSON document, with the schema_version every one carries."""
    print(json.dumps({"schema_version": SCHEMA_VERSION, **obj}, indent=2, sort_keys=True))


def _value_to_json(v):
    if isinstance(v, RangeView):
        if v.is_vector:
            return [_value_to_json(c) for c in v.cells]
        return [[_value_to_json(v.at(r, c)) for c in range(1, v.cols + 1)] for r in range(1, v.rows + 1)]
    if isinstance(v, ErrorKind):
        return {"error": v.value}
    return v


def _value_to_text(v) -> str:
    if isinstance(v, RangeView):
        if v.is_vector:
            return "\n".join(format_value(c) for c in v.cells)
        return "\n".join(
            "\t".join(format_value(v.at(r, c)) for c in range(1, v.cols + 1)) for r in range(1, v.rows + 1)
        )
    return format_value(v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    source = _formula_source(args)
    parsed = parse(source)
    if args.format == "json":
        _print_json(
            {
                "source": source,
                "canonical": format_formula(parsed),
                "array_entered": parsed.array_entered,
                "ast": expr_to_json(parsed.body),
            }
        )
    else:
        print(format_formula(parsed))
    return 0


def _cmd_eval(args) -> int:
    source = _formula_source(args)
    parsed = parse(source)
    table = _main_table(args)
    mode = "scalar" if args.row is not None else "array"
    ctx = EvalContext(table, current_row=args.row, rng_seed=_seed(args), mode=mode)
    result = evaluate(parsed, ctx)
    if args.format == "json":
        _print_json({"result": _value_to_json(result)})
    else:
        print(_value_to_text(result))
    return 0


def _cmd_lint(args) -> int:
    source = _formula_source(args)
    parsed = parse(source)
    table = _main_table(args) if args.table else None
    diags = lint(parsed, table)
    if args.format == "json":
        _print_json({"diagnostics": [d.to_json() for d in diags]})
    else:
        for d in diags:
            fixable = " (rewrite available)" if d.rewrite_available else ""
            print(f"{d.code.value} [{d.span[0]}:{d.span[1]}] {d.message}{fixable}")
        if not diags:
            print("clean")
    return 1 if diags else 0


def _cmd_rewrite(args) -> int:
    source = _formula_source(args)
    parsed = parse(source)
    table = _main_table(args) if args.table else None
    rewritten, plans = rewrite(parsed, table)
    leftovers = non_sprego_calls(rewritten)
    if args.format == "json":
        _print_json(
            {
                "rewritten": format_formula(rewritten),
                "plans": [p.to_json() for p in plans],
                "unrewritten_calls": [c.func for c in leftovers],
            }
        )
    else:
        print(format_formula(rewritten))
        for p in plans:
            print(f"{p.rule_id}: {format_formula(p.original)}  ->  {format_formula(p.replacement)}", file=sys.stderr)
            for note in p.notes:
                print(f"  note: {note}", file=sys.stderr)
        for call in leftovers:
            print(f"not rewritten: {call.func}()", file=sys.stderr)
    return 1 if leftovers else 0


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    seed = _seed(args)
    if args.all_rules:
        if args.rewritten is not None:
            raise UsageError("--rewritten is taken only with --original")
        verdicts = equivalence.check_all_rules(trials_per_schema=args.trials, seed=seed)
    else:
        if not args.rewritten:
            raise UsageError("--rewritten is required with --original")
        original = parse(args.original)
        rewritten = parse(args.rewritten)
        schemas = equivalence.schemas_for_pair(original, rewritten)
        verdict = equivalence.check_equivalence(
            original, rewritten, schemas, trials_per_schema=args.trials, seed=seed, name="pair"
        )
        if not verdict.trials:
            # nothing was compared (a side calls RAND()): no verdict to pass
            raise UsageError("; ".join(verdict.notes))
        verdicts = [verdict]
    passed = all(v.passed for v in verdicts)
    _print_json(
        {
            "seed": seed,
            "trials_per_schema": args.trials,
            "passed": passed,
            "verdicts": [v.to_json() for v in verdicts],
        }
    )
    return 0 if passed else 1


def _cmd_report(args) -> int:
    tables = _load_tables(args)
    sources = list(args.formula)
    if args.formulas_file:
        for line in Path(args.formulas_file).read_text(encoding="utf-8").splitlines():
            if line.strip():
                sources.append(line.strip())
    formulas = [(src, parse(src)) for src in sources]
    rep = competency.report(tables, formulas)
    if args.format == "json":
        _print_json(rep.to_json())
    else:
        print(competency.render_report(rep))
    return 0


def _cmd_profile(args) -> int:
    table = _main_table(args)
    profiles = profile(table)
    if args.format == "json":
        _print_json({"table": table.to_json(), "columns": [p.to_json() for p in profiles]})
    else:
        for p in profiles:
            counts = " ".join(f"{k}={v}" for k, v in p.counts.items() if v)
            extremes = ""
            if p.minimum is not None:
                extremes = f" min={format_value(p.minimum)} max={format_value(p.maximum)}"
            print(f"{p.name}: dominant={p.dominant} {counts}{extremes}")
    return 0


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------

_REPL_HELP = """commands:
  :load FILE.csv   load a table
  :row N           evaluate in scalar mode at row N (:row alone clears)
  :seed N          set the rng seed
  :quit            leave
anything else is evaluated as a formula"""


def _cmd_repl(args) -> int:
    table = _main_table(args)
    seed = _seed(args)
    row: int | None = None
    prompt = "sprego> " if sys.stdin.isatty() else ""
    if sys.stdin.isatty():
        print(f"table {table.name!r} loaded ({table.row_count} rows); :help for commands", file=sys.stderr)

    while True:
        try:
            line = input(prompt)
        except EOFError:
            break
        except KeyboardInterrupt:
            break
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line.split(None, 1)
            cmd, rest = parts[0], parts[1] if len(parts) > 1 else ""
            if cmd == ":quit":
                break
            if cmd == ":help":
                print(_REPL_HELP, file=sys.stderr)
            elif cmd == ":load":
                try:
                    table = load_csv(Path(rest).read_bytes(), has_header=not args.no_header, table_name=Path(rest).stem)
                    print(f"loaded {table.name!r}: {table.row_count} rows, {table.column_count} columns", file=sys.stderr)
                except (OSError, CsvError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
            elif cmd in (":row", ":seed"):
                try:
                    n = int(rest) if rest else None
                except ValueError:
                    print(f"error: {cmd} takes an integer, got {rest!r}", file=sys.stderr)
                    continue
                if cmd == ":row":
                    row = n
                    print(f"row = {row}", file=sys.stderr)
                else:
                    seed = n or 0
                    print(f"seed = {seed}", file=sys.stderr)
            else:
                print(f"unknown command {cmd}; :help lists them", file=sys.stderr)
            continue

        try:
            parsed = parse(line)
        except FormulaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        mode = "scalar" if row is not None else "array"
        ctx = EvalContext(table, current_row=row, rng_seed=seed, mode=mode)
        print(_value_to_text(evaluate(parsed, ctx)))
        for d in lint(parsed, table):
            print(f"  {d.code.value}: {d.message}", file=sys.stderr)
        print(f"  level: {competency.classify(parsed).level}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
