"""Every result the rule cases and the sheet formulas give, held to the
bits of a committed digest.

Array mode, for each non-RAND rule case's baseline and its rewrite() over
gen_dataset tables for seeds 0-4, and for the sheet formulas and their
rewrites on a seeded 500-row table loaded from CSV. Each result is hashed
as its shape and its cells' (type name, repr), so a fast path that changes
one bit of one cell, or a cell's type, fails here on every Python the CI
matrix runs.

To write the digest again, after a change meant to alter results:
``PYTHONPATH=src python tests/test_result_digest.py``.
"""

import hashlib
import json
import random
from pathlib import Path

from sprego import load_csv
from sprego.equivalence import default_rule_cases, gen_dataset
from sprego.evaluator import EvalContext, contains_rand, evaluate
from sprego.formula import parse
from sprego.rewrite import rewrite
from sprego.table import RangeView

DIGEST = Path(__file__).parent / "data" / "result_digest.json"
SEEDS = range(5)
SHEET_ROWS = 500


def _feed(h, result) -> None:
    if isinstance(result, RangeView):
        h.update(f"view {result.rows}x{result.cols}\n".encode())
        cells = result.cells
    else:
        h.update(b"value\n")
        cells = (result,)
    for c in cells:
        h.update(f"{type(c).__name__} {c!r}\n".encode())


def _rule_digests() -> dict[str, str]:
    out = {}
    for case in default_rule_cases():
        if contains_rand(parse(case.original_for(case.schemas[0])).body):
            continue
        base_h, rewr_h = hashlib.sha256(), hashlib.sha256()
        for schema in case.schemas:
            original = parse(case.original_for(schema))
            rewritten = rewrite(original)[0]
            for seed in SEEDS:
                ctx = EvalContext(gen_dataset(schema, seed), mode="array", rng_seed=seed)
                _feed(base_h, evaluate(original, ctx))
                _feed(rewr_h, evaluate(rewritten, ctx))
        out[f"rule {case.name} baseline"] = base_h.hexdigest()
        out[f"rule {case.name} rewrite"] = rewr_h.hexdigest()
    return out


def _sheet_csv(seed: int, rows: int) -> str:
    """perfbench's sheet column mix: key (shuffled distinct integers), step
    (ascending by 1-5), xs and ys (uniform in [0, 10] to three places) and
    dirty (numbers with 8% blanks, 4% error-code text and 4% words)."""
    rng = random.Random(seed)
    key = [float(k) for k in range(1, rows + 1)]
    rng.shuffle(key)
    step, s = [], 0
    for _ in range(rows):
        s += rng.randint(1, 5)
        step.append(float(s))
    xs = [round(rng.uniform(0, 10), 3) for _ in range(rows)]
    ys = [round(rng.uniform(0, 10), 3) for _ in range(rows)]

    def dirty():
        r = rng.random()
        if r < 0.08:
            return ""
        if r < 0.12:
            return rng.choice(("#N/A", "#DIV/0!", "#VALUE!"))
        if r < 0.16:
            return rng.choice(("n/a", "absent", "tbd"))
        return repr(round(rng.uniform(0, 10), 3))

    lines = ["key,step,xs,ys,dirty"]
    for row in zip(key, step, xs, ys, (dirty() for _ in range(rows))):
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in row))
    return "\n".join(lines) + "\n"


def _sheet_formulas(table) -> list[str]:
    """The rule cases that read whole columns, as perfbench's sheet has them."""
    n = table.row_count
    key, step = table.columns[0], table.columns[1]
    stop = n * 3 // 4
    return [
        '=COUNTIF(xs,">5")',
        f'=COUNTIF(C1:C{n},">"&D1)',
        '=SUMIF(xs,">5",ys)',
        '=SUMIF(xs,"<=3")',
        '=AVERAGEIF(xs,">5",ys)',
        '=AVERAGEIF(xs,"<>2")',
        "=COUNT(dirty)",
        "=COUNTA(dirty)",
        f"=VLOOKUP({key[stop - 1]!r},A1:D{n},4,FALSE)",
        f"=VLOOKUP({step[stop - 1] + 0.5!r},B1:D{n},3,TRUE)",
        f"=IFERROR(D1:D{n}/E1:E{n},-1)",
        '=COUNTIFS(xs,">2",ys,"<8")',
        '=SUMIFS(ys,xs,">2",ys,"<8")',
    ]


def _sheet_digests() -> dict[str, str]:
    out = {}
    for seed in SEEDS:
        table = load_csv(_sheet_csv(seed, SHEET_ROWS), table_name="sheet")
        ctx = EvalContext(table, mode="array")
        for source in _sheet_formulas(table):
            original = parse(source)
            for side, formula in (("baseline", original), ("rewrite", rewrite(original, table)[0])):
                h = hashlib.sha256()
                _feed(h, evaluate(formula, ctx))
                out[f"sheet seed {seed} {source} {side}"] = h.hexdigest()
    return out


def _digests() -> dict[str, str]:
    return {**_rule_digests(), **_sheet_digests()}


def test_results_match_committed_digest():
    want = json.loads(DIGEST.read_text())
    got = _digests()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_digest_covers_every_rule_case_and_sheet_formula():
    want = json.loads(DIGEST.read_text())
    rules = {k.split()[1] for k in want if k.startswith("rule ")}
    assert rules == {c.name for c in default_rule_cases()} - {"iferror-volatile"}
    assert sum(k.startswith("sheet ") for k in want) == len(SEEDS) * 13 * 2


if __name__ == "__main__":
    DIGEST.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
