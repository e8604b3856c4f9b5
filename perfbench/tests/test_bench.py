"""Tests of the benchmark's own parts: the oracles on hand-computed tables,
the checks on real engine results, and the run loop's failure counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# Oracles on small tables worked out by hand
# ---------------------------------------------------------------------------

XS = [1.0, 6.0, 5.0, 9.5, 3.0]
YS = [2.0, 4.0, 8.0, 0.5, 1.0]


def test_masked_counts_sums_and_averages():
    gt5 = [x > 5 for x in XS]  # rows 2 and 4
    assert O.count_where(gt5) == 2.0
    assert O.sum_where(YS, gt5) == 4.5
    assert O.average_where(YS, gt5) == 2.25
    assert O.count_where(gt5, [y < 1 for y in YS]) == 1.0
    assert O.average_where(YS, [False] * 5) == O.DIV0


def test_counts_over_a_dirty_column():
    dirty = [1.0, None, "#N/A", "abc", 0.0, None, 7.5]
    assert O.count_numbers(dirty) == 3.0
    assert O.count_nonblank(dirty) == 5.0


def test_exact_lookup_takes_the_first_hit():
    keys = [4.0, 2.0, 9.0, 2.0]
    picked = ["a", "b", "c", "d"]
    assert O.lookup_exact(2.0, keys, picked) == "b"
    assert O.lookup_exact(5.0, keys, picked) == O.NA


def test_approximate_lookup_takes_the_largest_key_not_above():
    keys = [1.0, 3.0, 3.0, 7.0]
    picked = ["a", "b", "c", "d"]
    assert O.lookup_ascending(3.5, keys, picked) == "c"  # last of the equal 3s
    assert O.lookup_ascending(7.0, keys, picked) == "d"
    assert O.lookup_ascending(0.5, keys, picked) == O.NA


def test_iferror_division():
    assert O.divide_or(6.0, 3.0, -1.0) == 2.0
    assert O.divide_or(6.0, 0.0, -1.0) == -1.0
    assert O.divide_or(6.0, None, -1.0) == -1.0
    assert O.divide_or(6.0, "#N/A", -1.0) == -1.0
    assert O.divide_or(6.0, "1.5", -1.0) == 4.0


def test_display_and_tolerance():
    assert [O.show(v) for v in (3.0, 2.5, True, None, O.NA, "x")] == ["3", "2.5", "TRUE", "", "#N/A", "x"]
    assert O.line_matches("0.30000000000000004", "0.3")
    assert not O.line_matches("0.3", "0.31")
    assert not O.line_matches("pass", "fail")


# ---------------------------------------------------------------------------
# Checks on what the engine really returns
# ---------------------------------------------------------------------------


def small_sprego_sheet(tmp_path) -> workloads.SheetSprego:
    w = workloads.SheetSprego(3, tmp_path)
    w.sheet_rows = 400
    w.make_inputs()
    w.setup_once()
    w.verify_setup()
    assert not w.problems
    return w


def test_sheet_results_match_their_oracles(tmp_path):
    w = small_sprego_sheet(tmp_path)
    _times, _scales, results = w.one_pass(None, lambda: 1.0)
    assert w.check(results) == [True] * (len(w.formulas) + len(w.rows))


def test_a_corrupted_sheet_result_fails_that_operation(tmp_path):
    w = small_sprego_sheet(tmp_path)
    _times, _scales, results = w.one_pass(None, lambda: 1.0)
    results[0] = results[0] + 1.0
    assert w.check(results) == [False] + [True] * (len(results) - 1)


def test_an_operation_that_raises_fails_and_the_pass_goes_on(tmp_path):
    w = small_sprego_sheet(tmp_path)
    span, _text, row = w.work[1]
    w.work[1] = (span, "=SUM(", row)
    _times, _scales, results = w.one_pass(None, lambda: 1.0)
    assert isinstance(results[1], Exception)
    assert w.check(results) == [True, False] + [True] * (len(results) - 2)


class CorruptedRepl(workloads.ClassroomRepl):
    """Garbles the first value line of every scripted session."""

    def session(self, lines, tracer=None):
        code, out, err, marks = super().session(lines, tracer)
        if lines:
            first = next(i for i, ln in enumerate(self.script) if ln.out)
            at = marks[first][1]
            out = out[:at] + "X" + out[at + 1:]
        return code, out, err, marks


def test_classroom_run_is_correct(tmp_path):
    result = workloads.run(workloads.ClassroomRepl(5, tmp_path), 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(inputs.gen_script(inputs.gen_classroom(5), 5))


def test_a_corrupted_output_line_counts_as_a_failed_operation(tmp_path):
    result = workloads.run(CorruptedRepl(5, tmp_path), 0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 3  # one line in the warm-up and in each of the two timed passes


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = workloads.run(workloads.ClassroomRepl(5, tmp_path), 0.0, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _unit in workloads.PER_LAYER]
    assert result["metrics"]["formula.parse_us"]["value"] > 0
    trace = json.loads((tmp_path / "trace-classroom-repl-5.json").read_text())
    names = [span[0] for span in trace["spans"]]
    parents = [span[3] for span in trace["spans"]]
    tokenize = names.index("formula.tokenize")
    assert names[parents[tokenize]] == "formula.parse"
    assert names[parents[parents[tokenize]]] == "cli.repl_line"


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _unit in workloads.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _name, unit in workloads.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "op_p50_ms", "peak_rss_mb"]


@pytest.mark.parametrize("seed", [1, 2])
def test_inputs_repeat_for_a_seed(seed):
    assert inputs.gen_sheet(seed, rows=50).csv == inputs.gen_sheet(seed, rows=50).csv
    table = inputs.gen_classroom(seed)
    assert inputs.gen_script(table, seed) == inputs.gen_script(table, seed)
