import io
import json
from pathlib import Path

import pytest

from sprego.cli import main
from sprego.formula import MAX_DEPTH

from helpers import deep_formulas


@pytest.fixture
def csv_path(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("age,name\n3,ann\n7,bo\n9,cy\n", encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------


def test_parse_prints_canonical(capsys):
    code, out, _ = run(capsys, "parse", "--formula", "= sum( a1 : a3 )")
    assert code == 0
    assert out.strip() == "=SUM(A1:A3)"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--formula", "{=SUM(xs)}", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["array_entered"] is True
    assert doc["ast"]["type"] == "call"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "--formula", "=1..2")
    assert code == 2
    assert "error" in err


def test_overflowing_numeral_exit_2(capsys):
    code, out, err = run(capsys, "parse", "--formula", "=1E400+1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    code, out, _ = run(capsys, "eval", "--formula", "=1e308*10")
    assert code == 0 and out.strip() == "#NUM!"


def test_usage_error_exit_2(capsys):
    assert main(["parse"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_array_aggregate(capsys, csv_path):
    code, out, _ = run(capsys, "eval", "--table", csv_path, "--formula", "{=SUM(IF(age>5,1,0))}")
    assert code == 0
    assert out.strip() == "2"


def test_eval_vector_output(capsys, csv_path):
    code, out, _ = run(capsys, "eval", "--table", csv_path, "--formula", "{=age*2}")
    assert out.splitlines() == ["6", "14", "18"]


def test_eval_scalar_row(capsys, csv_path):
    code, out, _ = run(capsys, "eval", "--table", csv_path, "--formula", "=LEN(name)", "--row", "2")
    assert out.strip() == "2"


def test_eval_json_result(capsys, csv_path):
    _, out, _ = run(capsys, "eval", "--table", csv_path, "--formula", "=1/0", "--format", "json")
    doc = json.loads(out)
    assert doc["result"] == {"error": "#DIV/0!"}


def test_eval_range_output_text_and_json(capsys, csv_path):
    # a 2-D result prints as tab-separated rows, or nested lists in JSON;
    # a vector as one JSON list
    args = ("eval", "--table", csv_path, "--formula")
    _, out, _ = run(capsys, *args, "{=A1:B2*1}")
    assert out.splitlines() == ["3\t#VALUE!", "7\t#VALUE!"]
    _, out, _ = run(capsys, *args, "{=A1:B2*1}", "--format", "json")
    assert json.loads(out)["result"] == [[3.0, {"error": "#VALUE!"}], [7.0, {"error": "#VALUE!"}]]
    _, out, _ = run(capsys, *args, "{=A1:A3*1}", "--format", "json")
    assert json.loads(out)["result"] == [3.0, 7.0, 9.0]


def test_eval_no_table(capsys):
    code, out, _ = run(capsys, "eval", "--formula", "=2+3")
    assert code == 0
    assert out.strip() == "5"


def test_eval_formula_file(capsys, csv_path, tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("=SUM(age)\n", encoding="utf-8")
    _, out, _ = run(capsys, "eval", "--table", csv_path, "--formula-file", str(f))
    assert out.strip() == "19"


@pytest.mark.parametrize("command", ["eval", "lint"])
@pytest.mark.parametrize("shape", sorted(deep_formulas(MAX_DEPTH)))
def test_depth_limit_both_sides(capsys, command, shape):
    code, out, err = run(capsys, command, "--formula", deep_formulas(MAX_DEPTH)[shape][0])
    assert (code, err) == (0, "")
    assert out.strip()
    code, out, err = run(capsys, command, "--formula", deep_formulas(MAX_DEPTH + 1)[shape][0])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: parse error at offset {deep_formulas(MAX_DEPTH + 1)[shape][1]}:")


def test_long_operator_chain_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--formula", "=1" + "+1" * 4999)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# lint / rewrite
# ---------------------------------------------------------------------------


def test_lint_findings_exit_1(capsys):
    code, out, _ = run(capsys, "lint", "--formula", '=COUNTIF(A1:A9,">5")')
    assert code == 1
    assert "NON_SPREGO_FUNCTION" in out


def test_lint_clean_exit_0(capsys):
    code, out, _ = run(capsys, "lint", "--formula", "{=SUM(IF(A1:A9>5,1,0))}")
    assert code == 0
    assert "clean" in out


def test_lint_json(capsys):
    _, out, _ = run(capsys, "lint", "--formula", "=SUM($A$1:$A$9)", "--format", "json")
    doc = json.loads(out)
    assert len(doc["diagnostics"]) == 2


def test_rewrite_prints_replacement(capsys):
    code, out, _ = run(capsys, "rewrite", "--formula", '=COUNTIF(A1:A9,">5")')
    assert code == 0
    assert out.strip() == "{=SUM(IF(A1:A9>5,1,0))}"


def test_rewrite_json_plans(capsys):
    _, out, _ = run(capsys, "rewrite", "--formula", "=IFERROR(A1/B1,0)", "--format", "json")
    doc = json.loads(out)
    assert doc["rewritten"] == "=IF(ISERROR(A1/B1),0,A1/B1)"
    assert doc["plans"][0]["rule"] == "R7"
    assert doc["unrewritten_calls"] == []


def test_rewrite_leftover_exit_1(capsys):
    code, out, _ = run(capsys, "rewrite", "--formula", '=COUNTIF(A1:A9,"a*")')
    assert code == 1
    assert out.strip() == '=COUNTIF(A1:A9,"a*")'


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_pair_passes(capsys):
    code, out, _ = run(
        capsys, "check",
        "--original", '=COUNTIF(xs,">5")',
        "--rewritten", "{=SUM(IF(xs>5,1,0))}",
        "--trials", "10", "--seed", "3",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["seed"] == 3


def test_check_pair_failure_exit_1(capsys):
    code, out, _ = run(
        capsys, "check",
        "--original", '=COUNTIF(xs,">5")',
        "--rewritten", "{=SUM(IF(xs>5,1,1))}",
        "--trials", "10",
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["verdicts"][0]["failures"]


def test_check_pair_over_100_rows_compares_every_row(capsys):
    # the threshold differs, so the pair must fail: tables cut short of
    # row 100 gave #REF! on both sides and a vacuous pass
    code, out, _ = run(
        capsys, "check",
        "--original", '=COUNTIF(A1:A100,">5")',
        "--rewritten", "{=SUM(IF(A1:A100>6,1,0))}",
        "--trials", "5",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_check_pair_past_the_cell_budget_exit_2(capsys):
    code, out, err = run(capsys, "check", "--original", "=SUM(ZZZZZ1)", "--rewritten", "=ZZZZZ1", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_all_rules_quick(capsys):
    code, out, _ = run(capsys, "check", "--all-rules", "--trials", "5", "--seed", "7")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert {v["rule"] for v in doc["verdicts"]} == {f"R{i}" for i in range(1, 9)}


def test_check_byte_identical_runs(capsys):
    _, first, _ = run(capsys, "check", "--all-rules", "--trials", "4", "--seed", "7")
    _, second, _ = run(capsys, "check", "--all-rules", "--trials", "4", "--seed", "7")
    assert first == second


def test_check_all_rules_matches_golden_output(capsys):
    # the committed bytes pin the differential tester's output: a refactor
    # of the engine must leave every verdict, trial count and note as it was
    golden = Path(__file__).parent / "data" / "check_all_rules_seed7_trials20.json"
    code, out, _ = run(capsys, "check", "--all-rules", "--seed", "7", "--trials", "20")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_check_missing_rewritten(capsys):
    code, _, err = run(capsys, "check", "--original", "=SUM(xs)")
    assert code == 2


@pytest.mark.parametrize("rewritten", ["=1", ""])
def test_check_all_rules_with_rewritten_exit_2(capsys, rewritten):
    # --all-rules checks the shipped rules, so a --rewritten beside it would
    # be dropped without a word
    code, out, err = run(capsys, "check", "--all-rules", "--rewritten", rewritten, "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --rewritten is taken only with --original\n"


@pytest.mark.parametrize(
    "original, rewritten", [("=RAND()", "=1"), ("=IFERROR(RAND(),0)", "{=IF(ISERROR(RAND()),0,RAND())}")]
)
def test_check_pair_that_compares_nothing_exit_2(capsys, original, rewritten):
    # a pair that calls RAND() is run on no dataset, so it must not report a pass
    code, out, err = run(capsys, "check", "--original", original, "--rewritten", rewritten)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "RAND()" in err and err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize(
    "target", [("--all-rules",), ("--original", "=COUNTIF(xs,\">5\")", "--rewritten", "{=SUM(IF(xs>5,1,0))}")]
)
def test_check_trials_below_one_exit_2(capsys, target, trials):
    # a check over no dataset compares nothing, so it must not report a pass
    code, out, err = run(capsys, "check", *target, "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


# ---------------------------------------------------------------------------
# report / profile
# ---------------------------------------------------------------------------


def test_report_text(capsys, csv_path):
    code, out, _ = run(
        capsys, "report", "--table", csv_path,
        "--formula", "=A1+B1",
        "--formula", "{=SUM(IF(age>5,1,0))}",
    )
    assert code == 0
    assert "workbook level: GU" in out


def test_report_json(capsys):
    _, out, _ = run(capsys, "report", "--formula", "=A1+B1", "--format", "json")
    doc = json.loads(out)
    assert doc["workbook"]["level"] == "BU"
    assert doc["formulas"][0]["level"] == "BU"
    assert len(doc["not_assessed"]) == 26


def test_report_formulas_file(capsys, tmp_path):
    f = tmp_path / "formulas.txt"
    f.write_text("=1+1\n\n{=SUM(IF(A1:A3>1,1,0))}\n", encoding="utf-8")
    _, out, _ = run(capsys, "report", "--formulas-file", str(f))
    assert "workbook level: GU" in out


def test_profile_text(capsys, csv_path):
    code, out, _ = run(capsys, "profile", "--table", csv_path)
    assert code == 0
    assert "age: dominant=number" in out
    assert "min=3 max=9" in out


def test_profile_json(capsys, csv_path):
    _, out, _ = run(capsys, "profile", "--table", csv_path, "--format", "json")
    doc = json.loads(out)
    assert doc["columns"][0]["counts"]["number"] == 3
    # the table itself serializes as {name, headers, rows}
    assert doc["table"]["headers"] == ["age", "name"]
    assert doc["table"]["rows"][0] == [3.0, "ann"]


# ---------------------------------------------------------------------------
# repl
# ---------------------------------------------------------------------------


def repl(monkeypatch, capsys, script, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code = main(["repl", *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repl_eval_and_quit(monkeypatch, capsys, csv_path):
    code, out, err = repl(monkeypatch, capsys, "=SUM(age)\n:quit\n", "--table", csv_path)
    assert code == 0
    assert out.splitlines()[0] == "19"
    assert "level: BU" in err


def test_repl_row_mode(monkeypatch, capsys, csv_path):
    code, out, _ = repl(monkeypatch, capsys, ":row 2\n=LEN(name)\n", "--table", csv_path)
    assert out.splitlines()[0] == "2"


def test_repl_load_and_diagnostics(monkeypatch, capsys, csv_path):
    script = f":load {csv_path}\n=COUNTIF(age,\">5\")\n"
    code, out, err = repl(monkeypatch, capsys, script)
    assert out.splitlines()[0] == "2"
    assert "NON_SPREGO_FUNCTION" in err


def test_repl_load_keeps_no_header(monkeypatch, capsys, tmp_path):
    path = tmp_path / "nh.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    script = f"=SUM(A1:A2)\n:load {path}\n=SUM(A1:A2)\n"
    code, out, _ = repl(monkeypatch, capsys, script, "--no-header", "--table", str(path))
    assert code == 0
    assert out.splitlines() == ["4", "4"]


def test_repl_parse_error_keeps_going(monkeypatch, capsys, csv_path):
    code, out, err = repl(monkeypatch, capsys, "=1..2\n=2+2\n", "--table", csv_path)
    assert code == 0
    assert "error" in err
    assert out.splitlines()[0] == "4"


def test_repl_bad_commands_keep_going(monkeypatch, capsys, csv_path):
    script = ":row 2\n:row abc\n:seed 5\n:seed x\n=LEN(name)\n:row\n=RAND()\n"
    code, out, err = repl(monkeypatch, capsys, script, "--table", csv_path)
    assert code == 0
    assert "Traceback" not in err
    assert err.count("error: ") == 2
    lines = out.splitlines()
    assert lines[0] == "2"  # still at row 2
    _, seeded, _ = run(capsys, "eval", "--formula", "=RAND()", "--seed", "5")
    assert lines[1] == seeded.strip()  # still seed 5


# ---------------------------------------------------------------------------
# unreadable input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--table", "{missing}", "--formula", "=1"),
        ("parse", "--formula-file", "{missing}"),
        ("report", "--formulas-file", "{missing}"),
        ("repl", "--table", "{missing}"),
    ],
)
def test_unreadable_input_exit_2(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


def test_undecodable_formula_file_exit_2(capsys, tmp_path):
    f = tmp_path / "formula.txt"
    f.write_bytes(b"=LEN(\xff)")
    code, _, err = run(capsys, "parse", "--formula-file", str(f))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_ascii_letter_exit_2(capsys):
    code, out, err = run(capsys, "parse", "--formula", "=café")
    assert (code, out) == (2, "")
    assert err == "error: lex error at offset 4: unexpected character 'é'\n"


def test_row_past_the_sheet_edge(capsys):
    # one number per row of this range would exhaust memory
    code, out, err = run(capsys, "eval", "--formula", "{=SUM(ROW(A1:A99999999999))}")
    assert (code, out, err) == (0, "#REF!\n", "")


def test_bad_env_seed_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("SPREGO_SEED", "abc")
    code, out, err = run(capsys, "eval", "--formula", "=RAND()")
    assert code == 2
    assert out == ""
    assert err == "error: SPREGO_SEED must be an integer, got 'abc'\n"


# ---------------------------------------------------------------------------
# seed fallback
# ---------------------------------------------------------------------------


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SPREGO_SEED", "99")
    _, out_env, _ = run(capsys, "eval", "--formula", "=RAND()")
    monkeypatch.delenv("SPREGO_SEED")
    _, out_default, _ = run(capsys, "eval", "--formula", "=RAND()")
    _, out_explicit, _ = run(capsys, "eval", "--formula", "=RAND()", "--seed", "99")
    assert out_env == out_explicit
    assert out_env != out_default


def test_identical_invocations_identical_bytes(capsys, csv_path):
    args = ("eval", "--table", csv_path, "--formula", "{=SUM(IF(age>RAND()*9,1,0))}", "--seed", "5")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b


def test_rewrite_reports_a_shared_leftover_once(capsys):
    code, _, err = run(capsys, "rewrite", "--formula", '=IFERROR(COUNTIF(a,"*x"),0)')
    assert code == 1
    assert err.count("not rewritten: COUNTIF()") == 1
    _, out, _ = run(capsys, "rewrite", "--formula", '=IFERROR(COUNTIF(a,"*x"),0)', "--format", "json")
    assert json.loads(out)["unrewritten_calls"] == ["COUNTIF"]
