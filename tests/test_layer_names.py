"""The module attributes that perfbench times each layer through.

perfbench's traced runs (``patch`` in perfbench/workloads.py) swap a
module attribute for a timing wrapper, by name. That works because the
engine looks these collaborators up as module globals at call time. Should
a layer be inlined, renamed or bound some other way, the wrapper would see
no call and the layer's figure would read 0 without any error. Here a
counting wrapper on each of those names must see the calls the engine makes
through it."""

import io
from collections import Counter

import pytest

from sprego import cli, competency, equivalence, evaluator, formula
from sprego.evaluator import EvalContext

from helpers import make_table


class _Calls(Counter):
    """How often each wrapped "module.name" was called."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.monkeypatch = monkeypatch

    def count(self, module, name: str) -> None:
        original = getattr(module, name)
        key = f"{module.__name__.removeprefix('sprego.')}.{name}"

        def counted(*args, **kwargs):
            self[key] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(module, name, counted)


@pytest.fixture
def calls(monkeypatch):
    return _Calls(monkeypatch)


def test_parse_reaches_tokenize_through_the_formula_module(calls):
    calls.count(formula, "tokenize")
    formula.parse("=SUM(A1:A3)*2")
    assert calls == {"formula.tokenize": 1}


def test_evaluate_reaches_resolve_through_the_evaluator_module(calls):
    calls.count(evaluator, "resolve")
    t = make_table(a=(1, 2, 3))
    assert evaluator.evaluate(formula.parse("=SUM(A1:A3)+A2+a"), EvalContext(t)).cells == (9.0, 10.0, 11.0)
    assert calls == {"evaluator.resolve": 3}


def test_check_rule_case_reaches_its_layers_through_the_equivalence_module(calls):
    names = ("gen_dataset", "evaluate", "values_match", "parse", "rewrite")
    for name in names:
        calls.count(equivalence, name)
    calls.count(formula, "tokenize")
    case = next(c for c in equivalence.default_rule_cases() if c.name == "countif-literal")
    assert equivalence.check_rule_case(case, 2, 1).passed
    assert all(calls[f"equivalence.{name}"] > 0 for name in names), calls
    assert calls["formula.tokenize"] > 0, calls


def test_repl_reaches_its_layers_through_the_cli_module(calls, monkeypatch, tmp_path, capsys):
    for name in ("load_csv", "parse", "evaluate", "lint", "_value_to_text"):
        calls.count(cli, name)
    calls.count(competency, "classify")
    calls.count(formula, "tokenize")
    csv = tmp_path / "t.csv"
    csv.write_text("a,b\n1,x\n2,y\n3,z\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("=COUNTIF(a,\">1\")\n=SUM(A1:A3)\n"))
    assert cli.main(["repl", "--table", str(csv)]) == 0
    assert capsys.readouterr().out.splitlines() == ["2", "6"]
    assert calls == {
        "cli.load_csv": 1, "cli.parse": 2, "formula.tokenize": 2, "cli.evaluate": 2, "cli.lint": 2,
        "competency.classify": 2, "cli._value_to_text": 2,
    }
