"""Fuzz of cli.main(): random formulas, CSV bytes and REPL scripts must
give exit code 0, 1 or 2 and never a traceback."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sprego.cli import main
from sprego.evaluator import FUNCTION_SPECS

_TABLE = b'x,y,name\n1,2,ann\n-0,,"b,o"\n3.5,#N/A,\n1e308,TRUE,cy\n'

_ATOMS = (
    "0", "1", "2.5", "1e308", "5e-324", ".5", "TRUE", "FALSE",
    '""', '"a"', '">1"', '"*x"', '"1"', '"<>a"',
    "A1", "B2", "C9", "A1:B3", "A1:A5", "$A$1", "B$2", "x", "y", "name", "zz",
)
_BINARY = ("+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">=")
_FUNCTIONS = (*sorted(FUNCTION_SPECS), "NOPE")
# pieces of formulas, for token soup that rarely parses
_TOKENS = (*_ATOMS, *_BINARY, "(", ")", ",", "{", "}", "=", "%", ":", "$", '"', "#", "SUM(", "IF(", " ")


@st.composite
def _expressions(draw, depth: int = 8, leaves: int = 12):
    """An expression nested at most *depth* levels, with at most about
    *leaves* atoms."""
    budget = [leaves]

    def expr(d):
        kind = draw(st.integers(0, 5)) if d and budget[0] > 0 else 0
        if kind == 0:
            budget[0] -= 1
            return draw(st.sampled_from(_ATOMS))
        if kind == 1:
            return expr(d - 1) + draw(st.sampled_from(_BINARY)) + expr(d - 1)
        if kind == 2:
            return "-" + expr(d - 1)
        if kind == 3:
            return expr(d - 1) + "%"
        if kind == 4:
            return "(" + expr(d - 1) + ")"
        args = [expr(d - 1) for _ in range(draw(st.integers(0, 3)))]
        return draw(st.sampled_from(_FUNCTIONS)) + "(" + ",".join(args) + ")"

    return expr(depth)


_FORMULAS = st.one_of(
    _expressions().map(lambda e: "=" + e),
    _expressions().map(lambda e: "{=" + e + "}"),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
)

_COMMANDS = st.sampled_from(
    (
        ("parse",),
        ("parse", "--format", "json"),
        ("eval", "--table", "{table}"),
        ("eval", "--table", "{table}", "--format", "json"),
        ("eval", "--table", "{table}", "--row", "2"),
        ("eval", "--table", "{table}", "--row", "9"),
        ("lint", "--table", "{table}"),
        ("rewrite",),
        ("rewrite", "--table", "{table}", "--format", "json"),
        ("report", "--table", "{table}"),
    )
)


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean(code, err, what):
    assert code in (0, 1, 2), what
    assert "Traceback" not in err, what


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_bytes(_TABLE)
    return str(path)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(formula=_FORMULAS, command=_COMMANDS)
def test_random_formulas(table, formula, command):
    argv = [table if a == "{table}" else a for a in command]
    argv[1:1] = ["--formula", formula]
    _assert_clean(*_run(argv), argv)


_CSV_BYTES = st.lists(
    st.sampled_from((b",", b'"', b"\r", b"\n", b"a", b"1", b".", b"e", b"-", b"TRUE", b" ", b"\xef\xbb\xbf", b"\xff", b"\xc3\xa9")),
    max_size=30,
).map(b"".join)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CSV_BYTES, no_header=st.booleans(), command=st.sampled_from(("profile", "eval", "repl")))
def test_random_csv_bytes(tmp_path_factory, data, no_header, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    argv = [command, "--table", str(path), *(["--no-header"] if no_header else [])]
    if command == "eval":
        argv += ["--formula", "=COUNTA(A1:B2)&SUM(C1)"]
    _assert_clean(*_run(argv, stdin="=A1\n:load " + str(path) + "\n=SUM(A1:A3)\n"), data)


_REPL_LINES = st.one_of(
    _FORMULAS,
    st.sampled_from(
        (":row 2", ":row", ":row x", ":row -1", ":row 99", ":seed 3", ":seed", ":seed y",
         ":load", ":load missing.csv", ":help", ":bogus", ":", "", "   ")
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_REPL_LINES, max_size=8), quit_=st.booleans())
def test_random_repl_scripts(table, lines, quit_):
    script = "\n".join(lines + ([":quit", "=1/0"] if quit_ else []))
    _assert_clean(*_run(["repl", "--table", table], stdin=script), script)
