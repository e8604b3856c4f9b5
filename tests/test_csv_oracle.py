"""load_csv against the character-at-a-time reader it replaced.

``helpers.oracle_load_csv`` is that reader with per-cell typing. Every
table must agree with it in headers and in each cell's type and value, and
every CsvError in line and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprego.cli import main
from sprego.table import CsvError, load_csv

from helpers import oracle_load_csv


def _loaded(text, has_header):
    """What load_csv gives, in the oracle's shape, or the error it raises."""
    try:
        t = load_csv(text, has_header=has_header)
    except CsvError as exc:
        return "error", exc.line, exc.message
    return "table", t.headers, [[(type(v), repr(v)) for v in col] for col in t.columns]


def _expected(text, has_header):
    try:
        headers, columns = oracle_load_csv(text, has_header)
    except CsvError as exc:
        return "error", exc.line, exc.message
    return "table", headers, [[(type(v), repr(v)) for v in col] for col in columns]


def assert_matches_oracle(text):
    for has_header in (True, False):
        assert _loaded(text, has_header) == _expected(text, has_header), (text, has_header)
        data = text.encode("utf-8")
        assert _loaded(data, has_header) == _expected(text, has_header), (data, has_header)


_ALPHABET = [",", '"', "\r", "\n", "a", "1", ".", "e", "-", "+", " ", "T", "é", "\ufeff"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join))
def test_random_text_matches_oracle(text):
    assert_matches_oracle(text)


# numeral-heavy records, so that whole columns of numerals are common
_FIELDS = ["1", "-2.5", ".5", "+3e2", "007", "1.", "1e", "nan", "1e999", "", " 1 ", '"1,2"', '""', '"a""b"', "TRUE"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=4), min_size=1, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
)
def test_random_records_match_oracle(records, newline, final_newline):
    text = newline.join(",".join(fields) for fields in records) + (newline if final_newline else "")
    assert_matches_oracle(text)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\r1,2\r3,4",  # lone CR ends records
        "a,b\r\n1,2\r\n",
        "a\n1\n\n2\n",  # an empty middle line is a record of one blank
        "a,b\n1,2",  # no final newline
        "a,b,c\n1\n1,2,3,4\n",  # ragged rows
        'a\n"x\ny"\n"open\nline\n',  # a quoted field over two lines, then an unterminated one
        'a\n"x\r\ny",2\nb"c\n',  # a quote inside an unquoted field after a multi-line field
        'a\n"x\ny"z\n',  # data after a closing quote, on the field's last line
        "v\n-0\n١\ntrue\n1.\nnan\n1e999\n1_000\n",
        'v\n" 1 "\n""\n\n',
        "v\n1\v\n2\x85\n3 \n",  # not line breaks
        "v\n1\x1c\n\x1f2\n",  # stripped, though float() alone rejects them
        "\ufeffscore,b\n1,2\n",
        "\ufeff\ufeffa\n1\n",  # only one mark is dropped
        "",
        "\n",
        ",\n",
        '""',
    ],
)
def test_fixed_cases_match_oracle(text):
    assert_matches_oracle(text)


def test_typing_of_numeral_like_fields():
    t = load_csv('v\n-0\n\u0661\ntrue\n1.\nnan\n1e999\n1_000\n" 1 "\n""\n\n')
    cells = t.columns[0]
    assert [(type(v), v) for v in cells] == [
        (float, -0.0), (str, "\u0661"), (bool, True), (str, "1."), (str, "nan"), (str, "1e999"),
        (str, "1_000"), (float, 1.0), (str, ""), (type(None), None),
    ]
    assert str(cells[0]) == "-0.0"


def test_numerals_padded_with_information_separators_are_numbers():
    t = load_csv("v\n1\x1c\n\x1f2\n")
    assert t.columns[0] == (1.0, 2.0)


# ---------------------------------------------------------------------------
# Byte order mark
# ---------------------------------------------------------------------------


def test_bom_is_dropped_from_bytes_and_text():
    for data in ("\ufeffscore,b\n1,2\n".encode("utf-8"), "\ufeffscore,b\n1,2\n"):
        t = load_csv(data)
        assert t.headers == ("score", "b")
        assert t.columns == ((1.0,), (2.0,))


def test_bom_keeps_error_lines_and_byte_offsets():
    with pytest.raises(CsvError) as exc:
        load_csv(b'\xef\xbb\xbfa\n1\n"x')
    assert exc.value.line == 3
    with pytest.raises(CsvError) as exc:
        load_csv(b"\xef\xbb\xbfa\n\xff")
    assert (exc.value.line, exc.value.message) == (2, "invalid UTF-8 at byte 5")


def test_bom_csv_through_eval(capsys, tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes("\ufeffscore,b\n1,2\n4,5\n".encode("utf-8"))
    code = main(["eval", "--table", str(path), "--formula", "=SUM(score)"])
    out = capsys.readouterr()
    assert (code, out.out.strip(), out.err) == (0, "5", "")
