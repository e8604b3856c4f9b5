import pytest

from sprego.equivalence import ColumnSpec, DatasetSchema, gen_dataset
from sprego.evaluator import EvalContext, _MaskedIf, _SplitView, evaluate
from sprego.formula import Call, CellRef, NameRef, RangeRef, parse
from sprego.table import CsvError, RangeView, Table, _partition, load_csv, profile, resolve, vector
from sprego.values import ErrorKind

from helpers import make_table


# ---------------------------------------------------------------------------
# load_csv typing rules
# ---------------------------------------------------------------------------


def test_load_basic_types():
    t = load_csv(b"name,age\nBob,7")
    assert t.headers == ("name", "age")
    assert t.columns[0] == ("Bob",)
    assert t.columns[1] == (7.0,)


def test_load_blank_row():
    t = load_csv(b"x\n\n")
    assert t.columns[0] == (None,)


def test_load_leading_zeros_parse_numeric():
    t = load_csv(b"v\n007")
    assert t.columns[0] == (7.0,)


def test_load_logicals_case_insensitive():
    t = load_csv(b"v\nTRUE\nfalse\ntrue")
    assert t.columns[0] == (True, False, True)


def test_load_quoted_empty_is_text_unquoted_is_blank():
    t = load_csv(b'v,w\n"",\n')
    assert t.columns[0] == ("",)
    assert t.columns[1] == (None,)


def test_load_grouped_number_is_text():
    t = load_csv(b'v\n"1,000"')
    assert t.columns[0] == ("1,000",)


def test_load_signed_decimal_exponent():
    t = load_csv(b"v\n-1.5\n+2\n1e3\n.5")
    assert t.columns[0] == (-1.5, 2.0, 1000.0, 0.5)


def test_load_non_numerals_stay_text():
    t = load_csv(b'v\nnan\ninf\n1.\n"1,2x"\n#N/A\n1 2')
    assert t.columns[0] == ("nan", "inf", "1.", "1,2x", "#N/A", "1 2")


def test_load_ragged_rows_padded():
    t = load_csv(b"a,b,c\n1,2\n4")
    assert t.columns[1] == (2.0, None)
    assert t.columns[2] == (None, None)


def test_load_quoted_field_with_newline_and_escape():
    t = load_csv(b'v\n"line1\nline2 ""q"""')
    assert t.columns[0] == ('line1\nline2 "q"',)


def test_load_crlf():
    t = load_csv(b"a,b\r\n1,2\r\n3,4\r\n")
    assert t.row_count == 2
    assert t.columns[0] == (1.0, 3.0)


def test_load_no_header():
    t = load_csv(b"1,2\n3,4", has_header=False)
    assert t.headers == ("C1", "C2")
    assert t.columns[0] == (1.0, 3.0)


def test_load_duplicate_headers_rejected():
    with pytest.raises(CsvError):
        load_csv(b"a,A\n1,2")


def test_load_unterminated_quote():
    with pytest.raises(CsvError) as exc:
        load_csv(b'a\n"oops')
    assert exc.value.line == 2


def test_load_stray_quote():
    with pytest.raises(CsvError):
        load_csv(b"a\nb\"c")


def test_load_data_after_closing_quote():
    with pytest.raises(CsvError):
        load_csv(b'a\n"x"y')


def test_load_invalid_utf8():
    with pytest.raises(CsvError):
        load_csv(b"a\n\xff\xfe")


def test_load_deterministic():
    data = b"a,b\n1,x\n,TRUE\n3.5,\n"
    assert load_csv(data) == load_csv(data)


def test_table_immutable_and_validated():
    with pytest.raises(ValueError):
        Table("t", ("a",), ((1.0,), (2.0,)))
    with pytest.raises(ValueError):
        Table("t", ("a", "b"), ((1.0,), (2.0, 3.0)))


def test_table_to_json():
    t = load_csv(b"a,b\n1,x")
    assert t.to_json() == {"name": "table", "headers": ["a", "b"], "rows": [[1.0, "x"]]}


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------


@pytest.fixture
def table():
    return make_table(age=(1, 2, 3), name=("a", "b", "c"))


def test_resolve_name_whole_column(table):
    view = resolve(table, NameRef("age"))
    assert isinstance(view, RangeView)
    assert (view.rows, view.cols) == (3, 1)
    assert view.cells == (1.0, 2.0, 3.0)


def test_resolve_name_case_insensitive(table):
    assert resolve(table, NameRef("AGE")).cells == (1.0, 2.0, 3.0)


def test_resolve_unknown_name(table):
    assert resolve(table, NameRef("nope")) is ErrorKind.NAME


def test_resolve_cell(table):
    assert resolve(table, CellRef("B", 2)) == "b"


def test_resolve_cell_out_of_bounds(table):
    assert resolve(table, CellRef("A", 5)) is ErrorKind.REF
    assert resolve(table, CellRef("C", 1)) is ErrorKind.REF


def test_resolve_range(table):
    view = resolve(table, RangeRef(CellRef("A", 1), CellRef("A", 3)))
    assert (view.rows, view.cols) == (3, 1)
    assert view.cells == (1.0, 2.0, 3.0)


def test_resolve_rect_row_major(table):
    view = resolve(table, RangeRef(CellRef("A", 1), CellRef("B", 2)))
    assert (view.rows, view.cols) == (2, 2)
    assert view.cells == (1.0, "a", 2.0, "b")
    assert view.at(2, 1) == 2.0
    assert view.column(2).cells == ("a", "b")
    assert view.row(1).cells == (1.0, "a")


def test_resolve_range_partially_out(table):
    assert resolve(table, RangeRef(CellRef("A", 1), CellRef("A", 9))) is ErrorKind.REF


def test_resolve_reversed_range_built_by_hand():
    # a RangeRef orders its corners however it is built, so it covers the
    # same cells whichever way its endpoints run
    t = make_table(a=(1, 3, 5), b=(2, 4, 6))
    ordered = resolve(t, RangeRef(CellRef("A", 1), CellRef("B", 3)))
    assert evaluate(parse("=SUM(B3:A1)"), EvalContext(t)) == 21.0
    for start, end in (("B3", "A1"), ("A3", "B1"), ("B1", "A3")):
        start, end = CellRef(start[0], int(start[1])), CellRef(end[0], int(end[1]))
        assert resolve(t, RangeRef(start, end)) == ordered
        assert evaluate(Call("SUM", (RangeRef(start, end),)), EvalContext(t)) == 21.0
    column = resolve(t, RangeRef(CellRef("A", 3), CellRef("A", 1)))
    assert column == RangeView(3, 1, (1.0, 3.0, 5.0)) and column.kind is float
    assert resolve(t, RangeRef(CellRef("B", 3), CellRef("B", 2))).cells == (4.0, 6.0)
    assert resolve(t, RangeRef(CellRef("A", 9), CellRef("A", 1))) is ErrorKind.REF
    assert resolve(t, RangeRef(CellRef("C", 1), CellRef("A", 1))) is ErrorKind.REF


def _resolve_cell_by_cell(table, ref):
    """The range built one table.cell at a time, row-major."""
    start, end = ref.start, ref.end
    cells = tuple(
        table.cell(r, c) for r in range(start.row, end.row + 1) for c in range(start.col, end.col + 1)
    )
    return RangeView(end.row - start.row + 1, end.col - start.col + 1, cells)


_MIXED_SCHEMA = DatasetSchema(
    (
        ColumnSpec("a"),
        ColumnSpec("b", "with-errors"),
        ColumnSpec("c", "with-blanks"),
        ColumnSpec("d", "mixed", mixed_types=("number", "text", "logical", "blank", "error")),
        ColumnSpec("e", "text"),
    ),
    rows=12,
)


@pytest.mark.parametrize("text", ["B3:D7", "C2:C2", "A1:E12", "A2:E9", "E5:E12", "B12:D12", "D4:E4"])
def test_resolve_subrange_matches_cell_by_cell(text):
    for seed in range(3):
        t = gen_dataset(_MIXED_SCHEMA, seed)
        ref = parse("=" + text).body
        got = resolve(t, ref)
        want = _resolve_cell_by_cell(t, ref)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("kind", ["with-errors", "with-blanks", "mixed"])
@pytest.mark.parametrize(
    "text",
    [
        "A1:A20*2",
        "A2:A21-B1:B20",
        "IF(A1:A20>5,B1:B20,C2:C21)",
        "IFERROR(A1:A20/B1:B20,-1)",
        'LEN(c&"")+ISERROR(a+0)',
        "A1:C1+1",
    ],
)
def test_scalar_copy_down_matches_array_entry(kind, text):
    # copying a formula down row by row gives, at every row, the element
    # of the array-entered formula's result at that row
    schema = DatasetSchema(tuple(ColumnSpec(n, kind) for n in "abc"), rows=21)
    for seed in range(3):
        t = gen_dataset(schema, seed)
        array = evaluate(parse("{=" + text + "}"), EvalContext(t))
        assert isinstance(array, RangeView)
        formula = parse("=" + text)
        for row in range(1, len(array) + 1):
            got = evaluate(formula, EvalContext(t, mode="scalar", current_row=row))
            assert repr(got) == repr(array.element(row)), (seed, row)


def test_rangeview_validation():
    with pytest.raises(ValueError):
        RangeView(2, 2, (1.0,))
    assert vector([1.0, 2.0]).is_vector


def _split_and_masked():
    """A _SplitView and a _MaskedIf, with the plain views of their cells."""
    cells = (1.0, "a", 2.0, None)
    split = _SplitView(4, 1, 1, _partition(cells), RangeView(2, 1, (1.0, 2.0), kind=float), ("a", None), False)
    cond = RangeView(2, 1, (True, False), kind=bool)
    masked = _MaskedIf(cond, RangeView(2, 1, (1.0, 2.0), kind=float), 0.0, None, [], make_table(x=[1.0, 2.0]))
    return (split, RangeView(4, 1, cells)), (masked, RangeView(2, 1, (1.0, 0.0)))


def test_rangeview_equality_and_hash_ignore_kind_and_source():
    plain = RangeView(3, 1, ("a", "b", "c"))
    for other in (RangeView(3, 1, ("a", "b", "c"), kind=str), RangeView(3, 1, ("a", "b", "c"), str, 2)):
        assert plain == other and not plain != other
        assert hash(plain) == hash(other) == hash((3, 1, ("a", "b", "c")))
    assert plain != RangeView(1, 3, ("a", "b", "c"))
    assert plain != RangeView(3, 1, ("a", "b", "d"))
    assert plain != ("a", "b", "c") and plain != 3
    assert len({plain, RangeView(3, 1, ("a", "b", "c"), kind=str)}) == 1


def test_unbuilt_views_never_equal_a_plain_view():
    for unbuilt, plain in _split_and_masked():
        assert unbuilt.cells == plain.cells and (unbuilt.rows, unbuilt.cols) == (plain.rows, plain.cols)
        assert unbuilt != plain and plain != unbuilt
        assert not unbuilt == plain and not plain == unbuilt
        assert unbuilt == unbuilt


def test_rangeview_repr_names_its_class_and_shape_and_cells():
    assert repr(RangeView(2, 1, (1.0, "a"), kind=None, source=3)) == "RangeView(rows=2, cols=1, cells=(1.0, 'a'))"
    assert repr(RangeView(1, 1, (ErrorKind.NA,), kind=None)) == "RangeView(rows=1, cols=1, cells=(<ErrorKind.NA: '#N/A'>,))"
    (split, _), (masked, _) = _split_and_masked()
    assert repr(split) == "_SplitView(rows=4, cols=1, cells=(1.0, 'a', 2.0, None))"
    assert repr(masked) == "_MaskedIf(rows=2, cols=1, cells=(1.0, 0.0))"


def test_rangeview_size_check_runs_through_post_init(monkeypatch):
    for rows, cols, cells in ((2, 2, (1.0,)), (1, 2, (1.0, 2.0, 3.0)), (0, 1, (None,))):
        with pytest.raises(ValueError, match=f"{rows}x{cols} view needs {rows * cols} cells, got {len(cells)}"):
            RangeView(rows, cols, cells)
    assert RangeView(0, 3, ()).cells == ()
    calls = []
    monkeypatch.setattr(RangeView, "__post_init__", lambda self: calls.append(self.cells))
    RangeView(1, 1, (1.0,))
    assert calls == [(1.0,)]


def test_rangeview_keeps_no_instance_dict():
    assert not hasattr(RangeView(1, 1, (1.0,)), "__dict__")


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_counts_and_minmax():
    t = make_table(x=(1, 2, None))
    p = profile(t)[0]
    assert p.counts == {"number": 2, "text": 0, "logical": 0, "error": 0, "blank": 1}
    assert p.dominant == "number"
    assert p.minimum == 1 and p.maximum == 2


def test_profile_all_blank():
    p = profile(make_table(x=(None, None)))[0]
    assert p.dominant == "blank"
    assert p.minimum is None


def test_profile_tie_break_order():
    p = profile(make_table(x=(1, "a")))[0]
    assert p.counts["number"] == 1 and p.counts["text"] == 1
    assert p.dominant == "number"
    q = profile(make_table(x=("a", True)))[0]
    assert q.dominant == "text"
    r = profile(make_table(x=(True, ErrorKind.NA)))[0]
    assert r.dominant == "logical"


def test_profile_counts_partition_rows():
    t = make_table(x=(1, "a", True, ErrorKind.DIV0, None, 2.5))
    p = profile(t)[0]
    assert sum(p.counts.values()) == t.row_count


def test_profile_via_parsed_refs():
    # resolve cooperates with parser-produced references
    t = make_table(age=(5, 6, 7))
    ref = parse("=A1:A3").body
    assert resolve(t, ref).cells == (5.0, 6.0, 7.0)
