from __future__ import annotations

import csv
import marshal
import math
import os
import random
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_csv_oracle, serialize_csv
from polyrep import csvcache, dataset
from polyrep.chartspec import inline_dataset
from polyrep.dataset import Column, Dataset, format_number, parse_csv
from polyrep.errors import CsvParseError, DataError


def test_numeric_inference():
    data = parse_csv(b"x\n1\n2\n")
    assert data.columns["x"].kind == "numeric"
    assert data.columns["x"].values == (1.0, 2.0)


def test_mixed_forces_categorical():
    data = parse_csv(b"x\n1\nfoo\n")
    col = data.columns["x"]
    assert col.kind == "categorical"
    assert col.values == ("1", "foo")


def test_missing_cells_and_na():
    data = parse_csv(b"a,b\n1,x\n,NA\n3,y\n")
    assert data.columns["a"].values == (1.0, None, 3.0)
    assert data.columns["b"].values == ("x", None, "y")
    assert data.n_rows == 3


def test_penguins_species_counts(penguins):
    assert penguins.n_rows == 344
    species = penguins.columns["species"]
    assert species.kind == "categorical"
    assert species.values.count("Adelie") == 152
    assert species.values.count("Chinstrap") == 68
    assert species.values.count("Gentoo") == 124


def test_ragged_row_reports_row_number():
    with pytest.raises(CsvParseError) as err:
        parse_csv(b"a,b\n1,2\n3\n")
    assert err.value.row == 3
    assert "row 3" in str(err.value)


def test_duplicate_header_rejected():
    with pytest.raises(CsvParseError, match="duplicate"):
        parse_csv(b"a,a\n1,2\n")


def test_empty_header_name_rejected():
    with pytest.raises(CsvParseError):
        parse_csv(b"a,\n1,2\n")


def test_quoted_fields_and_crlf():
    data = parse_csv(b'name,note\r\n"Smith, J","say ""hi"""\r\n')
    assert data.columns["name"].values == ("Smith, J",)
    assert data.columns["note"].values == ('say "hi"',)


def test_quoted_field_with_embedded_newline():
    data = parse_csv(b'a,b\n"line one\nline two",2\n')
    assert data.n_rows == 1
    assert data.columns["a"].values == ("line one\nline two",)
    assert data.columns["b"].values == (2.0,)


def test_not_utf8_rejected():
    with pytest.raises(CsvParseError, match="UTF-8"):
        parse_csv(b"x\n\xff\xfe\n")


def test_non_finite_spellings_are_categorical():
    data = parse_csv(b"x\n1\nnan\ninf\n")
    assert data.columns["x"].kind == "categorical"


def test_underscored_numbers_are_categorical():
    assert parse_csv(b"x\n1_0\n2\n").columns["x"].kind == "categorical"


def test_column_length_mismatch_rejected():
    with pytest.raises(DataError):
        Dataset({"x": Column("numeric", (1.0,))}, n_rows=2)


def test_categorical_rejects_reserved_missing_tokens():
    with pytest.raises(DataError):
        Column("categorical", ("NA",))
    with pytest.raises(DataError):
        Column("categorical", ("",))


@pytest.mark.parametrize(
    "kind,values,bad",
    [
        ("numeric", (1.0, None, math.nan, 2.0), math.nan),
        ("numeric", (0.0, -0.0, None, math.inf), math.inf),
        ("numeric", (1.0, -math.inf), -math.inf),
        ("numeric", (1.0, None, 3), 3),
        ("numeric", (1.0, True), True),
        ("categorical", ("a", None, 1.0), 1.0),
        ("categorical", ("a", 2), 2),
        ("categorical", ("a", b"b"), b"b"),
        ("numeric", (1.0, "2"), "2"),
    ],
)
def test_column_rejects_invalid_value_by_name(kind, values, bad):
    with pytest.raises(DataError) as err:
        Column(kind, values)
    message = str(err.value)
    assert repr(bad) in message
    if kind == "categorical":
        assert message == f"categorical column holds invalid value {bad!r}"
    elif isinstance(bad, float):
        assert message == f"numeric column holds non-finite value {bad!r}"
    else:  # a wrong type is not reported as non-finite
        assert message == (
            f"numeric column holds {type(bad).__name__} value {bad!r}, expected float"
        )


def test_parse_csv_types_columns_without_checking_them_again(monkeypatch):
    def no_recheck(self):
        raise AssertionError("Column.__post_init__ called")

    monkeypatch.setattr(Column, "__post_init__", no_recheck)
    # CSV and inline data alike are checked once, where they are typed
    for data in (parse_csv(b"a,b\n1.5,x\nNA,NA\n2,x\n"),
                 inline_dataset({"a": [1.5, None, 2], "b": ["x", None, "x"]})):
        a, b = data.columns["a"], data.columns["b"]
        assert (a.kind, a.values, a.n_missing()) == ("numeric", (1.5, None, 2.0), 1)
        assert (b.kind, b.values, b.n_missing()) == ("categorical", ("x", None, "x"), 1)


def test_column_accepts_zeros_and_float_subclasses():
    assert Column("numeric", (0.0, -0.0, None, 1.5)).values[:2] == (0.0, 0.0)
    Column("numeric", (np.float64(2.5), None))  # isinstance(float) holds


def test_roundtrip_penguins(penguins):
    assert parse_csv(serialize_csv(penguins)) == penguins


_names = st.text(
    st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8
)
_cells = st.one_of(
    st.none(),
    st.integers(-1000, 1000).map(float),
    st.text(
        st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=6
    ).filter(lambda s: s != "NA"),  # reserved missing token
)


@given(
    names=st.lists(_names, min_size=1, max_size=4, unique=True),
    rows=st.integers(0, 12),
    data=st.data(),
)
def test_roundtrip_random(names, rows, data):
    columns = {}
    for name in names:
        raw = data.draw(st.lists(_cells, min_size=rows, max_size=rows))
        present = [v for v in raw if v is not None]
        # all-missing columns infer numeric, matching the parser
        if all(isinstance(v, float) for v in present):
            columns[name] = Column("numeric", tuple(raw))
        else:
            columns[name] = Column(
                "categorical",
                tuple(None if v is None else str(v) for v in raw),
            )
    ds = Dataset(columns, rows)
    assert parse_csv(serialize_csv(ds)) == ds


@pytest.mark.parametrize(
    "value,expected",
    [(50.0, "50"), (0.0, "0"), (1.5, "1.5"), (-3.0, "-3"), (0.2, "0.2"),
     (152.0, "152"), (1e-5, "0.00001")],
)
def test_format_number(value, expected):
    assert format_number(value) == expected


# -- the column-at-a-time parser against the original row-by-row one -----------


def _assert_same_as_oracle(data: bytes) -> None:
    """parse_csv gives the reference parser's Dataset, column order included,
    or raises CsvParseError with the same message and record number."""
    try:
        expected = parse_csv_oracle(data)
    except CsvParseError as exc:
        with pytest.raises(CsvParseError) as got:
            parse_csv(data)
        assert (str(got.value), got.value.row) == (str(exc), exc.row)
        return
    got = parse_csv(data)
    assert got == expected
    assert list(got.columns) == list(expected.columns)


@pytest.mark.parametrize(
    "data",
    [
        b"",  # empty input
        b"\n",  # a blank header and no rows
        b"\r\n\r\n",
        b"\nx\n",  # a blank header, then a record
        b"x\n\n1\n\n\nNA\n 2 \n\n",  # one column with blank lines
        b"x\r\rabc\r\r",
        b'"x"\n\n1\n\n\n2\n',
        b"a,b\n\n\n1\n",  # ragged after blank lines: record 4
        b"a,b\r\n\r\n1,2\r\n3,4,5\r\n",
        b'a,b\n\n"1"\n',
        b"a,a\n1\n",  # header error and a ragged row: the header error wins
        b"a, \n1,2,3\n",
        b'a,a\n"1"\n',
        b"a,b\n1,2\n3\n4,5,6\n",  # the first ragged row is reported
        b"x,y\n 1 , NA\n2,\n_,inf\n",
        b"x\n1_0\n",
        b"x,y\nnan,1e3\n-inf,-0\n",
        b'x\n"a\nb"\n"1"\n',  # an embedded newline shifts rows from records
        b"x,y\nNA,1\n,2\n NA ,3\n",  # an all-missing column is numeric
        b"x,y\nNA,1\n2,2\n3,NA\n",  # NA as the first and the last cell
        b'x,y\n"",1\n2,"2"\n"NA",3\n',
        b"x\n+1\n-0\n1e400\n",  # overflows to inf: categorical
        # one field too many and one too few: the cell count is right
        b"a,b,c\n1,2,3,4\n5,6\n",
        b"a,b,c\n1,2,3,4\n5,6,7\n8,9\n",
        b"x\n1\n2\nNA\n",  # the one missing cell is the last
        b"x,y\n \t,1\n,2\n \t ,3\n",  # whitespace-only cells are missing
        "x,y\n\u3000,a\n1,b\n".encode(),
        # whitespace str.strip() drops around numbers; float() keeps \x1c
        "x\n\u3000 1\n\x0c2\n\x1c3\n".encode(),
        "x,y\n\u3000 1,\x1c3\n\x0c2,4\n".encode(),
    ],
)
def test_parser_edge_cases_match_oracle(data):
    _assert_same_as_oracle(data)


# fragments chosen to hit quoting, line ends, missing and non-numeric spellings
_PIECES = (",", '"', "\r", "\n", "\r\n", " ", "NA", "_", "inf", "nan", "-",
           ".", "e", "0", "1", "7", "a", "Q")
_NUMBERS = ("", " ", "NA", " NA ", "0", "-0", "-1", "+1", "2.5", " 3 ", "1e2", ".5",
            "inf", "1e400", "1_0", "0x1", "\u0661", " \t", "\u3000", "\u3000 1", "\x0c2",
            "\x1c3")


@st.composite
def _tables(draw):
    """Mostly well-formed CSV: random cells, line ends, blank and ragged rows."""
    n = draw(st.integers(1, 4))
    soup = st.lists(st.sampled_from(_PIECES), max_size=3).map("".join)
    header = draw(st.one_of(
        st.just([f"c{j}" for j in range(n)]),
        st.lists(soup, min_size=n, max_size=n),
    ))
    cell_kinds = [st.sampled_from(_NUMBERS) if draw(st.booleans()) else soup
                  for _ in range(n)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(("row", "row", "row", "blank", "ragged")))
        if shape == "blank":
            lines.append("")
        elif shape == "ragged":
            lines.append(",".join(["1"] * draw(st.integers(1, n + 2))))
        else:
            lines.append(",".join(draw(kind) for kind in cell_kinds))
    ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    _tables(),
))
def test_parser_matches_oracle_on_random_text(text):
    _assert_same_as_oracle(text.encode("utf-8"))


def _seeded_cells(rng: random.Random, n: int) -> list[str]:
    """Mostly numbers, about 70% of them distinct, with missing cells."""
    cells = []
    for _ in range(n):
        r = rng.random()
        if r < 0.03:
            cells.append(rng.choice(("NA", " NA", "", " ")))
        else:
            cells.append(f"{rng.randrange(6500) / 100}")
    return cells


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("seed", [3, 4])
def test_large_columns_match_oracle(seed, quoted):
    rng = random.Random(seed)
    num = _seeded_cells(rng, 5000)
    cat = list(num)
    cat[rng.randrange(len(cat))] = "n/a"
    present = [c.strip() for c in num if c.strip() not in ("", "NA")]
    assert 0.6 < len(set(present)) / len(num) < 0.8
    header = '"num",cat' if quoted else "num,cat"
    data = "\n".join([header, *map(",".join, zip(num, cat))]).encode()
    _assert_same_as_oracle(data)

    got = parse_csv(data)
    assert got.columns["num"].kind == "numeric"
    assert got.columns["cat"].kind == "categorical"
    first: dict[str, str] = {}  # equal strings share one object
    for v in filter(None, got.columns["cat"].values):
        assert v is first.setdefault(v, v)


@pytest.mark.parametrize("quoted", [False, True])
def test_utf8_bom_is_dropped(quoted):
    header = b'"species"' if quoted else b"species"
    data = parse_csv(b"\xef\xbb\xbf" + header + b"\nA\n")
    assert list(data.columns) == ["species"]
    assert data.columns["species"].values == ("A",)


LIMIT = csv.field_size_limit()


def _quote(field: str, quoted: bool) -> str:
    return f'"{field}"' if quoted else field


@pytest.mark.parametrize("quoted", [False, True])
def test_overlong_field_reports_its_record(quoted):
    long = _quote("x" * (LIMIT + 1), quoted)
    message = f"field larger than field limit ({LIMIT})"
    with pytest.raises(CsvParseError) as err:
        parse_csv(f"a,b\n1,2\n\n{long},3\n4\n".encode())
    assert (err.value.row, str(err.value)) == (4, f"row 4: {message}")
    with pytest.raises(CsvParseError) as err:
        parse_csv(f"a,{long}\n1,2\n".encode())
    assert (err.value.row, str(err.value)) == (1, f"row 1: {message}")
    with pytest.raises(CsvParseError, match="row 2: expected 2 fields"):
        parse_csv(f"a,b\n1\n{long},3\n".encode())


@pytest.mark.parametrize("quoted", [False, True])
def test_field_at_the_size_limit_parses(quoted):
    # the line is longer than the limit, no field is
    edge = _quote("x" * LIMIT, quoted)
    data = parse_csv(f"a,b\n{edge},y\n".encode())
    assert data.columns["a"].values == ("x" * LIMIT,)


# -- parsing only the columns a chart binds -----------------------------------


def _assert_projection_same_as_oracle(data: bytes, columns) -> None:
    """parse_csv(data, columns) gives the reference parser's Dataset
    restricted to `columns`, in header order, or raises CsvParseError with
    the same message and record number.

    The reference lets an overlong field escape as csv.Error; there the
    projected parse must fail exactly as the whole parse does.
    """
    try:
        expected = parse_csv_oracle(data)
    except (CsvParseError, csv.Error) as exc:
        if isinstance(exc, csv.Error):
            with pytest.raises(CsvParseError) as whole:
                parse_csv(data)
            exc = whole.value
            assert str(exc).endswith(f"field larger than field limit ({csv.field_size_limit()})")
        with pytest.raises(CsvParseError) as got:
            parse_csv(data, columns)
        assert (str(got.value), got.value.row) == (str(exc), exc.row)
        return
    kept = {name: col for name, col in expected.columns.items() if name in columns}
    got = parse_csv(data, columns)
    assert got == Dataset(kept, expected.n_rows)
    assert list(got.columns) == list(kept)


@pytest.mark.parametrize(
    "data, columns",
    [
        (b"a,b\n1,2\n3\n", ("a",)),  # ragged in the unbound column: record 3
        (b'a,b\n1,"2"\n3,4,5\n', ("b",)),
        (b"a,b,c\n1,x,2\nNA,y,\n", ("c", "nope", None)),
        (b"a,b,c\n1,x,2\n", ("nope",)),  # no bound name in the header
        (b'a,b\n"1\n2",x\n3,y\n', ("b", "a")),  # header order, not bound order
        (b"a,a\n1,2\n", ("b",)),  # a header error whatever is bound
        (b"", ("a",)),
    ],
)
def test_projection_edge_cases_match_oracle(data, columns):
    _assert_projection_same_as_oracle(data, columns)


@pytest.mark.parametrize("quoted", [False, True])
def test_overlong_field_in_an_unbound_column_reports_its_record(quoted):
    long = _quote("x" * (LIMIT + 1), quoted)
    with pytest.raises(CsvParseError) as err:
        parse_csv(f"a,b\n1,2\n3,{long}\n".encode(), columns=("a",))
    assert err.value.row == 3


@st.composite
def _late_word_tables(draw):
    """Columns of numbers, missing cells and non-numbers, one of which may
    hold a word only after many records, in a later chunk than its first
    numbers; the header may be quoted, so that both splitters type them."""
    n = draw(st.integers(1, 3))
    spellings = st.sampled_from(("", "NA", " NA ", " \t", "\x1c3", "\u3000 1", "1_0", "inf",
                                 "nan", "-0", "2.5", " 3 ", "1e2", "7"))
    rows = draw(st.lists(st.lists(spellings, min_size=n, max_size=n), min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(len(rows) // 2, len(rows) - 1))
        rows[row][draw(st.integers(0, n - 1))] = draw(st.sampled_from(("a", "Q", "n/a")))
    header = [f"c{j}" for j in range(n)]
    if draw(st.booleans()):
        header[0] = '"c0"'
    return "\n".join(map(",".join, [header, *rows]))


_TEXTS = st.one_of(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join), _tables(),
                   _late_word_tables())
_COLUMN_NAMES = st.lists(st.one_of(
    st.none(),
    st.sampled_from(("c0", "c1", "c2", "c3", "nope")),
    st.lists(st.sampled_from(_PIECES), max_size=3).map("".join),
), max_size=4)
_LIMITS = st.one_of(st.none(), st.integers(2, 5))


def _assert_projection_same_as_oracle_at_limit(data: bytes, columns, limit) -> None:
    # a small field size limit makes some records overlong, bound or not
    old = csv.field_size_limit(limit) if limit is not None else None
    try:
        _assert_projection_same_as_oracle(data, columns)
    finally:
        if old is not None:
            csv.field_size_limit(old)


@settings(max_examples=300, deadline=None)
@given(text=_TEXTS, columns=_COLUMN_NAMES, limit=_LIMITS)
def test_projection_matches_oracle_on_random_text(text, columns, limit):
    _assert_projection_same_as_oracle_at_limit(text.encode("utf-8"), columns, limit)


# -- chunks of the unquoted parser ----------------------------------------------


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=200, deadline=None)
@given(text=_TEXTS, columns=_COLUMN_NAMES, limit=_LIMITS)
def test_projection_in_small_chunks_matches_oracle(chunk, text, columns, limit):
    # records, blank lines, CR and CRLF ends, ragged and overlong records
    # straddle the chunk ends
    with mock.patch.object(dataset, "_CHUNK", chunk):
        _assert_projection_same_as_oracle_at_limit(text.encode("utf-8"), columns, limit)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_ragged_and_overlong_records_across_chunks_report_their_record(chunk):
    lines = ["a,b,c", *(f"{i},{i % 7},x{i}" for i in range(3, 200)), ""]
    lines[150] = "1,2,3,4"  # record 151
    lines[40] = ""  # blank lines count as records
    with mock.patch.object(dataset, "_CHUNK", chunk):
        for end in ("\n", "\r\n", "\r"):
            data = end.join(lines).encode()
            with pytest.raises(CsvParseError) as err:
                parse_csv(data, columns=("b",))
            assert (str(err.value), err.value.row) == ("row 151: expected 3 fields, found 4", 151)
        old = csv.field_size_limit(4)
        try:
            with pytest.raises(CsvParseError) as err:
                parse_csv("\n".join(lines[:100] + ["1,12345,3"]).encode(), columns=("a",))
        finally:
            csv.field_size_limit(old)
        assert (str(err.value), err.value.row) == ("row 101: field larger than field limit (4)", 101)


def test_a_deep_ragged_record_reports_its_number():
    # 20,000 records; the 15,000th lies past the first chunk
    lines = ["a,b,c", *(f"{i},{i % 7},{i / 3:.3f}" for i in range(2, 20_001))]
    lines[14_999] += ",9"
    with pytest.raises(CsvParseError) as err:
        parse_csv("\n".join(lines).encode(), columns=("a",))
    assert str(err.value) == "row 15000: expected 3 fields, found 4"
    del lines[14_999]
    assert parse_csv("\n".join(lines).encode(), columns=("a",)).n_rows == 19_998


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_a_late_word_costs_one_more_split(chunk, quoted):
    # "a" and "b" are numbers until record 151 and 171, in later chunks than
    # their first numbers; "c" stays numeric
    lines = ['"a",b,c' if quoted else "a,b,c",
             *(f"{i},{i % 5}, {i / 4}" for i in range(2, 201))]
    lines[150] = "word,1,2"
    split = "_split_quoted" if quoted else "_split_plain"
    for switching in (("a",), ("a", "b"), ("c",), ("a", "b", "c")):
        if "b" in switching:
            lines[170] = "1,NA word,2"
        data = "\n".join(lines).encode()
        expected = parse_csv_oracle(data)
        with mock.patch.object(dataset, "_CHUNK", chunk), \
                mock.patch.object(dataset, split, wraps=getattr(dataset, split)) as spy:
            got = parse_csv(data, switching)
        assert got == Dataset({name: expected.columns[name] for name in switching},
                              expected.n_rows)
        lost = [name for name in switching if name != "c"]
        assert [got.columns[name].kind for name in lost] == ["categorical"] * len(lost)
        # the first split, and one more for all the columns it lost
        assert spy.call_count == (2 if lost else 1)
        if lost:
            assert spy.call_args.args[1:] == (set(lost), set(lost))


def _peak_bytes(data: bytes, columns) -> int:
    tracemalloc.start()
    try:
        parse_csv(data, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("quoted", [False, True])
def test_one_bound_column_holds_less_than_all(quoted):
    rng = random.Random(7)
    groups, levels = ("north", "south", "east"), [f"level{i}" for i in range(8)]
    rows = [(rng.choice(groups), rng.choice(levels),
             f"{rng.triangular(0, 200):.3f}", f"{rng.random():.4f}") for _ in range(20_000)]
    header = '"grp",cat,value,weight' if quoted else "grp,cat,value,weight"
    data = "\n".join([header, *map(",".join, rows)]).encode()
    # only the bound column's cells are kept: the parse holds less than the
    # three unbound columns' cell strings would take
    unbound = sum(sys.getsizeof(cell) for row in rows for cell in row[:2] + row[3:])
    assert _peak_bytes(data, ("value",)) < unbound


@pytest.mark.parametrize("quoted", [False, True])
def test_a_bound_numeric_column_never_holds_its_cells(quoted):
    rng = random.Random(11)
    cells = [repr(rng.uniform(0, 200)) for _ in range(20_000)]  # full-precision doubles
    header = '"grp",value' if quoted else "grp,value"
    data = "\n".join([header, *(f"{rng.choice('abc')},{c}" for c in cells)]).encode()
    # each chunk's cells are typed before the next is split, so the column
    # costs its floats, never the text of its cells
    assert (_peak_bytes(data, ("value",)) - _peak_bytes(data, ())
            < sum(map(sys.getsizeof, cells)))


# -- typing a column ------------------------------------------------------------


@pytest.mark.parametrize("cells", [
    ["NA", "1.5", " 2 ", "3e1", "4"],
    ["1.5", " 2 ", "", "3e1", "NA", "4"],
    ["1.5", " 2 ", "3e1", "4", " NA "],
])
def test_each_number_is_converted_once(monkeypatch, cells):
    data = "\n".join(["x,y", *(f"{c},{i}" for i, c in enumerate(cells))]).encode()
    calls = []

    def counting_float(cell):
        calls.append(cell.strip())
        return float(cell)

    with monkeypatch.context() as patch:
        patch.setattr(dataset, "float", counting_float, raising=False)
        got = parse_csv(data, columns=("x",)).columns["x"]
    assert got == parse_csv_oracle(data).columns["x"]
    assert got.kind == "numeric"
    numbers = [c.strip() for c in cells if c.strip() not in ("", "NA")]
    assert sorted(c for c in calls if c not in ("", "NA")) == sorted(numbers)


# -- the column cache of a large CSV --------------------------------------------


def _entries(cache) -> list:
    directory = cache / "polyrep"
    return sorted(directory.iterdir()) if directory.exists() else []


def _big_csv(path, seed: int = 0, late: str = "") -> bytes:
    """Write a table of (grp, value, note) at least `_CACHE_MIN_BYTES` long,
    its last record `late`; return its bytes."""
    rng = random.Random(seed)
    rows = ["grp,value,note"]
    size = len(rows[0])
    while size < dataset._CACHE_MIN_BYTES:
        rows.append(f"{rng.choice(('north', 'south', 'east'))},{rng.uniform(0, 200):.3f},"
                    f"{rng.choice(('a', 'b', 'NA', ''))}")
        size += len(rows[-1]) + 1
    data = "\n".join(rows + [late] * bool(late)).encode()
    path.write_bytes(data)
    return data


def _counted_parse(monkeypatch) -> list:
    """The `columns` of each parse_csv call from here on."""
    calls = []

    def counted(data, columns=None):
        calls.append(None if columns is None else list(columns))
        return parse_csv(data, columns)

    monkeypatch.setattr(dataset, "parse_csv", counted)
    return calls


def _assert_same_dataset(got: Dataset, expected: Dataset) -> None:
    assert list(got.columns) == list(expected.columns)
    assert got.n_rows == expected.n_rows
    for name, column in expected.columns.items():
        assert (got.columns[name].kind, got.columns[name].values) == (column.kind, column.values)
        first: dict[str, str] = {}  # equal level strings are one object
        if column.kind == "categorical":
            for v in filter(None, got.columns[name].values):
                assert v is first.setdefault(v, v)


@st.composite
def _large_tables(draw):
    """Tables of 1 to 4 columns of numbers, missing cells and words, their
    records repeated until the text reaches `_CACHE_MIN_BYTES`; the header
    may be quoted, so that both splitters read them."""
    n = draw(st.integers(1, 4))
    header = [f"c{j}" for j in range(n)]
    if draw(st.booleans()):
        header[0] = '"c0"'
    cell = st.sampled_from(_NUMBERS + ("a", "Q", "n/a", "Adelie"))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=6))
    body = "".join(",".join(row) + "\n" for row in rows)
    return (",".join(header) + "\n" + body * -(-dataset._CACHE_MIN_BYTES // len(body))).encode()


_REQUESTS = st.lists(st.one_of(st.none(), st.sampled_from(("c0", "c1", "c2", "c3", "nope"))),
                     max_size=4)


@settings(max_examples=25, deadline=None)
@given(data=_large_tables(), first=_REQUESTS, second=_REQUESTS)
def test_load_csv_cold_then_warm_equals_parse_csv(data, first, second):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict("os.environ", {"XDG_CACHE_HOME": tmp}):
        path = f"{tmp}/t.csv"
        with open(path, "wb") as f:
            f.write(data)
        # cold, then a request that may share some of its columns, then warm,
        # the first request reordered too
        _assert_same_dataset(dataset.load_csv(path, first), parse_csv(data, first))
        _assert_same_dataset(dataset.load_csv(path, second), parse_csv(data, second))
        with mock.patch.object(dataset, "parse_csv", side_effect=AssertionError("parsed")):
            for columns in (first, second, first[::-1]):
                if any(columns):
                    _assert_same_dataset(dataset.load_csv(path, columns),
                                         parse_csv(data, columns))


def test_load_csv_keeps_one_entry_per_column_set(tmp_path, xdg_cache, monkeypatch):
    path = tmp_path / "big.csv"
    data = _big_csv(path)
    calls = _counted_parse(monkeypatch)
    assert dataset.load_csv(path, ("value", None)) == parse_csv(data, ("value",))
    got = dataset.load_csv(path, ("value", "grp"))
    assert list(got.columns) == ["grp", "value"]
    assert got == parse_csv(data, ("grp", "value"))
    assert calls == [["value"], ["value", "grp"]]
    assert len(_entries(xdg_cache)) == 2  # one per request
    reordered = dataset.load_csv(path, ("grp", "value"))  # the same set: a hit
    assert list(reordered.columns) == ["grp", "value"] and reordered == got
    assert len(calls) == 2
    # another set misses once; its absent name has no entry of its own and
    # is left out of the set's entry, as parse_csv leaves it out
    olds = _entries(xdg_cache)
    for _ in range(2):
        assert dataset.load_csv(path, ("nope", "note")) == parse_csv(data, ("note",))
    assert calls[2:] == [["nope", "note"]]
    (new,) = [p for p in _entries(xdg_cache) if p not in olds]
    n_rows, columns = marshal.loads(new.read_bytes()[8:])
    assert n_rows == got.n_rows and [name for name, _, _ in columns] == ["note"]
    assert (xdg_cache / "polyrep").stat().st_mode & 0o777 == 0o700


def test_a_nul_in_the_header_is_read_alike(tmp_path, monkeypatch):
    # the plain splitter takes a NUL like any other character, and the entry
    # holds what it returned, so the second load reads the column back
    path = tmp_path / "big.csv"
    data = b"a\x00b" + _big_csv(path)
    path.write_bytes(data)
    calls = _counted_parse(monkeypatch)
    for _ in range(2):
        assert dataset.load_csv(path, ("a\x00bgrp", "note")) == parse_csv(data, ("a\x00bgrp", "note"))
    assert calls == [["a\x00bgrp", "note"]]


def test_a_small_csv_touches_no_cache(tmp_path, xdg_cache, monkeypatch):
    path = tmp_path / "small.csv"
    path.write_bytes(b"x,y\n1,a\n2,b\n")
    calls = _counted_parse(monkeypatch)
    with mock.patch.dict(sys.modules, {"hashlib": None}):  # importing it fails
        assert dataset.load_csv(path, ("x",)) == parse_csv(b"x,y\n1,a\n2,b\n", ("x",))
    assert calls == [["x"]]
    assert not list(xdg_cache.iterdir())


def test_same_size_and_mtime_with_other_bytes_misses(tmp_path, xdg_cache, monkeypatch):
    path = tmp_path / "big.csv"
    data = _big_csv(path)
    dataset.load_csv(path, ("value",))
    stat = path.stat()
    other = data.replace(b"north", b"NORTH")
    assert other != data and len(other) == len(data)
    path.write_bytes(other)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    calls = _counted_parse(monkeypatch)
    assert dataset.load_csv(path, ("grp",)) == parse_csv(other, ("grp",))
    assert calls == [["grp"]]


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],  # truncated
    lambda blob: b"garbage",
    lambda blob: b"",
    # a well-formed marshal payload of the wrong shape
    lambda blob: len(marshal.dumps((1, 2))).to_bytes(8, "little") + marshal.dumps((1, 2)),
    # an entry of the right form whose first column's values are one short
    lambda blob: _framed(_one_short(*marshal.loads(blob[8:]))),
], ids=["truncated", "garbage", "empty", "wrong-shape", "short"])
def test_a_damaged_entry_misses_and_is_rewritten(tmp_path, xdg_cache, monkeypatch, damage):
    path = tmp_path / "big.csv"
    data = _big_csv(path)
    dataset.load_csv(path, ("value",))
    (entry,) = _entries(xdg_cache)
    good = entry.read_bytes()
    entry.write_bytes(damage(good))
    calls = _counted_parse(monkeypatch)
    assert dataset.load_csv(path, ("value",)) == parse_csv(data, ("value",))
    assert calls == [["value"]]
    assert entry.read_bytes() == good
    assert _entries(xdg_cache) == [entry]


def _framed(entry) -> bytes:
    blob = marshal.dumps(entry)
    return len(blob).to_bytes(8, "little") + blob


def _one_short(n_rows: int, columns: tuple) -> tuple:
    (name, kind, values), *rest = columns
    return n_rows, ((name, kind, values[1:]), *rest)


@pytest.mark.parametrize("cache", ["home-is-a-file", "dir-is-a-file", "not-writable"])
def test_an_unusable_cache_directory_parses_as_before(tmp_path, xdg_cache, monkeypatch,
                                                      cache):
    path = tmp_path / "big.csv"
    data = _big_csv(path)
    blocker = tmp_path / "file"
    if cache == "home-is-a-file":
        blocker.write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    elif cache == "dir-is-a-file":
        blocker = xdg_cache / "polyrep"
        blocker.write_bytes(b"")
    else:  # permission bits do not bind root, so the check is told so
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    calls = _counted_parse(monkeypatch)
    with mock.patch.dict(sys.modules, {"hashlib": None}):  # importing it fails
        for _ in range(2):
            assert dataset.load_csv(path, ("grp", "value")) == parse_csv(data, ("grp", "value"))
    assert len(calls) == 2
    files = [p for p in xdg_cache.rglob("*") if p.is_file()]
    assert files == ([blocker] if cache == "dir-is-a-file" else [])
    assert not blocker.exists() or blocker.read_bytes() == b""


# a cache directory that another user owns, or that others may write, could
# hold an entry planted there, which a load would then serve
@pytest.mark.parametrize("unsafe", ["0o777", "0o770", "0o702", "another-users"])
def test_a_cache_directory_not_private_is_not_used(tmp_path, xdg_cache, monkeypatch, unsafe):
    path = tmp_path / "big.csv"
    data = _big_csv(path)
    dataset.load_csv(path, ("value",))
    olds = _entries(xdg_cache)
    directory = xdg_cache / "polyrep"
    if unsafe == "another-users":
        monkeypatch.setattr(os, "getuid", lambda: directory.stat().st_uid + 1)
    else:
        directory.chmod(int(unsafe, 8))
    calls = _counted_parse(monkeypatch)
    with mock.patch.dict(sys.modules, {"hashlib": None}):  # importing it fails
        assert dataset.load_csv(path, ("value",)) == parse_csv(data, ("value",))
        assert dataset.load_csv(path, ("grp",)) == parse_csv(data, ("grp",))
    assert calls == [["value"], ["grp"]]
    assert _entries(xdg_cache) == olds


def test_a_csv_error_is_the_same_twice_and_leaves_no_entry(tmp_path, xdg_cache):
    path = tmp_path / "big.csv"
    _big_csv(path, late="east,1")
    errors = []
    for _ in range(2):
        with pytest.raises(CsvParseError) as err:
            dataset.load_csv(path, ("value",))
        errors.append((str(err.value), err.value.row))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith(f"row {errors[0][1]}: expected 3 fields, found 2")
    assert _entries(xdg_cache) == []


def test_a_changed_parser_misses(tmp_path, xdg_cache, monkeypatch):
    path = tmp_path / "big.csv"
    data = _big_csv(path)
    dataset.load_csv(path, ("value",))
    monkeypatch.setattr(csvcache, "_source_digest", lambda: b"another parser")
    calls = _counted_parse(monkeypatch)
    assert dataset.load_csv(path, ("value",)) == parse_csv(data, ("value",))
    assert calls == [["value"]]
    assert len(_entries(xdg_cache)) == 2


def test_the_size_cap_evicts_the_oldest_entries(tmp_path, xdg_cache, monkeypatch):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    _big_csv(old, seed=1)
    _big_csv(new, seed=2)
    requests = [("grp",), ("value",), ("note",)]  # one entry each
    for columns in requests:
        dataset.load_csv(old, columns)
    olds = _entries(xdg_cache)
    for age, entry in enumerate(olds, start=1):  # hours old, the first the newest
        os.utime(entry, (entry.stat().st_atime, entry.stat().st_mtime - 3600 * age))
    # room for the new entries, about as large as the old ones, and one more
    sizes = [p.stat().st_size for p in olds]
    monkeypatch.setattr(csvcache, "_CACHE_MAX_BYTES", sum(sizes) + max(sizes))
    for columns in requests:
        dataset.load_csv(new, columns)
    entries = _entries(xdg_cache)
    assert len([p for p in entries if p not in olds]) == 3
    kept = [p for p in olds if p in entries]
    assert kept == olds[:len(kept)] and len(kept) < len(olds)  # the oldest went
    assert sum(p.stat().st_size for p in entries) <= csvcache._CACHE_MAX_BYTES
