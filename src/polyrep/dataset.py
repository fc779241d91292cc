"""Typed columnar tables parsed from CSV.

A column is either numeric (finite floats) or categorical (non-empty
strings); empty cells and the literal ``NA`` are missing values. Type
inference is per column: numeric iff every non-missing cell parses as a
finite decimal number with no ``_``. A column is typed by one ``float()``
call per non-missing cell, which stops at the first cell that is not a
number; a column with no missing cell is typed before it is stripped.
Only a categorical column then builds a dict of its distinct cells, so
that equal strings share one object.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import filterfalse

from .errors import CsvParseError, DataError

MISSING_TOKENS = ("", "NA")
_MISSING = frozenset(MISSING_TOKENS)


@dataclass(frozen=True)
class Column:
    kind: str  # "numeric" | "categorical"
    values: tuple  # numeric: float | None; categorical: str | None

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise DataError(f"unknown column kind {self.kind!r}")
        for v in self.values:  # name the first invalid value
            if v is None:
                continue
            if self.kind == "numeric":
                if not isinstance(v, float):
                    raise DataError(
                        f"numeric column holds {type(v).__name__} value {v!r}, "
                        "expected float"
                    )
                if not math.isfinite(v):
                    raise DataError(f"numeric column holds non-finite value {v!r}")
            elif not isinstance(v, str) or v in MISSING_TOKENS:
                # "" and the literal NA are reserved as missing-value tokens
                raise DataError(f"categorical column holds invalid value {v!r}")

    def non_missing(self) -> list:
        return [v for v in self.values if v is not None]

    def n_missing(self) -> int:
        return self.values.count(None)


@dataclass(frozen=True)
class Dataset:
    columns: dict[str, Column] = field(default_factory=dict)
    n_rows: int = 0

    def __post_init__(self):
        for name, col in self.columns.items():
            if not name:
                raise DataError("column names must be non-empty")
            if len(col.values) != self.n_rows:
                raise DataError(
                    f"column {name!r} has {len(col.values)} values, expected {self.n_rows}"
                )

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def numeric(self, name: str) -> Column:
        col = self.column(name)
        if col.kind != "numeric":
            raise DataError(f"column {name!r} is categorical, expected numeric")
        return col

    def categorical(self, name: str) -> Column:
        col = self.column(name)
        if col.kind != "categorical":
            raise DataError(f"column {name!r} is numeric, expected categorical")
        return col


def parse_csv(data: bytes, columns: Iterable[str | None] | None = None) -> Dataset:
    """Parse RFC-4180-style CSV bytes (UTF-8, header row) into a Dataset.

    A leading UTF-8 byte-order mark is dropped. Records end at LF, CRLF or
    CR, and blank records are skipped. Raises CsvParseError for undecodable
    bytes, empty input, duplicate or empty header names, ragged rows and
    fields longer than ``csv.field_size_limit()``; the last two carry the
    offending 1-based record number (the header is record 1).

    With ``columns``, every record is still split and checked as above, but
    only the named columns are typed and kept, in header order; names not
    in the header are skipped. Typing never raises (a cell that is not a
    number makes its column categorical), so an unbound column's content
    can change neither the result nor the error.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not valid UTF-8: {exc}") from None
    if not text:
        raise CsvParseError("empty input, expected a header row")

    names, n_rows, raw = _split_quoted(text) if '"' in text else _split_plain(text)
    keep = set(names if columns is None else columns)
    return Dataset(
        {name: _column(raw(j)) for j, name in enumerate(names) if name in keep}, n_rows
    )


def _split_plain(text: str) -> tuple[list[str], int, Callable[[int], list[str]]]:
    """Header names, record count and a getter of the raw cells of column j,
    for text with no quote character.

    Without quoting, every line is one record and every comma ends a field,
    so the whole body is split in one pass, with a marker cell between
    records, and a column is a stride of the cells, taken only when asked
    for; no list is built per row.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    limit = csv.field_size_limit()
    header = lines[0].split(",") if lines[0] else []
    _check_field_sizes(header, limit, row=1)
    names = _header_names(header)
    n = len(names)

    records = list(filter(None, lines[1:]))
    r = len(records)
    overlong = max(map(len, records), default=0) > limit
    # a "\n" cell, which no record holds, marks each record's end: every
    # record has n fields iff the r - 1 markers fall every n + 1 cells
    joined = ",\n,".join(records)
    del lines, records  # so that the lines are freed before the cells are made
    cells = joined.split(",") if r else []
    if overlong or len(cells) != (n + 1) * r - 1 or cells[n::n + 1].count("\n") != r - 1:
        # some record is ragged or may hold an overlong field: find the first
        for i, line in enumerate(text.split("\n")[1:], start=2):
            if line:
                fields = line.split(",")
                _check_field_sizes(fields, limit, row=i)
                _check_field_count(fields, n, row=i)
    return names, r, lambda j: cells[j::n + 1]


def _split_quoted(text: str) -> tuple[list[str], int, Callable[[int], tuple[str, ...]]]:
    """Header names, record count and a getter of the raw cells of column j,
    for text that may quote fields."""
    rows: list[list[str]] = []
    overlong = None
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            rows.append(row)
    except csv.Error as exc:  # an overlong field; reported after earlier records
        overlong = CsvParseError(str(exc), row=len(rows) + 1)
    if not rows:
        raise overlong
    names = _header_names(rows[0])
    body = rows[1:]
    for i, row in enumerate(body, start=2):
        if row:
            _check_field_count(row, len(names), row=i)
    if overlong is not None:
        raise overlong
    body = [row for row in body if row]
    columns = list(zip(*body)) if body else [()] * len(names)
    return names, len(body), columns.__getitem__


def _header_names(header: list[str]) -> list[str]:
    names = [h.strip() for h in header]
    if any(not n for n in names):
        raise CsvParseError("header contains an empty column name", row=1)
    seen = set()
    for n in names:
        if n in seen:
            raise CsvParseError(f"duplicate header {n!r}", row=1)
        seen.add(n)
    return names


def _check_field_sizes(fields: list[str], limit: int, row: int) -> None:
    # the limit and the wording are those of csv.reader, so that quoted and
    # unquoted text fail alike
    if max(map(len, fields), default=0) > limit:
        raise CsvParseError(f"field larger than field limit ({limit})", row=row)


def _check_field_count(fields: list[str], n: int, row: int) -> None:
    if len(fields) != n:
        raise CsvParseError(f"expected {n} fields, found {len(fields)}", row=row)


def _column(cells) -> Column:
    """Type one column from its raw cells.

    Cells are stripped; empty cells and ``NA`` are missing. The column is
    numeric iff every other cell is a finite decimal number with no ``_``,
    and no dict is built for it. A column with no missing cell costs one
    ``float()`` call per cell; in one with a missing cell, every cell before
    the first missing one is converted twice, since the first pass stops
    there and the stripped cells are converted again from the start.
    Otherwise the column is categorical, and equal cells share the string
    of their first appearance.
    """
    try:
        # float() skips the whitespace it shares with str.strip() and
        # refuses the missing tokens, so a column with no missing cell is
        # typed by this one pass over its raw cells
        numbers = tuple(map(float, cells))
    except ValueError:  # a missing cell, or whitespace that float() keeps
        numbers = None
    if numbers is not None and _plain(numbers, cells):
        return _typed_column("numeric", numbers)
    stripped = list(map(str.strip, cells))
    numbers = _numbers(stripped)
    if numbers is not None:
        return _typed_column("numeric", numbers)
    first_seen = dict.fromkeys(stripped)
    lookup = dict(zip(first_seen, first_seen))
    lookup.update(dict.fromkeys(MISSING_TOKENS))
    return _typed_column("categorical", tuple(map(lookup.__getitem__, stripped)))


def _typed_column(kind: str, values: tuple) -> Column:
    """A Column of values its caller has typed and checked (`_column`, and
    `chartspec.inline_dataset`), so that `Column.__post_init__` does not
    check them again: finite floats, or strings that are not a missing
    token, and None."""
    col = object.__new__(Column)
    object.__setattr__(col, "kind", kind)
    object.__setattr__(col, "values", values)
    return col


def _numbers(stripped: list[str]) -> tuple[float | None, ...] | None:
    """The stripped cells as floats with None for the missing ones, or None
    unless every other cell is a finite decimal number with no ``_``."""
    try:
        # lazily, so that a categorical column stops at its first non-number
        values = tuple(map(float, filterfalse(_MISSING.__contains__, stripped)))
    except ValueError:
        return None
    if not _plain(values, stripped):
        return None
    if len(values) < len(stripped):  # put each missing cell back in its row
        present = iter(values)
        values = tuple(None if s in _MISSING else next(present) for s in stripped)
    return values


def _plain(values: tuple[float, ...], cells) -> bool:
    """Whether every value is finite and no cell holds ``_``: digit-group
    underscores and inf / nan spellings are data, not numbers (whitespace
    and the missing tokens hold no ``_``)."""
    return all(map(math.isfinite, values)) and "_" not in "".join(cells)


def format_number(v: float) -> str:
    """Shortest round-trip decimal, no trailing zeros ("50", not "50.0")."""
    if v == 0:
        return "0"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    s = repr(float(v))
    if "e" in s or "E" in s:
        import decimal  # only here, so that most commands start without it

        # repr carries the shortest digits; re-render without the exponent
        s = format(decimal.Decimal(s), "f")
    return s
