"""Typed columnar tables parsed from CSV.

A column is either numeric (finite floats) or categorical (non-empty
strings); empty cells and the literal ``NA`` are missing values. Type
inference is per column: numeric iff every non-missing cell parses as a
finite decimal number with no ``_``.

Text without quotes is split a bounded chunk of records at a time, and
quoted text a record at a time; either way only the cells of the columns
asked for are kept, so an unbound column's cells never outlive their
chunk. A column is typed by one ``float()`` call per non-missing cell: a
pass over the raw cells stops at the first cell that is not a number and
resumes on the stripped cells from there. Only a categorical column then
builds a dict of its distinct cells, so that equal strings share one
object.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
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
    only the named columns' cells are kept and typed, in header order;
    names not in the header are skipped. Typing never raises (a cell that
    is not a number makes its column categorical), so an unbound column's
    content can change neither the result nor the error.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not valid UTF-8: {exc}") from None
    if not text:
        raise CsvParseError("empty input, expected a header row")

    keep = None if columns is None else set(columns)
    split = _split_quoted if '"' in text else _split_plain
    cells, n_rows = split(text, keep)
    return Dataset({name: _column(c) for name, c in cells.items()}, n_rows)


_CHUNK = 1 << 16  # characters of body that _split_plain splits at a time


def _split_plain(text: str, keep: set | None) -> tuple[dict[str, list[str]], int]:
    """The raw cells of each kept column, in header order, and the record
    count, for text with no quote character; `keep` None keeps every column.

    Without quoting, every line is one record and every comma ends a field.
    The body is walked in chunks of about `_CHUNK` characters, each cut at a
    record end. A chunk is split in one pass, with a marker cell between
    records; only the kept columns' cells, a stride of the chunk's, are
    copied out before the next chunk, so no list is built per row and the
    other columns' cells never outlive their chunk.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    limit = csv.field_size_limit()
    end = text.find("\n")
    if end < 0:
        end = len(text)
    header = text[:end].split(",") if end else []
    _check_field_sizes(header, limit, row=1)
    names = _header_names(header)
    n = len(names)
    kept, strides = _kept(names, keep)

    r = 0
    start = end + 1
    while start < len(text):
        stop = text.find("\n", start + _CHUNK)
        if stop < 0:
            stop = len(text)
        chunk = text[start:stop]
        records = list(filter(None, chunk.split("\n")))
        if records:
            k = len(records)
            # a "\n" cell, which no record holds, marks each record's end:
            # every record has n fields iff the k - 1 markers fall every
            # n + 1 cells; no field of a chunk within the limit passes it
            cells = ",\n,".join(records).split(",")
            if (len(cells) != (n + 1) * k - 1 or cells[n::n + 1].count("\n") != k - 1
                    or (len(chunk) > limit and max(map(len, records)) > limit)):
                # a record is ragged or may hold an overlong field: find the first
                row = text.count("\n", 0, start) + 1  # the chunk's first line
                for i, line in enumerate(chunk.split("\n"), start=row):
                    if line:
                        fields = line.split(",")
                        _check_field_sizes(fields, limit, row=i)
                        _check_field_count(fields, n, row=i)
            for j, column in strides:
                column += cells[j::n + 1]
            r += k
            del cells  # so that the next chunk's cells reuse its memory
        start = stop + 1
    return kept, r


def _split_quoted(text: str, keep: set | None) -> tuple[dict[str, list[str]], int]:
    """The raw cells of each kept column, in header order, and the record
    count, for text that may quote fields; `keep` None keeps every column.

    Records are read one at a time, and only the kept columns' cells are
    held. A ragged record is reported before an overlong field in a later
    one, since it is read first.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    read = 0  # records read; csv.reader fails in the next one
    try:
        header = next(reader)
        read = 1
        names = _header_names(header)
        n = len(names)
        kept, strides = _kept(names, keep)
        r = 0
        for read, fields in enumerate(reader, start=2):
            if fields:
                _check_field_count(fields, n, row=read)
                for j, column in strides:
                    column.append(fields[j])
                r += 1
    except csv.Error as exc:  # an overlong field
        raise CsvParseError(str(exc), row=read + 1) from None
    return kept, r


def _kept(names: list[str], keep: set | None):
    """An empty cell list per kept column, by name in header order, and
    the same lists paired with their column's index."""
    kept = {name: [] for name in names if keep is None or name in keep}
    return kept, [(j, kept[name]) for j, name in enumerate(names) if name in kept]


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


def _column(cells: list[str]) -> Column:
    """Type one column from its raw cells.

    Cells are stripped; empty cells and ``NA`` are missing. The column is
    numeric iff every other cell is a finite decimal number with no ``_``,
    and no dict is built for it; each of its cells that is not missing is
    converted by one ``float()`` call (two, if it holds whitespace that
    ``float()`` keeps). Otherwise the column is categorical, and equal
    cells share the string of their first appearance.
    """
    numbers: list = []
    stripped = None
    try:
        # float() skips the whitespace it shares with str.strip() and
        # refuses the missing tokens, so this one pass over the raw cells
        # types a column up to its first missing cell; extend keeps the
        # floats made before the raise
        numbers.extend(map(float, cells))
    except ValueError:  # a missing cell, or whitespace that float() keeps
        stripped = list(map(str.strip, cells))
        numbers = _numbers(numbers, stripped)
    else:
        numbers = numbers if _plain(numbers, cells) else None
    if numbers is not None:
        return _typed_column("numeric", tuple(numbers))
    if stripped is None:
        stripped = list(map(str.strip, cells))
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


def _numbers(numbers: list[float], stripped: list[str]) -> list[float | None] | None:
    """`numbers`, the floats of the first stripped cells, followed by the
    other cells as floats with None for the missing ones; or None unless
    every cell that is not missing is a finite decimal number with no ``_``."""
    typed = len(numbers)
    rest = stripped[typed:]
    try:
        # lazily, so that a categorical column stops at its first non-number
        numbers.extend(map(float, filterfalse(_MISSING.__contains__, rest)))
    except ValueError:
        return None
    if not _plain(numbers, stripped):
        return None
    present = iter(numbers[typed:])  # put each missing cell back in its row
    numbers[typed:] = [None if s in _MISSING else next(present) for s in rest]
    return numbers


def _plain(values: list[float], cells: list[str]) -> bool:
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
