"""Typed columnar tables parsed from CSV.

A column is either numeric (finite floats) or categorical (non-empty
strings); empty cells and the literal ``NA`` are missing values. Type
inference is per column: numeric iff every non-missing cell parses as a
decimal number.
"""

from __future__ import annotations

import csv
import decimal
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat

from .errors import CsvParseError, DataError

MISSING_TOKENS = ("", "NA")


@dataclass(frozen=True)
class Column:
    kind: str  # "numeric" | "categorical"
    values: tuple  # numeric: float | None; categorical: str | None

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise DataError(f"unknown column kind {self.kind!r}")
        if self._all_valid():
            return
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

    def _all_valid(self) -> bool:
        """The checks of the loop in __post_init__, a column at a time.

        Exact float and str types only: a subclass falls through to the loop.
        """
        types = set(map(type, self.values))
        if self.kind == "numeric":
            # filter(None, ...) also skips zeros, which are finite
            return types <= {float, type(None)} and all(
                map(math.isfinite, filter(None, self.values))
            )
        return types <= {str, type(None)} and not any(
            token in self.values for token in MISSING_TOKENS
        )

    def non_missing(self) -> list:
        return [v for v in self.values if v is not None]

    def n_missing(self) -> int:
        return sum(1 for v in self.values if v is None)


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

    names, cells = _split_quoted(text) if '"' in text else _split_plain(text)
    n_rows = len(cells[0]) if cells else 0
    keep = set(names if columns is None else columns)
    return Dataset(
        {name: _column(raw) for name, raw in zip(names, cells) if name in keep}, n_rows
    )


def _split_plain(text: str) -> tuple[list[str], list[list[str]]]:
    """Header names and raw cells per column of text with no quote character.

    Without quoting, every line is one record and every comma ends a field,
    so the whole body is split in bulk and each column is a stride of the
    cells; no list is built per row.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    limit = csv.field_size_limit()
    header = lines[0].split(",") if lines[0] else []
    _check_field_sizes(header, limit, row=1)
    names = _header_names(header)
    n = len(names)

    body = lines[1:]
    records = list(filter(None, body))
    if not set(map(str.count, records, repeat(","))) <= {n - 1} or (
        max(map(len, records), default=0) > limit
    ):
        # some record is ragged or may hold an overlong field: find the first
        for i, line in enumerate(body, start=2):
            if line:
                fields = line.split(",")
                _check_field_sizes(fields, limit, row=i)
                _check_field_count(fields, n, row=i)
    if not records:
        return names, [[] for _ in names]
    cells = ",".join(records).split(",")
    return names, [cells[j::n] for j in range(n)]


def _split_quoted(text: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """Header names and raw cells per column of text that may quote fields."""
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
    return names, list(zip(*body)) if body else [() for _ in names]


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
    numeric iff every other cell is a decimal number. Each distinct cell is
    parsed once, and every cell is then mapped through one dict.
    """
    stripped = list(map(str.strip, cells))
    # in order of first appearance, so that the parsed values lie in memory
    # in about row order, which later scans over the column run faster on
    first_seen = dict.fromkeys(stripped)
    for token in MISSING_TOKENS:
        first_seen.pop(token, None)
    distinct = list(first_seen)
    numbers = _numbers(distinct)
    if numbers is None:
        kind, lookup = "categorical", dict(zip(distinct, distinct))
    else:
        kind, lookup = "numeric", dict(zip(distinct, numbers))
    lookup.update(dict.fromkeys(MISSING_TOKENS))
    return Column(kind, tuple(map(lookup.__getitem__, stripped)))


def _numbers(cells: list[str]) -> list[float] | None:
    """The stripped cells as floats, or None unless all are decimal numbers."""
    # digit-group underscores and inf / nan spellings are data, not numbers
    if "_" in "".join(cells):
        return None
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def serialize_csv(data: Dataset) -> bytes:
    """Inverse of parse_csv on well-formed datasets (LF line endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(data.columns))
    cols = list(data.columns.values())
    for i in range(data.n_rows):
        row = []
        for col in cols:
            v = col.values[i]
            if v is None:
                row.append("NA")
            elif col.kind == "numeric":
                row.append(format_number(v))
            else:
                row.append(v)
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def format_number(v: float) -> str:
    """Shortest round-trip decimal, no trailing zeros ("50", not "50.0")."""
    if v == 0:
        return "0"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    s = repr(float(v))
    if "e" in s or "E" in s:
        # repr carries the shortest digits; re-render without the exponent
        s = format(decimal.Decimal(s), "f")
    return s
