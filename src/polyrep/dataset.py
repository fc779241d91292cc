"""Typed columnar tables parsed from CSV.

A column is either numeric (finite floats) or categorical (non-empty
strings); empty cells and the literal ``NA`` are missing values. Type
inference is per column: numeric iff every non-missing cell parses as a
finite decimal number with no ``_``.

Text without quotes is split a bounded chunk of records at a time, and
quoted text a block of records at a time; either way only the cells of
the columns asked for are kept, and each is typed as soon as its chunk
passes the shape check, so a long file costs the memory of its kept
columns' typed values, not of their text. A number is typed by one
``float()`` call per non-missing cell: a pass over a stride of raw cells
stops at the first cell that is not a number and resumes on the stripped
cells from there. A categorical column keeps one dict of its distinct
cells, so that equal strings share one object. A column that looks
numeric until a later chunk holds a word has lost its earlier cells by
then; the text is split once more with it categorical from the start.

`load_csv` reads a file and serves a large one from the column cache
(`csvcache`), so that commands run one after another on the same CSV
parse it once between them.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, filterfalse

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
    typed, n_rows = split(text, keep, set())
    lost = {name for name, column in typed.items() if column.lost}
    if lost:
        # numbers until a later chunk held a word: the earlier chunks' cells
        # are gone, so one more split types these columns as categorical
        typed.update(split(text, lost, lost)[0])
    return Dataset({name: column.column() for name, column in typed.items()}, n_rows)


# A file this large is served from the column cache (`csvcache`). A hit in a
# fresh process costs about 3.5 ms, most of it `import hashlib`, which parsing
# one or two columns matches at about 200-250 KiB of text.
_CACHE_MIN_BYTES = 256 << 10


def load_csv(path: str | os.PathLike, columns: Iterable[str | None]) -> Dataset:
    """`parse_csv` of the file at `path`, keeping the named `columns`.

    A file of at least `_CACHE_MIN_BYTES` is read through the column cache
    (`csvcache.load`), which parses each set of columns once across
    processes; a smaller one is parsed as it is read, and imports nothing
    more.
    """
    names = list(dict.fromkeys(filter(None, columns)))
    if names and os.path.getsize(path) >= _CACHE_MIN_BYTES:
        from . import csvcache

        return csvcache.load(path, names)
    with open(path, "rb") as f:
        data = f.read()
    return parse_csv(data, names)


_CHUNK = 1 << 14  # characters of text split at a time


def _chunks(text: str, start: int) -> Iterator[tuple[int, int]]:
    """The (start, stop) of each chunk of `text` from `start` on: at least
    `_CHUNK` characters, cut before a "\n", the last one at the end."""
    while start < len(text):
        stop = text.find("\n", start + _CHUNK)
        if stop < 0:
            stop = len(text)
        yield start, stop
        start = stop + 1


def _split_plain(text: str, keep: set | None,
                 words: set) -> tuple[dict[str, _Typer], int]:
    """Each kept column, typed, by name in header order, and the record
    count, for text with no quote character; `keep` None keeps every
    column, and the columns in `words` are typed as categorical.

    Without quoting, every line is one record and every comma ends a field.
    The body is walked in chunks of about `_CHUNK` characters, each cut at a
    record end. A chunk is split in one pass, with a marker cell between
    records; once the chunk passes the shape check, each kept column is
    typed from its stride of the chunk's cells, so no list is built per row
    and no cell outlives its chunk.
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
    kept, strides = _kept(names, keep, words)

    r = 0
    for start, stop in _chunks(text, end + 1):
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
                column.feed(cells[j::n + 1])
            r += k
            del cells  # so that the next chunk's cells reuse its memory
    return kept, r


def _split_quoted(text: str, keep: set | None,
                  words: set) -> tuple[dict[str, _Typer], int]:
    """As `_split_plain`, for text that may quote fields.

    Records are read one at a time and checked, and each kept column is
    typed a block of records at a time, as many as a chunk of `_CHUNK`
    characters holds at 32 characters a record. The reader takes its lines
    from one chunk of text at a time, since a StringIO holds four bytes a
    character. A ragged record is reported before an overlong field in a
    later one, since it is read first.
    """
    lines = chain.from_iterable(io.StringIO(text[start:stop + 1], newline="")
                                for start, stop in _chunks(text, 0))
    reader = csv.reader(lines)
    read = 0  # records read; csv.reader fails in the next one
    try:
        header = next(reader)
        read = 1
        names = _header_names(header)
        n = len(names)
        kept, strides = _kept(names, keep, words)
        size = max(1, _CHUNK >> 5)
        block: list[list[str]] = []
        r = 0
        for read, fields in enumerate(reader, start=2):
            if fields:
                _check_field_count(fields, n, row=read)
                block.append(fields)
                if len(block) == size:
                    r += _feed(strides, block)
                    block = []
    except csv.Error as exc:  # an overlong field
        raise CsvParseError(str(exc), row=read + 1) from None
    return kept, r + _feed(strides, block)


def _feed(strides: list[tuple[int, _Typer]], records: list[list[str]]) -> int:
    """Type each kept column from a block of checked records; their count."""
    for j, column in strides:
        column.feed([fields[j] for fields in records])
    return len(records)


def _kept(names: list[str], keep: set | None, words: set):
    """An untyped column per kept column, by name in header order, and the
    same columns paired with their index; those in `words` are categorical."""
    kept = {name: _Typer(name in words) for name in names if keep is None or name in keep}
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


class _Typer:
    """One kept column, typed a stride of raw cells at a time.

    Cells are stripped; empty cells and ``NA`` are missing. The column is
    numeric while every other cell is a finite decimal number with no
    ``_``; each such cell is converted by one ``float()`` call (two, if it
    holds whitespace that ``float()`` keeps). A stride that holds any other
    cell makes the column categorical, where equal cells share the string
    of their first appearance, across strides. If numbers were typed from
    an earlier stride, whose cells are gone, the column is `lost` instead
    and takes no more strides; `parse_csv` types it again from the start.
    """

    __slots__ = ("values", "first", "lost")

    def __init__(self, categorical: bool):
        self.values: list = []  # floats or strings, and None for a missing cell
        # categorical: each stripped cell to its first string, the missing tokens to None
        self.first = dict.fromkeys(MISSING_TOKENS) if categorical else None
        self.lost = False

    def feed(self, cells: list[str]) -> None:
        """Type the column's next stride of raw cells."""
        if self.lost:
            return
        if self.first is None:
            typed = len(self.values)
            if self._numbers(cells, typed):
                return
            self.values = []
            if typed:
                self.lost = True
                return
            self.first = dict.fromkeys(MISSING_TOKENS)
        stripped = list(map(str.strip, cells))
        self.values += map(self.first.setdefault, stripped, stripped)

    def _numbers(self, cells: list[str], typed: int) -> bool:
        """Whether `cells` are numbers, appended to the `typed` values as
        floats with None for the missing ones."""
        values = self.values
        try:
            # float() skips the whitespace it shares with str.strip() and
            # refuses the missing tokens, so this one pass over the raw cells
            # types a stride up to its first missing cell; extend keeps the
            # floats made before the raise
            values.extend(map(float, cells))
        except ValueError:  # a missing cell, or whitespace that float() keeps
            done = len(values)
            rest = list(map(str.strip, cells[done - typed:]))
            try:
                # lazily, so that a categorical stride stops at its first non-number
                values.extend(map(float, filterfalse(_MISSING.__contains__, rest)))
            except ValueError:
                return False
            if not _plain(values[typed:], cells):
                return False
            present = iter(values[done:])  # put each missing cell back in its row
            values[done:] = [None if s in _MISSING else next(present) for s in rest]
            return True
        return _plain(values[typed:], cells)

    def column(self) -> Column:
        kind = "numeric" if self.first is None else "categorical"
        return _typed_column(kind, tuple(self.values))


def _typed_column(kind: str, values: tuple) -> Column:
    """A Column of values its caller has typed and checked (`_Typer`, and
    `chartspec.inline_dataset`), so that `Column.__post_init__` does not
    check them again: finite floats, or strings that are not a missing
    token, and None."""
    col = object.__new__(Column)
    object.__setattr__(col, "kind", kind)
    object.__setattr__(col, "values", values)
    return col


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
