"""The column cache: each column of a large CSV, typed, in a file of its own.

`dataset.load_csv` reads a CSV of at least `dataset._CACHE_MIN_BYTES`
through `load`, so that commands run one after another on the same bytes
parse it once between them, as `__pycache__` spares a module's compile.
Each requested column is one entry in `$XDG_CACHE_HOME/polyrep` (by
default `~/.cache/polyrep`, made with mode 0o700): its header position,
the record count, its kind and its values, written by `marshal`, which
keeps None for a missing cell and writes an equal level string once.

An entry's name is a digest of all that its column depends on: the sha256
of the file's bytes, the column's name, `csv.field_size_limit()`, the
interpreter's cache tag (for the marshal format) and the source of the
parser and of this module, so no stale entry is ever read. This is sound
because `parse_csv` checks every record whatever it keeps and types each
column from its own cells only, so a column parsed once from some bytes is
that column for every later request. A parse that fails writes nothing,
so an error is the same on every run.
"""

from __future__ import annotations

import csv
import io
import marshal
import os
import sys

from . import dataset
from .dataset import Dataset, _header_names, _typed_column

# past this many bytes in the cache directory, a write removes the oldest files
_CACHE_MAX_BYTES = 256 << 20


def load(path: str | os.PathLike, names: list[str]) -> Dataset:
    """`dataset.parse_csv` of the file at `path`, keeping the columns `names`
    (at least one, none repeated): each served from its entry, and only
    those whose entry is missing, unreadable or of the wrong shape parsed,
    in one call, and then written. If the cache directory cannot be made
    or written, the file is parsed without being hashed."""
    with open(path, "rb") as f:
        data = f.read()
    directory = _cache_dir()
    if directory is None:
        return dataset.parse_csv(data, names)
    import hashlib  # only here, so that a command that cannot cache goes without it

    key = (hashlib.sha256(data).digest(), csv.field_size_limit(),
           sys.implementation.cache_tag, _source_digest())
    files = {name: os.path.join(directory, hashlib.sha256(marshal.dumps((*key, name))).hexdigest())
             for name in names}
    found = {name: entry for name, file in files.items()
             if (entry := _read_entry(file)) is not None}
    missing = [name for name in names if name not in found]
    if missing:
        parsed = dataset.parse_csv(data, missing)
        try:
            header = _header(data)
        except csv.Error:
            # a NUL, which csv.reader refuses before Python 3.11: no entry
            # was ever written for these bytes, so every name was parsed
            return parsed
        del data  # so that the file's bytes are freed before the entries are made
        for name in missing:
            column = parsed.columns.get(name)
            found[name] = entry = (
                (-1, parsed.n_rows, None, None) if column is None
                else (header.index(name), parsed.n_rows, column.kind, column.values))
            _write_entry(files[name], entry)
        _evict(directory)
    n_rows = found[names[0]][1]
    kept = sorted((position, name, kind, values)
                  for name, (position, _, kind, values) in found.items() if position >= 0)
    return Dataset({name: _typed_column(kind, values) for _, name, kind, values in kept}, n_rows)


def _cache_dir() -> str | None:
    """The column cache's directory, made if need be, or None if it cannot
    be made or written."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.expanduser("~/.cache")
    if not os.path.isabs(base):  # no home directory
        return None
    directory = os.path.join(base, "polyrep")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    except OSError:
        return None
    return directory if os.access(directory, os.W_OK | os.X_OK) else None


def _source_digest() -> bytes:
    """The sha256 of the parser's source and of this module's, so that a
    changed parser or entry format misses every entry the old one wrote."""
    import hashlib

    digest = hashlib.sha256()
    for source in (dataset.__file__, __file__):
        with open(source, "rb") as f:
            digest.update(f.read())
    return digest.digest()


def _header(data: bytes) -> list[str]:
    """The column names of CSV bytes that `parse_csv` has accepted, in header
    order: its first record, read as the quoted splitter reads it."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as lines:
        return _header_names(next(csv.reader(lines), []))


def _read_entry(file: str) -> tuple | None:
    """The (header position, record count, kind, values) of a column's cache
    entry, with -1 and two Nones for a column the header lacks; None if the
    entry is missing, unreadable or of the wrong shape."""
    try:
        with open(file, "rb") as f:
            blob = f.read()
    except OSError:
        return None
    # the first 8 bytes give the length of the rest, so that a truncated or
    # foreign file is refused before marshal sizes anything from it
    if int.from_bytes(blob[:8], "little") != len(blob) - 8:
        return None
    try:
        entry = marshal.loads(memoryview(blob)[8:])
    except (EOFError, ValueError, TypeError):
        return None
    if type(entry) is not tuple or len(entry) != 4:
        return None
    position, n_rows, kind, values = entry
    if type(position) is not int or type(n_rows) is not int or n_rows < 0:
        return None
    if position < 0:
        return entry if (position, kind, values) == (-1, None, None) else None
    if kind not in ("numeric", "categorical") or type(values) is not tuple:
        return None
    return entry if len(values) == n_rows else None


def _write_entry(file: str, entry: tuple) -> None:
    """Write a column's cache entry whole or not at all: to a file of this
    process's own, then moved into place. A failed write is left out."""
    blob = marshal.dumps(entry)  # equal level strings stay one object
    temporary = f"{file}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as f:
            f.write(len(blob).to_bytes(8, "little"))
            f.write(blob)
        os.replace(temporary, file)
    except OSError:
        try:
            os.remove(temporary)
        except OSError:
            pass


def _evict(directory: str) -> None:
    """Remove the oldest files of the cache directory, by modification time,
    until the rest hold at most `_CACHE_MAX_BYTES`; the newest stays."""
    files = []
    try:
        with os.scandir(directory) as it:
            for item in it:
                if item.is_file(follow_symlinks=False):
                    stat = item.stat(follow_symlinks=False)
                    files.append((stat.st_mtime_ns, item.path, stat.st_size))
    except OSError:  # the directory or a file went meanwhile: evict next time
        return
    files.sort()
    total = sum(size for _, _, size in files)
    for _, file, size in files[:-1]:
        if total <= _CACHE_MAX_BYTES:
            break
        try:
            os.remove(file)
        except OSError:
            pass
        total -= size
