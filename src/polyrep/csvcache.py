"""The column cache: the columns a request of a large CSV keeps, typed,
in one file.

`dataset.load_csv` reads a CSV of at least `dataset._CACHE_MIN_BYTES`
through `load`, so that commands run one after another on the same bytes
parse it once between them, as `__pycache__` spares a module's compile.
Each set of requested columns is one entry in `$XDG_CACHE_HOME/polyrep`
(by default `~/.cache/polyrep`, made with mode 0o700): the record count
and each kept column's name, kind and values, in header order, as
`parse_csv` returned them, written by `marshal`, which keeps None for a
missing cell and writes an equal level string once.

An entry's name is a digest of all that it depends on: the sha256 of the
file's bytes, the sorted column names, `csv.field_size_limit()`, the
interpreter's cache tag (for the marshal format) and the source of the
parser and of this module, so no stale entry is ever read. A parse that
fails writes nothing, so an error is the same on every run.
"""

from __future__ import annotations

import csv
import marshal
import os
import sys

from . import dataset
from .dataset import Dataset, _typed_column

# past this many bytes in the cache directory, a write removes the oldest files
_CACHE_MAX_BYTES = 256 << 20


def load(path: str | os.PathLike, names: list[str]) -> Dataset:
    """`dataset.parse_csv` of the file at `path`, keeping the columns `names`
    (at least one, none repeated): served from the entry of their set, or
    parsed, and then written, if that entry is missing, unreadable or of
    the wrong shape. If the cache directory cannot be used, the file is
    parsed without being hashed."""
    with open(path, "rb") as f:
        data = f.read()
    directory = _cache_dir()
    if directory is None:
        return dataset.parse_csv(data, names)
    import hashlib  # only here, so that a command that cannot cache goes without it

    key = (hashlib.sha256(data).digest(), tuple(sorted(names)), csv.field_size_limit(),
           sys.implementation.cache_tag, _source_digest())
    file = os.path.join(directory, hashlib.sha256(marshal.dumps(key)).hexdigest())
    entry = _read_entry(file)
    if entry is None:
        parsed = dataset.parse_csv(data, names)
        del data  # so that the file's bytes are freed before the entry is made
        _write_entry(file, (parsed.n_rows, tuple((name, column.kind, column.values)
                                                 for name, column in parsed.columns.items())))
        _evict(directory)
        return parsed
    n_rows, columns = entry
    return Dataset({name: _typed_column(kind, values) for name, kind, values in columns}, n_rows)


def _cache_dir() -> str | None:
    """The column cache's directory, made if need be, or None if it cannot
    be made or written, or if it is not private: another user's, or one
    that others may write, could hold entries this process did not write."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.expanduser("~/.cache")
    if not os.path.isabs(base):  # no home directory
        return None
    directory = os.path.join(base, "polyrep")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)  # an existing mode is kept
        stat = os.stat(directory)
    except OSError:
        return None
    if stat.st_uid != os.getuid() or stat.st_mode & 0o022:
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


def _read_entry(file: str) -> tuple | None:
    """The (record count, ((name, kind, values), ...)) of a cache entry;
    None if it is missing, unreadable or of the wrong shape."""
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
    if type(entry) is not tuple or len(entry) != 2:
        return None
    n_rows, columns = entry
    if type(n_rows) is not int or n_rows < 0 or type(columns) is not tuple:
        return None
    for column in columns:
        if type(column) is not tuple or len(column) != 3:
            return None
        name, kind, values = column
        if (type(name) is not str or not name or kind not in ("numeric", "categorical")
                or type(values) is not tuple or len(values) != n_rows):
            return None
    return entry


def _write_entry(file: str, entry: tuple) -> None:
    """Write a cache entry whole or not at all: to a file of this
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
