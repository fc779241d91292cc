"""Independent oracles used to cross-check the implementation.

Everything here is implemented from first principles (sorting, scanning,
closed-form algebra, byte-level parsing) without calling the code paths
under test.
"""

from __future__ import annotations

import csv
import io
import math
import re
import wave

import numpy as np

from polyrep.dataset import MISSING_TOKENS, Column, Dataset, format_number
from polyrep.errors import CsvParseError, DataError
from polyrep.pdfwrite import KAPPA, fmt_pt
from polyrep.sonify import (
    AMPLITUDE,
    FADE_S,
    GAP_FRACTION,
    AudioBuffer,
    SonifyConfig,
    _clean_pairs,
    map_pan,
    map_pitch,
    pan_gains,
)

# -- order statistics --------------------------------------------------------


def quantile_oracle(values: list[float], p: float) -> float:
    """Type-7 quantile via the 1-based rank r = 1 + p(n-1)."""
    vs = sorted(values)
    n = len(vs)
    r = 1.0 + p * (n - 1)
    k = math.floor(r)
    frac = r - k
    if k >= n:
        return vs[-1]
    return vs[k - 1] * (1.0 - frac) + vs[k] * frac


def box_oracle(values: list[float]):
    """(min_whisker, q1, median, q3, max_whisker, outliers) by direct scan."""
    q1 = quantile_oracle(values, 0.25)
    med = quantile_oracle(values, 0.50)
    q3 = quantile_oracle(values, 0.75)
    spread = q3 - q1
    lo_fence = q1 - 1.5 * spread
    hi_fence = q3 + 1.5 * spread
    inside = [v for v in values if lo_fence <= v <= hi_fence]
    outliers = sorted(v for v in values if v < lo_fence or v > hi_fence)
    return min(inside), q1, med, q3, max(inside), outliers


def histogram_oracle(values: list[float], k: int):
    """Brute-force bin assignment: scan every value against every bin."""
    lo, hi = min(values), max(values)
    if lo == hi:
        return [(lo - 0.5, hi + 0.5, len(values))]
    width = (hi - lo) / k
    edges = [lo + i * width for i in range(k + 1)]
    counts = [0] * k
    for v in values:
        for i in range(k):
            left, right = edges[i], edges[i + 1]
            if (i == 0 and left <= v <= right) or (i > 0 and left < v <= right):
                counts[i] += 1
                break
        else:
            counts[-1] += 1  # float drift can leave max just past the last edge
    return [(edges[i], edges[i + 1], counts[i]) for i in range(k)]


def histogram_loop_oracle(values: list[float], k: int):
    """The per-value bin loop `polyrep.stats.histogram` ran before it
    bisected, kept verbatim: counts must match it wherever a value sits."""
    values = sorted(values)
    lo, hi = values[0], values[-1]
    if lo == hi:
        return [(lo - 0.5, hi + 0.5, len(values))]
    width = (hi - lo) / k
    counts = [0] * k
    for v in values:
        idx = int((v - lo) / width)
        if idx >= k:
            idx = k - 1
        # bins are (lo, hi]; nudge exact left edges down, except bin 0
        elif idx > 0 and v <= lo + idx * width:
            idx -= 1
        counts[idx] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(k)]


def box_scan_oracle(groups: list[str | None], ys: list[float | None], quantile):
    """Per-level boxes by a row loop and fences by a linear scan.

    Returns ([(label, min_whisker, q1, median, q3, max_whisker, outliers)],
    [level with no values, in order of first appearance]). Quartiles come
    from `quantile`, so that fences match the implementation bit for bit.
    """
    by_level: dict[str, list[float]] = {}
    for g, v in zip(groups, ys):
        if g is None:
            continue
        by_level.setdefault(g, [])
        if v is not None:
            by_level[g].append(v)
    boxes, empty = [], []
    for label, values in by_level.items():
        if not values:
            empty.append(label)
            continue
        vs = sorted(values)
        q1, med, q3 = (quantile(vs, p) for p in (0.25, 0.5, 0.75))
        lo_fence, hi_fence = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        inside = [v for v in vs if lo_fence <= v <= hi_fence]
        outliers = tuple(v for v in vs if v < lo_fence or v > hi_fence)
        boxes.append((label, inside[0], q1, med, q3, inside[-1], outliers))
    return boxes, empty


def normal_equations_fit(x: list[float], y: list[float]):
    """(slope, intercept) from the 2x2 normal equations by Cramer's rule."""
    n = len(x)
    sx = math.fsum(x)
    sy = math.fsum(y)
    sxx = math.fsum(v * v for v in x)
    sxy = math.fsum(a * b for a, b in zip(x, y))
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    return slope, intercept


def linear_fit_oracle(x: list[float | None], y: list[float | None]):
    """(slope, intercept, n) by the pair-at-a-time OLS `polyrep.stats.linear_fit`
    used before it summed whole columns, kept verbatim with the same errors."""
    if len(x) != len(y):
        raise DataError(f"series lengths differ: {len(x)} vs {len(y)}")
    pairs = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
    n = len(pairs)
    if n < 2:
        raise DataError(f"need at least 2 complete pairs, found {n}")
    mx = sum(a for a, _ in pairs) / n
    my = sum(b for _, b in pairs) / n
    sxx = sum((a - mx) ** 2 for a, _ in pairs)
    if sxx == 0:
        raise DataError("x is constant; the fit is degenerate")
    sxy = sum((a - mx) * (b - my) for a, b in pairs)
    slope = sxy / sxx
    return slope, my - slope * mx, n


# -- CSV ---------------------------------------------------------------------
# The original row-by-row parser, kept verbatim as the reference for the
# column-at-a-time `polyrep.dataset.parse_csv`. Two documented differences:
# it keeps a UTF-8 byte-order mark in the first header name, and a field
# longer than `csv.field_size_limit()` escapes from it as `csv.Error`.


def _parse_cell(cell: str) -> float | None:
    """Float value if the cell is a decimal number, else None."""
    s = cell.strip()
    if not s or "_" in s:
        return None
    try:
        v = float(s)
    except ValueError:
        return None
    # inf / nan spellings are data, not numbers, for our purposes
    return v if math.isfinite(v) else None


def parse_csv_oracle(data: bytes) -> Dataset:
    """Parse RFC-4180-style CSV bytes (UTF-8, header row) into a Dataset.

    Raises CsvParseError for undecodable bytes, duplicate or empty header
    names, and ragged rows (with the offending 1-based row number).
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not valid UTF-8: {exc}") from None

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError("empty input, expected a header row") from None

    names = [h.strip() for h in header]
    if any(not n for n in names):
        raise CsvParseError("header contains an empty column name", row=1)
    seen = set()
    for n in names:
        if n in seen:
            raise CsvParseError(f"duplicate header {n!r}", row=1)
        seen.add(n)

    cells: list[list[str]] = [[] for _ in names]
    n_rows = 0
    for i, row in enumerate(reader, start=2):
        if not row:
            continue  # ignore trailing blank line
        if len(row) != len(names):
            raise CsvParseError(
                f"expected {len(names)} fields, found {len(row)}", row=i
            )
        for j, cell in enumerate(row):
            cells[j].append(cell)
        n_rows += 1

    columns: dict[str, Column] = {}
    for name, raw in zip(names, cells):
        missing = [c.strip() in MISSING_TOKENS for c in raw]
        parsed = [None if m else _parse_cell(c) for c, m in zip(raw, missing)]
        if all(p is not None for p, m in zip(parsed, missing) if not m):
            columns[name] = Column("numeric", tuple(parsed))
        else:
            columns[name] = Column(
                "categorical",
                tuple(None if m else c.strip() for c, m in zip(raw, missing)),
            )
    return Dataset(columns, n_rows)


def serialize_csv(data: Dataset) -> bytes:
    """Inverse of parse_csv on well-formed datasets (LF line endings).

    Not an oracle: the round-trip tests use it to write CSV, with the
    package's own number formatting.
    """
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


# -- audio -------------------------------------------------------------------


def zero_crossing_freq(mono: np.ndarray, rate: int) -> float:
    """Frequency estimate from sign changes: crossings / (2 * duration)."""
    signs = mono >= 0.0
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return crossings * rate / (2.0 * len(mono))


def read_wav_oracle(data: bytes):
    """Parse WAV bytes with the stdlib reader; returns (frames int16 (n,2), rate)."""
    with wave.open(io.BytesIO(data)) as w:
        assert w.getcomptype() == "NONE"
        assert w.getsampwidth() == 2
        assert w.getnchannels() == 2
        frames = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
        return frames.reshape(-1, 2).copy(), w.getframerate()


# The discrete synthesis, the sweep and the quantization `polyrep.sonify`
# ran before they worked in place, kept verbatim: samples and WAV bytes
# must match them bit for bit.


def sonify_points_oracle(
    x: list[float | None], y: list[float | None], cfg: SonifyConfig | None = None
) -> AudioBuffer:
    cfg = cfg or SonifyConfig()
    pairs = _clean_pairs(x, y)
    n_frames = round(cfg.duration_s * cfg.sample_rate)
    if n_frames < 1:
        raise DataError("duration too short for the sample rate")
    out = np.zeros((n_frames, 2))
    x_lo, x_hi = pairs[0][0], pairs[-1][0]
    ys = [p[1] for p in pairs]
    y_lo, y_hi = min(ys), max(ys)

    fade_max = round(FADE_S * cfg.sample_rate)
    for i, (xv, yv) in enumerate(pairs):
        s0 = (i * n_frames) // len(pairs)
        s1 = ((i + 1) * n_frames) // len(pairs)
        tone_len = round((s1 - s0) * (1.0 - GAP_FRACTION))
        if tone_len < 1:
            continue
        f = map_pitch(yv, y_lo, y_hi, cfg)
        left, right = pan_gains(map_pan(xv, x_lo, x_hi))
        t = np.arange(tone_len) / cfg.sample_rate
        wave = AMPLITUDE * np.sin(2.0 * math.pi * f * t)
        fade = min(fade_max, tone_len // 2)
        if fade > 0:
            ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
            wave[:fade] *= ramp
            wave[-fade:] *= ramp[::-1]
        out[s0 : s0 + tone_len, 0] = wave * left
        out[s0 : s0 + tone_len, 1] = wave * right
    return AudioBuffer(out, cfg.sample_rate)


def sonify_sweep_oracle(
    x: list[float | None], y: list[float | None], cfg: SonifyConfig | None = None
) -> AudioBuffer:
    cfg = cfg or SonifyConfig()
    pairs = _clean_pairs(x, y)
    if len(pairs) < 2:
        raise DataError("sweep needs at least 2 points")
    n_frames = cfg.n_frames
    if n_frames < 2:
        raise DataError("duration too short for the sample rate")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_lo, x_hi = float(xs[0]), float(xs[-1])

    pan = (
        np.full(n_frames, 0.5)
        if x_lo == x_hi
        else np.linspace(0.0, 1.0, n_frames)
    )
    yq = np.interp(x_lo + pan * (x_hi - x_lo), xs, ys)
    f = np.broadcast_to(map_pitch(yq, y_lo, y_hi, cfg), n_frames)

    phase = np.empty(n_frames)
    phase[0] = 0.0
    np.cumsum(2.0 * math.pi * f[:-1] / cfg.sample_rate, out=phase[1:])
    wave = AMPLITUDE * np.sin(phase)
    out = np.empty((n_frames, 2))
    out[:, 0] = wave * np.cos(pan * math.pi / 2.0)
    out[:, 1] = wave * np.sin(pan * math.pi / 2.0)
    return AudioBuffer(out, cfg.sample_rate)


def write_wav_oracle(buf: AudioBuffer) -> bytes:
    import struct

    x = buf.samples * 32767.0
    ints = np.sign(x) * np.floor(np.abs(x) + 0.5)
    ints = np.clip(ints, -32768, 32767).astype("<i2")
    payload = ints.tobytes()  # C order interleaves L,R per frame

    header = b"RIFF"
    header += struct.pack("<I", 36 + len(payload))
    header += b"WAVE"
    header += b"fmt "
    header += struct.pack("<IHHIIHH", 16, 1, 2, buf.rate, buf.rate * 4, 4, 16)
    header += b"data"
    header += struct.pack("<I", len(payload))
    return header + payload


def check_wav_header(data: bytes, rate: int, n_frames: int) -> None:
    """Field-by-field RIFF header check, independent of any reader library."""
    import struct

    assert data[0:4] == b"RIFF"
    assert data[8:12] == b"WAVE"
    assert data[12:16] == b"fmt "
    (fmt_size, audio_fmt, channels, rate_f, byte_rate, block_align, bits) = (
        struct.unpack("<IHHIIHH", data[16:36])
    )
    assert fmt_size == 16
    assert audio_fmt == 1
    assert channels == 2
    assert rate_f == rate
    assert byte_rate == rate * 4
    assert block_align == 4
    assert bits == 16
    assert data[36:40] == b"data"
    (data_size,) = struct.unpack("<I", data[40:44])
    assert data_size == n_frames * 4
    (riff_size,) = struct.unpack("<I", data[4:8])
    assert riff_size == 36 + data_size
    assert len(data) == 44 + data_size


# -- braille decoding --------------------------------------------------------

# reverse tables transcribed from the standard literary braille chart
_REV_LETTERS = {
    (1,): "a", (1, 2): "b", (1, 4): "c", (1, 4, 5): "d", (1, 5): "e",
    (1, 2, 4): "f", (1, 2, 4, 5): "g", (1, 2, 5): "h", (2, 4): "i",
    (2, 4, 5): "j", (1, 3): "k", (1, 2, 3): "l", (1, 3, 4): "m",
    (1, 3, 4, 5): "n", (1, 3, 5): "o", (1, 2, 3, 4): "p",
    (1, 2, 3, 4, 5): "q", (1, 2, 3, 5): "r", (2, 3, 4): "s",
    (2, 3, 4, 5): "t", (1, 3, 6): "u", (1, 2, 3, 6): "v",
    (2, 4, 5, 6): "w", (1, 3, 4, 6): "x", (1, 3, 4, 5, 6): "y",
    (1, 3, 5, 6): "z",
}
_REV_DIGITS = {
    (1,): "1", (1, 2): "2", (1, 4): "3", (1, 4, 5): "4", (1, 5): "5",
    (1, 2, 4): "6", (1, 2, 4, 5): "7", (1, 2, 5): "8", (2, 4): "9",
    (2, 4, 5): "0",
}
_REV_SINGLE_PUNCT = {
    (2, 5, 6): ".", (2,): ",", (2, 3): ";", (2, 5): ":", (3, 6): "-",
}
_REV_PREFIXED = {
    ((5,), (1, 2, 6)): "(",
    ((5,), (3, 4, 5)): ")",
    ((5,), (2, 3, 5)): "+",
    ((4, 6), (3, 5, 6)): "%",
    ((4, 5, 6), (3, 4)): "/",
}
_CAPITAL = (6,)
_NUMERIC = (3, 4, 5, 6)
_LETTER_SIGN = (5, 6)
_PREFIX_CELLS = {(5,), (4, 6), (4, 5, 6)}


def decode_braille(cells) -> str:
    """Reverse translation; raises on sequences our tables cannot produce."""
    out: list[str] = []
    number = False
    capital = False
    i = 0
    cells = [tuple(sorted(c.dots)) if hasattr(c, "dots") else tuple(sorted(c))
             for c in cells]
    while i < len(cells):
        d = cells[i]
        i += 1
        if d == ():
            out.append(" ")
            number = False
            continue
        if d == _CAPITAL:
            capital = True
            number = False
            continue
        if d == _NUMERIC:
            number = True
            continue
        if d == _LETTER_SIGN:
            number = False
            continue
        if d in _PREFIX_CELLS and i < len(cells) and (d, cells[i]) in _REV_PREFIXED:
            out.append(_REV_PREFIXED[(d, cells[i])])
            i += 1
            number = False
            continue
        if number and d in _REV_DIGITS:
            out.append(_REV_DIGITS[d])
            continue
        number = False
        if d in _REV_LETTERS:
            ch = _REV_LETTERS[d]
            out.append(ch.upper() if capital else ch)
            capital = False
            continue
        if d in _REV_SINGLE_PUNCT:
            out.append(_REV_SINGLE_PUNCT[d])
            continue
        raise ValueError(f"cannot decode cell with dots {d}")
    return "".join(out)


# -- PDF structure -----------------------------------------------------------


def validate_pdf(raw: bytes) -> dict:
    """Structural PDF check: header, object offsets, xref, trailer, lengths.

    Returns {"media_box": [..4 floats..], "content": bytes, "n_objects": int}.
    """
    assert raw.startswith(b"%PDF-1."), "missing PDF header"
    assert raw.rstrip(b"\r\n ").endswith(b"%%EOF"), "missing EOF marker"

    m = re.search(rb"startxref\s+(\d+)\s+%%EOF\s*$", raw)
    assert m, "missing startxref"
    xref_at = int(m.group(1))
    assert raw[xref_at : xref_at + 4] == b"xref", "startxref offset wrong"

    lines = raw[xref_at:].split(b"\n")
    first, count = (int(t) for t in lines[1].split())
    assert first == 0
    entries = lines[2 : 2 + count]
    assert entries[0].startswith(b"0000000000 65535 f")
    for num, entry in enumerate(entries[1:], start=1):
        offset = int(entry[:10])
        gen = int(entry[11:16])
        assert gen == 0
        assert raw[offset:].startswith(b"%d 0 obj" % num), f"object {num} offset wrong"

    tm = re.search(rb"trailer\s*<<(.*?)>>", raw[xref_at:], re.S)
    assert tm, "missing trailer"
    trailer = tm.group(1)
    size = int(re.search(rb"/Size\s+(\d+)", trailer).group(1))
    assert size == count
    root = int(re.search(rb"/Root\s+(\d+)\s+0\s+R", trailer).group(1))
    root_off = int(entries[root][:10])
    assert b"/Type /Catalog" in raw[root_off : root_off + 200]

    mb = re.search(rb"/MediaBox \[([^\]]+)\]", raw)
    assert mb, "missing MediaBox"
    media_box = [float(t) for t in mb.group(1).split()]

    sm = re.search(rb"/Length (\d+) >>\nstream\n", raw)
    assert sm, "missing content stream"
    start = sm.end()
    declared = int(sm.group(1))
    content = raw[start : start + declared]
    assert raw[start + declared : start + declared + 10] == b"\nendstream", (
        "stream length field does not match the actual data"
    )
    return {"media_box": media_box, "content": content, "n_objects": count - 1}


def fill_circle_oracle(cx: float, cy: float, r: float) -> list[str]:
    """The content-stream lines of one black disc, four Bezier arcs, with
    every coordinate formatted where it is used."""
    k = KAPPA * r
    p = fmt_pt
    return [
        "0 g",
        f"{p(cx + r)} {p(cy)} m",
        f"{p(cx + r)} {p(cy + k)} {p(cx + k)} {p(cy + r)} {p(cx)} {p(cy + r)} c",
        f"{p(cx - k)} {p(cy + r)} {p(cx - r)} {p(cy + k)} {p(cx - r)} {p(cy)} c",
        f"{p(cx - r)} {p(cy - k)} {p(cx - k)} {p(cy - r)} {p(cx)} {p(cy - r)} c",
        f"{p(cx + k)} {p(cy - r)} {p(cx + r)} {p(cy - k)} {p(cx + r)} {p(cy)} c",
        "f",
    ]


def pdf_filled_circles(content: bytes) -> list[tuple[float, float, float]]:
    """(cx, cy, r) of every filled 4-Bezier circle in a content stream, pt."""
    lines = content.decode("ascii").split("\n")
    out = []
    i = 0
    while i < len(lines):
        if lines[i].endswith(" m") and i + 5 < len(lines) and lines[i + 5] == "f":
            curves = lines[i + 1 : i + 5]
            if all(c.endswith(" c") for c in curves):
                ends = []
                for c in curves:
                    nums = [float(t) for t in c.split()[:-1]]
                    ends.append((nums[4], nums[5]))
                cx = (ends[1][0] + ends[3][0]) / 2.0
                cy = (ends[0][1] + ends[2][1]) / 2.0
                r = (ends[3][0] - ends[1][0]) / 2.0
                out.append((cx, cy, r))
                i += 6
                continue
        i += 1
    return out


def pdf_stroked_polylines(content: bytes) -> list[tuple[list[tuple[float, float]], float]]:
    """(points, width) of every stroked path in a content stream, pt, with
    each point moved by the translation in effect: `1 0 0 1 tx ty cm`
    translates, `q` saves the translation and line width, `Q` restores
    them. Any other `cm` matrix is an error."""
    lines = content.decode("ascii").split("\n")
    out = []
    width = 1.0
    tx = ty = 0.0
    saved: list[tuple[float, float, float]] = []
    pts: list[tuple[float, float]] = []
    for line in lines:
        if line == "q":
            saved.append((tx, ty, width))
        elif line == "Q":
            tx, ty, width = saved.pop()
        elif line.endswith(" cm"):
            a, b, c, d, e, f = (float(t) for t in line.split()[:-1])
            assert (a, b, c, d) == (1, 0, 0, 1), f"not a translation: {line}"
            tx, ty = tx + e, ty + f
        elif line.endswith(" w"):
            width = float(line.split()[0])
        elif line.endswith(" m"):
            nums = [float(t) for t in line.split()[:-1]]
            pts = [(tx + nums[0], ty + nums[1])]
        elif line.endswith(" l"):
            nums = [float(t) for t in line.split()[:-1]]
            pts.append((tx + nums[0], ty + nums[1]))
        elif line in ("S", "s"):
            if line == "s" and pts:
                pts.append(pts[0])
            if len(pts) >= 2:
                out.append((list(pts), width))
            pts = []
    return out


# -- braille geometry recovery ----------------------------------------------


def extract_braille_runs(
    dots_mm: list[tuple[float, float]],
    cell_pitch: float = 6.2,
    dot_pitch: float = 2.5,
    tol: float = 0.05,
) -> list[str]:
    """Reconstruct braille text from dot centers (mm, y down) and decode it.

    Dots are banded into text lines, split into runs on large x gaps, fit
    to the 2x3 cell grid, then decoded with the reverse tables.
    """

    class _CellStub:
        def __init__(self, dots):
            self.dots = frozenset(dots)

    if not dots_mm:
        return []
    dots = sorted(dots_mm, key=lambda p: (p[1], p[0]))
    bands: list[list[tuple[float, float]]] = []
    for p in dots:
        if bands and p[1] - max(q[1] for q in bands[-1]) <= dot_pitch + tol:
            bands[-1].append(p)
        else:
            bands.append([p])

    decoded = []
    for band in bands:
        band.sort()
        runs: list[list[tuple[float, float]]] = [[band[0]]]
        for p in band[1:]:
            if p[0] - runs[-1][-1][0] > cell_pitch + dot_pitch:
                runs.append([p])
            else:
                runs[-1].append(p)
        for run in runs:
            text = _decode_run(run, cell_pitch, dot_pitch, tol, _CellStub)
            if text is not None:
                decoded.append(text)
    return decoded


def _decode_run(run, cell_pitch, dot_pitch, tol, make_cell):
    xs = [p[0] for p in run]
    ys = [p[1] for p in run]
    y0 = min(ys)
    for origin in (min(xs), min(xs) - dot_pitch):
        cells_dots: dict[int, set[int]] = {}
        ok = True
        for x, y in run:
            ci = round((x - origin) / cell_pitch)
            col_off = x - origin - ci * cell_pitch
            if abs(col_off) <= tol:
                col = 0
            elif abs(col_off - dot_pitch) <= tol:
                col = 1
            else:
                ok = False
                break
            row_f = (y - y0) / dot_pitch
            row = round(row_f)
            if abs(row_f - row) > tol or row not in (0, 1, 2):
                ok = False
                break
            cells_dots.setdefault(ci, set()).add(col * 3 + row + 1)
        if not ok or not cells_dots:
            continue
        n_cells = max(cells_dots) + 1
        cells = [make_cell(cells_dots.get(i, set())) for i in range(n_cells)]
        try:
            return decode_braille(cells)
        except ValueError:
            continue
    return None
