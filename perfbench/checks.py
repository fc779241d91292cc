"""Output checks on the first pass's artifacts.

Each check returns a list of failure messages; an empty list means the
artifact is correct. The references are computed by the benchmark itself
(see workloads.facts), never taken from polyrep.
"""

from __future__ import annotations

import re
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

SVG_NS = "{http://www.w3.org/2000/svg}"
WAV_SECONDS, WAV_RATE = 5.0, 44100  # the CLI's sonify defaults


def check_svg(svg: Path, sidecar: Path) -> list[str]:
    """Parses as XML, has role="img", and its <desc> equals the sidecar."""
    try:
        root = ET.fromstring(svg.read_bytes())
    except ET.ParseError as exc:
        return [f"{svg.name}: not well-formed XML: {exc}"]
    problems = []
    if root.get("role") != "img":
        problems.append(f"{svg.name}: root has role={root.get('role')!r}, not 'img'")
    desc = root.find(f"{SVG_NS}desc")
    expected = sidecar.read_text(encoding="utf-8").removesuffix("\n")
    if desc is None or desc.text != expected:
        problems.append(f"{svg.name}: <desc> differs from {sidecar.name}")
    return problems


def check_alt(alt: str, facts: dict) -> list[str]:
    """The alt text states the counts computed from the raw data."""
    kind = facts["type"]
    if kind == "bar":
        want = [(label, float(n)) for label, n in facts["bars"]]
        m = re.search(r"The chart is a bar chart with (\d+) vertical bars?\.", alt)
        got = [(label, float(n)) for label, n in re.findall(
            r"Bar \d+ is centered horizontally at (.+), and spans vertically from 0 to (\S+)\.",
            alt)]
        if not m or int(m.group(1)) != len(want) or got != want:
            return [f"alt text bars {got} (stated {m and m.group(1)}), expected {want}"]
    elif kind == "histogram":
        m = re.search(r"The chart is a histogram with (\d+) bins?\.", alt)
        counts = [int(n) for n in re.findall(r"and vertically from 0 to (\d+)\.", alt)]
        if not m or int(m.group(1)) != facts["bins"] or len(counts) != facts["bins"]:
            return [f"alt text states {m and m.group(1)} bins, expected {facts['bins']}"]
        if sum(counts) != facts["total"]:
            return [f"alt text bin counts sum to {sum(counts)}, expected {facts['total']}"]
    elif kind == "boxplot":
        want = facts["boxes"]
        m = re.search(r"The chart is a box plot with (\d+) box(?:es)?\.", alt)
        got = re.findall(r"Box \d+ summarizes (.+) with median (\S+), quartiles", alt)
        if not m or int(m.group(1)) != len(want) or len(got) != len(want):
            return [f"alt text states {m and m.group(1)} boxes, expected {len(want)}"]
        for (label, median), (g_label, g_median) in zip(want, got):
            if label != g_label or abs(float(g_median) - median) > 1e-9 * max(1.0, abs(median)):
                return [f"alt text box {g_label} median {g_median}, expected {label} {median}"]
    else:
        m = re.search(r"with (\d+) points?\.", alt)
        if not m or int(m.group(1)) != facts["points"]:
            return [f"alt text states {m and m.group(1)} points, expected {facts['points']}"]
    return []


def check_wav(wav: Path) -> list[str]:
    """Stereo 16-bit PCM holding round(duration * rate) frames."""
    data = wav.read_bytes()
    frames = round(WAV_SECONDS * WAV_RATE)
    if len(data) < 44 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        return [f"{wav.name}: not a RIFF/WAVE file"]
    fmt, channels, rate, _, _, bits = struct.unpack("<HHIIHH", data[20:36])
    data_size = struct.unpack("<I", data[40:44])[0]
    if (fmt, channels, rate, bits) != (1, 2, WAV_RATE, 16):
        return [f"{wav.name}: format {(fmt, channels, rate, bits)}, expected PCM stereo 16-bit"]
    if data[36:40] != b"data" or data_size != frames * 4 or len(data) != 44 + data_size:
        return [f"{wav.name}: {data_size // 4} frames, expected {frames}"]
    return []


def check_pdf(pdf: Path) -> list[str]:
    """The startxref offset points at the xref keyword."""
    data = pdf.read_bytes()
    m = re.search(rb"startxref\s+(\d+)\s+%%EOF\s*$", data)
    if not data.startswith(b"%PDF-") or not m:
        return [f"{pdf.name}: no PDF header or startxref trailer"]
    offset = int(m.group(1))
    if data[offset:offset + 4] != b"xref":
        return [f"{pdf.name}: startxref {offset} does not point at xref"]
    return []


def check_chart(first: Path, chart: dict, outcomes: dict[str, str]) -> list[str]:
    """All checks for one chart's first-pass artifacts (successful commands)."""
    name = chart["name"]
    base = first / name
    problems = []
    alt_file = Path(f"{base}.svg.alt.txt")
    if outcomes.get("render") == "ok":
        problems += check_svg(Path(f"{base}.svg"), alt_file)
        alt = alt_file.read_text(encoding="utf-8")
        problems += [f"{name}: {p}" for p in check_alt(alt, chart["facts"])]
        if outcomes.get("alt") == "ok":
            stdout = Path(f"{base}.alt.stdout.txt").read_text(encoding="utf-8")
            if stdout != alt:
                problems.append(f"{name}: alt command output differs from the SVG sidecar")
    if outcomes.get("cvd-grid") == "ok":
        grid_alt = Path(f"{base}.cvd.svg.alt.txt")
        problems += check_svg(Path(f"{base}.cvd.svg"), grid_alt)
        if outcomes.get("render") == "ok" and not grid_alt.read_text(
            encoding="utf-8"
        ).endswith(alt):
            problems.append(f"{name}: CVD grid alt text does not end with the chart's")
    if outcomes.get("sonify") == "ok":
        problems += check_wav(Path(f"{base}.wav"))
    if outcomes.get("tactile") == "ok":
        problems += check_pdf(Path(f"{base}.pdf"))
    return problems
