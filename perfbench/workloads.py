"""Benchmark inputs: which charts each workload renders, and what their
alt text must state.

Every chart is a spec file plus its data. Synthetic data is generated from
the seed into the work directory, so the program sees only CSV and JSON
files. The expected facts (bar counts, bin totals, box medians, point
counts) are computed here with the standard library, independently of
polyrep, and checked against the program's alt text afterwards.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("fixtures", "many-marks", "many-rows")
COMMANDS = ("render", "cvd-grid", "alt", "sonify", "tactile")  # one chart's bundle

# The fixtures as shipped, in README order of chart types.
FIXTURES = ("penguins_bar", "penguins_hist", "penguins_box", "penguins_scatter", "lin")

# Known failures, by command: the box plot cannot be sonified, and the
# scatter fixture's title is wider than the letter page in braille.
_FIXTURE_EXPECT = {
    "penguins_box": {"sonify": "data"},
    "penguins_scatter": {"tactile": "tactile"},
}
_BOXPLOT_EXPECT = {"sonify": "data"}

GROUPS = ("north", "south", "east")


@dataclass
class Chart:
    name: str
    spec: Path
    expect: dict[str, str] = field(default_factory=dict)  # command -> error code
    facts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "spec": str(self.spec),
            "expect": self.expect,
            "facts": self.facts,
        }


def build(workload: str, root: Path, work: Path, seed: int, smoke: bool) -> list[Chart]:
    """Charts of one pass of `workload`; generated files go under `work`."""
    if workload == "fixtures":
        return _fixtures(root / "tests" / "fixtures")
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    if workload == "many-marks":
        return _many_marks(rng, work, smoke)
    if workload == "many-rows":
        return _many_rows(rng, work, smoke)
    raise ValueError(f"unknown workload {workload!r}")


# -- workloads ----------------------------------------------------------------


def _fixtures(fixtures: Path) -> list[Chart]:
    charts = []
    for name in FIXTURES:
        spec_path = fixtures / f"{name}.json"
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        columns = _load_columns(spec, fixtures)
        charts.append(
            Chart(name, spec_path, dict(_FIXTURE_EXPECT.get(name, {})), facts(spec, columns))
        )
    return charts


def _many_marks(rng: random.Random, work: Path, smoke: bool) -> list[Chart]:
    """A grouped scatter (many small closed strokes) and a grouped line
    chart (a few long polylines)."""
    n_scatter, n_line = (60, 300) if smoke else (2000, 10000)
    scatter = {"type": "scatter", "x": "x", "y": "y", "group": "grp"}
    line = {"type": "line", "x": "t", "y": "level", "group": "grp"}
    return [
        _chart(work, "scatter", scatter, *_table(work, "scatter", *_scatter(rng, n_scatter))),
        _chart(work, "line", line, *_table(work, "line", *_line(rng, n_line))),
    ]


def _many_rows(rng: random.Random, work: Path, smoke: bool) -> list[Chart]:
    """One CSV of many rows and four columns, drawn as a histogram, a bar
    chart and a box plot; each chart has few marks."""
    n = 600 if smoke else 100_000
    levels = [f"level{i}" for i in range(8)]
    header = ["grp", "cat", "value", "weight"]
    rows = [
        [rng.choice(GROUPS), rng.choice(levels),
         f"{rng.triangular(0.0, 200.0):.3f}", f"{rng.random():.4f}"]
        for _ in range(n)
    ]
    # pin the value range so axis ticks, and so braille labels, do not
    # depend on the seed
    rows[0][2], rows[1][2] = "0", "200"
    table = _table(work, "rows", header, rows)
    return [
        _chart(work, "rows_hist", {"type": "histogram", "x": "value", "bins": 20}, *table),
        _chart(work, "rows_bar", {"type": "bar", "x": "cat"}, *table),
        _chart(work, "rows_box", {"type": "boxplot", "x": "grp", "y": "value"}, *table,
               expect=_BOXPLOT_EXPECT),
    ]


def _scatter(rng: random.Random, n: int) -> tuple[list[str], list[list[str]]]:
    rows = [["0", "0", GROUPS[0]], ["100", "100", GROUPS[1]]]  # pin the axis ranges
    for i in range(n - 2):
        g = i % 3
        x = _clip(rng.gauss(30 + 20 * g, 12))
        y = _clip(0.7 * x + 10 + rng.gauss(0, 10))
        rows.append([f"{x:.2f}", f"{y:.2f}", GROUPS[g]])
    return ["x", "y", "grp"], rows


def _line(rng: random.Random, n: int) -> tuple[list[str], list[list[str]]]:
    per_group = n // 3
    rows = []
    for g, name in enumerate(GROUPS):
        period = rng.uniform(200.0, 600.0) * per_group / 3333
        phase = rng.uniform(0.0, 2 * math.pi)
        for t in range(per_group):
            y = _clip(50 + 35 * math.sin(2 * math.pi * t / period + phase) + rng.gauss(0, 4))
            rows.append([str(t), f"{y:.2f}", name])
    rows[0][1], rows[1][1] = "0", "100"  # pin the axis range
    return ["t", "level", "grp"], rows


def _clip(v: float) -> float:
    return min(100.0, max(0.0, v))


def _table(work: Path, name: str, header: list[str],
           rows: list[list[str]]) -> tuple[str, dict[str, list]]:
    """Write rows as `name`.csv; return its file name and its columns."""
    with (work / f"{name}.csv").open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return f"{name}.csv", dict(zip(header, (list(c) for c in zip(*rows))))


def _chart(work: Path, name: str, chart: dict, csv_name: str, columns: dict[str, list],
           expect: dict[str, str] | None = None) -> Chart:
    spec = {"data": {"csv": csv_name}, "chart": chart}
    spec_path = work / f"{name}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return Chart(name, spec_path, dict(expect or {}), facts(spec, columns))


# -- expected facts -------------------------------------------------------------


def _load_columns(spec: dict, base: Path) -> dict[str, list]:
    data = spec["data"]
    if "inline" in data:
        return {k: [None if v is None else str(v) for v in vs]
                for k, vs in data["inline"].items()}
    with (base / data["csv"]).open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return dict(zip(rows[0], (list(c) for c in zip(*rows[1:]))))


def _cell(v):
    """None for a missing cell, else the stripped text."""
    if v is None:
        return None
    v = v.strip()
    return None if v in ("", "NA") else v


def facts(spec: dict, columns: dict[str, list]) -> dict:
    """What the alt text must state, computed from the raw cells."""
    chart = spec["chart"]
    kind = chart["type"]
    x = [_cell(v) for v in columns[chart["x"]]]
    if kind == "bar":
        counts: dict[str, int] = {}
        for v in x:
            if v is not None:
                counts[v] = counts.get(v, 0) + 1
        return {"type": kind, "bars": [[k, c] for k, c in counts.items()]}
    if kind == "histogram":
        values = [float(v) for v in x if v is not None]
        if min(values) == max(values):
            bins = 1
        else:
            bins = chart.get("bins") or max(1, math.ceil(math.log2(len(values))) + 1)
        return {"type": kind, "bins": bins, "total": len(values)}
    if kind == "boxplot":
        y = [_cell(v) for v in columns[chart["y"]]]
        by_group: dict[str, list[float]] = {}
        for g, v in zip(x, y):
            if g is not None:
                by_group.setdefault(g, [])
                if v is not None:
                    by_group[g].append(float(v))
        return {"type": kind, "boxes": [[g, statistics.median(vs)]
                                        for g, vs in by_group.items() if vs]}
    y = [_cell(v) for v in columns[chart["y"]]]
    group = chart.get("group")
    g = [_cell(v) for v in columns[group]] if group else ["-"] * len(x)
    points = sum(1 for a, b, c in zip(x, y, g) if a is not None and b is not None and c is not None)
    return {"type": kind, "points": points}
