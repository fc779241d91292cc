"""Every pinned artifact in one table, over one list of input cases.

`CASES` holds each input: a fixture's file name, an inline spec, a spec
over the seeded table `rows.csv`, or the (x, y) points a library call
plays. `PINS` is the table in golden.txt: (case, artifact, flags) with a
sha256, or with the exact stderr of a refusal; the file says how each
artifact is made, and `run_cli` and `run_library` make it.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

from conftest import FIXTURES
from polyrep.cli import main
from polyrep.sonify import SonifyConfig, sonify_points, sonify_sweep, write_wav


def _xy(kind: str, x: list, y: list) -> dict:
    return {"data": {"inline": {"x": x, "y": y}}, "chart": {"type": kind, "x": "x", "y": "y"}}


def _bars(categories: list[str]) -> dict:
    return {"data": {"inline": {"c": categories}}, "chart": {"type": "bar", "x": "c"}}


def _many_rows(chart: dict) -> dict:
    return {"data": {"csv": "rows.csv"}, "chart": chart}


_GROUPS = ("north", "south", "east")


def _big_scatter_points() -> tuple[list[float], list[float], list[str]]:
    """Seeded 2,000-point scatter data in three groups, with the points
    (0, 0) and (100, 100) pinning both axis ranges: (xs, ys, groups)."""
    rng = random.Random(3001)
    xs, ys = [0.0, 100.0], [0.0, 100.0]
    gs = [_GROUPS[0], _GROUPS[1]]
    for i in range(1998):
        g = i % 3
        x = min(100.0, max(0.0, rng.gauss(30 + 20 * g, 12)))
        xs.append(round(x, 2))
        ys.append(round(min(100.0, max(0.0, 0.7 * x + 10 + rng.gauss(0, 10))), 2))
        gs.append(_GROUPS[g])
    return xs, ys, gs


def _big_line() -> dict:
    """Seeded line chart of three 3,333-point noisy sine polylines."""
    rng = random.Random(3002)
    ts, levels, gs = [], [], []
    for name in _GROUPS:
        period = rng.uniform(200.0, 600.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        for t in range(3333):
            y = 50 + 35 * math.sin(2 * math.pi * t / period + phase) + rng.gauss(0, 4)
            ts.append(float(t))
            levels.append(round(min(100.0, max(0.0, y)), 2))
            gs.append(name)
    levels[0], levels[1] = 0.0, 100.0  # pin the axis range
    return {"data": {"inline": {"t": ts, "level": levels, "grp": gs}},
            "chart": {"type": "line", "x": "t", "y": "level", "group": "grp"}}


_XS, _YS, _GS = _big_scatter_points()
_SIX_SHAPES = {
    "data": {"inline": {
        "x": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "y": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
        "g": ["a", "b", "c", "d", "e", "f"] * 2,
    }},
    "chart": {"type": "scatter", "x": "x", "y": "y", "group": "g"},
}

CASES = {
    **{name: f"{name}.json" for name in
       ("lin", "penguins_bar", "penguins_box", "penguins_hist", "penguins_scatter")},
    # a scatter with six groups draws every marker shape (circle, triangle,
    # square, diamond, plus, cross) in the SVG and as tactile outlines
    "six_shapes": _SIX_SHAPES,
    "six_shapes_facet": {**_SIX_SHAPES, "encodings": {"facet": True}},
    # dashed grouped lines in a custom red/green palette
    "grouped_line": {
        "data": {"inline": {
            "x": [1, 2, 3, 4] * 3,
            "y": [2, 4, 3, 5, 1, 2, 2, 3, 4, 3, 1, 2],
            "g": ["r"] * 4 + ["s"] * 4 + ["t"] * 4,
        }},
        "chart": {"type": "line", "x": "x", "y": "y", "group": "g"},
        "palette": ["#D62728", "#009502", "#00602A"],
    },
    # levels take turns at tied x values: both tone modes stable-sort the
    # rows by x, so rows reaching them in level order would change the WAV
    "interleaved_line": {
        "data": {"inline": {"x": [1, 1, 2, 2, 3, 3], "y": [1, 4, 2, 5, 3, 1],
                            "g": ["s", "r", "r", "s", "r", "s"]}},
        "chart": {"type": "line", "x": "x", "y": "y", "group": "g"},
    },
    # a title and categories that need XML escaping
    "escaped_bar": {"title": "a<b&c", **_bars(["a<b&c", "x>y", "a<b&c", '"q"'])},
    # one 20-letter category squeezes the plot so that the two lowest y tick
    # labels are pushed left twice each; five 10-letter categories push
    # their x labels down by 1, 2, 3 and 2 lines
    "pushed_left": _bars(["abcdefghijklmnopqrst"] * 8),
    "pushed_down": _bars(["northwards"] * 4 + ["southwards"] * 3 + ["eastwardly"]
                         + ["westwardly"] * 8 + ["upwardness"] * 4),
    # a value range flat on some axis (widened half a unit each way), and
    # an ungrouped box plot
    "flat_box_constant": {"data": {"inline": {"v": [5, 5, 5]}},
                          "chart": {"type": "boxplot", "x": "v"}},
    "flat_box_outlier": {"data": {"inline": {"v": [1, 2, 3, 4, 50]}},
                         "chart": {"type": "boxplot", "x": "v"}},
    "flat_scatter_constant_x": _xy("scatter", [2, 2, 2], [1, 2, 3]),
    "flat_scatter_constant_y": _xy("scatter", [1, 2, 3], [4, 4, 4]),
    "flat_line_one_point": _xy("line", [2, 2], [3, 3]),
    "flat_hist_constant": {"data": {"inline": {"v": [7, 7, 7]}},
                           "chart": {"type": "histogram", "x": "v"}},
    # the many-marks charts: 2,000 glyphs, and three 3,333-point polylines
    "big_scatter": {"data": {"inline": {"x": _XS, "y": _YS, "grp": _GS}},
                    "chart": {"type": "scatter", "x": "x", "y": "y", "group": "grp"}},
    "big_line": _big_line(),
    # charts over the seeded table, shaped like the many-rows benchmark
    "many_rows_hist": _many_rows({"type": "histogram", "x": "value", "bins": 20}),
    "many_rows_bar": _many_rows({"type": "bar", "x": "cat"}),
    "many_rows_box": _many_rows({"type": "boxplot", "x": "grp", "y": "value"}),
    # points played by the library: the big scatter's, and flat, repeated
    # and unsorted sweeps
    "big_scatter_points": (_XS, _YS),
    "big_scatter_300_points": (_XS[:300], _YS[:300]),
    "sweep_flat_x": ([2.0, 2.0, 2.0], [1.0, 4.0, 2.0]),
    "sweep_flat_y": ([0.0, 1.0, 2.0], [4.0, 4.0, 4.0]),
    "sweep_both_flat": ([5.0, 5.0], [7.0, 7.0]),
    "sweep_unsorted_x": ([3.0, 0.0, 2.0, 1.0], [1.0, 0.0, 5.0, 2.0]),
    "sweep_repeated_x": ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]),
}

LIBRARY = {"sonify_points": sonify_points, "sonify_sweep": sonify_sweep}
# the file each command writes to `-o`, by command
CLI_OUTPUT = {"render": "svg", "cvd-grid": "svg", "tactile": "pdf", "sonify": "wav"}


def _read_pins(path: Path) -> list[tuple[str, str, tuple[str, ...], str]]:
    """The (case, artifact, flags, value) of each line of `path` that is not
    blank or a `#` comment; a refusal's value gets back its newline."""
    pins = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            case, artifact, *flags = key.split()
            if value.startswith("polyrep: "):
                value += "\n"
            pins.append((case, artifact, tuple(flags), value))
    return pins


# a list, so that a key written twice is caught rather than silently dropped
PINS = _read_pins(Path(__file__).with_name("golden.txt"))
PINNED = {(case, artifact, flags): value for case, artifact, flags, value in PINS}


def _rows_csv() -> str:
    """A seeded 10^4-row table (grp, cat, value, weight) whose value column
    spans exactly 0 to 200."""
    rng = random.Random(4242)
    levels = [f"level{i}" for i in range(8)]
    rows = [["grp", "cat", "value", "weight"]] + [
        [rng.choice(("north", "south", "east")), rng.choice(levels),
         f"{rng.triangular(0.0, 200.0):.3f}", f"{rng.random():.4f}"]
        for _ in range(10_000)
    ]
    rows[1][2], rows[2][2] = "0", "200"
    return "".join(",".join(row) + "\n" for row in rows)


def write_cases(work: Path) -> Path:
    """Put every CLI case's spec in `work` as `<case>.json`, beside the
    fixtures' CSV and `rows.csv`, and return `work`."""
    for path in FIXTURES.iterdir():
        shutil.copy(path, work / path.name)
    (work / "rows.csv").write_text(_rows_csv(), encoding="utf-8")
    for name, spec in CASES.items():
        if isinstance(spec, dict):
            (work / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    return work


def run_cli(work: Path, case: str, artifact: str, flags: tuple) -> str:
    """The value of one CLI artifact, run on a case `write_cases` put in
    `work`: its sha256, or the stderr of a refusal."""
    command, _, file = artifact.partition(".")
    for stale in work.glob("out.*"):
        stale.unlink()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, str(work / f"{case}.json"), *flags,
                     "-o", str(work / f"out.{CLI_OUTPUT[command]}")])
    if code:
        return err.getvalue()
    return hashlib.sha256((work / f"out.{file}").read_bytes()).hexdigest()


def run_library(case: str, function: str, flags: tuple) -> str:
    """The sha256 of the WAV a `LIBRARY` function plays from the case's
    points, with the `SonifyConfig` fields that `<field>=<value>` flags set."""
    cfg = SonifyConfig(**{k: ast.literal_eval(v) for k, v in (f.split("=") for f in flags)})
    return hashlib.sha256(write_wav(LIBRARY[function](*CASES[case], cfg))).hexdigest()
