"""Declarative chart descriptions: JSON parsing, defaults, and data binding.

`bind` is the one step from a spec and its data to what the chart draws
(`ChartValues`): the complete rows of a scatter or line chart, or the bars,
bins or boxes. Layout draws those values and sonification plays them, so
the chart and its audio agree by construction. The audio plays `points`:
rows in data order, bars as (index, count), bins as (centre, count). Their
one least-squares `fit()` gives the alt text's trend and regression audio,
and their `ranges` give the axes and the alt text's "vary from" sentence.

Spec document schema::

    {
      "title": str?, "subtitle": str?, "caption": str?,
      "data": {"csv": "<path>"} | {"inline": {"<col>": [...]}},
      "chart": {"type": "scatter|bar|histogram|boxplot|line",
                "x": str, "y": str?, "group": str?, "bins": int?,
                "sort_order": "appearance|alpha"?},
      "encodings": {"color": bool?, "shape": bool?, "linetype": bool?,
                    "facet": bool?}?,
      "palette": "okabe-ito" | ["#RRGGBB", ...]?,
      "alt": str?
    }
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

from .color import Palette, Rgb, okabe_ito
from .dataset import MISSING_TOKENS, Column, Dataset, parse_csv
from .errors import DataError, SpecError
from .stats import BoxStats, LinearFit, bar_counts, box_stats, histogram, linear_fit

CHART_TYPES = ("scatter", "bar", "histogram", "boxplot", "line")
POINT_CHARTS = ("scatter",)
LINE_CHARTS = ("line",)


@dataclass(frozen=True)
class Encodings:
    color: bool = True
    shape: bool = True
    linetype: bool = True
    facet: bool = False


@dataclass(frozen=True)
class DataSource:
    csv_path: str | None = None
    inline: dict[str, list] | None = None


@dataclass(frozen=True)
class ChartSpec:
    chart_type: str
    x: str
    y: str | None = None
    group: str | None = None
    title: str | None = None
    subtitle: str | None = None
    caption: str | None = None
    encodings: Encodings = field(default_factory=Encodings)
    palette: Palette = field(default_factory=okabe_ito)
    bins: int | None = None
    manual_alt: str | None = None
    sort_order: str = "appearance"
    data: DataSource | None = None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _opt_str(obj: dict, key: str) -> str | None:
    v = obj.get(key)
    if v is None:
        return None
    _require(isinstance(v, str), f"{key!r} must be a string")
    return v


def parse_spec(data: bytes) -> ChartSpec:
    """Parse and validate a chart spec document, applying defaults."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "spec root must be a JSON object")
    chart = doc.get("chart")
    _require(isinstance(chart, dict), "spec needs a 'chart' object")

    ctype = chart.get("type")
    _require(
        ctype in CHART_TYPES,
        f"unknown chart type {ctype!r}; expected one of {', '.join(CHART_TYPES)}",
    )
    x = chart.get("x")
    y = chart.get("y")
    if ctype in ("scatter", "line"):
        _require(
            isinstance(x, str) and x != "" and isinstance(y, str) and y != "",
            f"{ctype} requires x and y columns",
        )
    else:
        _require(isinstance(x, str) and x != "", f"{ctype} requires an x column")
    if ctype in ("bar", "histogram"):
        _require(y is None, f"{ctype} takes only x")
    group = _opt_str(chart, "group")
    if group is not None:
        _require(
            ctype in ("scatter", "line"),
            f"group is only supported for scatter and line charts, not {ctype}",
        )
    bins = chart.get("bins")
    if bins is not None:
        _require(
            isinstance(bins, int) and not isinstance(bins, bool) and bins >= 1,
            "bins must be a positive integer",
        )
        _require(ctype == "histogram", "bins only applies to histograms")
    sort_order = chart.get("sort_order", "appearance")
    _require(
        sort_order in ("appearance", "alpha"),
        f"sort_order must be 'appearance' or 'alpha', got {sort_order!r}",
    )

    enc_doc = doc.get("encodings", {})
    _require(isinstance(enc_doc, dict), "'encodings' must be an object")
    enc_kwargs = {}
    for key in ("color", "shape", "linetype", "facet"):
        if key in enc_doc:
            _require(isinstance(enc_doc[key], bool), f"encodings.{key} must be a bool")
            enc_kwargs[key] = enc_doc[key]
    # shape applies to point marks, linetype to line marks; never both
    encodings = Encodings(**enc_kwargs)
    if ctype not in POINT_CHARTS:
        encodings = replace(encodings, shape=False)
    if ctype not in LINE_CHARTS:
        encodings = replace(encodings, linetype=False)

    palette = _parse_palette(doc.get("palette", "okabe-ito"))

    data_doc = doc.get("data")
    source = None
    if data_doc is not None:
        _require(isinstance(data_doc, dict), "'data' must be an object")
        if "csv" in data_doc:
            _require(isinstance(data_doc["csv"], str), "data.csv must be a path string")
            source = DataSource(csv_path=data_doc["csv"])
        elif "inline" in data_doc:
            _require(isinstance(data_doc["inline"], dict), "data.inline must be an object")
            source = DataSource(inline=data_doc["inline"])
        else:
            raise SpecError("'data' needs either 'csv' or 'inline'")

    return ChartSpec(
        chart_type=ctype,
        x=x,
        y=y,
        group=group,
        title=_opt_str(doc, "title"),
        subtitle=_opt_str(doc, "subtitle"),
        caption=_opt_str(doc, "caption"),
        encodings=encodings,
        palette=palette,
        bins=bins,
        manual_alt=_opt_str(doc, "alt"),
        sort_order=sort_order,
        data=source,
    )


def _parse_palette(value) -> Palette:
    if value == "okabe-ito":
        return Palette(okabe_ito().colors, name="okabe-ito")
    if isinstance(value, list) and value:
        try:
            return Palette(tuple(Rgb.from_hex(h) for h in value))
        except Exception as exc:
            raise SpecError(f"bad palette entry: {exc}") from None
    raise SpecError("palette must be \"okabe-ito\" or a list of #RRGGBB strings")


def load_dataset(spec: ChartSpec, base_dir: Path | str = ".") -> Dataset:
    """Materialize the spec's data source (csv paths resolve against base_dir).

    A CSV source keeps only the columns the chart binds (x, y and group).
    """
    if spec.data is None:
        raise SpecError("spec has no 'data' section")
    if spec.data.csv_path is not None:
        path = Path(base_dir) / spec.data.csv_path
        return parse_csv(path.read_bytes(), columns=(spec.x, spec.y, spec.group))
    return inline_dataset(spec.data.inline or {})


def inline_dataset(columns: dict[str, list]) -> Dataset:
    """Build a Dataset from inline JSON columns (null marks a missing cell)."""
    if not columns:
        raise SpecError("inline data has no columns")
    out: dict[str, Column] = {}
    n_rows = None
    for name, values in columns.items():
        if not isinstance(values, list):
            raise SpecError(f"inline column {name!r} must be an array")
        if n_rows is None:
            n_rows = len(values)
        elif len(values) != n_rows:
            raise SpecError(
                f"inline column {name!r} has {len(values)} values, expected {n_rows}"
            )
        present = [v for v in values if v is not None]
        for v in present:
            if isinstance(v, (bool, list, dict)):
                raise SpecError(f"inline column {name!r} holds {json.dumps(v)}; "
                                "use a number, a string or null")
            if v in MISSING_TOKENS:
                raise SpecError(f"inline column {name!r} holds {v!r}; "
                                "use null for a missing value")
            if isinstance(v, float) and not math.isfinite(v):
                raise SpecError(f"inline column {name!r} holds non-finite {v!r}")
        if all(isinstance(v, (int, float)) for v in present):
            out[name] = Column("numeric", tuple(None if v is None else float(v) for v in values))
        elif all(isinstance(v, str) for v in present):
            out[name] = Column("categorical", tuple(values))
        else:
            raise SpecError(f"inline column {name!r} mixes numbers and strings")
    return Dataset(out, n_rows or 0)


@dataclass(frozen=True)
class ChartValues:
    """What a chart draws, in data space: `rows` for a scatter or line chart,
    else its `bars`, `bins` or `boxes`; the other members stay empty."""

    dropped_rows: int
    rows: tuple[tuple[float, float, str | None], ...] = ()
    bars: tuple[tuple[str, int], ...] = ()
    bins: tuple[tuple[float, float, int], ...] = ()
    boxes: tuple[BoxStats, ...] = ()

    @functools.cached_property
    def points(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(xs, ys) as played and ranged over; a box plot has none."""
        if self.rows:
            xs, ys, _ = zip(*self.rows)
        elif self.bars:
            xs, ys = range(len(self.bars)), [c for _, c in self.bars]
        else:
            xs = [(lo + hi) / 2 for lo, hi, _ in self.bins]
            ys = [c for _, _, c in self.bins]
        return tuple(map(float, xs)), tuple(map(float, ys))

    @functools.cached_property
    def ranges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((x_lo, x_hi), (y_lo, y_hi)) of `points`: the axes' data ranges."""
        xs, ys = self.points
        return (min(xs), max(xs)), (min(ys), max(ys))

    def fit(self) -> LinearFit:
        """The least-squares line through `points`; DataError when degenerate."""
        return linear_fit(*self.points)


def bind(spec: ChartSpec, data: Dataset) -> ChartValues:
    """Check the spec's columns against the data and compute what the chart draws.

    Scatter and line rows are (x, y, group level) in data order, kept when x,
    y and (if grouped) the level are present; bars, bins and boxes come in
    drawing order. Raises SpecError when a column is missing or of the wrong
    kind, DataError when nothing remains to draw after dropping missing values.
    """
    for role, name in (("x", spec.x), ("y", spec.y), ("group", spec.group)):
        if name is not None and name not in data:
            raise SpecError(f"{role} column {name!r} is not in the dataset")
    ctype = spec.chart_type
    x = data.column(spec.x)
    if ctype == "bar":
        _require(
            x.kind == "categorical",
            f"bar needs a categorical x; use a histogram for numeric {spec.x!r}",
        )
        bars = bar_counts(data, spec.x, spec.sort_order)
        if not bars:
            raise DataError("nothing to draw: no non-missing values")
        return ChartValues(x.n_missing(), bars=tuple(bars))
    if ctype == "histogram":
        _require(x.kind == "numeric", "histogram needs numeric x")
        bins = histogram(data, spec.x, spec.bins)
        return ChartValues(x.n_missing(), bins=tuple(bins))
    if ctype == "boxplot":
        if spec.y is None:
            _require(x.kind == "numeric", "boxplot without y needs a numeric x")
            return ChartValues(x.n_missing(), boxes=tuple(box_stats(data, spec.x)))
        y = data.column(spec.y)
        _require(
            x.kind == "categorical" and y.kind == "numeric",
            "boxplot needs numeric y grouped by categorical x (or numeric x alone)",
        )
        boxes = box_stats(data, spec.y, spec.x)
        if spec.sort_order == "alpha":
            boxes = sorted(boxes, key=lambda b: b.group_label)
        dropped = sum(1 for g, v in zip(x.values, y.values) if g is None or v is None)
        return ChartValues(dropped, boxes=tuple(boxes))
    y = data.column(spec.y)
    _require(x.kind == "numeric", f"{ctype} needs numeric x")
    _require(y.kind == "numeric", f"{ctype} needs numeric y")
    grouped = spec.group is not None
    levels = repeat(None)
    if grouped:
        group = data.column(spec.group)
        _require(group.kind == "categorical", "group column must be categorical")
        levels = group.values
    rows = tuple(
        (a, b, g)
        for a, b, g in zip(x.values, y.values, levels)
        if a is not None and b is not None and (g is not None or not grouped)
    )
    if not rows:
        raise DataError("nothing to draw: no complete rows")
    return ChartValues(data.n_rows - len(rows), rows=rows)
