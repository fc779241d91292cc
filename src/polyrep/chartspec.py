"""Declarative chart descriptions: JSON parsing, defaults, and data space.

Everything a chart says before it is laid out lives here, in two steps.
`bind` computes what the chart draws (`ChartValues`): the complete rows of
a scatter or line chart, or the bars, bins or boxes. Sonification plays
those values as `points`: rows in data order, bars as (index, count), bins
as (centre, count). Their one least-squares `fit()` gives the alt text's
trend and regression audio, and their `ranges` give the axes and the alt
text's "vary from" sentence.

`summarize` then computes what the axes and legend say (`ChartSummary`):
each axis's title, tick labels and, for a value axis, its tick values and
domain, and the grouped levels in legend order. A value axis pads its
numeric range 5% (counts from 0, a flat range widened half a unit each way)
and is ticked with `nice_ticks`; a band axis gives each label one slot. The
alt text reads the summary, `scene.layout` scales and places it for the SVG
and the tactile page, and the checklist reads its axis titles, so every
artifact states each fact from this one source.

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
import re
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import is_, itemgetter
from pathlib import Path
from typing import NamedTuple

from .color import Palette, is_palette_name, okabe_ito, parse_palette
from .dataset import MISSING_TOKENS, Column, Dataset, _typed_column, parse_csv
from .errors import DataError, SpecError
from .stats import (BoxStats, LinearFit, bar_counts, box_stats, histogram, linear_fit,
                    nice_ticks)

CHART_TYPES = ("scatter", "bar", "histogram", "boxplot", "line")
POINT_CHARTS = ("scatter",)
LINE_CHARTS = ("line",)
# past this many histogram bins no bar on the 544-px plot can be wider than
# its 1.5-px white stroke (544 / 1.5 = 362.7), so the bars run together; a
# million bins wrote an SVG of hundreds of MB
MAX_BINS = 362


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


# the keys of each object of the schema above, by the name an error gives it
_KEYS = {
    "the top level": frozenset(("title", "subtitle", "caption", "data", "chart",
                                "encodings", "palette", "alt")),
    '"data"': frozenset(("csv", "inline")),
    '"chart"': frozenset(("type", "x", "y", "group", "bins", "sort_order")),
    '"encodings"': frozenset(("color", "shape", "linetype", "facet")),
}


def _check_keys(obj: dict, where: str) -> None:
    """Refuse the first key of `obj` that object `where` of the schema does
    not have, naming the object it belongs in or the key it is closest to."""
    known = _KEYS[where]
    if obj.keys() <= known:
        return
    key = next(k for k in obj if k not in known)
    home = next((name for name, keys in _KEYS.items() if key in keys), None)
    if home:
        hint = f"{key!r} belongs in {home}"
    else:
        import difflib  # only a misspelled spec pays for the import

        close = difflib.get_close_matches(key, sorted(known), n=1)
        hint = (f"did you mean {close[0]!r}?" if close
                else f"expected one of {', '.join(map(repr, sorted(known)))}")
    raise SpecError(f"unknown key {key!r} in {where}; {hint}")


# a JSON escape of a UTF-16 surrogate: a pair decodes to the character it
# stands for, a lone one to a string that no file or stream can encode
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def parse_spec(data: bytes) -> ChartSpec:
    """Parse and validate a chart spec document, applying defaults. A key
    that its object does not have fails, naming the key it meant."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from None
    if b"\\" in data and _SURROGATE_ESCAPE.search(data):  # only escaped text pays
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SpecError(f"spec holds the lone surrogate {exc.object[exc.start]!r}; "
                            "remove it or complete its pair") from None
    _require(isinstance(doc, dict), "spec root must be a JSON object")
    _check_keys(doc, "the top level")
    chart = doc.get("chart")
    _require(isinstance(chart, dict), "spec needs a 'chart' object")
    _check_keys(chart, '"chart"')

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
        _require(bins <= MAX_BINS, f"bins must be at most {MAX_BINS}, or the bars run together")
        _require(ctype == "histogram", "bins only applies to histograms")
    sort_order = chart.get("sort_order", "appearance")
    _require(
        sort_order in ("appearance", "alpha"),
        f"sort_order must be 'appearance' or 'alpha', got {sort_order!r}",
    )

    enc_doc = doc.get("encodings", {})
    _require(isinstance(enc_doc, dict), "'encodings' must be an object")
    _check_keys(enc_doc, '"encodings"')
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
        _check_keys(data_doc, '"data"')
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
    # a name or a non-empty list; only a list's entries can be bad
    if isinstance(value, str) and is_palette_name(value) or isinstance(value, list) and value:
        try:
            return parse_palette(value)
        except DataError as exc:
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
    """Build a Dataset from inline JSON columns (null marks a missing cell).

    Every cell is checked here, so the columns are built without
    `Column.__post_init__` checking them again.
    """
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
            try:
                floats = tuple(None if v is None else float(v) for v in values)
            except OverflowError:
                raise SpecError(f"inline column {name!r} holds an integer too large "
                                "for a double; rescale it") from None
            out[name] = _typed_column("numeric", floats)
        elif all(isinstance(v, str) for v in present):
            out[name] = _typed_column("categorical", tuple(values))
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
        # a category string and a float are never one object, so `is_`
        # holds only where a row lacks both cells
        both = sum(map(is_, x.values, y.values))
        return ChartValues(x.n_missing() + y.n_missing() - both, boxes=tuple(boxes))
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


class DataAxis(NamedTuple):
    """What an axis says, in data space: its title and tick labels, and for
    a value axis the tick values and the (d0, d1) domain a scale maps. A
    band axis, one slot per label, has neither. (A NamedTuple: a tenth of a
    dataclass's cost at import.)"""

    title: str
    labels: tuple[str, ...] = ()
    ticks: tuple[float, ...] = ()
    domain: tuple[float, float] | None = None


@dataclass(frozen=True)
class ChartSummary:
    """What a chart says before it is laid out: the spec, the bound values,
    the two axes in data space, and the grouped levels in legend order."""

    spec: ChartSpec
    values: ChartValues
    x_axis: DataAxis
    y_axis: DataAxis
    group_levels: tuple[str, ...] = ()


def summarize(spec: ChartSpec, values: ChartValues) -> ChartSummary:
    """What the chart's axes and legend say, in data space.

    Raises SpecError when the grouped levels outnumber the palette's
    colors, DataError when widening cannot open an axis's domain or a
    range is too wide to tick.
    """
    levels: tuple[str, ...] = ()
    if spec.chart_type == "bar":
        max_count = float(max(c for _, c in values.bars))
        y = _value_axis("count", 0.0, max_count, from_zero=True)
        x = DataAxis(spec.x, tuple(label for label, _ in values.bars))
    elif spec.chart_type == "histogram":
        bins = values.bins
        max_count = float(max(c for _, _, c in bins))
        y = _value_axis("count", 0.0, max_count, from_zero=True)
        x = _value_axis(spec.x, bins[0][0], bins[-1][1])
    elif spec.chart_type == "boxplot":
        extremes: list[float] = []
        for b in values.boxes:
            extremes.extend((b.min_whisker, b.max_whisker, *b.outliers))
        if spec.y is None:  # one box, no x axis
            y, x = _value_axis(spec.x, min(extremes), max(extremes)), DataAxis("")
        else:
            y = _value_axis(spec.y, min(extremes), max(extremes))
            x = DataAxis(spec.x, tuple(b.group_label for b in values.boxes))
    else:
        if spec.group is not None:
            levels = tuple(dict.fromkeys(map(itemgetter(2), values.rows)))
            if spec.sort_order == "alpha":
                levels = tuple(sorted(levels))
            if len(levels) > len(spec.palette):
                raise SpecError(f"{len(levels)} group levels exceed the "
                                f"palette's {len(spec.palette)} colors")
        (x_lo, x_hi), (y_lo, y_hi) = values.ranges
        y = _value_axis(spec.y or "", y_lo, y_hi)
        x = _value_axis(spec.x, x_lo, x_hi)
    return ChartSummary(spec, values, x, y, levels)


def _value_axis(title: str, lo: float, hi: float, from_zero: bool = False) -> DataAxis:
    """The axis of data [lo, hi]: a flat range widens half a unit each way,
    the domain is padded 5% at each end (at the top only, from exactly 0,
    when `from_zero`), and the ticks are the nice ticks of the unpadded
    range."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    domain = (0.0 if from_zero else lo - pad, hi + pad)
    if domain[0] == domain[1]:
        raise DataError("degenerate scale domain")
    try:
        ticks = nice_ticks(lo, hi)
    except OverflowError:  # a tick step past the largest double
        ticks = None
    if ticks is None or math.isinf(domain[1] - domain[0]):
        raise DataError(f"column {title!r} spans too wide a range for an axis; "
                        "rescale it")
    return DataAxis(title, ticks.labels, ticks.positions, domain)
