"""Chart layout: bind a spec to data and produce device-space geometry.

The Scene separates data marks (points, rects, lines that encode values;
these get stable ids and are recolored by the deficiency grid) from
decorations (axes, tick labels, titles, legend). Coordinates are SVG
pixels, y down; the summary carried on the scene feeds the verbalizer.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .chartspec import ChartSpec, bind
from .color import Rgb
from .dataset import Dataset
from .errors import DataError, SpecError
from .stats import (
    TickSet,
    bar_counts,
    box_stats,
    histogram,
    linear_fit,
    nice_ticks,
)
from .verbalize import ChartSummary

WIDTH = 640.0
HEIGHT = 480.0
MARGIN = 48.0
LEGEND_WIDTH = 110.0
POINT_RADIUS = 4.0
INK = Rgb.from_hex("#595959")
BLACK = Rgb.from_hex("#000000")
WHITE = Rgb.from_hex("#FFFFFF")

# line-chart dash cycle (solid first), mirroring the marker-shape cycle
DASH_CYCLE: tuple[tuple[float, ...] | None, ...] = (
    None,
    (6.0, 4.0),
    (2.0, 3.0),
    (8.0, 3.0, 2.0, 3.0),
    (12.0, 4.0),
    (4.0, 2.0, 8.0, 2.0),
)


class ShapeKind(enum.Enum):
    CIRCLE = "circle"
    TRIANGLE = "triangle"
    SQUARE = "square"
    DIAMOND = "diamond"
    PLUS = "plus"
    CROSS = "cross"


SHAPE_CYCLE = tuple(ShapeKind)

Ring = tuple[tuple[float, float], ...]


@functools.lru_cache
def glyph_rings(shape: ShapeKind, r: float) -> tuple[tuple[Ring, ...], bool]:
    """Vertices of a marker glyph of radius r centred on the origin (y down).

    The second member is True when the rings are closed outlines of a
    filled shape, False when they are open strokes (plus and cross). The
    circle is a 16-gon, for outputs that draw polylines only. Cached: the
    points of a scatter share a few (shape, radius) pairs.
    """
    if shape is ShapeKind.TRIANGLE:
        dx = r * math.sqrt(3.0) / 2.0
        return (((0.0, -r), (dx, r / 2), (-dx, r / 2)),), True
    if shape is ShapeKind.SQUARE:
        a = 0.85 * r
        return (((-a, -a), (a, -a), (a, a), (-a, a)),), True
    if shape is ShapeKind.DIAMOND:
        return (((0.0, -r), (r, 0.0), (0.0, r), (-r, 0.0)),), True
    if shape is ShapeKind.PLUS:
        return (((0.0, -r), (0.0, r)), ((-r, 0.0), (r, 0.0))), False
    if shape is ShapeKind.CROSS:
        b = r * math.sqrt(2.0) / 2.0
        return (((-b, -b), (b, b)), ((-b, b), (b, -b))), False
    angles = (i * math.pi / 8 for i in range(16))
    return (tuple((r * math.cos(a), r * math.sin(a)) for a in angles),), True


@dataclass(frozen=True)
class PointMark:
    x: float
    y: float
    shape: ShapeKind
    color: Rgb
    size: float = POINT_RADIUS


@dataclass(frozen=True)
class RectMark:
    x: float
    y: float
    w: float
    h: float
    fill: Rgb
    stroke: Rgb | None = None


@dataclass(frozen=True)
class SegmentMark:
    x1: float
    y1: float
    x2: float
    y2: float
    color: Rgb = BLACK
    width: float = 1.5
    dash: tuple[float, ...] | None = None


@dataclass(frozen=True)
class PolylineMark:
    points: tuple[tuple[float, float], ...]
    color: Rgb
    width: float = 2.0
    dash: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TextMark:
    x: float
    y: float
    text: str
    anchor: str = "start"  # start | middle | end
    size: float = 11.0
    rotate: float = 0.0
    color: Rgb = BLACK


Mark = PointMark | RectMark | SegmentMark | PolylineMark | TextMark


@dataclass(frozen=True)
class Rect:
    x: float
    y: float
    w: float
    h: float

    @property
    def x1(self) -> float:
        return self.x + self.w

    @property
    def y1(self) -> float:
        return self.y + self.h


@dataclass(frozen=True)
class AxisInfo:
    title: str
    ticks: tuple[float, ...]  # device positions
    labels: tuple[str, ...]


@dataclass(frozen=True)
class LegendEntry:
    label: str
    color: Rgb
    shape: ShapeKind | None = None
    dash: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Scene:
    width: float
    height: float
    plot: Rect
    marks: tuple[Mark, ...]
    decorations: tuple[Mark, ...]
    x_axis: AxisInfo
    y_axis: AxisInfo
    legend: tuple[LegendEntry, ...]
    summary: ChartSummary


class LinearScale:
    """Affine data -> device map."""

    def __init__(self, d0: float, d1: float, r0: float, r1: float):
        if d0 == d1:
            raise DataError("degenerate scale domain")
        self.d0, self.d1, self.r0, self.r1 = d0, d1, r0, r1

    def __call__(self, v: float) -> float:
        t = (v - self.d0) / (self.d1 - self.d0)
        return self.r0 + t * (self.r1 - self.r0)


def padded_domain(lo: float, hi: float, anchor_zero: bool = False) -> tuple[float, float]:
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if anchor_zero:
        return 0.0, hi + 0.05 * (hi - 0.0)
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def layout(spec: ChartSpec, data: Dataset) -> Scene:
    """Lay a chart out on the default canvas.

    Raises SpecError when the spec does not bind to the data, DataError
    when nothing remains to draw after dropping missing values.
    """
    bind(spec, data)
    builder = {
        "bar": _layout_bar,
        "histogram": _layout_histogram,
        "boxplot": _layout_boxplot,
        "scatter": _layout_points,
        "line": _layout_points,
    }[spec.chart_type]
    return builder(spec, data)


# -- shared assembly -------------------------------------------------------


def _plot_rect(with_legend: bool) -> Rect:
    w = WIDTH - 2 * MARGIN - (LEGEND_WIDTH if with_legend else 0.0)
    return Rect(MARGIN, MARGIN, w, HEIGHT - 2 * MARGIN)


def _axis_decorations(
    plot: Rect,
    x_axis: AxisInfo,
    y_axis: AxisInfo,
    panels: Sequence[tuple[Rect, tuple[float, ...]]],
) -> list[Mark]:
    """One x baseline and one set of x ticks per panel (a panel and its x
    tick positions, labelled alike), then the shared y axis and titles."""
    decos: list[Mark] = [
        SegmentMark(panel.x, panel.y1, panel.x1, panel.y1, width=1.0)
        for panel, _ in panels
    ]
    decos.append(SegmentMark(plot.x, plot.y, plot.x, plot.y1, width=1.0))
    for _, ticks in panels:
        for tx, label in zip(ticks, x_axis.labels):
            decos.append(SegmentMark(tx, plot.y1, tx, plot.y1 + 5, width=1.0))
            decos.append(TextMark(tx, plot.y1 + 18, label, anchor="middle"))
    for ty, label in zip(y_axis.ticks, y_axis.labels):
        decos.append(SegmentMark(plot.x - 5, ty, plot.x, ty, width=1.0))
        decos.append(TextMark(plot.x - 8, ty + 4, label, anchor="end"))
    if x_axis.title:
        decos.append(
            TextMark(plot.x + plot.w / 2, plot.y1 + 36, x_axis.title,
                     anchor="middle", size=12.0)
        )
    if y_axis.title:
        decos.append(
            TextMark(plot.x - 34, plot.y + plot.h / 2, y_axis.title,
                     anchor="middle", size=12.0, rotate=-90.0)
        )
    return decos


def _chrome_decorations(spec: ChartSpec) -> list[Mark]:
    decos: list[Mark] = []
    if spec.title:
        decos.append(TextMark(MARGIN, 22, spec.title, size=15.0))
    if spec.subtitle:
        decos.append(TextMark(MARGIN, 40, spec.subtitle, size=12.0, color=INK))
    if spec.caption:
        decos.append(
            TextMark(WIDTH - MARGIN, HEIGHT - 10, spec.caption,
                     anchor="end", size=10.0, color=INK)
        )
    return decos


def _legend_decorations(
    plot: Rect, name: str, entries: tuple[LegendEntry, ...]
) -> list[Mark]:
    x0 = plot.x1 + 18
    decos: list[Mark] = [TextMark(x0, plot.y + 10, name, size=12.0)]
    for i, entry in enumerate(entries):
        y = plot.y + 32 + i * 22
        if entry.shape is not None:
            decos.append(PointMark(x0 + 7, y, entry.shape, entry.color))
        else:
            decos.append(
                SegmentMark(x0, y, x0 + 15, y, color=entry.color, width=2.0,
                            dash=entry.dash)
            )
        decos.append(TextMark(x0 + 22, y + 4, entry.label))
    return decos


def _assemble(
    spec: ChartSpec,
    plot: Rect,
    marks: list[Mark],
    x_axis: AxisInfo,
    y_axis: AxisInfo,
    legend: tuple[LegendEntry, ...] = (),
    extra_decorations: Sequence[Mark] = (),
    panels: Sequence[tuple[Rect, tuple[float, ...]]] = (),
    **summary_fields,
) -> Scene:
    """The scene, with a summary whose axes and metadata are the drawn ones;
    `panels` splits the plot for facets, and `summary_fields` holds the
    chart type's own ChartSummary fields."""
    decos = _axis_decorations(plot, x_axis, y_axis, panels or ((plot, x_axis.ticks),))
    decos.extend(_chrome_decorations(spec))
    if legend:
        decos.extend(_legend_decorations(plot, spec.group, legend))
    decos.extend(extra_decorations)
    summary = ChartSummary(
        chart_type=spec.chart_type,
        x_name=x_axis.title,
        y_name=y_axis.title,
        x_labels=x_axis.labels,
        y_labels=y_axis.labels,
        title=spec.title,
        subtitle=spec.subtitle,
        caption=spec.caption,
        **summary_fields,
    )
    return Scene(WIDTH, HEIGHT, plot, tuple(marks), tuple(decos), x_axis, y_axis,
                 legend, summary)


# -- bar / histogram -------------------------------------------------------


def _count_axis(plot: Rect, max_count: int) -> tuple[LinearScale, AxisInfo]:
    d0, d1 = padded_domain(0.0, float(max_count), anchor_zero=True)
    scale = LinearScale(d0, d1, plot.y1, plot.y)
    ticks = nice_ticks(0.0, float(max_count)) if max_count > 0 else TickSet((0.0,), ("0",))
    axis = AxisInfo("count", tuple(scale(p) for p in ticks.positions), ticks.labels)
    return scale, axis


def _layout_bar(spec: ChartSpec, data: Dataset) -> Scene:
    counts = bar_counts(data, spec.x, spec.sort_order)
    if not counts:
        raise DataError("nothing to draw: no non-missing values")
    plot = _plot_rect(with_legend=False)
    max_count = max(c for _, c in counts)
    sy, y_axis = _count_axis(plot, max_count)

    slot = plot.w / len(counts)
    marks: list[Mark] = []
    centers = []
    for i, (_, count) in enumerate(counts):
        cx = plot.x + (i + 0.5) * slot
        centers.append(cx)
        top = sy(float(count))
        marks.append(
            RectMark(cx - 0.4 * slot, top, 0.8 * slot, sy(0.0) - top, fill=INK)
        )
    x_axis = AxisInfo(spec.x, tuple(centers), tuple(label for label, _ in counts))
    return _assemble(spec, plot, marks, x_axis, y_axis, bars=tuple(counts),
                     dropped_rows=data.column(spec.x).n_missing())


def _layout_histogram(spec: ChartSpec, data: Dataset) -> Scene:
    bins = histogram(data, spec.x, spec.bins)
    plot = _plot_rect(with_legend=False)
    max_count = max(c for _, _, c in bins)
    sy, y_axis = _count_axis(plot, max_count)

    lo, hi = bins[0][0], bins[-1][1]
    dx0, dx1 = padded_domain(lo, hi)
    sx = LinearScale(dx0, dx1, plot.x, plot.x1)
    xticks = nice_ticks(lo, hi)
    x_axis = AxisInfo(
        spec.x, tuple(sx(p) for p in xticks.positions), xticks.labels
    )

    marks: list[Mark] = []
    for blo, bhi, count in bins:
        left, right = sx(blo), sx(bhi)
        top = sy(float(count))
        marks.append(
            RectMark(left, top, right - left, sy(0.0) - top, fill=INK, stroke=WHITE)
        )

    return _assemble(spec, plot, marks, x_axis, y_axis, bins=tuple(bins),
                     dropped_rows=data.column(spec.x).n_missing())


# -- boxplot ---------------------------------------------------------------


def _layout_boxplot(spec: ChartSpec, data: Dataset) -> Scene:
    grouped = spec.y is not None
    value_col = spec.y if grouped else spec.x
    boxes = box_stats(data, value_col, spec.x if grouped else None)
    if spec.sort_order == "alpha" and grouped:
        boxes = sorted(boxes, key=lambda b: b.group_label)
    plot = _plot_rect(with_legend=False)

    values: list[float] = []
    for b in boxes:
        values.extend((b.min_whisker, b.max_whisker, *b.outliers))
    v_lo, v_hi = min(values), max(values)
    if v_lo == v_hi:
        v_lo, v_hi = v_lo - 0.5, v_hi + 0.5
    d0, d1 = padded_domain(v_lo, v_hi)
    sy = LinearScale(d0, d1, plot.y1, plot.y)
    yticks = nice_ticks(v_lo, v_hi)
    y_axis = AxisInfo(
        value_col, tuple(sy(p) for p in yticks.positions), yticks.labels
    )

    slot = plot.w / len(boxes)
    marks: list[Mark] = []
    centers = []
    for i, b in enumerate(boxes):
        cx = plot.x + (i + 0.5) * slot
        centers.append(cx)
        half = 0.25 * slot
        cap = 0.125 * slot
        y_q1, y_q3 = sy(b.q1), sy(b.q3)
        marks.append(
            RectMark(cx - half, y_q3, 2 * half, y_q1 - y_q3, fill=WHITE, stroke=BLACK)
        )
        marks.append(
            SegmentMark(cx - half, sy(b.median), cx + half, sy(b.median), width=2.5)
        )
        for v, hinge in ((b.max_whisker, b.q3), (b.min_whisker, b.q1)):
            marks.append(SegmentMark(cx, sy(hinge), cx, sy(v)))
            marks.append(SegmentMark(cx - cap, sy(v), cx + cap, sy(v)))
        for v in b.outliers:
            marks.append(PointMark(cx, sy(v), ShapeKind.CIRCLE, BLACK, size=2.5))

    if grouped:
        x_axis = AxisInfo(spec.x, tuple(centers),
                          tuple(b.group_label for b in boxes))
        dropped = sum(
            1
            for g, v in zip(data.column(spec.x).values, data.column(spec.y).values)
            if g is None or v is None
        )
    else:
        x_axis = AxisInfo("", (), ())
        dropped = data.column(spec.x).n_missing()

    return _assemble(spec, plot, marks, x_axis, y_axis, boxes=tuple(boxes),
                     dropped_rows=dropped)


# -- scatter / line --------------------------------------------------------


def _complete_rows(
    spec: ChartSpec, data: Dataset
) -> list[tuple[float, float, str | None]]:
    """(x, y, group level) of each row a scatter or line chart draws, in
    data order: x and y present, and the level too when the chart is grouped."""
    xs = data.numeric(spec.x).values
    ys = data.numeric(spec.y).values
    grouped = spec.group is not None
    gs = data.categorical(spec.group).values if grouped else (None,) * len(xs)
    return [
        (x, y, g)
        for x, y, g in zip(xs, ys, gs)
        if x is not None and y is not None and (g is not None or not grouped)
    ]


def sonify_series(
    spec: ChartSpec, data: Dataset, categorical: bool
) -> tuple[list[float], list[float]]:
    """The (x, y) series a chart's sonification plays.

    A scatter or line chart plays the rows it draws, in data order. With
    `categorical`, a bar chart plays (bar index, count) and a histogram
    (bin centre, count). Raises SpecError like `layout` when the spec does
    not bind to the data, DataError for a chart without a series.
    """
    bind(spec, data)
    if spec.chart_type in ("scatter", "line"):
        rows = _complete_rows(spec, data)
        return [x for x, _, _ in rows], [y for _, y, _ in rows]
    if categorical and spec.chart_type == "bar":
        counts = bar_counts(data, spec.x, spec.sort_order)
        return [float(i) for i in range(len(counts))], [float(c) for _, c in counts]
    if categorical and spec.chart_type == "histogram":
        bins = histogram(data, spec.x, spec.bins)
        return [(lo + hi) / 2 for lo, hi, _ in bins], [float(c) for _, _, c in bins]
    raise DataError(
        f"cannot sonify a {spec.chart_type} chart"
        + ("" if categorical else "; pass --categorical for bar/histogram")
    )


def _layout_points(spec: ChartSpec, data: Dataset) -> Scene:
    rows = _complete_rows(spec, data)
    if not rows:
        raise DataError("nothing to draw: no complete rows")
    by_level: dict[str | None, list[tuple[float, float]]] = {}
    for x, y, g in rows:
        by_level.setdefault(g, []).append((x, y))
    # the drawn levels in first-appearance order; ungrouped, the one key None
    order = sorted(by_level) if spec.sort_order == "alpha" else list(by_level)
    grouped = spec.group is not None
    facet = spec.encodings.facet and grouped
    plot = _plot_rect(with_legend=grouped and not facet)

    # one style per level, read by the marks and by the legend alike
    if grouped and len(order) > len(spec.palette):
        raise SpecError(
            f"{len(order)} group levels exceed the palette's {len(spec.palette)} colors"
        )
    enc = spec.encodings
    styles: list[LegendEntry] = []
    for i, level in enumerate(order):
        color = spec.palette[i] if grouped and enc.color else INK
        if spec.chart_type == "line":
            dash = DASH_CYCLE[i % len(DASH_CYCLE)] if grouped and enc.linetype else None
            styles.append(LegendEntry(level or "", color, dash=dash))
        else:
            shape = (SHAPE_CYCLE[i % len(SHAPE_CYCLE)] if grouped and enc.shape
                     else ShapeKind.CIRCLE)
            styles.append(LegendEntry(level or "", color, shape=shape))

    pairs = [p for level in order for p in by_level[level]]
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    dy0, dy1 = padded_domain(y_lo, y_hi)
    sy = LinearScale(dy0, dy1, plot.y1, plot.y)
    yticks = nice_ticks(y_lo, y_hi) if y_lo < y_hi else nice_ticks(y_lo - 0.5, y_hi + 0.5)
    y_axis = AxisInfo(spec.y or "", tuple(sy(p) for p in yticks.positions), yticks.labels)
    xticks = nice_ticks(x_lo, x_hi) if x_lo < x_hi else nice_ticks(x_lo - 0.5, x_hi + 0.5)
    dx0, dx1 = padded_domain(x_lo, x_hi)

    panels = [plot]
    if facet:
        gap = 12.0
        panel_w = (plot.w - gap * (len(order) - 1)) / len(order)
        panels = [Rect(plot.x + i * (panel_w + gap), plot.y, panel_w, plot.h)
                  for i in range(len(order))]
    x_scales = [LinearScale(dx0, dx1, panel.x, panel.x1) for panel in panels]
    marks: list[Mark] = []
    for i, (level, style) in enumerate(zip(order, styles)):
        sx = x_scales[i if facet else 0]
        marks.extend(_series_marks(spec, by_level[level], style, sx, sy))
    panel_ticks = [(panel, tuple(sx(p) for p in xticks.positions))
                   for panel, sx in zip(panels, x_scales)]
    x_axis = AxisInfo(spec.x, panel_ticks[0][1], xticks.labels)
    facet_labels = [
        TextMark(panel.x + panel.w / 2, panel.y - 8, level, anchor="middle")
        for panel, level in zip(panels, order)
    ] if facet else []

    try:
        fit = linear_fit(xs, ys)
        slope_sign = 0 if fit.slope == 0 else (1 if fit.slope > 0 else -1)
    except DataError:
        slope_sign = None

    return _assemble(
        spec, plot, marks, x_axis, y_axis,
        tuple(styles) if grouped and not facet else (),
        facet_labels,
        panel_ticks,
        n_points=len(pairs),
        x_range=(x_lo, x_hi),
        y_range=(y_lo, y_hi),
        slope_sign=slope_sign,
        group_name=spec.group,
        group_levels=tuple(order) if grouped else (),
        dropped_rows=data.n_rows - len(rows),
    )


def _series_marks(
    spec: ChartSpec,
    pts: list[tuple[float, float]],
    style: LegendEntry,
    sx: LinearScale,
    sy: LinearScale,
) -> list[Mark]:
    if spec.chart_type == "line":
        return [
            PolylineMark(
                tuple((sx(x), sy(y)) for x, y in sorted(pts)),
                color=style.color,
                dash=style.dash,
            )
        ]
    return [PointMark(sx(x), sy(y), style.shape, style.color) for x, y in pts]
