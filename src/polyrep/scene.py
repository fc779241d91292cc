"""Chart layout: device-space geometry for a chart summary.

`chartspec.summarize` says everything in data space: the bound values,
each axis's title, labels, ticks and domain, and the legend's levels.
`layout(summary)` only scales and places that summary and computes none of
it again, so one `bind` and one `summarize` serve the scene and the alt
text alike. A value axis maps its domain linearly onto the plot; a band
axis gives each label an equal slot, ticked at its centre.

The Scene separates data marks (points, rects, lines that encode values;
these get stable ids and are recolored by the deficiency grid) from
decorations (axes, tick labels, titles, legend). Coordinates are SVG
pixels, y down, on one `WIDTH` by `HEIGHT` canvas. The scene keeps only the
device positions of its ticks (each panel's x ticks in `panels`, the shared
`y_ticks`) and carries the summary it was laid out from, whose axis titles
and labels the SVG and the tactile page draw.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

from .chartspec import ChartSpec, ChartSummary, DataAxis
from .color import Rgb

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

    # members are singletons, so identity hashing is exact and skips
    # Enum.__hash__, a Python-level call per glyph lookup
    __hash__ = object.__hash__


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
class LegendEntry:
    label: str
    color: Rgb
    shape: ShapeKind | None = None
    dash: tuple[float, ...] | None = None


# each panel (the whole plot unless faceted) and where its x labels sit
Panels = tuple[tuple[Rect, tuple[float, ...]], ...]


@dataclass(frozen=True)
class Scene:
    plot: Rect
    marks: tuple[Mark, ...]
    decorations: tuple[Mark, ...]
    panels: Panels
    y_ticks: tuple[float, ...]  # device positions of summary.y_axis.labels
    legend: tuple[LegendEntry, ...]
    summary: ChartSummary


def layout(summary: ChartSummary) -> Scene:
    """Lay a chart's summary out on the default canvas: place the plot,
    narrowed for a legend, and scale its y axis; the chart type's builder
    draws on them, and the decorations follow: axes, chrome, legend, extras."""
    spec = summary.spec
    builder = {
        "bar": _layout_bar,
        "histogram": _layout_histogram,
        "boxplot": _layout_boxplot,
        "scatter": _layout_points,
        "line": _layout_points,
    }[spec.chart_type]
    w = WIDTH - 2 * MARGIN - (LEGEND_WIDTH if _keyed(spec) else 0.0)
    plot = Rect(MARGIN, MARGIN, w, HEIGHT - 2 * MARGIN)
    sy, y_ticks = _scale_axis(summary.y_axis, plot.y1, plot.y)
    marks, panels, legend, extras = builder(summary, plot, sy)
    decos = _axis_decorations(summary, plot, y_ticks, panels)
    decos.extend(_chrome_decorations(spec))
    if legend:
        decos.extend(_legend_decorations(plot, spec.group, legend))
    decos.extend(extras)
    return Scene(plot, tuple(marks), tuple(decos), panels, y_ticks, legend, summary)


Scale = Callable[[float], float]  # data to device, along one axis
# a builder's marks, panels with their x ticks, legend and extra decorations
Drawn = tuple[list[Mark], Panels, tuple[LegendEntry, ...], list[Mark]]


def _keyed(spec: ChartSpec) -> bool:
    """Whether a legend keys the groups: grouped points or lines in one panel."""
    return spec.group is not None and not spec.encodings.facet


# -- shared assembly -------------------------------------------------------


def _scale_axis(axis: DataAxis, r0: float, r1: float) -> tuple[Scale, tuple[float, ...]]:
    """The affine map of a value axis's domain, which `chartspec.summarize`
    checked is open, onto device [r0, r1], and the axis's ticks drawn there."""
    d0, d1 = axis.domain

    def scale(v: float) -> float:
        return r0 + (v - d0) / (d1 - d0) * (r1 - r0)

    return scale, tuple(map(scale, axis.ticks))


def _band_slots(n: int, plot: Rect) -> tuple[float, tuple[float, ...]]:
    """One equal slot per category across the plot: the slot width and the
    slot centres, where a band axis is ticked."""
    slot = plot.w / n
    return slot, tuple(plot.x + (i + 0.5) * slot for i in range(n))


def _axis_decorations(
    summary: ChartSummary, plot: Rect, y_ticks: tuple[float, ...], panels: Panels
) -> list[Mark]:
    """One x baseline and one set of x ticks per panel (a panel and its x
    tick positions, labelled alike), then the shared y axis and titles."""
    x_axis, y_axis = summary.x_axis, summary.y_axis
    decos: list[Mark] = [
        SegmentMark(panel.x, panel.y1, panel.x1, panel.y1, width=1.0)
        for panel, _ in panels
    ]
    decos.append(SegmentMark(plot.x, plot.y, plot.x, plot.y1, width=1.0))
    for _, ticks in panels:
        for tx, label in zip(ticks, x_axis.labels):
            decos.append(SegmentMark(tx, plot.y1, tx, plot.y1 + 5, width=1.0))
            decos.append(TextMark(tx, plot.y1 + 18, label, anchor="middle"))
    for ty, label in zip(y_ticks, y_axis.labels):
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


# -- bar / histogram -------------------------------------------------------


def _layout_bar(summary: ChartSummary, plot: Rect, sy: Scale) -> Drawn:
    counts = summary.values.bars
    slot, centers = _band_slots(len(counts), plot)

    marks: list[Mark] = []
    for cx, (_, count) in zip(centers, counts):
        top = sy(float(count))
        marks.append(
            RectMark(cx - 0.4 * slot, top, 0.8 * slot, sy(0.0) - top, fill=INK)
        )
    return marks, ((plot, centers),), (), []


def _layout_histogram(summary: ChartSummary, plot: Rect, sy: Scale) -> Drawn:
    sx, x_ticks = _scale_axis(summary.x_axis, plot.x, plot.x1)

    marks: list[Mark] = []
    for blo, bhi, count in summary.values.bins:
        left, right = sx(blo), sx(bhi)
        top = sy(float(count))
        marks.append(
            RectMark(left, top, right - left, sy(0.0) - top, fill=INK, stroke=WHITE)
        )
    return marks, ((plot, x_ticks),), (), []


# -- boxplot ---------------------------------------------------------------


def _layout_boxplot(summary: ChartSummary, plot: Rect, sy: Scale) -> Drawn:
    boxes = summary.values.boxes
    slot, centers = _band_slots(len(boxes), plot)

    marks: list[Mark] = []
    for cx, b in zip(centers, boxes):
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

    # an ungrouped box has no x axis: no labels, so no ticks
    x_ticks = centers if summary.x_axis.labels else ()
    return marks, ((plot, x_ticks),), (), []


# -- scatter / line --------------------------------------------------------


def _layout_points(summary: ChartSummary, plot: Rect, sy: Scale) -> Drawn:
    spec = summary.spec
    by_level: dict[str | None, list[tuple[float, float]]] = {}
    for x, y, g in summary.values.rows:
        by_level.setdefault(g, []).append((x, y))
    # the levels in legend order; ungrouped, the one key None
    order = summary.group_levels or (None,)
    grouped = spec.group is not None
    facet = spec.encodings.facet and grouped

    # one style per level, read by the marks and by the legend alike
    enc = spec.encodings
    styles: list[LegendEntry] = []
    for i, level in enumerate(order):
        color = spec.palette[i] if grouped and enc.color else INK
        if spec.chart_type == "line":
            dash = DASH_CYCLE[i % len(DASH_CYCLE)] if grouped and enc.linetype else None
            # a level of one row has no segment to stroke: drawn and keyed as a circle
            shape = ShapeKind.CIRCLE if len(by_level[level]) == 1 else None
            styles.append(LegendEntry(level or "", color, shape=shape, dash=dash))
        else:
            shape = (SHAPE_CYCLE[i % len(SHAPE_CYCLE)] if grouped and enc.shape
                     else ShapeKind.CIRCLE)
            styles.append(LegendEntry(level or "", color, shape=shape))

    rects = [plot]
    if facet:
        gap = 12.0
        panel_w = (plot.w - gap * (len(order) - 1)) / len(order)
        rects = [Rect(plot.x + i * (panel_w + gap), plot.y, panel_w, plot.h)
                 for i in range(len(order))]
    x_axes = [_scale_axis(summary.x_axis, rect.x, rect.x1) for rect in rects]
    marks: list[Mark] = []
    for i, (level, style) in enumerate(zip(order, styles)):
        sx = x_axes[i if facet else 0][0]
        marks.extend(_series_marks(by_level[level], style, sx, sy))
    panels = tuple((rect, ticks) for rect, (_, ticks) in zip(rects, x_axes))
    facet_labels = [
        TextMark(rect.x + rect.w / 2, rect.y - 8, level, anchor="middle")
        for rect, level in zip(rects, order)
    ] if facet else []
    return marks, panels, tuple(styles) if _keyed(spec) else (), facet_labels


def _series_marks(
    pts: list[tuple[float, float]],
    style: LegendEntry,
    sx: Scale,
    sy: Scale,
) -> list[Mark]:
    if style.shape is None:  # a line level of two or more rows
        return [
            PolylineMark(
                tuple((sx(x), sy(y)) for x, y in sorted(pts)),
                color=style.color,
                dash=style.dash,
            )
        ]
    return [PointMark(sx(x), sy(y), style.shape, style.color) for x, y in pts]
