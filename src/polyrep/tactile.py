"""Emboss-ready tactile pages: chart strokes plus braille-dot labels.

Geometry is millimeter-space. Chart strokes come from the laid-out scene
(filled bars and bins become outlines hatched with horizontal lines,
white box-plot boxes bare outlines); every text label is re-set in
braille. Ticks are thinned to at most five per axis, and each facet panel
has its own x baseline and x ticks; label runs are displaced outward until
no braille dot touches a stroke, and a label whose ink would cross a margin
is an error. Underscores in labels become spaces so column names stay
within the braille alphabet.

Marker glyphs (scatter points and box-plot outliers) are items of their
own: a centre, a shape and a radius. Every glyph of one shape and radius
is the same outline, so the PDF sets the glyph line width once, formats
each outline once, about its centre, and places each glyph with a
translation (`q 1 0 0 1 x y cm ... Q`), which leaves the width as it is.
A glyph's outline at its absolute position is built only where it is
needed: near a label, in the preview SVG and in tests.

Label collision goes through flat indexes built once all ink is drawn.
Each stroke is cut into pieces of at most `_CHUNK` segments, each kept
with its bounding box grown by the stroke's collision reach; each glyph is
kept with its outline's extent about its centre, grown the same way. A
label run's dots are tested only against the pieces and glyph outlines
whose grown box meets the run's box; the glyph boxes are scanned only when
the run's box meets their join. `dot_touches_stroke` is the single
collision kernel the label check calls and the brute-force oracle the
tests compare it with.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Iterator
from typing import NamedTuple

from .braille import BrailleCell, to_braille
from .errors import TactileError
from .pdfwrite import MM_TO_PT, PAPER_SIZES_MM, ContentStream, build_pdf, fmt_pt, path_ops
from .scene import (
    PointMark,
    PolylineMark,
    Rect,
    RectMark,
    Scene,
    SegmentMark,
    ShapeKind,
    WHITE,
    glyph_rings,
)
from .svgout import _document, circle_data, dash_attr, path_data
from .verbalize import AltText

# fixed braille sizes (mm), after BANA's Guidelines and Standards for
# Tactile Graphics (2010); only the page size is chosen per call
MARGIN = 25.0
DOT_DIAMETER = 1.5
DOT_PITCH = 2.5  # between dot centers inside a cell
CELL_PITCH = 6.2  # between cell origins
LINE_PITCH = 10.0  # between braille lines
MIN_STROKE = 1.0

# bare paper (mm) kept between a braille label dot and any stroke's ink
LABEL_CLEARANCE = 0.5

MAX_TICKS = 5  # per axis, and per panel on x


@dataclass(frozen=True)
class TactileLayout:
    page_w: float = 215.9
    page_h: float = 279.4

    def __post_init__(self):
        if self.page_w <= 0 or self.page_h <= 0:
            raise TactileError("tactile layout dimensions must be positive")

    @classmethod
    def for_paper(cls, paper: str) -> "TactileLayout":
        try:
            w, h = PAPER_SIZES_MM[paper]
        except KeyError:
            raise TactileError(
                f"unknown paper {paper!r}; expected one of {', '.join(PAPER_SIZES_MM)}"
            ) from None
        return cls(page_w=w, page_h=h)


@dataclass(frozen=True)
class Stroke:
    points: tuple[tuple[float, float], ...]
    width: float
    dash: tuple[float, ...] | None = None
    close: bool = False

    def path(self) -> tuple[tuple[float, float], ...]:
        """The points in drawing order, the first again at the end of a
        closed stroke."""
        return self.points + (self.points[0],) if self.close else self.points


class Glyph(NamedTuple):
    """A marker glyph: the outline `glyph_rings(shape, r)` about its centre
    (x, y), stroked `MIN_STROKE` wide."""

    x: float
    y: float
    shape: ShapeKind
    r: float

    def strokes(self) -> tuple[Stroke, ...]:
        """The glyph's outline at its absolute position."""
        rings, closed = glyph_rings(self.shape, self.r)
        cx, cy = self.x, self.y
        return tuple(
            Stroke(tuple((cx + x, cy + y) for x, y in ring), MIN_STROKE, close=closed)
            for ring in rings
        )


@functools.lru_cache
def _glyph_extent(shape: ShapeKind, r: float) -> tuple[float, float, float, float]:
    """Bounding box of a glyph's outline about its centre. Float addition is
    monotone, so `cx + min(x)` is the least of the placed points `cx + x`."""
    rings, _ = glyph_rings(shape, r)
    xs = [x for ring in rings for x, _ in ring]
    ys = [y for ring in rings for _, y in ring]
    return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True)
class Dot:
    """Center of one braille dot, `DOT_DIAMETER` across."""

    x: float
    y: float


@dataclass(frozen=True)
class TactilePage:
    layout: TactileLayout
    strokes: tuple[Stroke, ...]  # every stroke but the marker glyphs
    glyphs: tuple[Glyph, ...]
    dots: tuple[Dot, ...]

    def ink(self) -> Iterator[Stroke]:
        """Every stroke on the page: `strokes`, then each glyph's outline."""
        yield from self.strokes
        for glyph in self.glyphs:
            yield from glyph.strokes()


# dot offsets within one cell, standard numbering, units of DOT_PITCH
_DOT_GRID = {1: (0, 0), 2: (0, 1), 3: (0, 2), 4: (1, 0), 5: (1, 1), 6: (1, 2)}


def _braille(text: str) -> tuple[BrailleCell, ...]:
    return tuple(to_braille(text.replace("_", " ")))


def _run_width(cells: tuple[BrailleCell, ...]) -> float:
    """Center of dot 1 of the first cell to the right dot column of the last."""
    if not cells:
        return 0.0
    return (len(cells) - 1) * CELL_PITCH + DOT_PITCH


@dataclass(frozen=True)
class BrailleRun:
    """A placed row of braille cells; origin is the center of dot 1 of the
    first cell."""

    cells: tuple[BrailleCell, ...]
    x: float
    y: float

    def bbox(self) -> tuple[float, float, float, float]:
        r = DOT_DIAMETER / 2
        width = _run_width(self.cells)
        return (self.x - r, self.y - r, self.x + width + r, self.y + 2 * DOT_PITCH + r)

    def dots(self) -> list[Dot]:
        out = []
        for i, cell in enumerate(self.cells):
            cx = self.x + i * CELL_PITCH
            for d in sorted(cell.dots):
                col, row = _DOT_GRID[d]
                out.append(Dot(cx + col * DOT_PITCH, self.y + row * DOT_PITCH))
        return out


def _seg_point_distance(
    px: float, py: float, x1: float, y1: float, x2: float, y2: float
) -> float:
    dx, dy = x2 - x1, y2 - y1
    norm2 = dx * dx + dy * dy
    if norm2 == 0:
        return math.hypot(px - x1, py - y1)
    t = max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / norm2))
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def _reach(width: float, clearance: float) -> float:
    """How far a dot's center can lie from the center line of a stroke
    `width` wide and still come within `clearance` of its ink."""
    return DOT_DIAMETER / 2 + width / 2 + clearance


def dot_touches_stroke(dot: Dot, stroke: Stroke, clearance: float) -> bool:
    """True when the dot's ink comes within `clearance` of the stroke's ink.

    The single collision kernel: the label check calls it per nearby
    stroke piece, and tests call it over whole strokes as the brute-force
    oracle. Dashed strokes are treated as solid."""
    limit = _reach(stroke.width, clearance)
    pts = stroke.path()
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if _seg_point_distance(dot.x, dot.y, x1, y1, x2, y2) < limit:
            return True
    return False


# segments per indexed stroke piece: a glyph outline stays one piece, and a
# label run's box meets only the few pieces of a long polyline near it
_CHUNK = 32

_Box = tuple[float, float, float, float]


def _stroke_pieces(strokes: list[Stroke]) -> list[tuple[_Box, Stroke]]:
    """Each stroke cut into open pieces of at most `_CHUNK` segments
    (closing segment included) with the stroke's width, each with its
    bounding box grown by the stroke's collision reach: a dot that touches
    a piece has its center inside that box."""
    pieces = []
    for stroke in strokes:
        pts = stroke.path()
        reach = _reach(stroke.width, LABEL_CLEARANCE)
        for i in range(0, len(pts) - 1, _CHUNK):
            part = pts[i:i + _CHUNK + 1]
            xs, ys = zip(*part)
            box = (min(xs) - reach, min(ys) - reach, max(xs) + reach, max(ys) + reach)
            pieces.append((box, Stroke(part, stroke.width)))
    return pieces


# collision reach of a glyph outline, as `_stroke_pieces` computes it
_GLYPH_REACH = _reach(MIN_STROKE, LABEL_CLEARANCE)
_NO_BOX: _Box = (math.inf, math.inf, -math.inf, -math.inf)  # meets no box


def _glyph_boxes(glyphs: list[Glyph]) -> tuple[_Box, list[tuple[_Box, Glyph]]]:
    """Each glyph with its outline's bounding box grown by the collision
    reach (the join of the boxes `_stroke_pieces` gives its rings), and the
    join of all those boxes."""
    out = []
    for glyph in glyphs:
        x0, y0, x1, y1 = _glyph_extent(glyph.shape, glyph.r)
        cx, cy, reach = glyph.x, glyph.y, _GLYPH_REACH
        out.append(((cx + x0 - reach, cy + y0 - reach, cx + x1 + reach, cy + y1 + reach),
                    glyph))
    if not out:
        return _NO_BOX, out
    x0s, y0s, x1s, y1s = zip(*(box for box, _ in out))
    return (min(x0s), min(y0s), max(x1s), max(y1s)), out


def _bbox_overlap(a: _Box, b: _Box, gap: float) -> bool:
    return not (
        a[2] + gap <= b[0] or b[2] + gap <= a[0]
        or a[3] + gap <= b[1] or b[3] + gap <= a[1]
    )


_HATCH_STEP = 6.0
_HATCH_INSET = 2.5


def _hatch_rect(x0: float, y0: float, x1: float, y1: float) -> list[Stroke]:
    """Horizontal lines `_HATCH_STEP` apart inside a rect, inset by
    `_HATCH_INSET` from its outline."""
    ix0, iy0 = x0 + _HATCH_INSET, y0 + _HATCH_INSET
    ix1, iy1 = x1 - _HATCH_INSET, y1 - _HATCH_INSET
    strokes: list[Stroke] = []
    if ix1 <= ix0 or iy1 <= iy0:
        return strokes
    y = iy0
    while y <= iy1 + 1e-9:
        strokes.append(Stroke(((ix0, y), (ix1, y)), MIN_STROKE))
        y += _HATCH_STEP
    return strokes


def _limit_ticks(
    ticks: tuple[float, ...], labels: tuple[str, ...]
) -> list[tuple[float, str]]:
    pairs = list(zip(ticks, labels))
    if len(pairs) <= MAX_TICKS:
        return pairs
    idx = sorted({round(i * (len(pairs) - 1) / (MAX_TICKS - 1))
                  for i in range(MAX_TICKS)})
    return [pairs[i] for i in idx]


class _PageBuilder:
    def __init__(self, scene: Scene, layout: TactileLayout, trial: bool = False):
        self.scene = scene
        self.layout = layout
        self.trial = trial
        self.printable = Rect(MARGIN, MARGIN, layout.page_w - 2 * MARGIN,
                              layout.page_h - 2 * MARGIN)
        self.strokes: list[Stroke] = []
        self.glyphs: list[Glyph] = []
        self.dots: list[Dot] = []
        self.runs: list[BrailleRun] = []
        # indexes for the label check, once all ink is drawn
        self.pieces: list[tuple[_Box, Stroke]] = []
        self.glyph_hull = _NO_BOX
        self.glyph_boxes: list[tuple[_Box, Glyph]] = []

    def _label(self, text: str, what: str, x: float, y: float, push: str,
               align: str, axis: str | None = None) -> None:
        """Set `text` in braille with its first dot row at `y` and its left
        end, center or right end (`align`) at `x`, then push it a braille
        line `push` ("down" or "left") at a time until it clears strokes
        and other labels, or fail with the fix for labels of `axis`. The
        aligned run's ink must lie between the left and right margins."""
        cells = _braille(text)
        if not cells:
            return
        w = _run_width(cells)
        if w + DOT_DIAMETER > self.printable.w:
            raise TactileError(
                f"{what} is too long for the page at braille size; "
                "abbreviate it to fewer characters"
            )
        if align == "center":
            x -= w / 2
        elif align == "right":
            x -= w
        r = DOT_DIAMETER / 2
        if (x - r < self.printable.x - 1e-6
                or x + w + r > self.printable.x1 + 1e-6):
            raise TactileError(f"{what} does not fit in the margin; abbreviate it")
        dx, dy = (-LINE_PITCH, 0.0) if push == "left" else (0.0, LINE_PITCH)
        run = BrailleRun(cells, x, y)
        for _ in range(4):
            if not self._run_conflicts(run):
                self.runs.append(run)
                self.dots.extend(run.dots())
                return
            run = BrailleRun(cells, run.x + dx, run.y + dy)
        raise TactileError("braille labels overlap even after displacement; "
                           + self._fix(axis, "the labels"))

    def _run_conflicts(self, run: BrailleRun) -> bool:
        box = run.bbox()
        for other in self.runs:
            if _bbox_overlap(box, other.bbox(), DOT_PITCH):
                return True
        near = [piece for grown, piece in self.pieces
                if _bbox_overlap(box, grown, 0.0)]
        if _bbox_overlap(box, self.glyph_hull, 0.0):
            for grown, glyph in self.glyph_boxes:
                if _bbox_overlap(box, grown, 0.0):
                    near += glyph.strokes()
        return any(dot_touches_stroke(dot, piece, LABEL_CLEARANCE)
                   for dot in run.dots() for piece in near)

    def _fix(self, axis: str | None, labels: str) -> str:
        """What to change about `labels` of `axis` (None: a title) that cannot
        be set: abbreviate a category or title, rescale a column, and for a
        count, which is neither, change the x labels beside it; offer a
        larger paper only when the page builds on one."""
        summary = self.scene.summary
        if axis == "y" and summary.spec.chart_type in ("bar", "histogram"):
            axis = "x"
        data_axis = {"x": summary.x_axis, "y": summary.y_axis}.get(axis)
        if data_axis is None or data_axis.domain is None:
            fix = f"abbreviate {labels}"
        else:
            fix = f"rescale column {data_axis.title!r}"
        if not self.trial and self._larger_paper_fits():
            fix += " or use a larger --paper"
        return fix

    def _larger_paper_fits(self) -> bool:
        """Whether a trial build, which names no fix, sets the page on a larger paper."""
        area = self.layout.page_w * self.layout.page_h
        for w, h in PAPER_SIZES_MM.values():
            if w * h > area:
                try:
                    _PageBuilder(self.scene, TactileLayout(w, h), trial=True).build()
                    return True
                except TactileError:
                    pass
        return False

    def _wide_tick_label(self, name: str, pairs: list[tuple[float, str]]) -> TactileError:
        """The error for tick labels of axis `name`, whose `pairs` these are,
        that leave the plot no width on a page that has room for it: it
        names the widest label and what to change."""
        label = max((label for _, label in pairs), key=lambda lbl: _run_width(_braille(lbl)))
        return TactileError(f"{name} tick label {label!r} is too wide for the page at "
                            f"braille size; {self._fix(name, 'it')}")

    # -- chart geometry ------------------------------------------------------

    def build(self) -> TactilePage:
        scene, printable = self.scene, self.printable
        summary = scene.summary
        title = summary.spec.title
        x_title, y_title = summary.x_axis.title, summary.y_axis.title

        # every panel carries its own x scale, thinned alike
        x_pairs = [pair for _, ticks in scene.panels
                   for pair in _limit_ticks(ticks, summary.x_axis.labels)]
        y_pairs = _limit_ticks(scene.y_ticks, summary.y_axis.labels)

        # gutters reserve room for braille before the chart is scaled
        def ink_width(pairs: list[tuple[float, str]]) -> float:
            return max((_run_width(_braille(lbl)) + DOT_DIAMETER for _, lbl in pairs),
                       default=0.0)

        def side_gutters(y_label_w: float, x_label_w: float) -> tuple[float, float]:
            # centered x labels can poke past either plot edge
            return (max(y_label_w + 9.0, x_label_w / 2 + 2.0),
                    max(4.0, x_label_w / 2 + 2.0))

        x_ink, y_ink = ink_width(x_pairs), ink_width(y_pairs)
        # tick labels that cannot be set are fixed on the axis whose labels
        # take more of the width: an x label reaches into both gutters, a y
        # label the left
        crowding = "y" if sum(side_gutters(y_ink, 0.0)) >= sum(side_gutters(0.0, x_ink)) else "x"
        left_gutter, right_gutter = side_gutters(y_ink, x_ink)
        bottom_gutter = 7.0 + 2 * LINE_PITCH + (LINE_PITCH if x_title else 0.0) + 2.0
        top_lines = (1 if title else 0) + (1 if y_title else 0)
        top_gutter = top_lines * LINE_PITCH + 4.0

        avail = Rect(
            printable.x + left_gutter,
            printable.y + top_gutter,
            printable.w - left_gutter - right_gutter,
            printable.h - top_gutter - bottom_gutter,
        )
        if avail.w <= 10 or avail.h <= 10:
            if avail.h > 10 and printable.w - sum(side_gutters(0.0, 0.0)) > 10:
                raise self._wide_tick_label(crowding, x_pairs if crowding == "x" else y_pairs)
            raise TactileError("page too small for the chart at braille size")

        scale = min(avail.w / scene.plot.w, avail.h / scene.plot.h)
        ox = avail.x + (avail.w - scene.plot.w * scale) / 2

        def mx(px: float) -> float:
            return ox + (px - self.scene.plot.x) * scale

        def my(px: float) -> float:
            return avail.y + (px - self.scene.plot.y) * scale

        def mw(w_px: float) -> float:
            return max(MIN_STROKE, w_px * scale)

        plot_mm = Rect(
            mx(scene.plot.x), my(scene.plot.y),
            scene.plot.w * scale, scene.plot.h * scale,
        )

        # axes and ticks: one x baseline per panel
        tick_len = 4.0
        for panel, _ in scene.panels:
            self.strokes.append(
                Stroke(((mx(panel.x), plot_mm.y1), (mx(panel.x1), plot_mm.y1)), MIN_STROKE)
            )
        self.strokes.append(
            Stroke(((plot_mm.x, plot_mm.y), (plot_mm.x, plot_mm.y1)), MIN_STROKE)
        )
        for tx, _ in x_pairs:
            self.strokes.append(
                Stroke(((mx(tx), plot_mm.y1), (mx(tx), plot_mm.y1 + tick_len)),
                       MIN_STROKE)
            )
        for ty, _ in y_pairs:
            self.strokes.append(
                Stroke(((plot_mm.x - tick_len, my(ty)), (plot_mm.x, my(ty))),
                       MIN_STROKE)
            )

        # data marks
        for mark in scene.marks:
            if isinstance(mark, RectMark):
                x0, y0 = mx(mark.x), my(mark.y)
                x1, y1 = mx(mark.x + mark.w), my(mark.y + mark.h)
                self.strokes.append(
                    Stroke(((x0, y0), (x1, y0), (x1, y1), (x0, y1)),
                           MIN_STROKE, close=True)
                )
                if mark.fill != WHITE:
                    self.strokes.extend(_hatch_rect(x0, y0, x1, y1))
            elif isinstance(mark, SegmentMark):
                self.strokes.append(
                    Stroke(((mx(mark.x1), my(mark.y1)), (mx(mark.x2), my(mark.y2))),
                           mw(mark.width), dash=mark.dash)
                )
            elif isinstance(mark, PolylineMark):
                self.strokes.append(
                    Stroke(tuple((mx(x), my(y)) for x, y in mark.points),
                           mw(mark.width),
                           dash=tuple(d * 1.5 for d in mark.dash) if mark.dash else None)
                )
            elif isinstance(mark, PointMark):
                self.glyphs.append(
                    Glyph(mx(mark.x), my(mark.y), mark.shape, max(2.5, mark.size * scale))
                )
            # TextMarks inside marks would be re-set in braille; none today

        self.pieces = _stroke_pieces(self.strokes)
        self.glyph_hull, self.glyph_boxes = _glyph_boxes(self.glyphs)

        # braille labels: x ticks below, y ticks left, titles around
        x_label_y = plot_mm.y1 + tick_len + 3.0
        for tx, label in x_pairs:
            self._label(label, f"x label {label!r}", mx(tx), x_label_y, "down", "center",
                        crowding)
        for ty, label in y_pairs:
            self._label(label, f"y label {label!r}", plot_mm.x - tick_len - 3.0,
                        my(ty) - DOT_PITCH, "left", "right", crowding)

        title_x = printable.x + DOT_DIAMETER / 2
        y_base = printable.y + DOT_DIAMETER / 2
        if title:
            self._label(title, "title", title_x, y_base, "down", "left")
            y_base += LINE_PITCH
        if y_title:
            self._label(y_title, f"y-axis title {y_title!r}", title_x, y_base,
                        "down", "left")
        if x_title:
            self._label(x_title, f"x-axis title {x_title!r}", plot_mm.x + plot_mm.w / 2,
                        x_label_y + 2 * LINE_PITCH, "down", "center")

        page = TactilePage(self.layout, tuple(self.strokes), tuple(self.glyphs),
                           tuple(self.dots))
        _check_bounds(page)
        return page


def tactualize(scene: Scene, layout: TactileLayout | None = None) -> TactilePage:
    """Rescale a scene into emboss-ready millimeter geometry."""
    return _PageBuilder(scene, layout or TactileLayout()).build()


def _check_bounds(page: TactilePage) -> None:
    lay = page.layout
    x0, y0 = MARGIN, MARGIN
    x1, y1 = lay.page_w - MARGIN, lay.page_h - MARGIN
    r = DOT_DIAMETER / 2
    for dot in page.dots:
        if not (x0 <= dot.x - r and dot.x + r <= x1 and y0 <= dot.y - r and dot.y + r <= y1):
            raise TactileError(
                f"braille dot at ({dot.x:.1f}, {dot.y:.1f}) mm leaves the printable area"
            )

    def check(strokes) -> None:
        for stroke in strokes:
            hw = stroke.width / 2
            for px, py in stroke.points:
                if not (x0 <= px - hw and px + hw <= x1 and y0 <= py - hw and py + hw <= y1):
                    raise TactileError(
                        f"stroke point at ({px:.1f}, {py:.1f}) mm leaves the printable area"
                    )

    check(page.strokes)
    hw = MIN_STROKE / 2
    for g in page.glyphs:
        gx0, gy0, gx1, gy1 = _glyph_extent(g.shape, g.r)
        if not (x0 <= g.x + gx0 - hw and g.x + gx1 + hw <= x1
                and y0 <= g.y + gy0 - hw and g.y + gy1 + hw <= y1):
            check(g.strokes())  # names the first point out


@functools.lru_cache
def _outline_ops(shape: ShapeKind, r: float) -> str:
    """PDF operators that stroke a glyph outline about the origin, in pt
    with y up, with the current line width."""
    rings, closed = glyph_rings(shape, r)
    return "\n".join(
        op
        for ring in rings
        for op in path_ops([(x * MM_TO_PT, -y * MM_TO_PT) for x, y in ring], closed)
    )


def emit_pdf(page: TactilePage) -> bytes:
    """Single-page PDF 1.4, black-only: strokes as paths, each glyph as its
    outline's operators placed by a translation, braille dots as filled
    circles built from four Bezier arcs."""
    lay = page.layout
    h_pt = lay.page_h * MM_TO_PT

    def pt(x_mm: float, y_mm: float) -> tuple[float, float]:
        return x_mm * MM_TO_PT, h_pt - y_mm * MM_TO_PT

    cs = ContentStream()
    for stroke in page.strokes:
        cs.stroke_polyline(
            [pt(x, y) for x, y in stroke.points],
            stroke.width * MM_TO_PT,
            dash_pt=tuple(d * MM_TO_PT for d in stroke.dash) if stroke.dash else None,
            close=stroke.close,
        )
    if page.glyphs:
        cs.set_stroke(MIN_STROKE * MM_TO_PT)  # a translation keeps the width
    for g in page.glyphs:
        cs.place(*pt(g.x, g.y), _outline_ops(g.shape, g.r))
    cs.fill_circles([pt(dot.x, dot.y) for dot in page.dots], DOT_DIAMETER / 2 * MM_TO_PT)
    return build_pdf(cs.to_bytes(), lay.page_w * MM_TO_PT, h_pt)


def emit_preview_svg(page: TactilePage, alt: AltText) -> bytes:
    """Sighted-verification twin of the PDF (mm coordinate space)."""
    lay = page.layout
    body = []
    for s in page.ink():
        body.append(
            f'\n<path d="{path_data((s.points,), s.close, fmt_pt)}" fill="none" '
            f'stroke="#000000" stroke-width="{fmt_pt(s.width)}" stroke-linecap="round" '
            f'stroke-linejoin="round"{dash_attr(s.dash, fmt_pt)}/>'
        )
    r = DOT_DIAMETER / 2
    for dot in page.dots:
        body.append(f'\n<path d="{circle_data(dot.x, dot.y, r, fmt_pt)}" fill="#000000"/>')
    return _document(lay.page_w, lay.page_h, "Tactile page preview", alt.flattened,
                     "".join(body), unit="mm")
