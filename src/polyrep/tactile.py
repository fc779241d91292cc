"""Emboss-ready tactile pages: chart strokes plus braille-dot labels.

Geometry is millimeter-space. Chart strokes come from the laid-out scene
(filled bars and bins become outlines hatched with horizontal lines,
white box-plot boxes bare outlines); every text label is re-set in
braille. Axis ticks are thinned to at most five per axis and label runs
are displaced outward until no braille dot touches a stroke; a label
whose ink would cross a margin is an error. Underscores in labels become
spaces so column names stay within the braille alphabet.

Label collision goes through a flat index of stroke pieces, built once
all strokes are drawn: each stroke is cut into pieces of at most `_CHUNK`
segments, each kept with its bounding box grown by the stroke's collision
reach, and a label run's dots are tested only against the pieces whose
grown box meets the run's box. `dot_touches_stroke` is the single collision
kernel the label check calls and the brute-force oracle the tests compare
it with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braille import BrailleCell, to_braille
from .errors import TactileError
from .pdfwrite import MM_TO_PT, ContentStream, build_pdf, fmt_pt
from .scene import (
    PointMark,
    PolylineMark,
    Rect,
    RectMark,
    Scene,
    SegmentMark,
    WHITE,
    glyph_rings,
)
from .svgout import xml_escape
from .verbalize import AltText

PAPER_SIZES_MM: dict[str, tuple[float, float]] = {
    "letter": (215.9, 279.4),
    "a4": (210.0, 297.0),
    "braille11x11": (279.4, 279.4),
}


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

MAX_TICKS = 5  # per axis


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


@dataclass(frozen=True)
class Dot:
    """Center of one braille dot, `DOT_DIAMETER` across."""

    x: float
    y: float


@dataclass(frozen=True)
class TactilePage:
    layout: TactileLayout
    strokes: tuple[Stroke, ...]
    dots: tuple[Dot, ...]
    source_alt: AltText


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


def dot_touches_stroke(dot: Dot, stroke: Stroke, clearance: float) -> bool:
    """True when the dot's ink comes within `clearance` of the stroke's ink.

    The single collision kernel: the label check calls it per nearby
    stroke piece, and tests call it over whole strokes as the brute-force
    oracle. Dashed strokes are treated as solid."""
    limit = DOT_DIAMETER / 2 + stroke.width / 2 + clearance
    pts = stroke.points + (stroke.points[0],) if stroke.close else stroke.points
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
        pts = stroke.points + (stroke.points[0],) if stroke.close else stroke.points
        reach = DOT_DIAMETER / 2 + stroke.width / 2 + LABEL_CLEARANCE
        for i in range(0, len(pts) - 1, _CHUNK):
            part = pts[i:i + _CHUNK + 1]
            xs, ys = zip(*part)
            box = (min(xs) - reach, min(ys) - reach, max(xs) + reach, max(ys) + reach)
            pieces.append((box, Stroke(part, stroke.width)))
    return pieces


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
    def __init__(self, scene: Scene, layout: TactileLayout, alt: AltText):
        self.scene = scene
        self.layout = layout
        self.alt = alt
        self.printable = Rect(MARGIN, MARGIN, layout.page_w - 2 * MARGIN,
                              layout.page_h - 2 * MARGIN)
        self.strokes: list[Stroke] = []
        self.dots: list[Dot] = []
        self.runs: list[BrailleRun] = []
        self.pieces: list[tuple[_Box, Stroke]] = []  # once every stroke is drawn

    def _label(self, text: str, what: str, x: float, y: float, push: str,
               align: str) -> None:
        """Set `text` in braille with its first dot row at `y` and its left
        end, center or right end (`align`) at `x`, then push it a braille
        line `push` ("down" or "left") at a time until it clears strokes
        and other labels. The aligned run's ink must lie between the left
        and right margins."""
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
        raise TactileError(
            "braille labels overlap even after displacement; "
            "abbreviate the labels or enlarge the page"
        )

    def _run_conflicts(self, run: BrailleRun) -> bool:
        box = run.bbox()
        for other in self.runs:
            if _bbox_overlap(box, other.bbox(), DOT_PITCH):
                return True
        near = [piece for grown, piece in self.pieces
                if _bbox_overlap(box, grown, 0.0)]
        return any(dot_touches_stroke(dot, piece, LABEL_CLEARANCE)
                   for dot in run.dots() for piece in near)

    # -- chart geometry ------------------------------------------------------

    def build(self) -> TactilePage:
        scene, printable = self.scene, self.printable

        x_pairs = _limit_ticks(scene.x_axis.ticks, scene.x_axis.labels)
        y_pairs = _limit_ticks(scene.y_axis.ticks, scene.y_axis.labels)

        # gutters reserve room for braille before the chart is scaled
        def ink_width(pairs: list[tuple[float, str]]) -> float:
            return max((_run_width(_braille(lbl)) + DOT_DIAMETER for _, lbl in pairs),
                       default=0.0)

        y_label_w = ink_width(y_pairs)
        x_label_w = ink_width(x_pairs)
        # centered x labels can poke past either plot edge
        left_gutter = max(y_label_w + 9.0, x_label_w / 2 + 2.0)
        right_gutter = max(4.0, x_label_w / 2 + 2.0)
        bottom_gutter = 7.0 + 2 * LINE_PITCH + (
            LINE_PITCH if scene.x_axis.title else 0.0
        ) + 2.0
        top_lines = (1 if scene.summary.title else 0) + (1 if scene.y_axis.title else 0)
        top_gutter = top_lines * LINE_PITCH + 4.0

        avail = Rect(
            printable.x + left_gutter,
            printable.y + top_gutter,
            printable.w - left_gutter - right_gutter,
            printable.h - top_gutter - bottom_gutter,
        )
        if avail.w <= 10 or avail.h <= 10:
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

        # axes and ticks
        tick_len = 4.0
        self.strokes.append(
            Stroke(((plot_mm.x, plot_mm.y1), (plot_mm.x1, plot_mm.y1)), MIN_STROKE)
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
                cx, cy = mx(mark.x), my(mark.y)
                rings, closed = glyph_rings(mark.shape, max(2.5, mark.size * scale))
                self.strokes.extend(
                    Stroke(tuple((cx + x, cy + y) for x, y in ring),
                           MIN_STROKE, close=closed)
                    for ring in rings
                )
            # TextMarks inside marks would be re-set in braille; none today

        self.pieces = _stroke_pieces(self.strokes)

        # braille labels: x ticks below, y ticks left, titles around
        x_label_y = plot_mm.y1 + tick_len + 3.0
        for tx, label in x_pairs:
            self._label(label, f"x label {label!r}", mx(tx), x_label_y, "down", "center")
        for ty, label in y_pairs:
            self._label(label, f"y label {label!r}", plot_mm.x - tick_len - 3.0,
                        my(ty) - DOT_PITCH, "left", "right")

        title_x = printable.x + DOT_DIAMETER / 2
        y_base = printable.y + DOT_DIAMETER / 2
        if scene.summary.title:
            self._label(scene.summary.title, "title", title_x, y_base, "down", "left")
            y_base += LINE_PITCH
        if scene.y_axis.title:
            t = scene.y_axis.title
            self._label(t, f"y-axis title {t!r}", title_x, y_base, "down", "left")
        if scene.x_axis.title:
            t = scene.x_axis.title
            self._label(t, f"x-axis title {t!r}", plot_mm.x + plot_mm.w / 2,
                        x_label_y + 2 * LINE_PITCH, "down", "center")

        page = TactilePage(self.layout, tuple(self.strokes), tuple(self.dots), self.alt)
        _check_bounds(page)
        return page


def tactualize(scene: Scene, layout: TactileLayout | None = None,
               alt: AltText | None = None) -> TactilePage:
    """Rescale a scene into emboss-ready millimeter geometry."""
    if alt is None:
        alt = AltText(("Tactile chart.",))
    return _PageBuilder(scene, layout or TactileLayout(), alt).build()


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
    for stroke in page.strokes:
        hw = stroke.width / 2
        for px, py in stroke.points:
            if not (x0 <= px - hw and px + hw <= x1 and y0 <= py - hw and py + hw <= y1):
                raise TactileError(
                    f"stroke point at ({px:.1f}, {py:.1f}) mm leaves the printable area"
                )


def emit_pdf(page: TactilePage) -> bytes:
    """Single-page PDF 1.4, black-only: strokes as paths, braille dots as
    filled circles built from four Bezier arcs."""
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
    for dot in page.dots:
        cx, cy = pt(dot.x, dot.y)
        cs.fill_circle(cx, cy, DOT_DIAMETER / 2 * MM_TO_PT)
    return build_pdf(cs.to_bytes(), lay.page_w * MM_TO_PT, h_pt)


def emit_preview_svg(page: TactilePage) -> bytes:
    """Sighted-verification twin of the PDF (mm coordinate space)."""
    lay = page.layout
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt_pt(lay.page_w)}mm" height="{fmt_pt(lay.page_h)}mm" '
        f'viewBox="0 0 {fmt_pt(lay.page_w)} {fmt_pt(lay.page_h)}" role="img" '
        f'aria-labelledby="title desc">',
        "<title id=\"title\">Tactile page preview</title>",
        f"<desc id=\"desc\">{xml_escape(page.source_alt.flattened)}</desc>",
        f'<rect x="0" y="0" width="{fmt_pt(lay.page_w)}" '
        f'height="{fmt_pt(lay.page_h)}" fill="#FFFFFF"/>',
    ]
    for s in page.strokes:
        d = "M " + " L ".join(f"{fmt_pt(x)},{fmt_pt(y)}" for x, y in s.points)
        if s.close:
            d += " Z"
        dash = (
            f' stroke-dasharray="{",".join(fmt_pt(v) for v in s.dash)}"' if s.dash else ""
        )
        lines.append(
            f'<path d="{d}" fill="none" stroke="#000000" '
            f'stroke-width="{fmt_pt(s.width)}" stroke-linecap="round" '
            f'stroke-linejoin="round"{dash}/>'
        )
    r = DOT_DIAMETER / 2
    for dot in page.dots:
        lines.append(
            f'<path d="M {fmt_pt(dot.x - r)},{fmt_pt(dot.y)} '
            f"A {fmt_pt(r)},{fmt_pt(r)} 0 1 0 {fmt_pt(dot.x + r)},{fmt_pt(dot.y)} "
            f'A {fmt_pt(r)},{fmt_pt(r)} 0 1 0 {fmt_pt(dot.x - r)},{fmt_pt(dot.y)} Z" '
            f'fill="#000000"/>'
        )
    return ("\n".join(lines) + "\n</svg>\n").encode("utf-8")
