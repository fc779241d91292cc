"""Deterministic SVG emission and the four-panel deficiency grid.

Output uses only rect, path, line, text, g, title and desc elements;
marker glyphs are paths, never font glyphs, so downstream consumers can
reuse the geometry. The root carries role="img" with an accessible name
from a <title> (short alt) and a <desc> (full alt text). Identical scenes
produce identical bytes.
"""

from __future__ import annotations

import functools
import re
from typing import Callable

from .color import CvdKind, Rgb, simulate_cvd
from .errors import DataError
from .scene import (
    HEIGHT,
    WIDTH,
    Mark,
    PointMark,
    PolylineMark,
    RectMark,
    Scene,
    SegmentMark,
    ShapeKind,
    TextMark,
    glyph_rings,
)
from .verbalize import AltText, join_labels

Recolor = Callable[[Rgb], Rgb]

GRID_PANELS: tuple[tuple[str, CvdKind], ...] = (
    ("Deutan", CvdKind.DEUTAN),
    ("Protan", CvdKind.PROTAN),
    ("Tritan", CvdKind.TRITAN),
    ("Desaturated", CvdKind.DESATURATE),
)


def _fmt(v: float) -> str:
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


# the characters that XML 1.0 cannot hold, escaped or not
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def xml_escape(text: str) -> str:
    """Text for XML content in every SVG this package writes; a character
    that XML cannot hold is refused, by name."""
    bad = _NOT_XML.search(text)
    if bad:
        raise DataError(f"text {text!r} holds {bad.group()!r}, which an SVG cannot hold; "
                        "remove it")
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def path_data(rings, closed: bool, fmt: Callable[[float], str] = _fmt) -> str:
    """SVG path data: one `M … L …` subpath per ring, each ended by `Z`
    when `closed`."""
    end = " Z" if closed else ""
    return " ".join(
        "M " + " L ".join(f"{fmt(x)},{fmt(y)}" for x, y in ring) + end for ring in rings
    )


def circle_data(cx: float, cy: float, r: float, fmt: Callable[[float], str] = _fmt) -> str:
    """SVG path data of a circle as two half-circle arcs."""
    left, right, y, rr = fmt(cx - r), fmt(cx + r), fmt(cy), fmt(r)
    return f"M {left},{y} A {rr},{rr} 0 1 0 {right},{y} A {rr},{rr} 0 1 0 {left},{y} Z"


def dash_attr(dash: tuple[float, ...] | None, fmt: Callable[[float], str] = _fmt) -> str:
    """A `stroke-dasharray` attribute, or nothing for a solid stroke."""
    return f' stroke-dasharray="{",".join(fmt(d) for d in dash)}"' if dash else ""


@functools.lru_cache
def _shape_path(shape: ShapeKind, r: float) -> tuple[str, bool]:
    """Path data centered on the origin; second member is True when filled.

    Cached: a scatter draws one glyph per (shape, size) at every point.
    """
    if shape is ShapeKind.CIRCLE:
        return circle_data(0, 0, r), True
    rings, closed = glyph_rings(shape, r)
    return path_data(rings, closed), closed


# Slot filled with the panel's mark id prefix ("m" in the chart, one per
# deficiency in the grid); every other slot holds an Rgb.
_MARK_ID = object()


def _mark_element(mark: Mark, ident: tuple) -> tuple:
    """A mark's element as pieces: literal text, and a slot (its Rgb)
    wherever a colour goes; `ident` is spliced in after the tag name."""
    if isinstance(mark, PointMark):
        d, filled = _shape_path(mark.shape, mark.size)
        paint = (
            ('fill="', mark.color, '"')
            if filled
            else ('fill="none" stroke="', mark.color, '" stroke-width="1.5"')
        )
        return (
            "<path", *ident,
            f' transform="translate({_fmt(mark.x)} {_fmt(mark.y)})" d="{d}" ',
            *paint, "/>",
        )
    if isinstance(mark, RectMark):
        stroke = (
            (' stroke="', mark.stroke, '" stroke-width="1.5"')
            if mark.stroke
            else ()
        )
        return (
            "<rect", *ident,
            f' x="{_fmt(mark.x)}" y="{_fmt(mark.y)}" '
            f'width="{_fmt(mark.w)}" height="{_fmt(mark.h)}" fill="',
            mark.fill, '"', *stroke, "/>",
        )
    if isinstance(mark, SegmentMark):
        return (
            "<line", *ident,
            f' x1="{_fmt(mark.x1)}" y1="{_fmt(mark.y1)}" '
            f'x2="{_fmt(mark.x2)}" y2="{_fmt(mark.y2)}" stroke="',
            mark.color,
            f'" stroke-width="{_fmt(mark.width)}"{dash_attr(mark.dash)}/>',
        )
    if isinstance(mark, PolylineMark):
        return (
            "<path", *ident,
            f' d="{path_data((mark.points,), False)}" fill="none" stroke="',
            mark.color,
            f'" stroke-width="{_fmt(mark.width)}"{dash_attr(mark.dash)}/>',
        )
    if isinstance(mark, TextMark):
        rotate = (
            f' transform="rotate({_fmt(mark.rotate)} {_fmt(mark.x)} {_fmt(mark.y)})"'
            if mark.rotate
            else ""
        )
        return (
            "<text", *ident,
            f' x="{_fmt(mark.x)}" y="{_fmt(mark.y)}" '
            f'text-anchor="{mark.anchor}" font-family="sans-serif" '
            f'font-size="{_fmt(mark.size)}" fill="',
            mark.color,
            f'"{rotate}>{xml_escape(mark.text)}</text>',
        )
    raise TypeError(f"unknown mark {mark!r}")


class _Body:
    """A scene's marks formatted once, one line each, as literal text runs
    with a slot between every two; panels differ only in how slots fill."""

    def __init__(self, scene: Scene):
        pieces: list = []
        for m in scene.decorations:
            pieces += ("\n", *_mark_element(m, ()))
        for i, m in enumerate(scene.marks):
            pieces += ("\n", *_mark_element(m, (' id="', _MARK_ID, f'{i}"')))
        self.texts: list[str] = []
        slots: list = []
        run: list[str] = []
        for p in pieces:
            if p.__class__ is str:
                run.append(p)
            else:
                self.texts.append("".join(run))
                run = []
                slots.append(p)
        self.texts.append("".join(run))
        # distinct slot keys, and each slot as an index into them
        index = {k: i for i, k in enumerate(dict.fromkeys(slots))}
        self.keys: list = list(index)
        self.slots = [index[k] for k in slots]

    def paint(self, recolor: Recolor, id_prefix: str) -> str:
        """The body with each distinct colour recolored and hex-formatted once."""
        fills = [
            id_prefix if k is _MARK_ID else recolor(k).to_hex() for k in self.keys
        ]
        out: list[str] = [""] * (2 * len(self.slots) + 1)
        out[::2] = self.texts
        out[1::2] = map(fills.__getitem__, self.slots)
        return "".join(out)


def _document(
    width: float, height: float, short_alt: str, long_alt: str, body: str, unit: str = ""
) -> bytes:
    """An SVG file on a white page: its root sized in `unit` (user units
    by default), named by `short_alt` and described by `long_alt`."""
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}{unit}" height="{_fmt(height)}{unit}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" role="img" '
        f'aria-labelledby="title desc">',
        f"<title id=\"title\">{xml_escape(short_alt)}</title>",
        f"<desc id=\"desc\">{xml_escape(long_alt)}</desc>",
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="#FFFFFF"/>',
    ]
    return ("\n".join(head) + body + "\n</svg>\n").encode("utf-8")


def emit_svg(scene: Scene, alt: AltText) -> bytes:
    """Serialize a scene. The <title> is the spec's "alt", or else the alt
    text's first sentence; the <desc> carries the flattened alt text."""
    title = scene.summary.spec.manual_alt or alt.sentences[0]
    body = _Body(scene).paint(lambda c: c, "m")
    return _document(WIDTH, HEIGHT, title, alt.flattened, body)


def grid_alt(base_alt: AltText) -> AltText:
    names = [name for name, _ in GRID_PANELS]
    intro = (
        f"Color vision deficiency simulation grid with four panels: "
        f"{join_labels(names)}.",
        "Each panel repeats the same chart with its colors as seen under "
        "that deficiency.",
    )
    return AltText(intro + base_alt.sentences)


def cvd_grid(scene: Scene, alt: AltText) -> bytes:
    """Single SVG with the scene recolored per deficiency in 2x2 panels.

    Panel geometry is the base geometry verbatim inside a translated
    group, so mark coordinates are comparable across panels by id. Each
    mark is formatted once for all four panels, and each distinct colour
    is simulated once per deficiency.
    """
    marks = _Body(scene)
    body: list[str] = []
    full = grid_alt(alt)
    for i, (name, kind) in enumerate(GRID_PANELS):
        tx = (i % 2) * WIDTH
        ty = (i // 2) * HEIGHT
        body.append(
            f'\n<g id="panel-{kind.value}" transform="translate({_fmt(tx)} {_fmt(ty)})">'
            f'\n<text x="{_fmt(WIDTH / 2)}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#000000">'
            f"{xml_escape(name)}</text>"
        )
        body.append(
            marks.paint(lambda c, k=kind: simulate_cvd(c, k), f"{kind.value}-m")
        )
        body.append("\n</g>")
    return _document(
        WIDTH * 2, HEIGHT * 2, full.sentences[0], full.flattened,
        "".join(body),
    )
