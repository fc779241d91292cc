"""Deterministic SVG emission and the four-panel deficiency grid.

Output uses only rect, path, line, text, g, title and desc elements;
marker glyphs are paths, never font glyphs, so downstream consumers can
reuse the geometry. The root carries role="img" with an accessible name
from a <title> (short alt) and a <desc> (full alt text). Identical scenes
produce identical bytes.
"""

from __future__ import annotations

from typing import Callable

from .color import CvdKind, Rgb, simulate_cvd
from .scene import (
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


def xml_escape(text: str) -> str:
    """Text for XML content in every SVG this package writes."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _shape_path(shape: ShapeKind, r: float) -> tuple[str, bool]:
    """Path data centered on the origin; second member is True when filled."""
    if shape is ShapeKind.CIRCLE:
        d = (
            f"M {_fmt(-r)},0 A {_fmt(r)},{_fmt(r)} 0 1 0 {_fmt(r)},0 "
            f"A {_fmt(r)},{_fmt(r)} 0 1 0 {_fmt(-r)},0 Z"
        )
        return d, True
    rings, closed = glyph_rings(shape, r)
    end = " Z" if closed else ""
    d = " ".join(
        "M " + " L ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in ring) + end
        for ring in rings
    )
    return d, closed


def _dash_attr(dash: tuple[float, ...] | None) -> str:
    return f' stroke-dasharray="{",".join(_fmt(d) for d in dash)}"' if dash else ""


def _mark_element(mark: Mark, recolor: Recolor, mark_id: str | None) -> str:
    ident = f' id="{mark_id}"' if mark_id else ""
    if isinstance(mark, PointMark):
        d, filled = _shape_path(mark.shape, mark.size)
        color = recolor(mark.color).to_hex()
        paint = (
            f'fill="{color}"'
            if filled
            else f'fill="none" stroke="{color}" stroke-width="1.5"'
        )
        return (
            f'<path{ident} transform="translate({_fmt(mark.x)} {_fmt(mark.y)})" '
            f'd="{d}" {paint}/>'
        )
    if isinstance(mark, RectMark):
        stroke = (
            f' stroke="{recolor(mark.stroke).to_hex()}" stroke-width="1.5"'
            if mark.stroke
            else ""
        )
        return (
            f'<rect{ident} x="{_fmt(mark.x)}" y="{_fmt(mark.y)}" '
            f'width="{_fmt(mark.w)}" height="{_fmt(mark.h)}" '
            f'fill="{recolor(mark.fill).to_hex()}"{stroke}/>'
        )
    if isinstance(mark, SegmentMark):
        return (
            f'<line{ident} x1="{_fmt(mark.x1)}" y1="{_fmt(mark.y1)}" '
            f'x2="{_fmt(mark.x2)}" y2="{_fmt(mark.y2)}" '
            f'stroke="{recolor(mark.color).to_hex()}" '
            f'stroke-width="{_fmt(mark.width)}"{_dash_attr(mark.dash)}/>'
        )
    if isinstance(mark, PolylineMark):
        steps = " L ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in mark.points)
        return (
            f'<path{ident} d="M {steps}" fill="none" '
            f'stroke="{recolor(mark.color).to_hex()}" '
            f'stroke-width="{_fmt(mark.width)}"{_dash_attr(mark.dash)}/>'
        )
    if isinstance(mark, TextMark):
        rotate = (
            f' transform="rotate({_fmt(mark.rotate)} {_fmt(mark.x)} {_fmt(mark.y)})"'
            if mark.rotate
            else ""
        )
        return (
            f'<text{ident} x="{_fmt(mark.x)}" y="{_fmt(mark.y)}" '
            f'text-anchor="{mark.anchor}" font-family="sans-serif" '
            f'font-size="{_fmt(mark.size)}" fill="{recolor(mark.color).to_hex()}"'
            f"{rotate}>{xml_escape(mark.text)}</text>"
        )
    raise TypeError(f"unknown mark {mark!r}")


def _scene_body(scene: Scene, recolor: Recolor, id_prefix: str) -> list[str]:
    lines = [_mark_element(m, recolor, None) for m in scene.decorations]
    lines.extend(
        _mark_element(m, recolor, f"{id_prefix}{i}")
        for i, m in enumerate(scene.marks)
    )
    return lines


def _document(
    width: float, height: float, short_alt: str, long_alt: str, body: list[str]
) -> bytes:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" role="img" '
        f'aria-labelledby="title desc">',
        f"<title id=\"title\">{xml_escape(short_alt)}</title>",
        f"<desc id=\"desc\">{xml_escape(long_alt)}</desc>",
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="#FFFFFF"/>',
    ]
    return ("\n".join(head + body) + "\n</svg>\n").encode("utf-8")


def emit_svg(scene: Scene, alt: AltText, short_alt: str | None = None) -> bytes:
    """Serialize a scene; the <desc> carries the flattened alt text."""
    title = short_alt if short_alt else alt.sentences[0]
    body = _scene_body(scene, lambda c: c, "m")
    return _document(scene.width, scene.height, title, alt.flattened, body)


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
    group, so mark coordinates are comparable across panels by id.
    """
    body: list[str] = []
    full = grid_alt(alt)
    for i, (name, kind) in enumerate(GRID_PANELS):
        tx = (i % 2) * scene.width
        ty = (i // 2) * scene.height
        panel = [
            f'<g id="panel-{kind.value}" transform="translate({_fmt(tx)} {_fmt(ty)})">'
        ]
        panel.append(
            f'<text x="{_fmt(scene.width / 2)}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#000000">'
            f"{xml_escape(name)}</text>"
        )
        panel.extend(
            _scene_body(scene, lambda c, k=kind: simulate_cvd(c, k), f"{kind.value}-m")
        )
        panel.append("</g>")
        body.extend(panel)
    return _document(
        scene.width * 2, scene.height * 2, full.sentences[0], full.flattened, body
    )
