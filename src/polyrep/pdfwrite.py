"""Minimal PDF 1.4 writer: one page, one uncompressed content stream.

Offsets in the cross-reference table are byte-accurate and the output is
fully deterministic, which keeps emboss artifacts diffable.
"""

from __future__ import annotations

MM_TO_PT = 72.0 / 25.4

# width, height; `polyrep tactile --paper` offers these keys
PAPER_SIZES_MM: dict[str, tuple[float, float]] = {
    "letter": (215.9, 279.4),
    "a4": (210.0, 297.0),
    "braille11x11": (279.4, 279.4),
}

# circle-from-Beziers constant: 4*(sqrt(2)-1)/3
KAPPA = 0.5522847498307936


def fmt_pt(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def path_ops(points: list[tuple[float, float]], close: bool = False) -> list[str]:
    """Operators that build one polyline of at least two points and stroke
    it with the current line width and colour."""
    (x0, y0), rest = points[0], points[1:]
    ops = [f"{fmt_pt(x0)} {fmt_pt(y0)} m"]
    ops += [f"{fmt_pt(x)} {fmt_pt(y)} l" for x, y in rest]
    ops.append("s" if close else "S")
    return ops


class ContentStream:
    """PDF path operators in point coordinates (origin bottom-left)."""

    def __init__(self):
        self._ops: list[str] = ["1 J", "1 j"]  # round caps and joins

    def stroke_polyline(
        self,
        points: list[tuple[float, float]],
        width_pt: float,
        dash_pt: tuple[float, ...] | None = None,
        close: bool = False,
    ) -> None:
        if len(points) < 2:
            return
        self.set_stroke(width_pt)
        if dash_pt:
            self._ops.append(f"[{' '.join(fmt_pt(d) for d in dash_pt)}] 0 d")
        self._ops += path_ops(points, close)
        if dash_pt:
            self._ops.append("[] 0 d")

    def set_stroke(self, width_pt: float) -> None:
        """Stroke in black, `width_pt` wide, from here on."""
        self._ops.append(f"{fmt_pt(width_pt)} w")
        self._ops.append("0 G")

    def place(self, tx: float, ty: float, ops: str) -> None:
        """Draw `ops`, operators formatted about the origin, translated by
        (tx, ty) pt; the graphics state is saved and restored around them."""
        self._ops.append(f"q\n1 0 0 1 {fmt_pt(tx)} {fmt_pt(ty)} cm\n{ops}\nQ")

    def fill_circles(self, centers: list[tuple[float, float]], r: float) -> None:
        """Fill a black disc of radius `r` about each (cx, cy) center, each
        one four Bezier arcs; a coordinate is formatted once per value."""
        k = KAPPA * r

        def offsets(values) -> dict[float, tuple[str, ...]]:
            # v + r, v + k, v, v - k, v - r for each distinct v
            return {v: (fmt_pt(v + r), fmt_pt(v + k), fmt_pt(v), fmt_pt(v - k),
                        fmt_pt(v - r))
                    for v in set(values)}

        xs = offsets(cx for cx, _ in centers)
        ys = offsets(cy for _, cy in centers)
        for cx, cy in centers:
            xr, xk, x0, xmk, xmr = xs[cx]
            yr, yk, y0, ymk, ymr = ys[cy]
            self._ops.append(
                f"0 g\n{xr} {y0} m\n"
                f"{xr} {yk} {xk} {yr} {x0} {yr} c\n"
                f"{xmk} {yr} {xmr} {yk} {xmr} {y0} c\n"
                f"{xmr} {ymk} {xmk} {ymr} {x0} {ymr} c\n"
                f"{xk} {ymr} {xr} {ymk} {xr} {y0} c\nf"
            )

    def to_bytes(self) -> bytes:
        return ("\n".join(self._ops) + "\n").encode("ascii")


def build_pdf(content: bytes, width_pt: float, height_pt: float) -> bytes:
    """Assemble catalog, page tree, page, and content stream with exact xref."""
    objects = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        (
            f"<< /Type /Page /Parent 2 0 R "
            f"/MediaBox [0 0 {fmt_pt(width_pt)} {fmt_pt(height_pt)}] "
            f"/Resources << >> /Contents 4 0 R >>"
        ).encode("ascii"),
        b"<< /Length %d >>\nstream\n%s\nendstream" % (len(content), content),
    ]
    header = b"%PDF-1.4\n%\xc2\xb5\xc2\xb6\n"
    out = bytearray(header)
    offsets = []
    for i, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % i
        out += body
        out += b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objects) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(objects) + 1,
        xref_at,
    )
    return bytes(out)
