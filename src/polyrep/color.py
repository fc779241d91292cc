"""Color-space math, color-vision-deficiency simulation, and palette audits.

Simulation uses the dichromacy (severity 1.0) matrices from Machado,
Oliveira & Fernandes, "A Physiologically-based Model for Simulation of
Color Vision Deficiency" (IEEE TVCG 2009), applied in linear RGB.  Matrix
values were checked against two independently published copies of the
table before being frozen here; each row sums to 1 so the white point is
preserved, which is asserted at import time.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from .errors import DataError


@dataclass(frozen=True)
class Rgb:
    """Gamma-encoded sRGB color with unit-interval components."""

    r: float
    g: float
    b: float

    def __post_init__(self):
        for c in (self.r, self.g, self.b):
            if not (0.0 <= c <= 1.0):
                raise DataError(f"sRGB component {c!r} outside [0, 1]")

    @classmethod
    def from_hex(cls, text: str) -> "Rgb":
        s = text.strip().lstrip("#") if isinstance(text, str) else ""
        if len(s) != 6 or any(c not in "0123456789abcdefABCDEF" for c in s):
            raise DataError(f"expected #RRGGBB hex color, got {text!r}")
        return cls(*(int(s[i : i + 2], 16) / 255.0 for i in (0, 2, 4)))

    def to_hex(self) -> str:
        return "#%02X%02X%02X" % tuple(
            round(c * 255.0) for c in (self.r, self.g, self.b)
        )


class CvdKind(enum.Enum):
    DEUTAN = "deutan"
    PROTAN = "protan"
    TRITAN = "tritan"
    DESATURATE = "desaturate"


@dataclass(frozen=True)
class Palette:
    colors: tuple[Rgb, ...]
    name: str | None = None

    def __post_init__(self):
        if not self.colors:
            raise DataError("palette must have at least one color")
        seen = {}
        for i, c in enumerate(self.colors):
            key = c.to_hex()
            if key in seen:
                raise DataError(
                    f"palette colors {seen[key]} and {i} are both {key}"
                )
            seen[key] = i

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, i: int) -> Rgb:
        return self.colors[i]


@dataclass(frozen=True)
class Lab:
    L: float
    a: float
    b: float


def _channel_to_linear(c: float) -> float:
    return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4


def _channel_to_srgb(c: float) -> float:
    return c * 12.92 if c <= 0.0031308 else 1.055 * c ** (1.0 / 2.4) - 0.055


def srgb_to_linear(c: Rgb) -> tuple[float, float, float]:
    return (
        _channel_to_linear(c.r),
        _channel_to_linear(c.g),
        _channel_to_linear(c.b),
    )


def linear_to_srgb(rgb: tuple[float, float, float]) -> Rgb:
    return Rgb(*(_channel_to_srgb(min(1.0, max(0.0, c))) for c in rgb))


# Machado et al. 2009, severity 1.0 (full dichromacy), for linear RGB.
_CVD_MATRICES: dict[CvdKind, tuple[tuple[float, float, float], ...]] = {
    CvdKind.DEUTAN: (
        (0.367322, 0.860646, -0.227968),
        (0.280085, 0.672501, 0.047413),
        (-0.011820, 0.042940, 0.968881),
    ),
    CvdKind.PROTAN: (
        (0.152286, 1.052583, -0.204868),
        (0.114503, 0.786281, 0.099216),
        (-0.003882, -0.048116, 1.051998),
    ),
    CvdKind.TRITAN: (
        (1.255528, -0.076749, -0.178779),
        (-0.078411, 0.930809, 0.147602),
        (0.004733, 0.691367, 0.303900),
    ),
}

# Rec. 709 / sRGB luminance weights, used for the desaturated panel.
_LUMA = (0.2126, 0.7152, 0.0722)


def _validate_matrices() -> None:
    for kind, m in _CVD_MATRICES.items():
        for row in m:
            if abs(sum(row) - 1.0) > 1e-3:
                raise AssertionError(
                    f"{kind.value} matrix row {row} does not preserve white"
                )


_validate_matrices()


def simulate_cvd(c: Rgb, kind: CvdKind) -> Rgb:
    """Color as seen with the given deficiency (desaturate = equal-luminance
    gray). Matrix kinds linearize, multiply, clamp, and re-gamma."""
    lin = srgb_to_linear(c)
    if kind is CvdKind.DESATURATE:
        y = sum(w * v for w, v in zip(_LUMA, lin))
        return linear_to_srgb((y, y, y))
    m = _CVD_MATRICES[kind]
    return linear_to_srgb(tuple(sum(w * v for w, v in zip(row, lin)) for row in m))


# The eight-color qualitative palette of Okabe & Ito ("Color Universal
# Design", 2002/2008), in the conventional series order with black last.
_OKABE_ITO_HEX = (
    "#E69F00",  # orange
    "#56B4E9",  # sky blue
    "#009E73",  # bluish green
    "#F0E442",  # yellow
    "#0072B2",  # blue
    "#D55E00",  # vermillion
    "#CC79A7",  # reddish purple
    "#000000",  # black
)


def okabe_ito() -> Palette:
    return Palette(tuple(Rgb.from_hex(h) for h in _OKABE_ITO_HEX), name="okabe-ito")


def is_palette_name(text: str) -> bool:
    """Whether `text` is "okabe-ito", its surrounding spaces and case ignored."""
    return text.strip().lower() == "okabe-ito"


def parse_palette(value: str | list[str]) -> Palette:
    """The palette a name gives (see `is_palette_name`) or a list of #RRGGBB
    strings lists; DataError for any other string, or no, bad or repeated colors."""
    if isinstance(value, str):
        if not is_palette_name(value):
            raise DataError(f"unknown palette {value!r}; expected 'okabe-ito'")
        return okabe_ito()
    return Palette(tuple(Rgb.from_hex(h) for h in value))


# D65 sRGB -> XYZ (IEC 61966-2-1), then CIE L*a*b*.
_XYZ_ROWS = (
    (0.4124564, 0.3575761, 0.1804375),
    (0.2126729, 0.7151522, 0.0721750),
    (0.0193339, 0.1191920, 0.9503041),
)
_D65_WHITE = (0.95047, 1.0, 1.08883)


def rgb_to_lab(c: Rgb) -> Lab:
    lin = srgb_to_linear(c)
    xyz = tuple(sum(w * v for w, v in zip(row, lin)) for row in _XYZ_ROWS)

    def f(t: float) -> float:
        return t ** (1.0 / 3.0) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29

    fx, fy, fz = (f(v / n) for v, n in zip(xyz, _D65_WHITE))
    return Lab(116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz))


def delta_e(a: Rgb, b: Rgb) -> float:
    """CIE76 color difference: Euclidean distance in L*a*b* (D65)."""
    la, lb = rgb_to_lab(a), rgb_to_lab(b)
    return math.sqrt((la.L - lb.L) ** 2 + (la.a - lb.a) ** 2 + (la.b - lb.b) ** 2)


# Distinguishability is judged under the three dichromacy simulations; the
# desaturated view is reported for information only, since qualitative
# palettes deliberately use near-equal luminances and would always fail a
# grayscale distance gate (that is what the shape/linetype rules are for).
_GATED_KINDS = (CvdKind.DEUTAN, CvdKind.PROTAN, CvdKind.TRITAN)
AUDIT_THRESHOLD = 10.0  # the least deltaE a gated kind's closest pair may have


@dataclass(frozen=True)
class KindAudit:
    kind: CvdKind
    min_delta_e: float
    worst_pair: tuple[int, int]
    gated: bool

    def passes(self, threshold: float) -> bool:
        return (not self.gated) or self.min_delta_e >= threshold


@dataclass(frozen=True)
class AuditReport:
    palette: Palette
    threshold: float
    kinds: tuple[KindAudit, ...]

    @property
    def passed(self) -> bool:
        return all(k.passes(self.threshold) for k in self.kinds)

    def to_text(self, color: bool = False) -> str:
        lines = [
            f"palette audit: {len(self.palette)} colors, threshold deltaE >= "
            f"{format(self.threshold, 'g')}"
        ]
        for audit in self.kinds:
            a, b = audit.worst_pair
            status = (
                "pass"
                if audit.min_delta_e >= self.threshold
                else ("info" if not audit.gated else "FAIL")
            )
            if color:
                code = "32" if status == "pass" else ("33" if status == "info" else "31")
                status = f"\x1b[{code}m{status}\x1b[0m"
            lines.append(
                f"  {audit.kind.value:<11} min deltaE {audit.min_delta_e:7.2f}  "
                f"worst pair {self.palette[a].to_hex()} / {self.palette[b].to_hex()}"
                f"  [{status}]"
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "threshold": self.threshold,
                "pass": self.passed,
                "colors": [c.to_hex() for c in self.palette.colors],
                "kinds": {
                    k.kind.value: {
                        "min_delta_e": k.min_delta_e,
                        "worst_pair": list(k.worst_pair),
                        "gated": k.gated,
                    }
                    for k in self.kinds
                },
            },
            indent=2,
        )


def audit_palette(palette: Palette, threshold: float = AUDIT_THRESHOLD) -> AuditReport:
    """Minimum pairwise deltaE between simulated colors, per deficiency kind.

    The report passes iff the minimum for every dichromacy kind is at or
    above the threshold.
    """
    if len(palette) < 2:
        raise DataError("palette audit needs at least 2 colors")
    if not math.isfinite(threshold):
        raise DataError(f"threshold must be a finite deltaE, got {threshold!r}")
    kinds = []
    for kind in CvdKind:
        simulated = [simulate_cvd(c, kind) for c in palette.colors]
        worst = (0, 1)
        worst_de = math.inf
        for i in range(len(simulated)):
            for j in range(i + 1, len(simulated)):
                de = delta_e(simulated[i], simulated[j])
                if de < worst_de:
                    worst_de = de
                    worst = (i, j)
        kinds.append(KindAudit(kind, worst_de, worst, kind in _GATED_KINDS))
    return AuditReport(palette, threshold, tuple(kinds))
