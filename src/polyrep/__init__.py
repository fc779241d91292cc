"""polyrep: one chart spec, four coordinated accessible representations.

The same dataset and declarative chart description drive a colorblind-safe
SVG (plus a four-panel deficiency-simulation grid), grammar-generated alt
text, stereo sonification audio, and an emboss-ready tactile PDF with
braille labels.

Typical library use::

    from polyrep import parse_csv, parse_spec, layout, auto_alt, emit_svg

    spec = parse_spec(spec_bytes)
    data = parse_csv(csv_bytes)
    scene = layout(spec, data)
    svg = emit_svg(scene, auto_alt(scene.summary))
"""

from .braille import BrailleCell, to_braille
from .chartspec import ChartSpec, load_dataset, parse_spec
from .color import (
    CvdKind,
    Palette,
    Rgb,
    audit_palette,
    delta_e,
    okabe_ito,
    simulate_cvd,
)
from .dataset import Column, Dataset, parse_csv
from .errors import PolyrepError
from .scene import Scene, layout
from .sonify import (
    AudioBuffer,
    SonifyConfig,
    sonify_points,
    sonify_sweep,
    write_wav,
)
from .stats import (
    BoxStats,
    LinearFit,
    TickSet,
    bar_counts,
    box_stats,
    histogram,
    linear_fit,
    nice_ticks,
)
from .svgout import cvd_grid, emit_svg
from .tactile import TactileLayout, TactilePage, emit_pdf, emit_preview_svg, tactualize
from .verbalize import AltText, auto_alt, checklist_score, manual_alt

__version__ = "0.1.0"

__all__ = [
    "AltText",
    "AudioBuffer",
    "BoxStats",
    "BrailleCell",
    "ChartSpec",
    "Column",
    "CvdKind",
    "Dataset",
    "LinearFit",
    "Palette",
    "PolyrepError",
    "Rgb",
    "Scene",
    "SonifyConfig",
    "TactileLayout",
    "TactilePage",
    "TickSet",
    "audit_palette",
    "auto_alt",
    "bar_counts",
    "box_stats",
    "checklist_score",
    "cvd_grid",
    "delta_e",
    "emit_pdf",
    "emit_preview_svg",
    "emit_svg",
    "histogram",
    "layout",
    "linear_fit",
    "load_dataset",
    "manual_alt",
    "nice_ticks",
    "okabe_ito",
    "parse_csv",
    "parse_spec",
    "simulate_cvd",
    "sonify_points",
    "sonify_sweep",
    "tactualize",
    "to_braille",
    "write_wav",
]
