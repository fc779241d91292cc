"""polyrep: one chart spec, four coordinated accessible representations.

The same dataset and declarative chart description drive a colorblind-safe
SVG (plus a four-panel deficiency-simulation grid), grammar-generated alt
text, stereo sonification audio, and an emboss-ready tactile PDF with
braille labels.

Typical library use::

    from polyrep import (auto_alt, bind, emit_svg, layout, load_dataset,
                         parse_spec, summarize)

    spec = parse_spec(spec_bytes)
    data = load_dataset(spec, base_dir=spec_dir)
    values = bind(spec, data)  # the chart's data: bars, bins, boxes or points
    summary = summarize(spec, values)  # its axes and legend, in data space
    alt = auto_alt(summary)  # alt text needs no layout
    scene = layout(summary)  # the marks an SVG, grid or tactile page draws
    svg = emit_svg(scene, alt)  # titled by the spec's "alt", if it has one

Each exported name is imported from its module on first use, so
``import polyrep`` loads none of the package's modules.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "braille": ("BrailleCell", "to_braille"),
    "chartspec": ("ChartSpec", "bind", "load_dataset", "parse_spec", "summarize"),
    "color": ("CvdKind", "Palette", "Rgb", "audit_palette", "delta_e", "okabe_ito",
              "simulate_cvd"),
    "dataset": ("Column", "Dataset", "parse_csv"),
    "errors": ("PolyrepError",),
    "scene": ("Scene", "layout"),
    "sonify": ("AudioBuffer", "SonifyConfig", "sonify_points", "sonify_sweep",
               "write_wav"),
    "stats": ("BoxStats", "LinearFit", "bar_counts", "box_stats", "histogram",
              "linear_fit", "nice_ticks"),
    "svgout": ("cvd_grid", "emit_svg"),
    "tactile": ("TactileLayout", "TactilePage", "emit_pdf", "emit_preview_svg",
                "tactualize"),
    "verbalize": ("AltText", "auto_alt", "checklist_score", "manual_alt"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
