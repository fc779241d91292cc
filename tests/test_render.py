from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from conftest import load_fixture_spec
from polyrep.chartspec import inline_dataset, load_dataset, parse_spec
from polyrep.color import CvdKind, Rgb, simulate_cvd
from polyrep.errors import DataError, SpecError
from polyrep.scene import (
    PointMark,
    RectMark,
    SegmentMark,
    ShapeKind,
    TextMark,
    layout,
)
from polyrep.svgout import cvd_grid, emit_svg
from polyrep.verbalize import auto_alt, join_labels

SVG_NS = "{http://www.w3.org/2000/svg}"
ALLOWED_TAGS = {"svg", "rect", "path", "line", "text", "g", "title", "desc"}


def scene_and_alt(name, penguins):
    spec = load_fixture_spec(name)
    scene = layout(spec, penguins)
    return scene, auto_alt(scene.summary)


GEOMETRY_ATTRS = (
    "x", "y", "width", "height", "x1", "y1", "x2", "y2", "d", "transform",
)


def geometry(elem) -> tuple:
    return tuple(elem.get(a) for a in GEOMETRY_ATTRS)


def marks_by_id(root, prefix):
    out = {}
    for elem in root.iter():
        ident = elem.get("id", "")
        if ident.startswith(prefix) and ident[len(prefix):].isdigit():
            out[int(ident[len(prefix):])] = elem
    return out


# -- layout ------------------------------------------------------------------


def test_scatter_layout_legend_shapes_colors(penguins):
    scene, _ = scene_and_alt("penguins_scatter.json", penguins)
    assert [e.label for e in scene.legend] == ["Adelie", "Chinstrap", "Gentoo"]
    assert [e.shape for e in scene.legend] == [
        ShapeKind.CIRCLE, ShapeKind.TRIANGLE, ShapeKind.SQUARE,
    ]
    assert [e.color.to_hex() for e in scene.legend] == [
        "#E69F00", "#56B4E9", "#009E73",
    ]
    points = [m for m in scene.marks if isinstance(m, PointMark)]
    assert len(points) == 342
    assert len({m.shape for m in points}) == 3


def test_bar_layout_rects(penguins):
    scene, _ = scene_and_alt("penguins_bar.json", penguins)
    rects = [m for m in scene.marks if isinstance(m, RectMark)]
    assert len(rects) == 3
    heights = [r.h for r in rects]
    assert heights[0] > heights[2] > heights[1]


def test_marks_stay_inside_plot(penguins):
    for name in ("penguins_scatter.json", "penguins_bar.json",
                 "penguins_box.json", "penguins_hist.json"):
        scene, _ = scene_and_alt(name, penguins)
        plot = scene.plot
        eps = 1e-6
        for mark in scene.marks:
            if isinstance(mark, PointMark):
                coords = [(mark.x, mark.y)]
            elif isinstance(mark, RectMark):
                coords = [(mark.x, mark.y), (mark.x + mark.w, mark.y + mark.h)]
            elif hasattr(mark, "points"):
                coords = list(mark.points)
            else:
                coords = [(mark.x1, mark.y1), (mark.x2, mark.y2)]
            for x, y in coords:
                assert plot.x - eps <= x <= plot.x1 + eps, name
                assert plot.y - eps <= y <= plot.y1 + eps, name


def test_six_groups_get_six_distinct_shapes():
    data = inline_dataset(
        {
            "x": list(range(6)),
            "y": list(range(6)),
            "g": [f"level{i}" for i in range(6)],
        }
    )
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y","group":"g"}}')
    scene = layout(spec, data)
    shapes = [m.shape for m in scene.marks if isinstance(m, PointMark)]
    assert len(set(shapes)) == 6


def test_too_many_groups_names_palette_size():
    data = inline_dataset(
        {
            "x": list(range(8)),
            "y": list(range(8)),
            "g": [f"level{i}" for i in range(8)],
        }
    )
    spec = parse_spec(
        b'{"chart":{"type":"scatter","x":"x","y":"y","group":"g"},'
        b'"palette":["#E69F00","#56B4E9"]}'
    )
    with pytest.raises(SpecError, match="2"):
        layout(spec, data)


def test_empty_after_missing_errors():
    data = inline_dataset({"x": [None, None], "y": [1, 2]})
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y"}}')
    with pytest.raises(DataError, match="no complete rows"):
        layout(spec, data)


def test_facet_panels(penguins):
    spec = parse_spec(
        b'{"data":{"csv":"penguins.csv"},"encodings":{"facet":true},'
        b'"chart":{"type":"scatter","x":"flipper_length_mm",'
        b'"y":"bill_length_mm","group":"species"}}'
    )
    scene = layout(spec, penguins)
    assert scene.legend == ()  # panel titles name the levels instead
    labels = [m.text for m in scene.decorations if hasattr(m, "text")]
    for level in ("Adelie", "Chinstrap", "Gentoo"):
        assert level in labels


FACET_SCATTER = (
    b'{"title":"Faceted","data":{"csv":"penguins.csv"},"encodings":{"facet":true},'
    b'"chart":{"type":"scatter","x":"flipper_length_mm",'
    b'"y":"bill_length_mm","group":"species"}}'
)


def test_facet_decorations_drawn_once(penguins):
    scene = layout(parse_spec(FACET_SCATTER), penguins)
    decos = [m for m in scene.decorations if isinstance(m, (TextMark, SegmentMark))]
    assert len(decos) == len(set(decos))
    tick_labels = [
        m.text for m in decos
        if isinstance(m, TextMark) and m.y == scene.plot.y1 + 18
    ]
    # three panels, each with one label per x tick
    assert sorted(tick_labels) == sorted(scene.x_axis.labels * 3)


def test_facet_x_baseline_drawn_once_per_panel(penguins):
    scene = layout(parse_spec(FACET_SCATTER), penguins)
    plot = scene.plot
    baselines = sorted(
        (m.x1, m.x2) for m in scene.decorations
        if isinstance(m, SegmentMark) and m.y1 == m.y2 == plot.y1
    )
    # one per panel, left to right across the plot, the gaps left bare
    assert len(baselines) == len(scene.summary.group_levels) == 3
    assert baselines[0][0] == plot.x and baselines[-1][1] == plot.x1
    assert all(a[1] < b[0] for a, b in zip(baselines, baselines[1:]))
    ticks = [m.x1 for m in scene.decorations
             if isinstance(m, SegmentMark) and m.y1 == plot.y1 and m.y2 == plot.y1 + 5]
    assert len(ticks) == 3 * len(scene.x_axis.ticks)
    for x0, x1 in baselines:
        assert sum(x0 <= t <= x1 for t in ticks) == len(scene.x_axis.ticks)


def test_group_levels_come_from_drawn_rows():
    data = inline_dataset(
        {"x": [1, 2, 3, 4], "y": [1, 2, 3, None], "g": ["a", "b", "a", "c"]}
    )
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y","group":"g"}}')
    scene = layout(spec, data)
    assert len(scene.marks) == 3
    assert [e.label for e in scene.legend] == ["a", "b"]
    assert "Points are grouped by 'g' as a and b." in auto_alt(scene.summary).sentences


AGREEMENT_CASES = [
    "lin.json", "penguins_bar.json", "penguins_box.json",
    "penguins_hist.json", "penguins_scatter.json", "facet",
]


@pytest.mark.parametrize("name", AGREEMENT_CASES)
def test_alt_axes_are_the_drawn_axes(name, fixtures_dir):
    spec = parse_spec(FACET_SCATTER) if name == "facet" else load_fixture_spec(name)
    scene = layout(spec, load_dataset(spec, base_dir=fixtures_dir))
    sentences = auto_alt(scene.summary).sentences
    x, y = scene.x_axis, scene.y_axis
    if x.labels:
        assert f"It has x-axis '{x.title}' with labels {join_labels(x.labels)}." in sentences
    else:
        assert not any(s.startswith("It has x-axis") for s in sentences)
    assert f"It has y-axis '{y.title}' with labels {join_labels(y.labels)}." in sentences
    drawn = {m.text for m in scene.decorations if isinstance(m, TextMark)}
    assert set(x.labels) | set(y.labels) <= drawn
    assert {t for t in (x.title, y.title) if t} <= drawn


def test_axis_ticks_are_scaled_nice_ticks(penguins):
    from polyrep.stats import nice_ticks

    scene, _ = scene_and_alt("penguins_scatter.json", penguins)
    xs = penguins.columns["flipper_length_mm"].values
    ys = penguins.columns["bill_length_mm"].values
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
    x_lo, x_hi = min(p[0] for p in pairs), max(p[0] for p in pairs)
    y_lo, y_hi = min(p[1] for p in pairs), max(p[1] for p in pairs)
    assert scene.x_axis.labels == nice_ticks(x_lo, x_hi).labels
    assert scene.y_axis.labels == nice_ticks(y_lo, y_hi).labels
    # positions are the data ticks pushed through the 5%-padded linear scale
    pad = 0.05 * (x_hi - x_lo)
    plot = scene.plot
    for px, pos in zip(scene.x_axis.ticks, nice_ticks(x_lo, x_hi).positions):
        expected = plot.x + (pos - (x_lo - pad)) / (x_hi + pad - (x_lo - pad)) * plot.w
        assert abs(px - expected) < 1e-9


def test_degenerate_constant_data_charts():
    # constant values must still lay out (half-unit expanded ranges)
    box = parse_spec(b'{"chart":{"type":"boxplot","x":"v"}}')
    scene = layout(box, inline_dataset({"v": [5.0, 5.0, 5.0]}))
    assert scene.y_axis.ticks
    scatter = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y"}}')
    scene = layout(scatter, inline_dataset({"x": [2, 2], "y": [3, 3]}))
    assert scene.marks


def test_single_level_group_uses_palette_consistently():
    data = inline_dataset({"x": [1, 2, 3], "y": [1, 2, 3], "g": ["only"] * 3})
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y","group":"g"}}')
    scene = layout(spec, data)
    assert len(scene.legend) == 1
    points = [m for m in scene.marks if isinstance(m, PointMark)]
    assert {m.color for m in points} == {scene.legend[0].color}


def test_line_chart_dashes():
    data = inline_dataset(
        {
            "x": [1, 2, 3, 1, 2, 3],
            "y": [1, 2, 3, 2, 3, 4],
            "g": ["a", "a", "a", "b", "b", "b"],
        }
    )
    spec = parse_spec(b'{"chart":{"type":"line","x":"x","y":"y","group":"g"}}')
    scene = layout(spec, data)
    lines = [m for m in scene.marks if hasattr(m, "points")]
    assert len(lines) == 2
    assert lines[0].dash is None and lines[1].dash is not None
    # level b's series path and its legend line carry the same dash attribute
    svg = emit_svg(scene, auto_alt(scene.summary)).decode()
    dashed = [line for line in svg.splitlines() if "stroke-dasharray" in line]
    assert [line.split()[0] for line in dashed] == ["<line", "<path"]
    assert all(' stroke-dasharray="6,4"/>' in line for line in dashed)


# -- emit_svg ----------------------------------------------------------------


def test_svg_well_formed_and_subset(penguins):
    for name in ("penguins_scatter.json", "penguins_bar.json",
                 "penguins_box.json", "penguins_hist.json"):
        scene, alt = scene_and_alt(name, penguins)
        root = ET.fromstring(emit_svg(scene, alt))
        tags = {e.tag.removeprefix(SVG_NS) for e in root.iter()}
        assert tags <= ALLOWED_TAGS, name


def test_svg_accessibility_wiring(penguins):
    scene, alt = scene_and_alt("penguins_bar.json", penguins)
    root = ET.fromstring(emit_svg(scene, alt))
    assert root.get("role") == "img"
    assert root.get("aria-labelledby") == "title desc"
    title = root.find(f"{SVG_NS}title")
    desc = root.find(f"{SVG_NS}desc")
    assert title.get("id") == "title"
    assert desc.get("id") == "desc"
    assert desc.text == alt.flattened
    assert title.text == alt.sentences[0]


def test_svg_manual_alt_becomes_title(penguins):
    scene, alt = scene_and_alt("penguins_bar.json", penguins)
    root = ET.fromstring(emit_svg(scene, alt, short_alt="Species counts."))
    assert root.find(f"{SVG_NS}title").text == "Species counts."
    assert root.find(f"{SVG_NS}desc").text == alt.flattened


def test_svg_bar_heights_proportional(penguins):
    scene, alt = scene_and_alt("penguins_bar.json", penguins)
    root = ET.fromstring(emit_svg(scene, alt))
    marks = marks_by_id(root, "m")
    heights = [float(marks[i].get("height")) for i in range(3)]
    for h, count in zip(heights, (152, 68, 124)):
        assert abs(h - heights[0] * count / 152) <= 0.5


def test_svg_deterministic(penguins):
    scene, alt = scene_and_alt("penguins_scatter.json", penguins)
    assert emit_svg(scene, alt) == emit_svg(scene, alt)
    scene2, alt2 = scene_and_alt("penguins_scatter.json", penguins)
    assert emit_svg(scene, alt) == emit_svg(scene2, alt2)


def test_svg_escapes_markup():
    data = inline_dataset({"x": ["a<b&c", "a<b&c"]})
    spec = parse_spec(
        b'{"title":"x < y & z","chart":{"type":"bar","x":"x"}}'
    )
    scene = layout(spec, data)
    raw = emit_svg(scene, auto_alt(scene.summary))
    root = ET.fromstring(raw)  # would blow up on raw < or &
    texts = [e.text for e in root.iter(f"{SVG_NS}text")]
    assert "a<b&c" in texts


# -- cvd grid ----------------------------------------------------------------


def test_grid_four_titled_panels(penguins):
    scene, alt = scene_and_alt("penguins_scatter.json", penguins)
    root = ET.fromstring(cvd_grid(scene, alt))
    panels = [g for g in root.iter(f"{SVG_NS}g") if g.get("id", "").startswith("panel-")]
    assert [p.get("id") for p in panels] == [
        "panel-deutan", "panel-protan", "panel-tritan", "panel-desaturate",
    ]
    titles = {next(iter(p)).text for p in panels}
    assert titles == {"Deutan", "Protan", "Tritan", "Desaturated"}


def test_grid_geometry_identical_modulo_translation(penguins):
    scene, alt = scene_and_alt("penguins_scatter.json", penguins)
    base = marks_by_id(ET.fromstring(emit_svg(scene, alt)), "m")
    root = ET.fromstring(cvd_grid(scene, alt))
    for kind in CvdKind:
        panel_marks = marks_by_id(root, f"{kind.value}-m")
        assert len(panel_marks) == len(base) == 342
        for i, elem in base.items():
            assert geometry(panel_marks[i]) == geometry(elem), (kind, i)


def test_grid_colors_equal_simulation_of_base(penguins):
    scene, alt = scene_and_alt("penguins_scatter.json", penguins)
    base = marks_by_id(ET.fromstring(emit_svg(scene, alt)), "m")
    root = ET.fromstring(cvd_grid(scene, alt))
    for kind in CvdKind:
        panel_marks = marks_by_id(root, f"{kind.value}-m")
        for i, elem in base.items():
            for attr in ("fill", "stroke"):
                b = elem.get(attr)
                if b is None or b == "none":
                    assert panel_marks[i].get(attr) == b
                else:
                    expected = simulate_cvd(Rgb.from_hex(b), kind).to_hex()
                    assert panel_marks[i].get(attr) == expected


def test_grid_gray_chart_has_identical_panels(penguins):
    # bars are drawn in the neutral ink color: a chart with no chromatic
    # content must look the same in all four panels within 1/255
    scene, alt = scene_and_alt("penguins_bar.json", penguins)
    root = ET.fromstring(cvd_grid(scene, alt))
    fills = {}
    for kind in CvdKind:
        marks = marks_by_id(root, f"{kind.value}-m")
        fills[kind] = [m.get("fill") for m in marks.values()]
    base_fill = fills[CvdKind.DEUTAN]
    for kind in CvdKind:
        for a, b in zip(fills[kind], base_fill):
            ca, cb = Rgb.from_hex(a), Rgb.from_hex(b)
            assert max(
                abs(ca.r - cb.r), abs(ca.g - cb.g), abs(ca.b - cb.b)
            ) <= 1 / 255


def test_grid_deterministic(penguins):
    scene, alt = scene_and_alt("penguins_box.json", penguins)
    assert cvd_grid(scene, alt) == cvd_grid(scene, alt)
