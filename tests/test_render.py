from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from conftest import FIXTURES, laid_out, load_fixture_spec, patch_everywhere
from golden import CASES
from polyrep import svgout
from polyrep.chartspec import bind, inline_dataset, load_dataset, parse_spec, summarize
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
from polyrep.tactile import tactualize
from polyrep.verbalize import auto_alt, join_labels

SVG_NS = "{http://www.w3.org/2000/svg}"
ALLOWED_TAGS = {"svg", "rect", "path", "line", "text", "g", "title", "desc"}


def scene_and_alt(name, penguins):
    spec = load_fixture_spec(name)
    scene = laid_out(spec, penguins)
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
    scene = laid_out(spec, data)
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
        laid_out(spec, data)


def test_empty_after_missing_errors():
    data = inline_dataset({"x": [None, None], "y": [1, 2]})
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y"}}')
    with pytest.raises(DataError, match="no complete rows"):
        laid_out(spec, data)


@pytest.mark.parametrize("name", ["lin.json", "penguins_scatter.json"])
def test_trend_sign_is_the_sign_of_the_fit(name, fixtures_dir):
    spec = load_fixture_spec(name)
    data = load_dataset(spec, base_dir=fixtures_dir)
    slope = bind(spec, data).fit().slope
    assert slope != 0
    scene = laid_out(spec, data)
    sign = "positive" if slope > 0 else "negative"
    x, y = scene.summary.x_axis, scene.summary.y_axis
    assert (f"Overall there is a {sign} relationship between "
            f"'{x.title}' and '{y.title}'."
            in auto_alt(scene.summary).sentences)


def test_grouped_box_plot_alpha_order():
    data = inline_dataset({"fruit": ["pear", "apple", "fig", "apple", "pear", "fig"],
                           "kg": [5, 1, 3, 2, 6, 4]})
    spec = parse_spec(b'{"chart":{"type":"boxplot","x":"fruit","y":"kg",'
                      b'"sort_order":"alpha"}}')
    scene = laid_out(spec, data)
    x_labels = scene.summary.x_axis.labels
    assert x_labels == ("apple", "fig", "pear")
    band_labels = sorted((m.x, m.text) for m in scene.decorations
                         if isinstance(m, TextMark) and m.text in x_labels)
    assert band_labels == list(zip(scene.panels[0][1], ("apple", "fig", "pear")))
    boxes = [s for s in auto_alt(scene.summary).sentences if s.startswith("Box ")]
    assert [s.split(", quartiles")[0] for s in boxes] == [
        "Box 1 summarizes apple with median 1.5",
        "Box 2 summarizes fig with median 3.5",
        "Box 3 summarizes pear with median 5.5",
    ]


def test_facet_panels(penguins):
    spec = parse_spec(
        b'{"data":{"csv":"penguins.csv"},"encodings":{"facet":true},'
        b'"chart":{"type":"scatter","x":"flipper_length_mm",'
        b'"y":"bill_length_mm","group":"species"}}'
    )
    scene = laid_out(spec, penguins)
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
    scene = laid_out(parse_spec(FACET_SCATTER), penguins)
    decos = [m for m in scene.decorations if isinstance(m, (TextMark, SegmentMark))]
    assert len(decos) == len(set(decos))
    tick_labels = [
        m.text for m in decos
        if isinstance(m, TextMark) and m.y == scene.plot.y1 + 18
    ]
    # three panels, each with one label per x tick
    assert sorted(tick_labels) == sorted(scene.summary.x_axis.labels * 3)


def test_facet_x_baseline_drawn_once_per_panel(penguins):
    scene = laid_out(parse_spec(FACET_SCATTER), penguins)
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
    assert len(ticks) == 3 * len(scene.panels[0][1])
    for x0, x1 in baselines:
        assert sum(x0 <= t <= x1 for t in ticks) == len(scene.panels[0][1])


def test_group_levels_come_from_drawn_rows():
    data = inline_dataset(
        {"x": [1, 2, 3, 4], "y": [1, 2, 3, None], "g": ["a", "b", "a", "c"]}
    )
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y","group":"g"}}')
    scene = laid_out(spec, data)
    assert len(scene.marks) == 3
    assert [e.label for e in scene.legend] == ["a", "b"]
    assert "Points are grouped by 'g' as a and b." in auto_alt(scene.summary).sentences


def test_line_level_with_one_row_is_drawn_as_a_point():
    data = inline_dataset({"x": [1, 2, 3, 4], "y": [1, 2, 3, 4], "g": ["a", "a", "a", "b"]})
    spec = parse_spec(b'{"chart":{"type":"line","x":"x","y":"y","group":"g"}}')
    scene = laid_out(spec, data)
    a, b = scene.legend
    # level b has one row: no segment to stroke, so it is drawn as a circle
    mark = scene.marks[1]
    assert isinstance(mark, PointMark)
    assert (mark.shape, mark.color) == (ShapeKind.CIRCLE, b.color)
    # and its legend key is that circle, while level a keeps its line swatch
    assert (a.shape, b.shape) == (None, ShapeKind.CIRCLE)
    keys = [m for m in scene.decorations if isinstance(m, (PointMark, SegmentMark))
            and m.color in (a.color, b.color)]
    assert [(type(m), m.color) for m in keys] == [
        (SegmentMark, a.color), (PointMark, b.color)
    ]
    assert keys[1].shape == ShapeKind.CIRCLE
    root = ET.fromstring(emit_svg(scene, auto_alt(scene.summary)))
    drawn = [e for e in root.iter() if e.get("id") == "m1"]
    assert [e.get("fill") for e in drawn] == [b.color.to_hex()]
    assert [g.shape for g in tactualize(scene).glyphs] == [ShapeKind.CIRCLE]


AGREEMENT_CASES = [
    "lin.json", "penguins_bar.json", "penguins_box.json",
    "penguins_hist.json", "penguins_scatter.json", "facet",
]


@pytest.mark.parametrize("name", AGREEMENT_CASES)
def test_alt_axes_are_the_drawn_axes(name, fixtures_dir):
    spec = parse_spec(FACET_SCATTER) if name == "facet" else load_fixture_spec(name)
    scene = laid_out(spec, load_dataset(spec, base_dir=fixtures_dir))
    sentences = auto_alt(scene.summary).sentences
    x, y = scene.summary.x_axis, scene.summary.y_axis
    if x.labels:
        assert f"It has x-axis '{x.title}' with labels {join_labels(x.labels)}." in sentences
    else:
        assert not any(s.startswith("It has x-axis") for s in sentences)
    assert f"It has y-axis '{y.title}' with labels {join_labels(y.labels)}." in sentences
    drawn = {m.text for m in scene.decorations if isinstance(m, TextMark)}
    assert set(x.labels) | set(y.labels) <= drawn
    assert {t for t in (x.title, y.title) if t} <= drawn


def _summary_cases() -> dict[str, bytes]:
    """Spec bytes of the fixtures, the facet chart and every flat-range and
    CVD-grid pinned chart (their CSV paths resolve against the fixtures)."""
    cases = {name: (FIXTURES / name).read_bytes()
             for name in AGREEMENT_CASES if name != "facet"}
    cases["facet"] = FACET_SCATTER
    cases.update({name: json.dumps(spec).encode() for name, spec in CASES.items()
                  if name.startswith("flat_")})
    cases.update({f"grid_{name}": json.dumps(CASES[name]).encode()
                  for name in ("six_shapes", "six_shapes_facet", "grouped_line", "escaped_bar")})
    return cases


SUMMARY_CASES = _summary_cases()


@pytest.mark.parametrize("name", sorted(SUMMARY_CASES))
def test_summary_is_the_laid_out_summary(name, fixtures_dir):
    spec = parse_spec(SUMMARY_CASES[name])
    data = load_dataset(spec, base_dir=fixtures_dir)
    scene = laid_out(spec, data)
    summary = summarize(spec, bind(spec, data))
    assert summary == scene.summary
    # the scene draws one tick per label the summary gives each axis
    for drawn, said in ((scene.panels[0][1], summary.x_axis), (scene.y_ticks, summary.y_axis)):
        assert len(drawn) == len(said.labels)


# one chart of each type over the penguins
PENGUIN_CHARTS = {
    "bar": {"x": "species"},
    "histogram": {"x": "flipper_length_mm"},
    "boxplot": {"x": "species", "y": "body_mass_g"},
    "scatter": {"x": "flipper_length_mm", "y": "bill_length_mm", "group": "species"},
    "line": {"x": "flipper_length_mm", "y": "bill_length_mm", "group": "species"},
}


@pytest.mark.parametrize("chart_type", sorted(PENGUIN_CHARTS))
def test_layout_draws_its_summary_without_recomputing_it(chart_type, penguins, monkeypatch):
    chart = {"type": chart_type, **PENGUIN_CHARTS[chart_type]}
    spec = parse_spec(json.dumps({"chart": chart}).encode())
    summary = summarize(spec, bind(spec, penguins))

    def recomputed(*args, **kwargs):
        raise AssertionError("layout bound or summarized its chart again")

    for fn in (bind, summarize):
        patch_everywhere(monkeypatch, fn, recomputed)
    scene = layout(summary)
    assert scene.summary is summary
    assert scene.marks


def _complete(penguins, *cols):
    columns = [penguins.columns[c].values for c in cols]
    return [row for row in zip(*columns) if None not in row]


def _span(values):
    return min(values), max(values)


# Each case lays a chart out and gives, per axis it draws: (drawn tick
# positions, drawn labels, data lo, data hi, device r0, device r1, counts
# from zero). The facet case reads each panel's ticks from its tick marks.
def _scatter_axes(penguins):
    scene, _ = scene_and_alt("penguins_scatter.json", penguins)
    rows = _complete(penguins, "flipper_length_mm", "bill_length_mm")
    x, y, plot = scene.summary.x_axis, scene.summary.y_axis, scene.plot
    return [(scene.panels[0][1], x.labels, *_span([r[0] for r in rows]), plot.x, plot.x1, False),
            (scene.y_ticks, y.labels, *_span([r[1] for r in rows]), plot.y1, plot.y, False)]


def _bar_axes(penguins):
    scene, _ = scene_and_alt("penguins_bar.json", penguins)
    species = [s for (s,) in _complete(penguins, "species")]
    top = float(max(species.count(s) for s in set(species)))
    y, plot = scene.summary.y_axis, scene.plot
    return [(scene.y_ticks, y.labels, 0.0, top, plot.y1, plot.y, True)]


def _hist_axes(penguins):
    scene, _ = scene_and_alt("penguins_hist.json", penguins)
    bins = scene.summary.values.bins
    top = float(max(c for _, _, c in bins))
    x, y, plot = scene.summary.x_axis, scene.summary.y_axis, scene.plot
    return [(scene.panels[0][1], x.labels, bins[0][0], bins[-1][1], plot.x, plot.x1, False),
            (scene.y_ticks, y.labels, 0.0, top, plot.y1, plot.y, True)]


def _box_axes(penguins):
    scene, _ = scene_and_alt("penguins_box.json", penguins)
    rows = _complete(penguins, "species", "body_mass_g")
    y, plot = scene.summary.y_axis, scene.plot
    return [(scene.y_ticks, y.labels, *_span([r[1] for r in rows]), plot.y1, plot.y, False)]


def _ungrouped_box_axes(penguins):
    values = [1, 2, 3, 4, 50]
    spec = parse_spec(b'{"chart":{"type":"boxplot","x":"v"}}')
    scene = laid_out(spec, inline_dataset({"v": values}))
    y, plot = scene.summary.y_axis, scene.plot
    return [(scene.y_ticks, y.labels, *_span(values), plot.y1, plot.y, False)]


def _line_axes(penguins):
    # lin.json's data drawn as a line chart
    spec = parse_spec(b'{"chart":{"type":"line","x":"x","y":"y"}}')
    scene = laid_out(spec, load_dataset(load_fixture_spec("lin.json")))
    x, y, plot = scene.summary.x_axis, scene.summary.y_axis, scene.plot
    return [(scene.panels[0][1], x.labels, 1.0, 5.0, plot.x, plot.x1, False),
            (scene.y_ticks, y.labels, 1.0, 5.0, plot.y1, plot.y, False)]


def _facet_axes(penguins):
    scene = laid_out(parse_spec(FACET_SCATTER), penguins)
    plot = scene.plot
    x_lo, x_hi = _span([r[0] for r in _complete(
        penguins, "flipper_length_mm", "bill_length_mm", "species")])
    segments = [m for m in scene.decorations if isinstance(m, SegmentMark)]
    baselines = sorted((m.x1, m.x2) for m in segments if m.y1 == m.y2 == plot.y1)
    ticks = [m.x1 for m in segments if m.y1 == plot.y1 and m.y2 == plot.y1 + 5]
    labels = [m for m in scene.decorations
              if isinstance(m, TextMark) and m.y == plot.y1 + 18]
    assert len(baselines) == 3
    return [
        (tuple(sorted(t for t in ticks if x0 <= t <= x1)),
         tuple(m.text for m in sorted(labels, key=lambda m: m.x) if x0 <= m.x <= x1),
         x_lo, x_hi, x0, x1, False)
        for x0, x1 in baselines
    ]


AXIS_CASES = {
    "scatter": _scatter_axes,
    "bar": _bar_axes,
    "histogram": _hist_axes,
    "boxplot": _box_axes,
    "boxplot_ungrouped": _ungrouped_box_axes,
    "line": _line_axes,
    "facet": _facet_axes,
}


@pytest.mark.parametrize("name", AXIS_CASES)
def test_axis_ticks_are_scaled_nice_ticks(penguins, name):
    from polyrep.stats import nice_ticks

    for ticks, labels, lo, hi, r0, r1, from_zero in AXIS_CASES[name](penguins):
        data = nice_ticks(lo, hi)
        assert labels == data.labels
        # positions are the data ticks pushed through the padded linear
        # scale: 5% each way, or from 0 to 1.05 x max for a count
        pad = 0.05 * (hi - lo)
        d0, d1 = (0.0, 1.05 * hi) if from_zero else (lo - pad, hi + pad)
        assert len(ticks) == len(data.positions)
        for got, pos in zip(ticks, data.positions):
            assert abs(got - (r0 + (pos - d0) / (d1 - d0) * (r1 - r0))) < 1e-9


def test_degenerate_constant_data_charts():
    # constant values must still lay out (half-unit expanded ranges)
    box = parse_spec(b'{"chart":{"type":"boxplot","x":"v"}}')
    scene = laid_out(box, inline_dataset({"v": [5.0, 5.0, 5.0]}))
    assert scene.y_ticks
    scatter = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y"}}')
    scene = laid_out(scatter, inline_dataset({"x": [2, 2], "y": [3, 3]}))
    assert scene.marks


def test_single_level_group_uses_palette_consistently():
    data = inline_dataset({"x": [1, 2, 3], "y": [1, 2, 3], "g": ["only"] * 3})
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y","group":"g"}}')
    scene = laid_out(spec, data)
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
    scene = laid_out(spec, data)
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


def test_svg_draws_subtitle_and_caption():
    spec = parse_spec(b'{"title":"T","subtitle":"Sub","caption":"Cap",'
                      b'"chart":{"type":"bar","x":"s"}}')
    scene = laid_out(spec, inline_dataset({"s": ["a", "b", "a"]}))
    alt = auto_alt(scene.summary)
    assert alt.sentences[0] == (
        "This is a chart titled 'T' with subtitle 'Sub' and caption 'Cap'."
    )
    root = ET.fromstring(emit_svg(scene, alt))
    texts = {e.text: e for e in root.iter(f"{SVG_NS}text")}
    assert {"T", "Sub", "Cap"} <= set(texts)
    assert float(texts["T"].get("y")) < float(texts["Sub"].get("y"))
    assert texts["Cap"].get("text-anchor") == "end"
    assert float(texts["Cap"].get("y")) > max(
        float(e.get("y")) for e in root.iter(f"{SVG_NS}text") if e.text != "Cap"
    )


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


@pytest.mark.parametrize("char", ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
                                  "\ud800", "\udfff", "\ufffe", "\uffff"])
def test_xml_escape_refuses_what_xml_cannot_hold(char):
    with pytest.raises(DataError) as err:
        svgout.xml_escape(f"a{char}b")
    assert f"holds {char!r}, which an SVG cannot hold" in str(err.value)


def test_xml_escape_keeps_what_xml_holds():
    text = "\t\n\r \x7f\ud7ff\ue000\ufffd\U00010000 <&>\""
    assert ET.fromstring(f"<t>{svgout.xml_escape(text)}</t>").text == text.replace("\r", "\n")


def test_svg_escapes_markup():
    data = inline_dataset({"x": ["a<b&c", "a<b&c"]})
    spec = parse_spec(
        b'{"title":"x < y & z","chart":{"type":"bar","x":"x"}}'
    )
    scene = laid_out(spec, data)
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


def test_grid_simulates_each_scene_color_once_per_kind(penguins, monkeypatch):
    scene, alt = scene_and_alt("penguins_scatter.json", penguins)
    colors = {
        c
        for m in (*scene.decorations, *scene.marks)
        for c in (getattr(m, a, None) for a in ("color", "fill", "stroke"))
        if c is not None
    }
    calls = []

    def counting(c, kind):
        calls.append((c, kind))
        return simulate_cvd(c, kind)

    monkeypatch.setattr(svgout, "simulate_cvd", counting)
    emit_svg(scene, alt)
    assert calls == []
    cvd_grid(scene, alt)
    assert len(calls) == len(set(calls)) == len(colors) * len(CvdKind)
    assert set(calls) == {(c, kind) for c in colors for kind in CvdKind}


def test_grid_deterministic(penguins):
    scene, alt = scene_and_alt("penguins_box.json", penguins)
    assert cvd_grid(scene, alt) == cvd_grid(scene, alt)
