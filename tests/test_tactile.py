from __future__ import annotations

import hashlib
import math
import random
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture_spec
from oracles import (
    extract_braille_runs,
    pdf_filled_circles,
    pdf_stroked_polylines,
    validate_pdf,
)
from polyrep.braille import BrailleCell
from polyrep.chartspec import inline_dataset, parse_spec
from polyrep.errors import TactileError
from polyrep.pdfwrite import MM_TO_PT
from polyrep.scene import layout
from polyrep.tactile import (
    CELL_PITCH,
    DOT_DIAMETER,
    DOT_PITCH,
    LABEL_CLEARANCE,
    MARGIN,
    BrailleRun,
    Dot,
    Stroke,
    TactileLayout,
    _bbox_overlap,
    _PageBuilder,
    _stroke_pieces,
    dot_touches_stroke,
    emit_pdf,
    emit_preview_svg,
    tactualize,
)
from polyrep.svgout import emit_svg
from polyrep.verbalize import AltText, auto_alt


@pytest.fixture(scope="module")
def box_page(penguins):
    spec = load_fixture_spec("penguins_box.json")
    scene = layout(spec, penguins)
    return tactualize(scene, alt=auto_alt(scene.summary))


@pytest.fixture(scope="module")
def box_pdf(box_page):
    return emit_pdf(box_page)


def pdf_dots_mm(raw: bytes, layout: TactileLayout):
    """Braille dot centers recovered from the PDF, converted back to mm;
    every filled circle must be a braille dot."""
    info = validate_pdf(raw)
    circles = pdf_filled_circles(info["content"])
    page_h = layout.page_h
    out = []
    for cx, cy, r in circles:
        assert 2 * r / MM_TO_PT == pytest.approx(DOT_DIAMETER, abs=0.01), r
        out.append((cx / MM_TO_PT, page_h - cy / MM_TO_PT))
    return out


# -- layout validation -------------------------------------------------------


def test_layout_defaults_and_validation():
    lay = TactileLayout()
    assert (lay.page_w, lay.page_h) == (215.9, 279.4)
    assert DOT_PITCH == 2.5 and CELL_PITCH == 6.2
    with pytest.raises(TactileError):
        TactileLayout(page_w=0)
    with pytest.raises(TactileError):
        TactileLayout(page_h=-1)


def test_paper_sizes():
    assert TactileLayout.for_paper("a4").page_w == 210.0
    assert TactileLayout.for_paper("braille11x11").page_h == 279.4
    with pytest.raises(TactileError):
        TactileLayout.for_paper("tabloid")


# -- page construction -------------------------------------------------------


def test_boxplot_page_has_boxes_and_braille(box_page):
    # 3 boxes, each a closed 4-point outline
    closed = [s for s in box_page.strokes if s.close and len(s.points) == 4]
    assert len(closed) >= 3
    assert len(box_page.dots) > 50


def test_braille_labels_decode(box_page):
    dots = [(d.x, d.y) for d in box_page.dots]
    texts = extract_braille_runs(dots)
    assert "Adelie" in texts
    assert "Chinstrap" in texts
    assert "Gentoo" in texts
    # the y-axis title "body_mass_g" is set with underscores as spaces; the
    # extractor splits runs at space cells, so it comes back word by word
    assert "body" in texts and "mass" in texts and "g" in texts
    assert "species" in texts


def test_no_dot_stroke_overlaps(box_page):
    for dot in box_page.dots:
        for stroke in box_page.strokes:
            assert not dot_touches_stroke(dot, stroke, clearance=0.0)


def test_braille_dot_spacing_at_least_dot_pitch(box_page):
    braille = [(d.x, d.y) for d in box_page.dots]
    pitch = DOT_PITCH
    for i, (x1, y1) in enumerate(braille):
        for x2, y2 in braille[i + 1 :]:
            if abs(x1 - x2) < pitch and abs(y1 - y2) < pitch:
                assert math.hypot(x1 - x2, y1 - y2) >= pitch - 0.01


def test_all_ink_within_margins(box_page):
    lay = box_page.layout
    r = DOT_DIAMETER / 2
    for dot in box_page.dots:
        assert MARGIN <= dot.x - r and dot.x + r <= lay.page_w - MARGIN
        assert MARGIN <= dot.y - r and dot.y + r <= lay.page_h - MARGIN
    for stroke in box_page.strokes:
        for x, y in stroke.points:
            assert MARGIN - 0.51 <= x <= lay.page_w - MARGIN + 0.51
            assert MARGIN - 0.51 <= y <= lay.page_h - MARGIN + 0.51


def test_ticks_limited_to_five_per_axis(penguins):
    spec = load_fixture_spec("penguins_hist.json")
    scene = layout(spec, penguins)
    assert len(scene.x_axis.ticks) > 5  # the scene itself has more
    page = tactualize(scene, alt=auto_alt(scene.summary))
    # tactile x ticks: strokes that drop below the x baseline
    base_y = max(y for s in page.strokes[:1] for _, y in s.points)
    ticks = [
        s for s in page.strokes
        if len(s.points) == 2
        and s.points[0][0] == s.points[1][0]
        and min(p[1] for p in s.points) >= base_y - 1e-6
        and abs(s.points[0][1] - s.points[1][1]) == pytest.approx(4.0, abs=1e-6)
    ]
    assert 2 <= len(ticks) <= 5


def _rect_outlines(page):
    """Each closed, axis-aligned 4-point stroke (a rect mark's outline) as
    (x0, y0, x1, y1), with the strokes drawn after it up to the next closed
    stroke."""
    out = []
    for i, stroke in enumerate(page.strokes):
        if not stroke.close or len(stroke.points) != 4:
            continue
        (x0, y0), (x1, y1b), (x1b, y1), (x0b, y0b) = stroke.points
        if not (y1b == y0 and x1b == x1 and x0b == x0 and y0b == y1):
            continue  # a diamond or rotated glyph, not a rect
        after = []
        for s in page.strokes[i + 1:]:
            if s.close:
                break
            after.append(s)
        out.append(((x0, y0, x1, y1), after))
    return out


@pytest.mark.parametrize("name", ["penguins_bar.json", "penguins_hist.json"])
def test_filled_rects_get_horizontal_hatch(penguins, name):
    """Every bar and bin is followed by horizontal lines 6 mm apart, inset
    2.5 mm from its outline, and by nothing else."""
    scene = layout(load_fixture_spec(name), penguins)
    page = tactualize(scene, alt=auto_alt(scene.summary))
    rects = _rect_outlines(page)
    assert len(rects) == len(scene.marks)
    for (x0, y0, x1, y1), hatch in rects:
        assert hatch, (x0, y0, x1, y1)
        ys = []
        for s in hatch:
            (ax, ay), (bx, by) = s.points
            assert (ax, bx) == (pytest.approx(x0 + 2.5), pytest.approx(x1 - 2.5))
            assert ay == by and s.width == 1.0 and not s.dash
            ys.append(ay)
        assert ys[0] == pytest.approx(y0 + 2.5)
        assert all(b - a == pytest.approx(6.0) for a, b in zip(ys, ys[1:]))
        assert ys[-1] <= y1 - 2.5 + 1e-9 < ys[-1] + 6.0


def test_boxplot_boxes_are_bare_outlines(box_page):
    rects = _rect_outlines(box_page)
    assert len(rects) == 3
    for (x0, y0, x1, y1), after in rects:
        for s in after:
            xs = sorted(x for x, _ in s.points)
            assert xs != [pytest.approx(x0 + 2.5), pytest.approx(x1 - 2.5)]


def test_label_too_long_suggests_abbreviation():
    data = inline_dataset({"verylong" * 12: [1.0, 2.0, 3.0]})
    name = "verylong" * 12
    spec = parse_spec(
        (
            '{"chart":{"type":"boxplot","x":"%s"}}' % name
        ).encode()
    )
    scene = layout(spec, data)
    with pytest.raises(TactileError, match="abbreviate"):
        tactualize(scene, alt=auto_alt(scene.summary))


# -- pdf ----------------------------------------------------------------------


def test_pdf_validates_structurally(box_pdf):
    info = validate_pdf(box_pdf)
    assert info["n_objects"] == 4


def test_pdf_letter_mediabox(box_pdf):
    mb = validate_pdf(box_pdf)["media_box"]
    assert mb[0] == 0 and mb[1] == 0
    assert abs(mb[2] - 612.0) <= 0.5
    assert abs(mb[3] - 792.0) <= 0.5


def test_pdf_dot_unit_conversion():
    # a dot at page center must land at (306, 396) pt on US Letter
    lay = TactileLayout()
    cx_mm, cy_mm = lay.page_w / 2, lay.page_h / 2
    cx_pt, cy_pt = cx_mm * MM_TO_PT, lay.page_h * MM_TO_PT - cy_mm * MM_TO_PT
    assert abs(cx_pt - 306.0) <= 0.5
    assert abs(cy_pt - 396.0) <= 0.5


def test_pdf_braille_metrics_roundtrip(box_pdf, box_page):
    """Intra-cell spacing 2.5 mm and cell pitch 6.2 mm must survive the
    mm -> pt -> parse -> mm round trip within 0.05 mm."""
    dots = pdf_dots_mm(box_pdf, box_page.layout)
    assert dots
    xs_by_row: dict[float, list[float]] = {}
    for x, y in dots:
        xs_by_row.setdefault(round(y, 2), []).append(x)
    gaps = []
    for xs in xs_by_row.values():
        xs.sort()
        gaps.extend(b - a for a, b in zip(xs, xs[1:]) if b - a < 4.0)
    assert gaps, "expected same-row dot pairs"
    intra = [g for g in gaps if g < 3.0]
    cross = [g for g in gaps if g >= 3.0]
    assert intra, "expected intra-cell dot pairs"
    for gap in intra:
        assert abs(gap - 2.5) <= 0.05  # intra-cell pitch
    for gap in cross:
        # right column to the next cell's left column: 6.2 - 2.5
        assert abs(gap - 3.7) <= 0.05
    # cell pitch: decoded runs must fit the 6.2 mm grid (the extractor
    # rejects runs that deviate by more than its 0.05 mm tolerance)
    texts = extract_braille_runs(dots)
    assert "Adelie" in texts and "Gentoo" in texts


def test_pdf_geometry_matches_page(box_pdf, box_page):
    info = validate_pdf(box_pdf)
    circles = pdf_filled_circles(info["content"])
    assert len(circles) == len(box_page.dots)
    polylines = pdf_stroked_polylines(info["content"])
    assert len(polylines) == len(box_page.strokes)
    # dot count sanity: every braille dot appears with the right radius
    r_pt = DOT_DIAMETER / 2 * MM_TO_PT
    matching = [c for c in circles if abs(c[2] - r_pt) < 0.01]
    assert len(matching) == len(box_page.dots)


def test_pdf_deterministic(box_page):
    assert emit_pdf(box_page) == emit_pdf(box_page)


def test_preview_svg_well_formed(box_page):
    raw = emit_preview_svg(box_page)
    root = ET.fromstring(raw)
    assert root.get("width").endswith("mm")
    tags = {e.tag.split("}")[1] for e in root.iter()}
    assert tags <= {"svg", "rect", "path", "text", "g", "title", "desc", "line"}


def test_preview_and_chart_svg_escape_text_alike(penguins):
    scene = layout(load_fixture_spec("penguins_box.json"), penguins)
    alt = AltText(('Boxes of "body mass" & <species>.',))
    desc = b'<desc id="desc">Boxes of &quot;body mass&quot; &amp; &lt;species&gt;.</desc>'
    assert desc in emit_svg(scene, alt)
    assert desc in emit_preview_svg(tactualize(scene, alt=alt))


def test_single_box_page(penguins):
    # a boxplot of one column still produces axes plus a single box
    spec = parse_spec(
        b'{"data":{"csv":"penguins.csv"},'
        b'"chart":{"type":"boxplot","x":"body_mass_g"}}'
    )
    scene = layout(spec, penguins)
    page = tactualize(scene, alt=auto_alt(scene.summary))
    assert len(page.strokes) >= 2  # the two axis lines at minimum


def _random_scenes():
    """30 seeded small scenes of every chart type: (trial, kind, scene)."""
    rng = random.Random(99)
    specs = {
        "bar": b'{"chart":{"type":"bar","x":"c"}}',
        "histogram": b'{"chart":{"type":"histogram","x":"v"}}',
        "boxplot": b'{"chart":{"type":"boxplot","x":"c","y":"v"}}',
        "scatter": b'{"chart":{"type":"scatter","x":"v","y":"w","group":"c"}}',
        "line": b'{"chart":{"type":"line","x":"v","y":"w","group":"c"}}',
    }
    for trial in range(30):
        kind = rng.choice(list(specs))
        n = rng.randint(2, 40)
        levels = [f"grp{i}" for i in range(rng.randint(1, 4))]
        data = inline_dataset(
            {
                "c": [rng.choice(levels) for _ in range(n)],
                "v": [round(rng.uniform(-50, 500), 1) for _ in range(n)],
                "w": [round(rng.uniform(0, 9), 2) for _ in range(n)],
            }
        )
        yield trial, kind, layout(parse_spec(specs[kind]), data)


def test_random_scenes_keep_ink_inside_and_clear_of_braille():
    """Every buildable random page keeps ink inside the margins, braille
    dots clear of strokes, and cross-cell dots at least a dot pitch apart."""
    built = 0
    for trial, kind, scene in _random_scenes():
        try:
            page = tactualize(scene, alt=auto_alt(scene.summary))
        except TactileError:
            continue  # labels genuinely did not fit; a legitimate outcome
        built += 1
        lay = page.layout
        r = DOT_DIAMETER / 2
        for dot in page.dots:
            assert MARGIN <= dot.x - r and dot.x + r <= lay.page_w - MARGIN
            assert MARGIN <= dot.y - r and dot.y + r <= lay.page_h - MARGIN
        for dot in page.dots:
            for stroke in page.strokes:
                assert not dot_touches_stroke(dot, stroke, clearance=0.0), (
                    trial, kind, dot,
                )
        pts = [(d.x, d.y) for d in page.dots]
        for i, (x1, y1) in enumerate(pts):
            for x2, y2 in pts[i + 1 :]:
                if abs(x1 - x2) < DOT_PITCH and abs(y1 - y2) < DOT_PITCH:
                    assert math.hypot(x1 - x2, y1 - y2) >= DOT_PITCH - 0.01
    assert built >= 20  # most random pages should build


def test_markless_scene_page_has_axes_only(penguins):
    from dataclasses import replace

    spec = load_fixture_spec("penguins_box.json")
    scene = replace(layout(spec, penguins), marks=())
    page = tactualize(scene)
    # axes plus ticks, no data strokes, labels still present
    vertical_axis = [s for s in page.strokes if len(s.points) == 2 and s.width == 1.0]
    assert len(vertical_axis) >= 2
    assert all(not s.close for s in page.strokes)
    assert page.dots


# -- stroke piece index vs the brute-force oracle --------------------------

_GROUPS = ("north", "south", "east")


def _clip(v: float) -> float:
    return min(100.0, max(0.0, v))


@pytest.fixture(scope="module")
def big_scatter_scene():
    """Seeded 2,000-point scatter in three groups, axis ranges pinned."""
    rng = random.Random(3001)
    xs, ys, gs = [0.0, 100.0], [0.0, 100.0], [_GROUPS[0], _GROUPS[1]]
    for i in range(1998):
        g = i % 3
        x = _clip(rng.gauss(30 + 20 * g, 12))
        xs.append(round(x, 2))
        ys.append(round(_clip(0.7 * x + 10 + rng.gauss(0, 10)), 2))
        gs.append(_GROUPS[g])
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"x","y":"y","group":"grp"}}')
    return layout(spec, inline_dataset({"x": xs, "y": ys, "grp": gs}))


@pytest.fixture(scope="module")
def big_line_scene():
    """Seeded line chart of three 3,333-point noisy sine polylines."""
    rng = random.Random(3002)
    ts, levels, gs = [], [], []
    for name in _GROUPS:
        period = rng.uniform(200.0, 600.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        for t in range(3333):
            y = 50 + 35 * math.sin(2 * math.pi * t / period + phase) + rng.gauss(0, 4)
            ts.append(float(t))
            levels.append(round(_clip(y), 2))
            gs.append(name)
    levels[0], levels[1] = 0.0, 100.0  # pin the axis range
    spec = parse_spec(b'{"chart":{"type":"line","x":"t","y":"level","group":"grp"}}')
    return layout(spec, inline_dataset({"t": ts, "level": levels, "grp": gs}))


def _brute_force_run_conflicts(self, run):
    """The label check without an index: every dot of the run against
    every segment of every stroke on the page."""
    box = run.bbox()
    for other in self.runs:
        if _bbox_overlap(box, other.bbox(), DOT_PITCH):
            return True
    for dot in run.dots():
        for stroke in self.strokes:
            if dot_touches_stroke(dot, stroke, clearance=0.5):
                return True
    return False


def _tactile_outcome(scene, paper="letter"):
    """PDF bytes of the scene's tactile page, or the TactileError message."""
    try:
        page = tactualize(scene, TactileLayout.for_paper(paper),
                          alt=auto_alt(scene.summary))
        return emit_pdf(page)
    except TactileError as exc:
        return f"TactileError: {exc}"


def _assert_grid_matches_brute_force(scenes, monkeypatch):
    indexed = [_tactile_outcome(scene) for scene in scenes]
    with monkeypatch.context() as m:
        m.setattr(_PageBuilder, "_run_conflicts", _brute_force_run_conflicts)
        brute = [_tactile_outcome(scene) for scene in scenes]
    for i, (a, b) in enumerate(zip(indexed, brute)):
        assert a == b, i


def test_grid_matches_brute_force_on_random_scenes(monkeypatch):
    scenes = [scene for _, _, scene in _random_scenes()]
    _assert_grid_matches_brute_force(scenes, monkeypatch)


def test_grid_matches_brute_force_on_big_scatter(big_scatter_scene, monkeypatch):
    _assert_grid_matches_brute_force([big_scatter_scene], monkeypatch)


def test_grid_matches_brute_force_on_big_line_chart(big_line_scene, monkeypatch):
    _assert_grid_matches_brute_force([big_line_scene], monkeypatch)


# Tactile PDFs of the many-marks scenes, pinned byte for byte: work on the
# label check must not move a single dot or stroke.
BIG_SCENE_SHA256 = {
    ("big_line_scene", "braille11x11"):
        "f5471a1931b16dd6b656c8c37ed89ce428179a5411ad43e5071199cfd4bbac5f",
    ("big_line_scene", "letter"):
        "0a2c5f272bcf696ddd8e012a18db8d309090f538d576675a4c75019a558c39b0",
    ("big_scatter_scene", "braille11x11"):
        "cc3aff40a44a6ff3b75578cb98da7455e927b0712220b79768fb229f24081f12",
    ("big_scatter_scene", "letter"):
        "3ee2e727310324ab0cf7eaa73f665d64dad465ecf287cea25083389385d42b53",
}


@pytest.mark.parametrize("scene_name,paper", sorted(BIG_SCENE_SHA256))
def test_big_scene_pdf_golden_hash(request, scene_name, paper):
    scene = request.getfixturevalue(scene_name)
    pdf = _tactile_outcome(scene, paper)
    assert hashlib.sha256(pdf).hexdigest() == BIG_SCENE_SHA256[scene_name, paper]


def test_label_check_work_stays_local(big_scatter_scene, monkeypatch):
    """Each braille dot is tested against a few nearby stroke pieces, not
    against every stroke on the page (which costs ~950 checks per dot here)."""
    import polyrep.tactile as tactile

    calls = 0
    kernel = tactile.dot_touches_stroke

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(tactile, "dot_touches_stroke", counting)
    page = tactualize(big_scatter_scene, alt=auto_alt(big_scatter_scene.summary))
    braille = len(page.dots)
    assert braille > 50
    assert calls <= 10 * braille, (calls, braille)


_PAGE_MM = 300.0


@st.composite
def _strokes_and_dots(draw):
    """Random strokes (open and closed, 1-80 points, so that long ones
    split into several pieces, 1-4 mm wide, with repeated points and
    vertices on multiples of the widest collision reach) and dots across
    the page, near stroke segments, or grazing them at the collision
    reach."""
    widths = draw(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=6))
    widest_reach = DOT_DIAMETER / 2 + max(widths) / 2 + LABEL_CLEARANCE
    coord = st.one_of(
        st.floats(-5.0, _PAGE_MM),
        st.integers(0, int(_PAGE_MM / widest_reach)).map(lambda k: k * widest_reach),
    )
    strokes = []
    for width in widths:
        points = []
        for _ in range(draw(st.integers(1, 80))):
            if not points:
                points.append((draw(coord), draw(coord)))
                continue
            x, y = points[-1]
            move = draw(st.sampled_from(("repeat", "step", "across", "down")))
            if move == "repeat":
                points.append((x, y))  # zero-length segment
            elif move == "step":  # like a data polyline's
                points.append((x + draw(st.floats(-8.0, 8.0)),
                               y + draw(st.floats(-8.0, 8.0))))
            elif move == "across":  # like an axis
                points.append((draw(coord), y))
            else:
                points.append((x, draw(coord)))
        strokes.append(Stroke(tuple(points), width, close=draw(st.booleans())))
    dot_r = DOT_DIAMETER / 2
    dots = []
    for _ in range(draw(st.integers(1, 30))):
        where = draw(st.sampled_from(("near", "graze", "anywhere")))
        if where == "anywhere":
            dots.append(Dot(draw(coord), draw(coord)))
            continue
        # a point along one segment of a stroke, closing segments included
        stroke = draw(st.sampled_from(strokes))
        pts = stroke.points + stroke.points[:1] if stroke.close else stroke.points
        k = draw(st.integers(0, max(0, len(pts) - 2)))
        (x1, y1), (x2, y2) = pts[k], pts[min(k + 1, len(pts) - 1)]
        t = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
        x, y = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
        if where == "near":
            x += draw(st.floats(-2 * widest_reach, 2 * widest_reach))
            y += draw(st.floats(-2 * widest_reach, 2 * widest_reach))
        else:  # about the collision reach away: touching or only just clear
            reach = dot_r + stroke.width / 2 + LABEL_CLEARANCE
            reach += draw(st.floats(-1e-3, 1e-3))
            angle = draw(st.floats(0.0, 2 * math.pi))
            x += reach * math.cos(angle)
            y += reach * math.sin(angle)
        dots.append(Dot(x, y))
    return strokes, dots


_DOT_1, _DOT_6 = BrailleCell(frozenset({1})), BrailleCell(frozenset({6}))


@settings(deadline=None)
@given(_strokes_and_dots())
def test_piece_index_matches_brute_force(case):
    """A one-dot braille run conflicts exactly when its dot touches a whole
    stroke. As dot 1 of its cell the dot's ink is flush with the run's box
    on the left and top, as dot 6 on the right and bottom."""
    strokes, dots = case
    builder = SimpleNamespace(runs=[], pieces=_stroke_pieces(strokes))
    for dot in dots:
        for run in (BrailleRun((_DOT_1,), dot.x, dot.y),
                    BrailleRun((_DOT_6,), dot.x - DOT_PITCH, dot.y - 2 * DOT_PITCH)):
            (run_dot,) = run.dots()
            expected = any(
                dot_touches_stroke(run_dot, s, clearance=0.5) for s in strokes
            )
            assert _PageBuilder._run_conflicts(builder, run) == expected, run_dot
