"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 4b's docstring derives its red/green confusion palette.
"""

from __future__ import annotations

import math
import random
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import load_fixture_spec
from oracles import (
    box_oracle,
    extract_braille_runs,
    histogram_oracle,
    normal_equations_fit,
    pdf_filled_circles,
    read_wav_oracle,
    validate_pdf,
    zero_crossing_freq,
)
from polyrep.cli import main
from polyrep.color import (
    CvdKind,
    Palette,
    Rgb,
    audit_palette,
    delta_e,
    okabe_ito,
    simulate_cvd,
)
from polyrep.dataset import Column, Dataset
from polyrep.pdfwrite import MM_TO_PT
from polyrep.scene import layout
from polyrep.sonify import (
    GAP_FRACTION,
    AudioBuffer,
    SonifyConfig,
    pan_gains,
    sonify_points,
    write_wav,
)
from polyrep.stats import box_stats, histogram, linear_fit, nice_ticks
from polyrep.svgout import cvd_grid, emit_svg
from polyrep.tactile import DOT_DIAMETER, MARGIN, emit_pdf, tactualize
from polyrep.verbalize import auto_alt

GOLDEN_BAR_BLOCK = (
    "This is an untitled chart with no subtitle or caption.\n"
    "It has x-axis 'species' with labels Adelie, Chinstrap and Gentoo.\n"
    "It has y-axis 'count' with labels 0, 50, 100 and 150.\n"
    "The chart is a bar chart with 3 vertical bars.\n"
    "Bar 1 is centered horizontally at Adelie, and spans vertically from 0 to 152.\n"
    "Bar 2 is centered horizontally at Chinstrap, and spans vertically from 0 to 68.\n"
    "Bar 3 is centered horizontally at Gentoo, and spans vertically from 0 to 124.\n"
)


def report(n: int | str, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


@pytest.fixture()
def workdir(tmp_path, fixtures_dir, monkeypatch):
    for name in ("penguins.csv", "penguins_bar.json", "penguins_scatter.json",
                 "penguins_box.json", "lin.json"):
        shutil.copy(fixtures_dir / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_criterion_1_verbalization_golden(workdir, capsys):
    code = main(["alt", "penguins_bar.json"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(
            1,
            "species bar chart alt text equals the golden block byte-for-byte",
            code == 0 and out == GOLDEN_BAR_BLOCK,
        )


def test_criterion_2_tick_reproduction():
    ticks = nice_ticks(0, 152)
    report(
        2,
        "nice_ticks(0, 152) = [0, 50, 100, 150] exactly",
        list(ticks.positions) == [0.0, 50.0, 100.0, 150.0]
        and list(ticks.labels) == ["0", "50", "100", "150"],
    )


def test_criterion_3_cvd_white_and_gray():
    ok = True
    white = Rgb(1, 1, 1)
    for kind in CvdKind:
        sim = simulate_cvd(white, kind)
        ok &= all(abs(c - 1.0) <= 1 / 255 for c in (sim.r, sim.g, sim.b))
    for g8 in range(256):
        g = g8 / 255.0
        sim = simulate_cvd(Rgb(g, g, g), CvdKind.DESATURATE)
        ok &= sim.to_hex() == Rgb(g, g, g).to_hex()
    report(3, "white preserved under all kinds; desaturate exact on 8-bit grays", ok)


def test_criterion_4_okabe_ito_passes_audit():
    report(
        "4a",
        "full 8-color Okabe-Ito palette passes the default audit",
        audit_palette(okabe_ito()).passed,
    )


def test_criterion_4_red_green_fails_audit():
    """The default audit (threshold 10) rejects a red/green palette that
    trichromats tell apart but red-green dichromats cannot, under both Deutan
    and Protan.

    The palette is matplotlib's default red #D62728 plus two greens derived
    from it in linear RGB: each is the red moved along the null direction of
    that kind's frozen Machado severity-1.0 matrix (the dichromat's confusion
    direction: every colour on that line simulates to the same colour), with
    green increasing, until the red channel reaches 0 at the sRGB gamut
    boundary, then rounded to 8 bits.  Deutan gives #009502, protan gives
    #00602A.  Each green simulates to within deltaE 0.3 of the red under its
    own kind, so the worst pair is (0, 1) under Deutan and (0, 2) under
    Protan, while both stay more than 100 apart from the red under normal
    vision and Tritan passes (about 21).

    Pure #FF0000/#00FF00 is not the example: a dichromat still tells that
    pair apart by lightness, and the audit's CIE76 distance over full
    L*a*b* measures deltaE 27.75 (deutan) and 65.87 (protan), above any
    threshold that also lets Okabe-Ito pass (4a).  Those values stay pinned
    by 4c.
    """
    red, deutan_green, protan_green = (
        Rgb.from_hex(h) for h in ("#D62728", "#009502", "#00602A")
    )
    rep = audit_palette(Palette((red, deutan_green, protan_green)))
    by_kind = {k.kind: k for k in rep.kinds}
    deutan, protan = by_kind[CvdKind.DEUTAN], by_kind[CvdKind.PROTAN]
    ok = rep.threshold == 10.0 and not rep.passed
    ok &= not deutan.passes(10.0) and deutan.worst_pair == (0, 1)
    ok &= not protan.passes(10.0) and protan.worst_pair == (0, 2)
    ok &= by_kind[CvdKind.TRITAN].passes(10.0)
    ok &= delta_e(red, deutan_green) >= 40.0 and delta_e(red, protan_green) >= 40.0
    report(
        "4b",
        "red #D62728 with its deutan (#009502) and protan (#00602A) confusion "
        "greens fails the default audit under Deutan (pair 0/1) and Protan "
        "(pair 0/2) but passes Tritan; the greens are >= 40 deltaE from the "
        "red under normal vision",
        ok,
    )


def test_criterion_4_red_green_regression_values():
    rep = audit_palette(Palette((Rgb.from_hex("#FF0000"), Rgb.from_hex("#00FF00"))))
    by_kind = {k.kind: k.min_delta_e for k in rep.kinds}
    ok = math.isclose(by_kind[CvdKind.DEUTAN], 27.752343, abs_tol=1e-4) and math.isclose(
        by_kind[CvdKind.PROTAN], 65.874848, abs_tol=1e-4
    )
    report("4c", "red/green simulated deltaE values match the frozen oracle run", ok)


def test_criterion_5_grid_geometry_invariance(penguins):
    spec = load_fixture_spec("penguins_scatter.json")
    scene = layout(spec, penguins)
    alt = auto_alt(scene.summary)
    attrs = ("x", "y", "width", "height", "x1", "y1", "x2", "y2", "d", "transform")

    def marks(root, prefix):
        found = {}
        for e in root.iter():
            ident = e.get("id", "")
            if ident.startswith(prefix) and ident[len(prefix):].isdigit():
                found[int(ident[len(prefix):])] = tuple(e.get(a) for a in attrs)
        return found

    base = marks(ET.fromstring(emit_svg(scene, alt)), "m")
    grid_root = ET.fromstring(cvd_grid(scene, alt))
    ok = len(base) == 342
    for kind in CvdKind:
        panel = marks(grid_root, f"{kind.value}-m")
        ok &= panel == base
    report(5, "mark geometry identical between base SVG and all 4 grid panels", ok)


def test_criterion_6_sonification_fixture():
    cfg = SonifyConfig()
    buf = sonify_points([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], cfg)
    ok = buf.frames == 220500

    estimates = []
    for i in range(5):
        s0 = (i * buf.frames) // 5
        s1 = ((i + 1) * buf.frames) // 5
        tone_len = round((s1 - s0) * (1 - GAP_FRACTION))
        mono = buf.samples[s0 : s0 + tone_len].sum(axis=1)
        estimates.append(zero_crossing_freq(mono, buf.rate))
    ok &= all(b > a for a, b in zip(estimates, estimates[1:]))
    ok &= abs(estimates[0] - 440.0) / 440.0 <= 0.02
    ok &= abs(estimates[-1] - 880.0) / 880.0 <= 0.02

    for pan in np.linspace(0, 1, 1001):
        l, r = pan_gains(float(pan))
        ok &= abs(l * l + r * r - 1.0) <= 1e-12

    data = write_wav(buf)
    frames, rate = read_wav_oracle(data)
    again = write_wav(AudioBuffer(frames.astype(np.float64) / 32767.0, rate))
    ok &= again == data
    report(
        6,
        "1:5 fixture: 220500 frames, rising slot pitch 440->880 within 2%, "
        "constant-power pan to 1e-12, WAV round-trips bit-exactly",
        ok,
    )


def test_criterion_7_statistics_oracles(penguins):
    rng = random.Random(20260808)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 1000)
        values = [rng.uniform(-1000, 1000) for _ in range(n)]
        ds = Dataset({"x": Column("numeric", tuple(values))}, n)

        [box] = box_stats(ds, "x")
        lo, q1, med, q3, hi, outliers = box_oracle(values)
        ok &= math.isclose(box.q1, q1, rel_tol=1e-12, abs_tol=1e-9)
        ok &= math.isclose(box.median, med, rel_tol=1e-12, abs_tol=1e-9)
        ok &= math.isclose(box.q3, q3, rel_tol=1e-12, abs_tol=1e-9)
        ok &= (box.min_whisker, box.max_whisker) == (lo, hi)
        ok &= sorted(box.outliers) == outliers

        k = rng.randint(1, 30)
        ok &= histogram(ds, "x", bins=k) == histogram_oracle(values, k)

    xs = list(penguins.columns["flipper_length_mm"].values)
    ys = list(penguins.columns["bill_length_mm"].values)
    fit = linear_fit(xs, ys)
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
    slope, intercept = normal_equations_fit(
        [p[0] for p in pairs], [p[1] for p in pairs]
    )
    ok &= math.isclose(fit.slope, slope, rel_tol=1e-9)
    ok &= math.isclose(fit.intercept, intercept, rel_tol=1e-9)
    report(
        7,
        "box/histogram match brute-force oracles on 100 random datasets; "
        "OLS matches normal equations to 1e-9",
        ok,
    )


def test_criterion_8_tactile_validity(penguins):
    spec = load_fixture_spec("penguins_box.json")
    scene = layout(spec, penguins)
    page = tactualize(scene, alt=auto_alt(scene.summary))
    raw = emit_pdf(page)

    info = validate_pdf(raw)  # structure: header, xref offsets, trailer
    ok = abs(info["media_box"][2] - 612.0) <= 0.5

    lay = page.layout
    dots_mm = []
    for cx, cy, r in pdf_filled_circles(info["content"]):
        if abs(2 * r / MM_TO_PT - DOT_DIAMETER) < 0.1:
            dots_mm.append((cx / MM_TO_PT, lay.page_h - cy / MM_TO_PT))

    texts = extract_braille_runs(dots_mm)
    ok &= "Adelie" in texts  # decoding includes consuming the capital prefix

    gaps = []
    rows: dict[float, list[float]] = {}
    for x, y in dots_mm:
        rows.setdefault(round(y, 2), []).append(x)
    for xs in rows.values():
        xs.sort()
        gaps.extend(b - a for a, b in zip(xs, xs[1:]) if b - a < 4.0)
    ok &= bool(gaps)
    for gap in gaps:
        target = 2.5 if gap < 3.0 else 3.7  # intra-cell pitch / 6.2 cell pitch
        ok &= abs(gap - target) <= 0.05

    margin = MARGIN
    eps = 0.01  # pt-quantization slack from the unit round-trip
    for x, y in dots_mm:
        r = DOT_DIAMETER / 2
        ok &= margin - eps <= x - r and x + r <= lay.page_w - margin + eps
        ok &= margin - eps <= y - r and y + r <= lay.page_h - margin + eps
    report(
        8,
        "boxplot tactile page: 'Adelie' decodes from braille, dot metrics "
        "survive PDF round-trip within 0.05 mm, PDF validates, ink within margins",
        ok,
    )


def test_criterion_9_determinism(workdir):
    ok = True
    for args, path in (
        (["render", "penguins_scatter.json", "-o", "a.svg"], "a.svg"),
        (["render", "penguins_scatter.json", "-o", "a.svg"], "a.svg.alt.txt"),
        (["cvd-grid", "penguins_bar.json", "-o", "g.svg"], "g.svg"),
        (["sonify", "lin.json", "-o", "l.wav"], "l.wav"),
        (["tactile", "penguins_box.json", "-o", "t.pdf"], "t.pdf"),
        (["alt", "penguins_bar.json"], None),
    ):
        if path is None:
            continue
        assert main(args) == 0
        first = Path(path).read_bytes()
        assert main(args) == 0
        ok &= Path(path).read_bytes() == first
    report(9, "SVG, WAV, PDF and text artifacts byte-identical across runs", ok)
