from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyrep.color import (
    CvdKind,
    Palette,
    Rgb,
    _CVD_MATRICES,
    audit_palette,
    delta_e,
    linear_to_srgb,
    okabe_ito,
    rgb_to_lab,
    simulate_cvd,
    srgb_to_linear,
)
from polyrep.errors import DataError

unit = st.floats(0.0, 1.0)
colors = st.builds(Rgb, unit, unit, unit)


# -- transfer function -------------------------------------------------------


def test_transfer_fixed_points():
    assert srgb_to_linear(Rgb(0, 0, 0)) == (0.0, 0.0, 0.0)
    assert srgb_to_linear(Rgb(1, 1, 1)) == (1.0, 1.0, 1.0)


def test_transfer_midpoint_value():
    # frozen from evaluating ((0.5 + 0.055) / 1.055) ** 2.4
    lin = srgb_to_linear(Rgb(0.5, 0.5, 0.5))[0]
    assert math.isclose(lin, 0.21404114048223255, rel_tol=1e-12)


@given(unit)
def test_transfer_roundtrip_linear_first(c):
    # linear -> sRGB -> linear is exact everywhere: the encoder's range
    # avoids the official constants' tiny discontinuity at the branch joint
    assert abs(srgb_to_linear(linear_to_srgb((c, c, c)))[0] - c) < 1e-12


@given(unit)
def test_transfer_roundtrip_srgb_first(c):
    # the standard's 0.04045 / 12.92 / 0.0031308 constants do not meet
    # exactly, leaving a ~2.4e-5-wide sliver near the joint where the
    # forward map is not invertible; everywhere else the trip is exact
    if 0.0404499 < c < 0.0404745:
        return
    lin = srgb_to_linear(Rgb(c, c, c))
    back = linear_to_srgb(lin)
    assert abs(back.r - c) < 1e-12


def test_transfer_roundtrip_dense_grid():
    for i in range(0, 4096):
        c = i / 4095.0
        assert abs(linear_to_srgb(srgb_to_linear(Rgb(c, c, c))).r - c) < 1e-12
        assert abs(srgb_to_linear(linear_to_srgb((c, c, c)))[0] - c) < 1e-12


# -- hex ---------------------------------------------------------------------


def test_hex_roundtrip_8bit():
    for h in ("#E69F00", "#56B4E9", "#000000", "#FFFFFF", "#0072B2"):
        assert Rgb.from_hex(h).to_hex() == h


def test_hex_case_insensitive():
    assert Rgb.from_hex("#e69f00").to_hex() == "#E69F00"


def test_hex_malformed_rejected():
    for bad in ("#FFF", "123456X", "#GG0000", "", 5, None):
        with pytest.raises(DataError, match=f"expected #RRGGBB hex color, got {bad!r}$"):
            Rgb.from_hex(bad)


def test_component_range_enforced():
    with pytest.raises(DataError):
        Rgb(1.2, 0, 0)


# -- simulation --------------------------------------------------------------


def test_matrix_rows_preserve_white():
    for m in _CVD_MATRICES.values():
        for row in m:
            assert abs(sum(row) - 1.0) <= 1e-3


@pytest.mark.parametrize("kind", list(CvdKind))
def test_white_preserved(kind):
    sim = simulate_cvd(Rgb(1, 1, 1), kind)
    for c in (sim.r, sim.g, sim.b):
        assert abs(c - 1.0) <= 1 / 255


@pytest.mark.parametrize("kind", list(CvdKind))
def test_gray_nearly_invariant(kind):
    for g8 in (0, 51, 128, 200, 255):
        g = g8 / 255.0
        sim = simulate_cvd(Rgb(g, g, g), kind)
        for c in (sim.r, sim.g, sim.b):
            assert abs(c - g) <= 1 / 255


def test_desaturate_exact_gray_at_8_bits():
    for g8 in range(0, 256, 5):
        g = g8 / 255.0
        sim = simulate_cvd(Rgb(g, g, g), CvdKind.DESATURATE)
        assert sim.to_hex() == Rgb(g, g, g).to_hex()


@given(colors)
def test_desaturate_idempotent(c):
    once = simulate_cvd(c, CvdKind.DESATURATE)
    twice = simulate_cvd(once, CvdKind.DESATURATE)
    for a, b in zip((once.r, once.g, once.b), (twice.r, twice.g, twice.b)):
        assert abs(a - b) <= 1 / 255


@given(colors)
def test_desaturate_output_is_neutral(c):
    sim = simulate_cvd(c, CvdKind.DESATURATE)
    assert sim.r == sim.g == sim.b


def test_red_green_collapse_values():
    """Simulated red/green deltaE values, frozen from the pre-build oracle
    run of this Lab pipeline over the Machado dichromacy matrices."""
    red, green = Rgb.from_hex("#FF0000"), Rgb.from_hex("#00FF00")
    expected = {
        CvdKind.DEUTAN: 27.752343,
        CvdKind.PROTAN: 65.874848,
        CvdKind.TRITAN: 153.241866,
        CvdKind.DESATURATE: 34.504153,
    }
    for kind, value in expected.items():
        de = delta_e(simulate_cvd(red, kind), simulate_cvd(green, kind))
        assert math.isclose(de, value, abs_tol=1e-4)


# -- palette -----------------------------------------------------------------


def test_okabe_ito_palette():
    p = okabe_ito()
    assert len(p) == 8
    assert p[0].to_hex() == "#E69F00"
    assert [c.to_hex() for c in p.colors] == [
        "#E69F00", "#56B4E9", "#009E73", "#F0E442",
        "#0072B2", "#D55E00", "#CC79A7", "#000000",
    ]


def test_okabe_ito_all_pairs_distinct():
    hexes = [c.to_hex() for c in okabe_ito().colors]
    assert len(set(hexes)) == 8


def test_palette_rejects_duplicates():
    c = Rgb.from_hex("#112233")
    with pytest.raises(DataError):
        Palette((c, Rgb.from_hex("#112233")))


# -- delta E -----------------------------------------------------------------


def test_delta_e_identity():
    c = Rgb.from_hex("#A1B2C3")
    assert delta_e(c, c) == 0.0


def test_delta_e_black_white_is_lightness_range():
    de = delta_e(Rgb.from_hex("#000000"), Rgb.from_hex("#FFFFFF"))
    assert abs(de - 100.0) < 0.1


def test_delta_e_orange_skyblue_frozen():
    # frozen from the independent Lab-conversion oracle run
    de = delta_e(Rgb.from_hex("#E69F00"), Rgb.from_hex("#56B4E9"))
    assert math.isclose(de, 113.095786, abs_tol=1e-4)


def test_lab_white_point():
    lab = rgb_to_lab(Rgb(1, 1, 1))
    assert abs(lab.L - 100.0) < 1e-3
    assert abs(lab.a) < 1e-3 and abs(lab.b) < 1e-3


@given(colors, colors)
def test_delta_e_symmetric(a, b):
    assert math.isclose(delta_e(a, b), delta_e(b, a), rel_tol=1e-12, abs_tol=1e-12)


@given(colors, colors)
def test_delta_e_indiscernible(a, b):
    de = delta_e(a, b)
    assert de >= 0.0
    if (a.r, a.g, a.b) == (b.r, b.g, b.b):
        assert de == 0.0


@given(colors, colors, colors)
def test_delta_e_triangle_inequality(a, b, c):
    assert delta_e(a, c) <= delta_e(a, b) + delta_e(b, c) + 1e-9


# -- audit -------------------------------------------------------------------


def test_audit_okabe_ito_first_three_passes():
    report = audit_palette(Palette(okabe_ito().colors[:3]))
    assert report.passed


def test_audit_full_okabe_ito_passes():
    report = audit_palette(okabe_ito())
    assert report.passed
    by_kind = {k.kind: k for k in report.kinds}
    # dichromacy minima frozen from the pre-build oracle run
    assert math.isclose(by_kind[CvdKind.DEUTAN].min_delta_e, 17.035018, abs_tol=1e-4)
    assert math.isclose(by_kind[CvdKind.PROTAN].min_delta_e, 20.661370, abs_tol=1e-4)
    assert math.isclose(by_kind[CvdKind.TRITAN].min_delta_e, 16.053459, abs_tol=1e-4)
    # the desaturated view is reported but not gated: qualitative palettes
    # are near-equiluminant by design
    assert by_kind[CvdKind.DESATURATE].min_delta_e < 10.0
    assert not by_kind[CvdKind.DESATURATE].gated


def test_audit_reports_worst_pair_per_kind():
    report = audit_palette(okabe_ito())
    for audit in report.kinds:
        i, j = audit.worst_pair
        assert 0 <= i < j < 8


def test_audit_single_color_rejected():
    with pytest.raises(DataError):
        audit_palette(Palette((Rgb.from_hex("#FF0000"),)))


def test_audit_text_and_json_forms():
    report = audit_palette(Palette(okabe_ito().colors[:3]))
    text = report.to_text()
    assert "deutan" in text and "result: PASS" in text
    assert "\x1b[" not in text  # plain text unless color requested
    import json

    doc = json.loads(report.to_json())
    assert doc["pass"] is True
    assert set(doc["kinds"]) == {"deutan", "protan", "tritan", "desaturate"}
