from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GOLDEN_BAR_BLOCK, laid_out, load_fixture_spec
from polyrep.chartspec import (
    ChartSpec,
    ChartSummary,
    ChartValues,
    DataAxis,
    bind,
    inline_dataset,
    parse_spec,
    summarize,
)
from polyrep.errors import SpecError
from polyrep.verbalize import (
    AltText,
    ManualAltInput,
    auto_alt,
    checklist_score,
    join_labels,
    manual_alt,
)

# a hand-written description of the penguins scatterplot, used as
# checklist input
SCATTER_MANUAL_TEXT = (
    "Sample scatterplot showing the relationship between flipper length in mm "
    "on the x-axis and bill length in mm on the y-axis. Flipper lengths vary "
    "from about 170 to 230, and bill lengths vary from about 35 to 60. Overall "
    "there is a moderate positive relationship."
)


def bar_summary(
    x_labels=("Adelie", "Chinstrap", "Gentoo"),
    y_labels=("0", "50", "100", "150"),
    bars=(("Adelie", 152), ("Chinstrap", 68), ("Gentoo", 124)),
    **spec_fields,
):
    spec = ChartSpec(**{"chart_type": "bar", "x": "species", **spec_fields})
    return ChartSummary(spec, ChartValues(0, bars=bars), DataAxis("species", x_labels),
                        DataAxis("count", y_labels))


def test_penguins_bar_block_exact(penguins):
    spec = load_fixture_spec("penguins_bar.json")
    alt = auto_alt(laid_out(spec, penguins).summary)
    assert alt.flattened + "\n" == GOLDEN_BAR_BLOCK
    assert len(alt.sentences) == 7


def test_single_bar_singular():
    alt = auto_alt(
        bar_summary(x_labels=("A",), y_labels=("0", "1"), bars=(("A", 1),))
    )
    assert "The chart is a bar chart with 1 vertical bar." in alt.sentences
    assert "Bar 1 is centered horizontally at A, and spans vertically from 0 to 1." in alt.sentences


def test_two_labels_join_without_comma():
    alt = auto_alt(
        bar_summary(x_labels=("A", "B"), bars=(("A", 1), ("B", 2)))
    )
    assert "with labels A and B." in alt.sentences[1]
    assert "," not in alt.sentences[1].split("labels")[1]


def test_titled_variants():
    c = dict(title="T", subtitle="S", caption="C")
    cases = {
        (): "This is an untitled chart with no subtitle or caption.",
        ("title",): "This is a chart titled 'T' with no subtitle or caption.",
        ("title", "subtitle"): "This is a chart titled 'T' with subtitle 'S' and no caption.",
        ("title", "caption"): "This is a chart titled 'T' with no subtitle and caption 'C'.",
        ("title", "subtitle", "caption"): "This is a chart titled 'T' with subtitle 'S' and caption 'C'.",
        ("subtitle",): "This is an untitled chart with subtitle 'S' and no caption.",
        ("caption",): "This is an untitled chart with no subtitle and caption 'C'.",
        ("subtitle", "caption"): "This is an untitled chart with subtitle 'S' and caption 'C'.",
    }
    for present, expected in cases.items():
        alt = auto_alt(bar_summary(**{k: c[k] for k in present}))
        assert alt.sentences[0] == expected


def test_histogram_grammar():
    alt = auto_alt(
        ChartSummary(
            ChartSpec("histogram", "v"),
            ChartValues(0, bins=((0.0, 1.5, 2), (1.5, 3.0, 2))),
            x_axis=DataAxis("v", ("0", "2")),
            y_axis=DataAxis("count", ("0", "2")),
        )
    )
    assert "The chart is a histogram with 2 bins." in alt.sentences
    assert (
        "Bin 1 spans horizontally from 0 to 1.5, and vertically from 0 to 2."
        in alt.sentences
    )


def test_scatter_grammar_rounding_and_sign(penguins):
    spec = load_fixture_spec("penguins_scatter.json")
    summary = laid_out(spec, penguins).summary
    alt = auto_alt(summary)
    joined = alt.flattened
    assert "The chart is a scatter plot with" in joined
    assert "vary from about" in joined
    assert "positive relationship" in joined
    assert "grouped by 'species' as Adelie, Chinstrap and Gentoo." in joined
    # two significant figures on continuous ranges
    assert "about 170" in joined or "about 180" in joined


@pytest.mark.parametrize(
    "chart,xs,ys,trend",
    [
        # a flat line fits slope 0 exactly
        ("line", [1, 2, 3], [5, 5, 5], ["Overall there is no clear relationship "
                                        "between 'x' and 'y'."]),
        # constant x has no least-squares line, so no trend is stated
        ("scatter", [2, 2, 2], [1, 3, 2], []),
    ],
    ids=["flat_line", "constant_x_scatter"],
)
def test_trend_of_a_degenerate_fit(chart, xs, ys, trend):
    spec = parse_spec(
        b'{"chart":{"type":"%s","x":"x","y":"y"}}' % chart.encode()
    )
    alt = auto_alt(laid_out(spec, inline_dataset({"x": xs, "y": ys})).summary)
    assert [s for s in alt.sentences if s.startswith("Overall")] == trend
    assert any("vary from about" in s for s in alt.sentences)


def test_boxplot_grammar(penguins):
    spec = load_fixture_spec("penguins_box.json")
    alt = auto_alt(laid_out(spec, penguins).summary)
    assert "The chart is a box plot with 3 boxes." in alt.sentences
    assert any(s.startswith("Box 1 summarizes Adelie with median") for s in alt.sentences)


def test_dropped_rows_sentence(penguins):
    spec = load_fixture_spec("penguins_scatter.json")
    alt = auto_alt(laid_out(spec, penguins).summary)
    assert alt.sentences[-1] == "2 rows with missing values were dropped."


def test_unsupported_chart_type_errors():
    with pytest.raises(SpecError, match="no alt-text grammar"):
        auto_alt(bar_summary(chart_type="mosaic"))


def test_sentences_end_with_periods():
    with pytest.raises(Exception):
        AltText(("no terminal period",))


# -- manual alt --------------------------------------------------------------


def test_manual_alt_formula():
    alt = manual_alt(
        ManualAltInput(
            "Scatterplot",
            "penguin flipper and bill lengths",
            "longer flippers accompany longer bills",
        )
    )
    assert alt.flattened == (
        "Scatterplot of penguin flipper and bill lengths where longer "
        "flippers accompany longer bills."
    )


def test_manual_alt_with_link():
    alt = manual_alt(ManualAltInput("Bar chart", "species counts", "sizes differ",
                                    data_link="https://example.org/penguins.csv"))
    assert alt.sentences[1] == "Data available at https://example.org/penguins.csv."


def test_manual_alt_empty_field_rejected():
    with pytest.raises(SpecError, match="reason"):
        manual_alt(ManualAltInput("Bar chart", "data", "  "))


# -- checklist ---------------------------------------------------------------


def penguin_summary(penguins, chart: bytes):
    spec = parse_spec(b'{"chart":' + chart + b'}')
    return summarize(spec, bind(spec, penguins))


SCATTER_CHART = b'{"type":"scatter","x":"flipper_length_mm","y":"bill_length_mm"}'


def test_checklist_on_manual_scatter_text(penguins):
    report = checklist_score(SCATTER_MANUAL_TEXT, penguin_summary(penguins, SCATTER_CHART))
    assert report.has_type
    assert report.has_axes
    assert report.has_scale
    assert report.has_meaning
    assert report.complete


def test_checklist_empty_text(penguins):
    report = checklist_score("", penguin_summary(penguins, SCATTER_CHART))
    assert not (report.has_type or report.has_axes or report.has_scale or report.has_meaning)


def test_checklist_type_only(penguins):
    summary = penguin_summary(penguins, b'{"type":"bar","x":"species"}')
    report = checklist_score("bar chart", summary)
    assert report.has_type
    assert not report.has_axes and not report.has_scale and not report.has_meaning


def test_generated_alt_passes_own_checklist(penguins, fixtures_dir):
    for name in ("penguins_bar.json", "penguins_scatter.json", "penguins_box.json",
                 "penguins_hist.json"):
        summary = laid_out(load_fixture_spec(name), penguins).summary
        report = checklist_score(auto_alt(summary), summary)
        assert report.has_type, name
        assert report.has_axes, name


def test_generated_alt_checklist_line_and_single_box(penguins):
    from polyrep.chartspec import inline_dataset

    line_spec = parse_spec(b'{"chart":{"type":"line","x":"x","y":"y"}}')
    line_data = inline_dataset({"x": [1, 2, 3], "y": [3, 1, 2]})
    summary = laid_out(line_spec, line_data).summary
    report = checklist_score(auto_alt(summary), summary)
    assert report.has_type and report.has_axes

    box_spec = parse_spec(b'{"chart":{"type":"boxplot","x":"body_mass_g"}}')
    summary = laid_out(box_spec, penguins).summary
    report = checklist_score(auto_alt(summary), summary)
    assert report.has_type and report.has_axes


# -- join rule ---------------------------------------------------------------


@given(st.lists(st.text(st.characters(whitelist_categories=("Ll",)), min_size=1,
                        max_size=5), min_size=1, max_size=8))
def test_join_rule_counts(labels):
    joined = join_labels(labels)
    if len(labels) >= 2:
        assert joined.count(" and ") >= 1
        assert joined.count(", ") == max(len(labels) - 2, 0)
    else:
        assert joined == labels[0]
