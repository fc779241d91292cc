from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import laid_out
from polyrep.chartspec import (MAX_BINS, ChartValues, bind, inline_dataset, load_dataset,
                               parse_spec)
from polyrep.dataset import Column, Dataset
from polyrep.errors import DataError, SpecError


def test_minimal_bar_spec_defaults():
    spec = parse_spec(b'{"chart":{"type":"bar","x":"species"}}')
    assert spec.chart_type == "bar"
    assert spec.x == "species"
    assert spec.title is None
    assert spec.palette.name == "okabe-ito"
    assert len(spec.palette) == 8
    assert spec.encodings.color is True
    assert spec.encodings.shape is False  # bar has no point marks
    assert spec.encodings.facet is False


def test_scatter_defaults_shape_on():
    spec = parse_spec(b'{"chart":{"type":"scatter","x":"a","y":"b"}}')
    assert spec.encodings.shape is True
    assert spec.encodings.linetype is False


def test_line_defaults_linetype_on():
    spec = parse_spec(b'{"chart":{"type":"line","x":"a","y":"b"}}')
    assert spec.encodings.linetype is True
    assert spec.encodings.shape is False


def test_scatter_requires_x_and_y():
    with pytest.raises(SpecError, match="requires x and y"):
        parse_spec(b'{"chart":{"type":"scatter"}}')


def test_unknown_chart_type():
    with pytest.raises(SpecError, match="unknown chart type"):
        parse_spec(b'{"chart":{"type":"pie","x":"a"}}')


def test_explicit_palette_passthrough():
    spec = parse_spec(
        b'{"chart":{"type":"bar","x":"s"},"palette":["#E69F00","#56B4E9"]}'
    )
    assert len(spec.palette) == 2
    assert spec.palette[0].to_hex() == "#E69F00"
    assert spec.palette[1].to_hex() == "#56B4E9"


def test_bad_palette_entry():
    with pytest.raises(SpecError, match="palette"):
        parse_spec(b'{"chart":{"type":"bar","x":"s"},"palette":["nope"]}')


def test_surrogate_pairs_and_escaped_backslashes_are_text():
    # only a lone surrogate is refused: a pair is the character it encodes,
    # and an escaped backslash before "ud800" is plain text
    spec = parse_spec(rb'{"title":"\ud83d\ude00 \\ud800","chart":{"type":"bar","x":"s"}}')
    assert spec.title == "\U0001f600 \\ud800"


def test_bins_only_for_histograms():
    with pytest.raises(SpecError, match="bins"):
        parse_spec(b'{"chart":{"type":"bar","x":"s","bins":3}}')
    spec = parse_spec(b'{"chart":{"type":"histogram","x":"v","bins":4}}')
    assert spec.bins == 4


def test_bins_at_most_max_bins():
    def spec(bins: int) -> bytes:
        return b'{"chart":{"type":"histogram","x":"v","bins":%d}}' % bins

    assert parse_spec(spec(MAX_BINS)).bins == MAX_BINS
    with pytest.raises(SpecError, match=f"^bins must be at most {MAX_BINS}, or the bars"):
        parse_spec(spec(MAX_BINS + 1))


@settings(max_examples=50, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6),
       inner=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_max_bins_bars_are_wider_than_their_stroke(lo, width, inner):
    # the bars span the data range, which the 5% padding of the x domain
    # leaves at 1 / 1.1 of the plot
    values = [lo, lo + width, *(lo + t * width for t in inner)]
    spec = parse_spec(json.dumps({
        "data": {"inline": {"v": values}},
        "chart": {"type": "histogram", "x": "v", "bins": MAX_BINS},
    }).encode())
    scene = laid_out(spec, load_dataset(spec))
    assert len(scene.marks) == MAX_BINS
    assert min(mark.w for mark in scene.marks) >= 1.5


def test_group_only_for_point_and_line():
    with pytest.raises(SpecError, match="group"):
        parse_spec(b'{"chart":{"type":"bar","x":"s","group":"g"}}')


def test_metadata_and_alt():
    spec = parse_spec(
        b'{"title":"T","subtitle":"S","caption":"C","alt":"manual",'
        b'"chart":{"type":"bar","x":"s"}}'
    )
    assert (spec.title, spec.subtitle, spec.caption) == ("T", "S", "C")
    assert spec.manual_alt == "manual"


_SCATTER = {"data": {"inline": {"x": [1], "y": [2]}},
            "chart": {"type": "scatter", "x": "x", "y": "y"}}


def _with(path: tuple[str, ...], key: str, value) -> bytes:
    """The scatter spec with `key` set in the object at `path`."""
    doc = json.loads(json.dumps(_SCATTER))
    obj = doc
    for name in path:
        obj = obj.setdefault(name, {})
    obj[key] = value
    return json.dumps(doc).encode()


# one typo per object, and keys that belong in another object
_UNKNOWN_KEYS = [
    ((), "titel", "unknown key 'titel' in the top level; did you mean 'title'?"),
    ((), "encoding", "unknown key 'encoding' in the top level; did you mean 'encodings'?"),
    (("chart",), "grup", "unknown key 'grup' in \"chart\"; did you mean 'group'?"),
    (("data",), "cvs", "unknown key 'cvs' in \"data\"; did you mean 'csv'?"),
    (("encodings",), "colour", "unknown key 'colour' in \"encodings\"; did you mean 'color'?"),
    (("chart",), "facet", "unknown key 'facet' in \"chart\"; 'facet' belongs in \"encodings\""),
    ((), "group", "unknown key 'group' in the top level; 'group' belongs in \"chart\""),
    (("chart",), "title", "unknown key 'title' in \"chart\"; 'title' belongs in the top level"),
    (("encodings",), "zzz", "unknown key 'zzz' in \"encodings\"; expected one of "
                            "'color', 'facet', 'linetype', 'shape'"),
]


@pytest.mark.parametrize("path,key,message", _UNKNOWN_KEYS,
                         ids=[".".join((*path, key)) for path, key, _ in _UNKNOWN_KEYS])
def test_unknown_key_names_the_key_meant(path, key, message):
    with pytest.raises(SpecError) as exc:
        parse_spec(_with(path, key, True))
    assert str(exc.value) == message


def test_inline_column_names_are_not_keys():
    spec = parse_spec(_with(("data", "inline"), "grup", [3]))
    assert spec.data.inline["grup"] == [3]


def test_every_documented_key_parses():
    spec = parse_spec(json.dumps({
        "title": "T", "subtitle": "S", "caption": "C", "alt": "A", "palette": "okabe-ito",
        "data": {"csv": "d.csv"},
        "chart": {"type": "histogram", "x": "v", "bins": 3, "sort_order": "alpha"},
        "encodings": {"color": True, "shape": True, "linetype": True, "facet": False},
    }).encode())
    assert (spec.title, spec.bins, spec.data.csv_path) == ("T", 3, "d.csv")


def test_invalid_json_rejected():
    with pytest.raises(SpecError, match="JSON"):
        parse_spec(b"{nope")


def test_bind_missing_column(penguins):
    spec = parse_spec(b'{"chart":{"type":"bar","x":"nope"}}')
    with pytest.raises(SpecError, match="not in the dataset"):
        bind(spec, penguins)


def test_bind_kind_mismatch(penguins):
    spec = parse_spec(b'{"chart":{"type":"bar","x":"body_mass_g"}}')
    with pytest.raises(SpecError, match="histogram"):
        bind(spec, penguins)
    spec = parse_spec(
        b'{"chart":{"type":"scatter","x":"species","y":"body_mass_g"}}'
    )
    with pytest.raises(SpecError, match="numeric"):
        bind(spec, penguins)


def test_bind_boxplot_shapes(penguins):
    grouped = parse_spec(
        b'{"chart":{"type":"boxplot","x":"species","y":"body_mass_g"}}'
    )
    bind(grouped, penguins)
    single = parse_spec(b'{"chart":{"type":"boxplot","x":"body_mass_g"}}')
    bind(single, penguins)
    with pytest.raises(SpecError):
        bind(parse_spec(b'{"chart":{"type":"boxplot","x":"species"}}'), penguins)


@pytest.mark.parametrize("groups,values", [
    (["a", "b", "a", "b"], [1, 2, 3, 4]),
    (["a", None, "a", "b"], [1, 2, 3, 4]),
    (["a", "b", "a", "b"], [1, None, None, 4]),
    (["a", None, None, "b", "a", "b"], [1, 2, None, None, 5, 6]),  # row 3 lacks both
], ids=["none", "group-only", "value-only", "both"])
def test_box_plot_drops_each_incomplete_row_once(groups, values):
    spec = parse_spec(b'{"chart":{"type":"boxplot","x":"g","y":"v"}}')
    bound = bind(spec, inline_dataset({"g": groups, "v": values}))
    assert bound.dropped_rows == sum(g is None or v is None for g, v in zip(groups, values))


def test_bar_with_no_category_has_nothing_to_draw():
    # only reachable from Python: the CLI never types an all-missing column
    # as categorical
    spec = parse_spec(b'{"chart":{"type":"bar","x":"s"}}')
    data = Dataset({"s": Column("categorical", (None, None))}, 2)
    with pytest.raises(DataError, match="^nothing to draw: no non-missing values$"):
        bind(spec, data)


@pytest.mark.parametrize(
    "values,points",
    [
        (ChartValues(0, rows=((2.0, 5.0, "b"), (1.0, 3.0, "a"), (4.0, 1.0, "b"))),
         ((2.0, 1.0, 4.0), (5.0, 3.0, 1.0))),
        (ChartValues(0, bars=(("x", 3), ("y", 1))), ((0.0, 1.0), (3.0, 1.0))),
        (ChartValues(0, bins=((0.0, 2.0, 4), (2.0, 4.0, 1))), ((1.0, 3.0), (4.0, 1.0))),
    ],
    ids=["rows-in-data-order", "bars", "bins"],
)
def test_points_are_what_the_chart_plays(values, points):
    assert values.points == points
    assert values.points is values.points  # built once


def test_fit_reads_the_points():
    fit = ChartValues(0, bars=(("a", 1), ("b", 3), ("c", 5))).fit()
    assert (fit.slope, fit.intercept, fit.n) == (2.0, 1.0, 3)
    with pytest.raises(DataError, match="need at least 2 complete pairs"):
        ChartValues(0, bars=(("only", 3),)).fit()
    with pytest.raises(DataError, match="degenerate"):
        ChartValues(0, rows=((1.0, 2.0, None), (1.0, 3.0, None))).fit()


def test_inline_dataset_typing():
    ds = inline_dataset({"x": [1, 2, None], "s": ["a", None, "b"]})
    assert ds.columns["x"].kind == "numeric"
    assert ds.columns["x"].values == (1.0, 2.0, None)
    assert ds.columns["s"].kind == "categorical"
    assert ds.n_rows == 3


def test_inline_dataset_mixed_rejected():
    with pytest.raises(SpecError, match="mixes"):
        inline_dataset({"x": [1, "a"]})


# a value the inline data cannot hold is refused with its column and the fix
@pytest.mark.parametrize("values,message", [
    (["a", "NA"], "inline column 'c' holds 'NA'; use null for a missing value"),
    (["a", ""], "inline column 'c' holds ''; use null for a missing value"),
    ([1, "NA"], "inline column 'c' holds 'NA'; use null for a missing value"),
    ([1, 2, True], "inline column 'c' holds true; use a number, a string or null"),
    ([1, [2]], "inline column 'c' holds [2]; use a number, a string or null"),
    (["a", {}], "inline column 'c' holds {}; use a number, a string or null"),
    ([1, 10**400], "inline column 'c' holds an integer too large for a double; rescale it"),
])
def test_inline_dataset_names_the_column_and_the_fix(values, message):
    with pytest.raises(SpecError) as exc:
        inline_dataset({"ok": [None] * len(values), "c": values})
    assert str(exc.value) == message


def test_inline_dataset_ragged_rejected():
    with pytest.raises(SpecError, match="expected"):
        inline_dataset({"x": [1], "y": [1, 2]})


def test_load_dataset_csv_path(fixtures_dir):
    spec = parse_spec(
        b'{"data":{"csv":"penguins.csv"},"chart":{"type":"bar","x":"species"}}'
    )
    data = load_dataset(spec, base_dir=fixtures_dir)
    assert data.n_rows == 344
    assert list(data.columns) == ["species"]  # only the bound columns are typed


def test_load_dataset_without_data_section():
    spec = parse_spec(b'{"chart":{"type":"bar","x":"s"}}')
    with pytest.raises(SpecError, match="data"):
        load_dataset(spec)
