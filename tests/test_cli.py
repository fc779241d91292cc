from __future__ import annotations

import json
import os
import subprocess
import sys
import wave
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_BAR_BLOCK, laid_out, patch_everywhere
from golden import CASES
from oracles import read_wav_oracle, validate_pdf
from polyrep import cli
from polyrep.chartspec import load_dataset, parse_spec
from polyrep.cli import build_parser, main

TOP_HELP = """\
usage: polyrep [-h] [--version] command ...

Render one chart spec into coordinated accessible representations: SVG, alt
text, audio, tactile PDF.

positional arguments:
  command
    render       write an SVG chart plus its .alt.txt sidecar
    cvd-grid     write a four-panel color-deficiency simulation SVG
    alt          print generated alt text
    sonify       write a stereo sonification WAV
    tactile      write an emboss-ready tactile PDF
    audit-palette
                 check palette distinguishability under CVD simulation

options:
  -h, --help     show this help message and exit
  --version      show program's version number and exit
"""

TACTILE_HELP = """\
usage: polyrep tactile [-h] [-o OUTPUT] [--paper {letter,a4,braille11x11}]
                       [--preview]
                       spec

positional arguments:
  spec                  chart spec JSON file

options:
  -h, --help            show this help message and exit
  -o OUTPUT, --output OUTPUT
                        output PDF path (default: <spec>.pdf)
  --paper {letter,a4,braille11x11}
                        page size (default letter)
  --preview             also write a sighted-verification SVG next to the PDF
"""

def test_help_golden():
    assert build_parser().format_help() == TOP_HELP


@pytest.mark.parametrize("argv,text", [(["--help"], TOP_HELP),
                                       (["tactile", "--help"], TACTILE_HELP)],
                         ids=["top", "tactile"])
def test_help_flag_prints_golden(capsys, argv, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == text


def test_tactile_rejects_unknown_paper(workdir, capsys):
    assert main(["tactile", "lin.json", "--paper", "b5"]) == 1
    assert capsys.readouterr().err == (
        "polyrep: error[spec]: argument --paper: invalid choice: 'b5' "
        "(choose from 'letter', 'a4', 'braille11x11')\n"
    )
    assert not Path("lin.pdf").exists()


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_command_parser_built_alone_matches_full_tree(name):
    alone = _subparsers(build_parser(name))
    assert list(alone) == [name]
    assert alone[name].format_help() == _subparsers(build_parser())[name].format_help()


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and --version
        code = exc.code
    return code, *capsys.readouterr()


# a command's argv builds only its parser; any other builds every parser
@pytest.mark.parametrize("argv", [
    ["render"], ["render", "a.json", "--version"], ["sonify", "x.json", "--mode", "bogus"],
    ["sonify", "x.json", "--duration", "abc"], ["tactile", "x.json", "--paper", "b5"],
    ["alt", "x.json", "--nope"], ["rend", "x.json"], ["--version"], ["--help"], [],
], ids=str)
def test_lazy_parser_answers_as_the_full_tree(workdir, capsys, monkeypatch, argv):
    lazy = _outcome(argv, capsys)
    full_tree = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_tree())
    assert lazy == _outcome(argv, capsys)


def test_help_enumerates_every_flag():
    subparsers = _subparsers(build_parser())
    assert set(subparsers) == {
        "render", "cvd-grid", "alt", "sonify", "tactile", "audit-palette",
    }
    for name, sub in subparsers.items():
        text = sub.format_help()
        for action in sub._actions:
            for flag in action.option_strings:
                assert flag in text, (name, flag)


def test_render_writes_svg_and_sidecar(workdir, capsys):
    assert main(["render", "penguins_bar.json", "-o", "bar.svg"]) == 0
    out = capsys.readouterr().out
    assert "wrote bar.svg" in out
    svg = Path("bar.svg").read_bytes()
    assert svg.startswith(b"<?xml")
    sidecar = Path("bar.svg.alt.txt").read_text(encoding="utf-8")
    assert sidecar == GOLDEN_BAR_BLOCK


def test_alt_prints_block(workdir, capsys):
    assert main(["alt", "penguins_bar.json"]) == 0
    assert capsys.readouterr().out == GOLDEN_BAR_BLOCK


@pytest.mark.parametrize("name", ["lin", "penguins_bar", "penguins_box",
                                  "penguins_hist", "penguins_scatter", "grouped_line"])
def test_alt_never_lays_out_marks(workdir, capsys, monkeypatch, name):
    # alt reads the bound values and their summary: the same text as the
    # sidecar render writes, with every mark builder refusing to run
    if name == "grouped_line":
        Path(f"{name}.json").write_text(json.dumps(CASES[name]), encoding="utf-8")
    assert main(["render", f"{name}.json", "-o", "r.svg"]) == 0
    capsys.readouterr()

    def no_marks(*args, **kwargs):
        raise AssertionError("marks laid out")

    for builder in ("_layout_bar", "_layout_histogram", "_layout_boxplot",
                    "_layout_points", "_series_marks"):
        monkeypatch.setattr(f"polyrep.scene.{builder}", no_marks)
    assert main(["alt", f"{name}.json"]) == 0
    assert capsys.readouterr().out == Path("r.svg.alt.txt").read_text(encoding="utf-8")


def test_alt_json(workdir, capsys):
    assert main(["alt", "penguins_bar.json", "--json"]) == 0
    sentences = json.loads(capsys.readouterr().out)
    assert sentences[0] == "This is an untitled chart with no subtitle or caption."
    assert len(sentences) == 7


def test_cvd_grid_output(workdir, capsys):
    assert main(["cvd-grid", "penguins_scatter.json", "-o", "grid.svg"]) == 0
    raw = Path("grid.svg").read_bytes()
    assert b"panel-deutan" in raw and b"panel-desaturate" in raw
    sidecar = Path("grid.svg.alt.txt").read_text(encoding="utf-8")
    assert sidecar.startswith(
        "Color vision deficiency simulation grid with four panels: "
        "Deutan, Protan, Tritan and Desaturated.\n"
    )
    assert "It has x-axis 'flipper_length_mm'" in sidecar


def test_sonify_regression_mode(workdir, capsys):
    assert main(["sonify", "lin.json", "--mode", "regression", "-o", "fit.wav"]) == 0
    with wave.open("fit.wav") as w:
        assert w.getnframes() == 220500
        assert w.getnchannels() == 2
        assert w.getframerate() == 44100


def test_sonify_flags(workdir):
    assert main(["sonify", "lin.json", "-o", "s.wav", "--duration", "1",
                 "--rate", "22050", "--fmin", "300", "--fmax", "600"]) == 0
    with wave.open("s.wav") as w:
        assert w.getnframes() == 22050
        assert w.getframerate() == 22050


@pytest.mark.parametrize("duration", ["inf", "nan", "0"])
def test_sonify_refuses_a_duration_no_wav_can_hold(workdir, capsys, duration):
    assert main(["sonify", "lin.json", "--duration", duration, "-o", "d.wav"]) == 1
    assert capsys.readouterr().err == (
        f"polyrep: error[data]: duration must be positive and finite, got {float(duration)}\n"
    )
    assert not Path("d.wav").exists()


@pytest.mark.parametrize("name", ["penguins_bar", "penguins_hist"])
def test_sonify_plays_bars_and_bins_without_categorical(workdir, name):
    # the flag is still accepted, and changes nothing
    assert main(["sonify", f"{name}.json", "-o", "plain.wav"]) == 0
    assert main(["sonify", f"{name}.json", "--categorical", "-o", "flag.wav"]) == 0
    assert Path("plain.wav").read_bytes() == Path("flag.wav").read_bytes()


def test_sonify_box_gets_no_categorical_hint(workdir, capsys):
    # a box plot is the one chart sonify refuses, and no flag admits it
    assert main(["sonify", "penguins_box.json", "-o", "box.wav"]) == 1
    assert capsys.readouterr().err == "polyrep: error[data]: cannot sonify a boxplot chart\n"


def test_tactile_with_preview(workdir, capsys):
    assert main(["tactile", "penguins_box.json", "-o", "box.pdf", "--preview"]) == 0
    validate_pdf(Path("box.pdf").read_bytes())
    capsys.readouterr()
    assert main(["alt", "penguins_box.json"]) == 0
    desc = ET.parse("box.preview.svg").find("{http://www.w3.org/2000/svg}desc")
    assert desc.text + "\n" == capsys.readouterr().out  # the chart's alt text


def test_tactile_preview_of_the_densest_fixture_page_parses(workdir):
    # the scatter's title fits only braille11x11, whose preview outlines
    # every glyph of the page
    assert main(["tactile", "penguins_scatter.json", "--paper", "braille11x11",
                 "--preview", "-o", "t.pdf"]) == 0
    ET.parse("t.preview.svg")


def test_tactile_paper_a4(workdir):
    assert main(["tactile", "penguins_box.json", "-o", "box.pdf",
                 "--paper", "a4"]) == 0
    mb = validate_pdf(Path("box.pdf").read_bytes())["media_box"]
    assert abs(mb[2] - 595.28) < 0.5 and abs(mb[3] - 841.89) < 0.5


def _tactile_error(name: str, capsys, *flags: str) -> str:
    assert main(["tactile", name, *flags, "-o", "t.pdf"]) == 1
    assert not Path("t.pdf").exists()
    return capsys.readouterr().err


def test_tactile_title_too_long_error(workdir, capsys):
    assert _tactile_error("penguins_scatter.json", capsys) == (
        "polyrep: error[tactile]: title is too long for the page at braille "
        "size; abbreviate it to fewer characters\n"
    )


def test_tactile_labels_overlap_error(workdir, capsys):
    # the 20-letter category label reaches under the count ticks, so that
    # pushing them left cannot clear it; a count can be neither abbreviated
    # nor rescaled, so the category is, or braille11x11 paper sets the page
    spec = {"data": {"inline": {"c": ["abcdefghijklmnopqrst"] * 150}},
            "chart": {"type": "bar", "x": "c"}}
    Path("crowded.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("crowded.json", capsys) == (
        "polyrep: error[tactile]: braille labels overlap even after "
        "displacement; abbreviate the labels or use a larger --paper\n"
    )


def test_tactile_number_labels_overlap_error(workdir, capsys):
    # the 17-digit x label cannot be pushed clear of its neighbours on letter
    # or a4, and can on the wider braille11x11
    spec = _scatter_spec({"x": [0, 1e16, 1], "y": [1, 2, 3]})
    Path("far.json").write_text(json.dumps(spec), encoding="utf-8")
    for paper in ("letter", "a4"):
        assert _tactile_error("far.json", capsys, "--paper", paper) == (
            "polyrep: error[tactile]: braille labels overlap even after "
            "displacement; rescale column 'x' or use a larger --paper\n"
        )
    assert main(["tactile", "far.json", "--paper", "braille11x11", "-o", "t.pdf"]) == 0


def test_tactile_overlap_error_names_the_axis_that_sets_the_gutter(workdir, capsys):
    # the 19-digit y labels widen the left gutter until the x labels crowd
    # on a4 (and the y labels on letter): the fix is the y column's either
    # way, the axis a too-wide label error would name
    spec = _scatter_spec({"x": [1, 2, 3], "y": [0, 1e18, 1]})
    Path("tall.json").write_text(json.dumps(spec), encoding="utf-8")
    for paper in ("letter", "a4"):
        assert _tactile_error("tall.json", capsys, "--paper", paper) == (
            "polyrep: error[tactile]: braille labels overlap even after "
            "displacement; rescale column 'y' or use a larger --paper\n"
        )
    assert main(["tactile", "tall.json", "--paper", "braille11x11", "-o", "t.pdf"]) == 0


def test_tactile_x_title_margin_error(workdir, capsys):
    # the wide y labels push the plot, and the title centered on it, right
    name = "abcdefghijklmnopqrstuvwx"
    spec = {"data": {"inline": {name: [1, 2, 3], "y": [100000, 200000, 150000]}},
            "chart": {"type": "scatter", "x": name, "y": "y"}}
    Path("wide.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("wide.json", capsys) == (
        f"polyrep: error[tactile]: x-axis title '{name}' does not fit in the "
        "margin; abbreviate it\n"
    )


def test_tactile_y_label_margin_error(workdir, capsys, monkeypatch):
    """The left gutter is sized from the y labels' braille, so a y label
    overflows the margin only if it is set wider than it was measured: the
    y tick label '150' grows by 20 cells after its first translation."""
    import polyrep.tactile as tactile

    translate = tactile.to_braille
    measured = set()

    def widening(text):
        cells = translate(text)
        if text == "150":
            if text in measured:
                cells = cells + translate("0" * 20)
            measured.add(text)
        return cells

    monkeypatch.setattr(tactile, "to_braille", widening)
    assert _tactile_error("penguins_bar.json", capsys) == (
        "polyrep: error[tactile]: y label '150' does not fit in the margin; "
        "abbreviate it\n"
    )


def test_audit_palette_pass_and_fail_exit_codes(workdir, capsys):
    assert main(["audit-palette", "#E69F00,#56B4E9,#009E73"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    # two nearly identical colors must fail the audit
    assert main(["audit-palette", "#808080,#828282"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_audit_palette_refuses_a_threshold_no_deltae_meets(capsys, threshold):
    assert main(["audit-palette", "okabe-ito", f"--threshold={threshold}"]) == 1
    assert capsys.readouterr() == (
        "", f"polyrep: error[data]: threshold must be a finite deltaE, got {threshold}\n")


def test_audit_palette_json(workdir, capsys):
    assert main(["audit-palette", "okabe-ito", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True and len(doc["colors"]) == 8


# a spec's "palette" and audit-palette's colors read one spelling alike: the
# name with the spaces around it stripped and its case ignored, or the colors
@pytest.mark.parametrize("spec_palette, colors", [
    ("okabe-ito", "okabe-ito"),
    (" Okabe-Ito ", " Okabe-Ito "),
    ("OKABE-ITO", "OKABE-ITO"),
    (["#E69F00", " #56b4e9", "009E73"], "#E69F00, #56b4e9,009E73"),
], ids=["name", "spaced-title-case", "upper-case", "colors"])
def test_spec_and_audit_palette_read_a_palette_alike(capsys, spec_palette, colors):
    spec = parse_spec(json.dumps({"chart": {"type": "bar", "x": "s"},
                                  "palette": spec_palette}).encode())
    assert main(["audit-palette", colors, "--json"]) == 0
    audited = json.loads(capsys.readouterr().out)["colors"]
    assert audited == [color.to_hex() for color in spec.palette.colors]


def test_audit_palette_no_color_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("POLYREP_NO_COLOR", "1")
    main(["audit-palette", "okabe-ito"])
    assert "\x1b[" not in capsys.readouterr().out


def test_unknown_flag_exits_1(workdir, capsys):
    assert main(["render", "penguins_bar.json", "--nope"]) == 1
    assert "error[spec]" in capsys.readouterr().err


def test_missing_file_exits_2(workdir, capsys):
    assert main(["render", "missing.json"]) == 2
    assert "error[io]" in capsys.readouterr().err


def test_bind_error_exits_1(workdir, capsys):
    Path("bad.json").write_text(
        '{"data":{"csv":"penguins.csv"},"chart":{"type":"bar","x":"nope"}}'
    )
    assert main(["render", "bad.json"]) == 1
    assert "error[spec]" in capsys.readouterr().err


CHART_COMMANDS = ("render", "cvd-grid", "alt", "sonify", "tactile")


def _scatter_spec(inline: dict, **chart) -> dict:
    return {"data": {"inline": inline},
            "chart": {"type": "scatter", "x": "x", "y": "y", **chart}}


@pytest.mark.parametrize(
    "spec,message",
    [
        (_scatter_spec({"x": [1, 2], "y": [3, 4]}, x="nope"),
         "x column 'nope' is not in the dataset"),
        (_scatter_spec({"x": [1, 2], "y": [3, 4], "g": [5, 6]}, group="g"),
         "group column must be categorical"),
        ({"data": {"inline": {"s": ["a", "b"]}}, "chart": {"type": "bar", "x": "nope"}},
         "x column 'nope' is not in the dataset"),
        ({"data": {"inline": {"v": [1, 2]}}, "chart": {"type": "histogram", "x": "nope"}},
         "x column 'nope' is not in the dataset"),
        ({"data": {"inline": {"s": ["a", "NA"]}}, "chart": {"type": "bar", "x": "s"}},
         "inline column 's' holds 'NA'; use null for a missing value"),
        (_scatter_spec({"x": [1, 2, True], "y": [3, 4, 5]}),
         "inline column 'x' holds true; use a number, a string or null"),
        (_scatter_spec({"x": [1, 10**400], "y": [3, 4]}),
         "inline column 'x' holds an integer too large for a double; rescale it"),
        (_scatter_spec({"x": [1, 2], "y": [3, 4]}, grup="g"),
         "unknown key 'grup' in \"chart\"; did you mean 'group'?"),
        ({**_scatter_spec({"x": [1, 2], "y": [3, 4]}), "palette": [5, "#000000"]},
         "bad palette entry: expected #RRGGBB hex color, got 5"),
        ({**_scatter_spec({"x": [1, 2], "y": [3, 4]}), "title": "a\ud800b"},
         "spec holds the lone surrogate '\\ud800'; remove it or complete its pair"),
        (_scatter_spec({"x": [1, 2], "y": [3, 4], "g\udfff": ["a", "b"]}),
         "spec holds the lone surrogate '\\udfff'; remove it or complete its pair"),
    ],
    ids=["missing-column", "numeric-group", "bar-missing-column",
         "histogram-missing-column", "inline-missing-token", "inline-boolean",
         "inline-huge-integer", "misspelled-key", "non-string-palette-entry",
         "lone-surrogate-value", "lone-surrogate-key"],
)
@pytest.mark.parametrize("command", CHART_COMMANDS)
def test_chart_commands_reject_unbound_spec_alike(workdir, capsys, command, spec,
                                                  message):
    Path("bad.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "bad.json"]) == 1
    assert capsys.readouterr().err == f"polyrep: error[spec]: {message}\n"


def _long_csv(header: str, record, late) -> str:
    """A header and records 2 to 20,000, `record(i)` each, except that
    record 15,000, in a later chunk of the parser than the first records,
    is `late` of its record."""
    rows = [header] + [record(i) for i in range(2, 20001)]
    rows[14999] = late(rows[14999])
    return "\n".join(rows) + "\n"


DEEP_RAGGED_CSV = _long_csv("a,b,c", lambda i: f"{i},{i % 7},{i / 3:.3f}", lambda r: r + ",9")
# v is a number in every record but 15,000, a later chunk than its first numbers
LATE_WORD_CSV = _long_csv("v", lambda i: str(i % 5), lambda r: "word")


# CSV text that cannot be bound is refused by every mode with one line,
# naming the record it is in
@pytest.mark.parametrize("csv,chart,line", [
    ("a,b,c\n1,2,3,4\n5,6\n", {"type": "bar", "x": "a"},
     "error[csv]: row 2: expected 3 fields, found 4"),
    ('a,b,c\n1,"2",3,4\n5,6\n', {"type": "bar", "x": "a"},
     "error[csv]: row 2: expected 3 fields, found 4"),
    (DEEP_RAGGED_CSV, {"type": "histogram", "x": "c"},
     "error[csv]: row 15000: expected 3 fields, found 4"),
    ("s\nAdelie\n" + "x" * 131073 + "\n", {"type": "bar", "x": "s"},
     "error[csv]: row 3: field larger than field limit (131072)"),
    (LATE_WORD_CSV, {"type": "histogram", "x": "v"},
     "error[spec]: histogram needs numeric x"),
], ids=["ragged", "ragged-quoted", "ragged-past-the-first-chunk", "overlong-field",
        "late-word"])
@pytest.mark.parametrize("command", CHART_COMMANDS)
def test_chart_commands_refuse_an_unbindable_csv_alike(workdir, capsys, command,
                                                       csv, chart, line):
    Path("bad.csv").write_text(csv, encoding="utf-8")
    spec = {"data": {"csv": "bad.csv"}, "chart": chart}
    Path("bad.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "bad.json"]) == 1
    assert capsys.readouterr() == ("", f"polyrep: {line}\n")
    assert sorted(p.name for p in Path().glob("bad.*")) == ["bad.csv", "bad.json"]


def test_a_late_word_makes_its_column_categorical(workdir, capsys):
    Path("late.csv").write_text(LATE_WORD_CSV, encoding="utf-8")
    spec = {"data": {"csv": "late.csv"}, "chart": {"type": "bar", "x": "v"}}
    Path("late.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["alt", "late.json"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "It has x-axis 'v' with labels 2, 3, 4, 0, 1 and word.")


# a character that XML cannot hold (each text's second) is refused by the
# commands that write an SVG, which then write no file; alt prints it
@pytest.mark.parametrize("spec,text", [
    ({**_scatter_spec({"x": [1, 2], "y": [3, 4]}), "title": "a\x01b"}, "a\x01b"),
    (_scatter_spec({"x": [1, 2], "y": [3, 4], "g": ["a\x02", "b"]}, group="g"), "a\x02"),
    ({"data": {"csv": "bad.csv"}, "chart": {"type": "bar", "x": "c"}}, "a\x03"),
], ids=["title", "group-level", "csv-category"])
@pytest.mark.parametrize("command", ("render", "cvd-grid"))
def test_svg_commands_refuse_a_character_xml_cannot_hold(workdir, capsys, command,
                                                         spec, text):
    Path("bad.csv").write_text("c\na\x03\nb\n", encoding="utf-8")
    Path("bad.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "bad.json", "-o", "bad.svg"]) == 1
    assert capsys.readouterr() == ("", f"polyrep: error[data]: text {text!r} holds "
                                       f"{text[1]!r}, which an SVG cannot hold; remove it\n")
    assert not list(Path().glob("bad.svg*"))
    assert main(["alt", "bad.json"]) == 0
    assert text in capsys.readouterr().out


def test_fit_with_overflowing_sums_states_no_trend(workdir, capsys):
    spec = _scatter_spec({"x": [0, 1e155, 1], "y": [1, 2, 3]})
    Path("far.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["alt", "far.json"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and "The chart is a scatter plot with 3 points." in out.out
    assert "Overall" not in out.out  # as for a constant x
    assert main(["render", "far.json", "-o", "far.svg"]) == 0
    assert main(["sonify", "far.json", "--mode", "regression", "-o", "far.wav"]) == 1
    assert capsys.readouterr().err == (
        "polyrep: error[data]: the fit's sums overflow a double; rescale x or y\n"
    )
    assert not Path("far.wav").exists()


# a chart whose values cannot be drawn is refused by every mode that draws,
# describes or plays it, so the alt text and the audio never speak of a
# chart nothing draws
@pytest.mark.parametrize(
    "spec,line",
    [
        (_scatter_spec({"x": list(range(12)), "y": list(range(12)),
                        "g": [f"level{i}" for i in range(12)]}, group="g"),
         "error[spec]: 12 group levels exceed the palette's 8 colors"),
        (_scatter_spec({"x": [1e300, 1e300], "y": [1, 2]}),
         "error[data]: degenerate scale domain"),
        (_scatter_spec({"x": [-8.5e307, 8.5e307, 0], "y": [1, 2, 3]}),
         "error[data]: column 'x' spans too wide a range for an axis; rescale it"),
        (_scatter_spec({"x": [-1e308, 1e308, 0], "y": [1, 2, 3]}),
         "error[data]: column 'x' spans too wide a range for an axis; rescale it"),
        (_scatter_spec({"x": [1e308, 1.79e308, 1.5e308], "y": [1, 2, 3]}),
         "error[data]: column 'x' spans too wide a range for an axis; rescale it"),
        ({"data": {"inline": {"v": [-1e308, 1e308]}},
          "chart": {"type": "histogram", "x": "v"}},
         "error[data]: column 'v' spans too wide a range for 2 bins; rescale it"),
    ],
    ids=["too-many-levels", "unwidenable-domain", "unsteppable-axis", "overflowing-axis",
         "overflowing-padding", "unbinnable-histogram"],
)
@pytest.mark.parametrize("command", ("render", "cvd-grid", "alt", "sonify", "tactile"))
def test_chart_commands_refuse_an_undrawable_chart_alike(workdir, capsys, command,
                                                         spec, line):
    Path("bad.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "bad.json"]) == 1
    assert capsys.readouterr() == ("", f"polyrep: {line}\n")
    assert [p.name for p in Path().glob("bad.*")] == ["bad.json"]  # no artifact


# tick labels whose gutters leave the plot no width are named, with what to
# change; a larger paper is offered only when the page builds on one
@pytest.mark.parametrize("spec,paper,label,fix", [
    (_scatter_spec({"x": [0, 1e155, 1], "y": [1, 2, 3]}), "letter",
     "1" + "0" * 155, "rescale column 'x'"),
    # braille11x11 has room for the gutters, but the labels overlap there
    (_scatter_spec({"x": [0, 1e25, 1], "y": [1, 2, 3]}), "letter",
     "1" + "0" * 25, "rescale column 'x'"),
    ({"data": {"inline": {"c": ["a" * 24, "b"]}}, "chart": {"type": "bar", "x": "c"}}, "a4",
     "a" * 24, "abbreviate it or use a larger --paper"),
], ids=["no-paper-fits", "larger-paper-overlaps", "larger-paper"])
def test_tactile_wide_tick_label_error(workdir, capsys, spec, paper, label, fix):
    Path("far.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("far.json", capsys, "--paper", paper) == (
        f"polyrep: error[tactile]: x tick label '{label}' is too wide for the page "
        f"at braille size; {fix}\n"
    )
    assert main(["tactile", "far.json", "--paper", "braille11x11", "-o", "t.pdf"]) == (
        0 if "--paper" in fix else 1)


@pytest.mark.parametrize("x_digits,y_digits,named", [
    (30, 29, "y"),
    (31, 29, "x"),
], ids=["y-sets-the-gutters", "x-sets-the-gutters"])
def test_tactile_wide_labels_on_both_axes_name_the_wider_gutter(
        workdir, capsys, x_digits, y_digits, named):
    # an x label takes half its width from each side gutter, a y label its
    # whole width and more from the left one, so a y label one digit
    # shorter than the x label still takes more of the page's width
    maxima = {"x": "1" + "0" * x_digits, "y": "1" + "0" * y_digits}
    spec = _scatter_spec({axis: [0, float(v), 1] for axis, v in maxima.items()})
    Path("far.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("far.json", capsys) == (
        f"polyrep: error[tactile]: {named} tick label '{maxima[named]}' is too wide "
        f"for the page at braille size; rescale column '{named}'\n"
    )


def test_tactile_wide_category_label_error(workdir, capsys):
    spec = {"data": {"inline": {"c": ["a" * 40, "b"]}}, "chart": {"type": "bar", "x": "c"}}
    Path("wide.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("wide.json", capsys) == (
        f"polyrep: error[tactile]: x tick label '{'a' * 40}' is too wide for the page "
        "at braille size; abbreviate it\n"
    )


def _tones(wav: bytes) -> int:
    """Runs of sound separated by at least 10 ms of silence."""
    frames, rate = read_wav_oracle(wav)
    loud = np.flatnonzero(np.abs(frames).max(axis=1) > 0)
    return int(loud.size > 0) + int(np.count_nonzero(np.diff(loud) > rate // 100))


# the row with no group level is not drawn, so it must not sound either
GAPPED_SCATTER = _scatter_spec(
    {"x": [1, 2, 3, 4, 5], "y": [2, 4, 1, 5, 3], "g": ["a", "b", None, "a", "b"]},
    group="g",
)


@pytest.mark.parametrize(
    "spec,drawn,n_drawn",
    [
        (GAPPED_SCATTER, lambda values: len(values.rows), 4),
        ("penguins_bar.json", lambda values: len(values.bars), 3),
        ("penguins_hist.json", lambda values: len(values.bins), 10),
    ],
    ids=["grouped_scatter", "bar", "histogram"],
)
def test_sonify_plays_the_points_the_chart_draws(workdir, spec, drawn, n_drawn):
    if isinstance(spec, dict):
        Path("g.json").write_text(json.dumps(spec), encoding="utf-8")
        spec = "g.json"
    parsed = parse_spec(Path(spec).read_bytes())
    assert drawn(laid_out(parsed, load_dataset(parsed)).summary.values) == n_drawn
    assert main(["sonify", spec, "-o", "g.wav"]) == 0
    assert _tones(Path("g.wav").read_bytes()) == n_drawn


# sonify refuses a chart type it cannot play before reading its data, so a
# box plot is refused even when a column or the CSV itself is missing, and
# no CSV is parsed
@pytest.mark.parametrize("y,csv", [("body_mass_g", "penguins.csv"),
                                   ("nope", "penguins.csv"),
                                   ("body_mass_g", "no-such.csv")],
                         ids=["body_mass_g", "nope", "no_csv"])
def test_sonify_refuses_a_box_plot_before_binding(workdir, capsys, monkeypatch, y, csv):
    def no_data(*args, **kwargs):
        raise AssertionError("load_dataset called")

    # the command imports load_dataset from chartspec when it runs
    monkeypatch.setattr("polyrep.chartspec.load_dataset", no_data)
    spec = {"data": {"csv": csv},
            "chart": {"type": "boxplot", "x": "species", "y": y}}
    Path("box.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sonify", "box.json", "--categorical", "-o", "box.wav"]) == 1
    assert capsys.readouterr().err == (
        "polyrep: error[data]: cannot sonify a boxplot chart\n"
    )
    assert not Path("box.wav").exists()


# Each command imports only the modules it runs, and only audio needs numpy:
# a fresh process that makes no audio never loads it. The fixtures' CSV is
# too small for the column cache, so no command hashes it or writes there.
COLD_START = """\
import os
import sys
import polyrep.cli

def loaded():
    return {name for name in sys.modules if name.partition(".")[0] == "polyrep"}

assert "numpy" not in sys.modules, "import polyrep.cli"
assert loaded() == {"polyrep", "polyrep.cli", "polyrep.errors"}, loaded()
for argv, unused in (
    (["alt", "penguins_bar.json"], {"svgout", "tactile", "braille", "sonify"}),
    (["render", "penguins_bar.json", "-o", "r.svg"], {"tactile", "braille", "sonify"}),
    (["cvd-grid", "penguins_bar.json", "-o", "g.svg"], {"tactile", "braille", "sonify"}),
    (["tactile", "penguins_bar.json", "-o", "t.pdf"], {"sonify"}),
):
    assert polyrep.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
    assert not loaded() & {f"polyrep.{name}" for name in unused}, (argv, loaded())
assert "hashlib" not in sys.modules and "polyrep.csvcache" not in sys.modules
assert not os.listdir(os.environ["XDG_CACHE_HOME"])
"""

COLD_PALETTE_THEN_AUDIO = """\
import sys
import polyrep.cli

def loaded():
    return {name for name in sys.modules if name.partition(".")[0] == "polyrep"}

before = loaded()
assert polyrep.cli.main(["audit-palette", "okabe-ito"]) == 0
assert loaded() - before == {"polyrep.color"}, loaded() - before
assert polyrep.cli.main(["sonify", "penguins_bar.json", "-o", "s.wav"]) == 0
unused = {"scene", "verbalize", "svgout", "tactile", "braille"}
assert not loaded() & {f"polyrep.{name}" for name in unused}, loaded()
"""


def _fresh_python(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter that imports this checkout's polyrep,
    with the test's environment, so its XDG_CACHE_HOME too."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_non_audio_commands_never_import_numpy(workdir):
    run = _fresh_python(COLD_START, workdir)
    assert run.returncode == 0, run.stderr
    assert {p.name for p in workdir.iterdir()} >= {"r.svg", "g.svg", "t.pdf"}


COLD_ALT = """\
import sys
import polyrep.cli

for chart in ("lin", "penguins_bar", "penguins_box", "penguins_hist", "penguins_scatter"):
    assert polyrep.cli.main(["alt", chart + ".json"]) == 0, chart
assert "polyrep.scene" not in sys.modules, sorted(sys.modules)
"""


def test_alt_never_imports_scene(workdir):
    run = _fresh_python(COLD_ALT, workdir)
    assert run.returncode == 0, run.stderr


def test_audit_palette_and_sonify_load_only_their_modules(workdir):
    run = _fresh_python(COLD_PALETTE_THEN_AUDIO, workdir)
    assert run.returncode == 0, run.stderr
    assert Path("s.wav").is_file()


def test_package_names_load_on_first_use(workdir):
    import importlib

    import polyrep

    for name in polyrep.__all__:
        value = getattr(polyrep, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
    namespace = {}
    exec("from polyrep import *", namespace)
    assert {name: namespace[name] for name in polyrep.__all__} == {
        name: getattr(polyrep, name) for name in polyrep.__all__
    }
    with pytest.raises(AttributeError, match="'nope'"):
        polyrep.nope
    assert set(polyrep.__all__) <= set(dir(polyrep))
    run = _fresh_python("import sys, polyrep\n"
                        "print(sorted(m for m in sys.modules if m.startswith('polyrep.')))",
                        workdir)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_package_docstring_pipeline(workdir):
    from polyrep import auto_alt, bind, emit_svg, layout, load_dataset, parse_spec, summarize

    spec = parse_spec(Path("penguins_bar.json").read_bytes())
    data = load_dataset(spec, base_dir=workdir)
    values = bind(spec, data)
    summary = summarize(spec, values)
    alt = auto_alt(summary)
    assert alt.flattened + "\n" == GOLDEN_BAR_BLOCK
    scene = layout(summary)
    assert main(["render", "penguins_bar.json", "-o", "bar.svg"]) == 0
    assert emit_svg(scene, alt) == Path("bar.svg").read_bytes()


# each command that draws, describes or plays a chart parses its spec,
# reads its CSV, binds its data and summarizes its chart once, for every
# artifact (sonify cannot play the box plot, so it plays the bar chart)
@pytest.mark.parametrize("argv", [
    ["render", "penguins_box.json", "-o", "r.svg"],
    ["cvd-grid", "penguins_box.json", "-o", "g.svg"],
    ["alt", "penguins_box.json"],
    ["sonify", "penguins_bar.json", "-o", "s.wav"],
    ["tactile", "penguins_box.json", "-o", "t.pdf", "--preview"],
], ids=lambda argv: argv[0])
def test_chart_commands_parse_bind_and_summarize_once(workdir, capsys, monkeypatch, argv):
    from polyrep import chartspec, dataset

    calls = dict.fromkeys(("parse_spec", "parse_csv", "bind", "summarize"), 0)
    for fn in (chartspec.parse_spec, dataset.parse_csv, chartspec.bind, chartspec.summarize):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        patch_everywhere(monkeypatch, fn, counted)
    assert main(argv) == 0
    assert calls == {"parse_spec": 1, "parse_csv": 1, "bind": 1, "summarize": 1}


# on a CSV large enough for the column cache, the first command parses it
# once and writes its columns there; the same command again reads them back,
# parses nothing and writes the same bytes
@pytest.mark.parametrize("argv", [
    ["render", "penguins_box.json", "-o", "r.svg"],
    ["cvd-grid", "penguins_box.json", "-o", "g.svg"],
    ["alt", "penguins_box.json"],
    ["sonify", "penguins_bar.json", "-o", "s.wav"],
    ["tactile", "penguins_box.json", "-o", "t.pdf", "--preview"],
], ids=lambda argv: argv[0])
def test_a_large_csv_is_parsed_by_the_first_command_only(workdir, capsys, monkeypatch, xdg_cache,
                                                         argv):
    from polyrep import dataset

    header, _, body = Path("penguins.csv").read_text(encoding="utf-8").partition("\n")
    copies = -(-dataset._CACHE_MIN_BYTES // len(body))
    Path("penguins.csv").write_text(header + "\n" + body * copies, encoding="utf-8")
    calls = []

    def counted(*args, _fn=dataset.parse_csv, **kwargs):
        calls.append(args[1])
        return _fn(*args, **kwargs)

    patch_everywhere(monkeypatch, dataset.parse_csv, counted)
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append((len(calls), capsys.readouterr().out,
                     {p.name: p.read_bytes() for p in workdir.iterdir() if p.suffix != ".json"}))
    assert [n for n, *_ in runs] == [1, 1]  # one parse, by the first command
    assert runs[0][1:] == runs[1][1:]
    assert (xdg_cache / "polyrep").is_dir()


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage: polyrep" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "polyrep 0.1.0"


def test_default_output_names(workdir):
    assert main(["render", "penguins_bar.json"]) == 0
    assert Path("penguins_bar.svg").exists()
    assert Path("penguins_bar.svg.alt.txt").exists()


def test_artifacts_deterministic_across_runs(workdir):
    for args, path in (
        (["render", "penguins_scatter.json", "-o", "a.svg"], "a.svg"),
        (["cvd-grid", "penguins_bar.json", "-o", "g.svg"], "g.svg"),
        (["sonify", "lin.json", "-o", "l.wav"], "l.wav"),
        (["tactile", "penguins_box.json", "-o", "t.pdf"], "t.pdf"),
    ):
        assert main(args) == 0
        first = Path(path).read_bytes()
        assert main(args) == 0
        assert Path(path).read_bytes() == first, path
