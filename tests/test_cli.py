from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import wave
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import SIX_SHAPES_SPEC, laid_out, patch_everywhere
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

GOLDEN_BAR_BLOCK = """\
This is an untitled chart with no subtitle or caption.
It has x-axis 'species' with labels Adelie, Chinstrap and Gentoo.
It has y-axis 'count' with labels 0, 50, 100 and 150.
The chart is a bar chart with 3 vertical bars.
Bar 1 is centered horizontally at Adelie, and spans vertically from 0 to 152.
Bar 2 is centered horizontally at Chinstrap, and spans vertically from 0 to 68.
Bar 3 is centered horizontally at Gentoo, and spans vertically from 0 to 124.
"""


@pytest.fixture()
def workdir(tmp_path, fixtures_dir, monkeypatch):
    for name in ("penguins.csv", "penguins_bar.json", "penguins_scatter.json",
                 "penguins_box.json", "penguins_hist.json", "lin.json"):
        shutil.copy(fixtures_dir / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


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
        Path(f"{name}.json").write_text(json.dumps(CVD_GRID_SPECS[name]), encoding="utf-8")
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


def test_tactile_paper_a4(workdir):
    assert main(["tactile", "penguins_box.json", "-o", "box.pdf",
                 "--paper", "a4"]) == 0
    mb = validate_pdf(Path("box.pdf").read_bytes())["media_box"]
    assert abs(mb[2] - 595.28) < 0.5 and abs(mb[3] - 841.89) < 0.5


# Tactile PDFs on letter paper, pinned byte for byte: performance work on
# the page builder must not move a single dot or stroke.
TACTILE_SHA256 = {
    "penguins_bar": "0640a450ac064224e65a5301ebc21ad15c74690d5d2106ae28e6fd65afb9baad",
    "penguins_hist": "ea8ed9be792f3c93b047cd5d8de69f4372f996523a0c194d9f586a5cfb41fe33",
    "penguins_box": "970fe156764f671df552c9571125fa1c9b95abb571b8ce078bd265592e4760ea",
    "lin": "6b4383e98c4c529bbbf575bb04634024e5057e4561ac73d432cea2b38b831bfd",
}


@pytest.mark.parametrize("name", sorted(TACTILE_SHA256))
def test_tactile_pdf_golden_hash(workdir, name):
    assert main(["tactile", f"{name}.json", "-o", "t.pdf"]) == 0
    digest = hashlib.sha256(Path("t.pdf").read_bytes()).hexdigest()
    assert digest == TACTILE_SHA256[name]


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Tactile PDFs on the other papers, and bar charts whose braille labels are
# displaced: one 20-letter category squeezes the plot so that the two lowest
# y tick labels are pushed left twice each, and five 10-letter categories
# push their x labels down by 1, 2, 3 and 2 lines.
TACTILE_PAPER_SHA256 = {
    ("penguins_bar", "a4"):
        "fc34d673b0e65a91bd1456e017e54ce3d4d70d96e27ab8f178f4b70d94277c31",
    ("penguins_bar", "braille11x11"):
        "320feb76b39c66ff6708eb93b664c966b839e71cbb00ed2cbb4bf98ff2e5a516",
    ("penguins_box", "a4"):
        "3c72065b753d33743a3dde88600cefaaa2ee808c9680533bc850b1850a4fb511",
    ("penguins_box", "braille11x11"):
        "0cc0bb9989fea75f7dbb504e02a6757b9b796a96055702747426622218fdb8e7",
    # the only paper the scatter's title fits, and the densest fixture page
    ("penguins_scatter", "braille11x11"):
        "81c60229f94a70c9826182f4944f1a5047da594255eb3dc448f7051f640d4bcd",
}
LONG_CATEGORY = "abcdefghijklmnopqrst"
_DIRECTIONS = {"northwards": 4, "southwards": 3, "eastwardly": 1, "westwardly": 8,
               "upwardness": 4}
PUSHED_LABELS = {  # name: (bar chart categories, tactile PDF sha256)
    "left": ([LONG_CATEGORY] * 8,
             "de8af323d9c8228eb332360d0412eaf016216a4b8b5c1e1eddd3b03a753570ef"),
    "down": ([c for c, n in _DIRECTIONS.items() for _ in range(n)],
             "e16888a2f18ce536829af9528e9a8dbf9e0732038642f5ae051cac5259506185"),
}


@pytest.mark.parametrize("name,paper", sorted(TACTILE_PAPER_SHA256))
def test_tactile_paper_golden_hash(workdir, name, paper):
    assert main(["tactile", f"{name}.json", "-o", "t.pdf", "--paper", paper]) == 0
    assert _sha256("t.pdf") == TACTILE_PAPER_SHA256[name, paper]


@pytest.mark.parametrize("name", sorted(PUSHED_LABELS))
def test_tactile_pushed_labels_golden_hash(workdir, name):
    categories, digest = PUSHED_LABELS[name]
    spec = {"data": {"inline": {"c": categories}}, "chart": {"type": "bar", "x": "c"}}
    Path("pushed.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["tactile", "pushed.json", "-o", "t.pdf"]) == 0
    assert _sha256("t.pdf") == digest


def _tactile_error(name: str, capsys) -> str:
    assert main(["tactile", name, "-o", "t.pdf"]) == 1
    assert not Path("t.pdf").exists()
    return capsys.readouterr().err


def test_tactile_title_too_long_error(workdir, capsys):
    assert _tactile_error("penguins_scatter.json", capsys) == (
        "polyrep: error[tactile]: title is too long for the page at braille "
        "size; abbreviate it to fewer characters\n"
    )


def test_tactile_labels_overlap_error(workdir, capsys):
    # 150 rows put the count ticks so close that pushing left cannot clear
    # them; a count cannot be abbreviated or rescaled
    spec = {"data": {"inline": {"c": [LONG_CATEGORY] * 150}},
            "chart": {"type": "bar", "x": "c"}}
    Path("crowded.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("crowded.json", capsys) == (
        "polyrep: error[tactile]: braille labels overlap even after "
        "displacement; enlarge the page\n"
    )


def test_tactile_number_labels_overlap_error(workdir, capsys):
    # the 17-digit x label cannot be pushed clear of its neighbours on letter
    spec = _scatter_spec({"x": [0, 1e16, 1], "y": [1, 2, 3]})
    Path("far.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("far.json", capsys) == (
        "polyrep: error[tactile]: braille labels overlap even after "
        "displacement; rescale column 'x'\n"
    )


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


# Every bundled fixture's chart, CVD grid and categorical sonification,
# pinned byte for byte: work on the shared chart path, glyph geometry,
# escaping or series choice must not change a single byte.
FIXTURE_SHA256 = {  # (render SVG, cvd-grid SVG, sonify --categorical WAV)
    "lin": ("4921f7fea9648c6c879e27fafb47d6eb59d5e05995d0ac0d59055e1d060d032c",
            "0fc1a5aa7358e4881af0e88f738fba8a13ba30c8587a6cde4caeb15a0d9e7a37",
            "6c3a47e1589a7bcfb1b1d361b57f42536c4baa306820332d2b227491a623bdeb"),
    "penguins_bar": (
        "7bd1798be0b6c7026dbff7548e56e5bf0dd549dccb07f0908447be66f8ed9175",
        "d14fcd23431611173929b2d7c937b846845f480f3cec7a4022f605064d3c7450",
        "dc8e8ace71fa6d0b60ce8df01d4ff193570e7de72a5411f37189cd4ba209c2eb"),
    "penguins_box": (  # a box plot has no series to sonify
        "3d273db780a3220bd0cee8e24765901224c339983b35f38ed90a27f1dd4eaa81",
        "37894e23fa2d2d0ca3ac392b18b0f509d6899665475111817686ab8ce007756e",
        None),
    "penguins_hist": (
        "e5e58d245c31ac903cb249483dec7497cdde9e034cac176f863ed0c96389a271",
        "86ba32530e4ae1e417c01c367d9dde051945b131001f1f714938b309414adaa7",
        "5be10bf2db7fb2851a3b503a698cb51b339129064b84aa16d3ce1bd37df9fac0"),
    "penguins_scatter": (
        "c07df6a63e422fccc999d737dbd611cb40b0960f37dcb29e748edf54622b7f1e",
        "ef0e75411b64312abfab3c30ad3ea64a3a0efe48ef6bbefb62278c1cac8f8c1b",
        "4e4026fc3aa42a6765ff62249e9eca40641f261a9fdc63879097461e8e3f2084"),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SHA256))
def test_fixture_artifacts_golden_hash(workdir, name, capsys):
    svg, grid, wav = FIXTURE_SHA256[name]
    assert main(["render", f"{name}.json", "-o", "r.svg"]) == 0
    assert main(["cvd-grid", f"{name}.json", "-o", "g.svg"]) == 0
    rc = main(["sonify", f"{name}.json", "--categorical", "-o", "s.wav"])
    assert (_sha256("r.svg"), _sha256("g.svg")) == (svg, grid)
    if wav is None:
        assert rc == 1 and "error[data]" in capsys.readouterr().err
    else:
        assert rc == 0 and _sha256("s.wav") == wav


SIX_SHAPES_SHA256 = (  # (render SVG, tactile PDF)
    "47a3bad01ec36d705c32c08da76f5fd2a648f7149a9e6947e7700d0c5ab74300",
    "fedeca88d3023ed9af9e1d99bbba004c5953230458302bcd1cd4a4a70bd54de9",
)


def test_six_shapes_golden_hash(workdir):
    Path("six.json").write_text(json.dumps(SIX_SHAPES_SPEC), encoding="utf-8")
    assert main(["render", "six.json", "-o", "six.svg"]) == 0
    assert main(["tactile", "six.json", "-o", "six.pdf"]) == 0
    assert (_sha256("six.svg"), _sha256("six.pdf")) == SIX_SHAPES_SHA256


# Charts whose value range is flat on some axis (widened half a unit each
# way), and an ungrouped box plot, pinned byte for byte as rendered SVG and
# letter tactile PDF: name -> (inline data, chart, (SVG, PDF) digests).
FLAT_RANGE_SHA256 = {
    "box_constant": (
        {"v": [5, 5, 5]}, {"type": "boxplot", "x": "v"},
        ("281a274156d38c319c2358c2761bb7b4f10a20e98e054e402c960e8916f4ba27",
         "6863779bdd8ab67fa0e02e20ece9605825034e298877522828c95a71ea0efa23")),
    "box_outlier": (
        {"v": [1, 2, 3, 4, 50]}, {"type": "boxplot", "x": "v"},
        ("891df29f937e6a497cc1f532a2e66986d60b44da78bcc51d6a5c82124293ae69",
         "f2ad2705fdad1e441f7d4cef000cbe27291df71ab0a4407cb30bc5f384ab830b")),
    "scatter_constant_x": (
        {"x": [2, 2, 2], "y": [1, 2, 3]}, {"type": "scatter", "x": "x", "y": "y"},
        ("0597b1b43b3d76b7f9bbac334dcca998cc0b986645272e420d05622376389cf7",
         "b18f8adeee0837ae265862a9d3caf83b88edc21dccf6fdcaefe57692a56a889d")),
    "scatter_constant_y": (
        {"x": [1, 2, 3], "y": [4, 4, 4]}, {"type": "scatter", "x": "x", "y": "y"},
        ("574367bbfaab0b6b2b67bb6ab53ebb1a06d2297bfbd9cb33e4b8f124831fd2fa",
         "8362a6e060f7114524541ab80fa17fee0f2e66838191fa58982c196f3caa4810")),
    "line_one_point": (
        {"x": [2, 2], "y": [3, 3]}, {"type": "line", "x": "x", "y": "y"},
        ("a20bf79e53338a8ff9d2d51571057a17e53535b623c102050722bffe366435fa",
         "7b01159cd84edc72fc70dfaba5b04d488e6bd53a1a845b79a2444758b1500b39")),
    "hist_constant": (
        {"v": [7, 7, 7]}, {"type": "histogram", "x": "v"},
        ("32d853fe59f15da90f5039b3b27814aa292150eae505c5410679565a2cf167bf",
         "f8476ddac6157a107d31cbb7fb6ac30b80d42737d56d92444132993dcb1e8368")),
}


@pytest.mark.parametrize("name", sorted(FLAT_RANGE_SHA256))
def test_flat_range_golden_hash(workdir, name):
    inline, chart, digests = FLAT_RANGE_SHA256[name]
    spec = {"data": {"inline": inline}, "chart": chart}
    Path("flat.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["render", "flat.json", "-o", "flat.svg"]) == 0
    assert main(["tactile", "flat.json", "-o", "flat.pdf"]) == 0
    assert (_sha256("flat.svg"), _sha256("flat.pdf")) == digests


# CVD grids pinned byte for byte over every kind of paint a mark carries:
# outline glyphs (fill="none" stroke=), facet-label text, dashed grouped
# lines in a custom palette, and a title and categories that need escaping.
CVD_GRID_SPECS = {
    "six_shapes": SIX_SHAPES_SPEC,
    "six_shapes_facet": {**SIX_SHAPES_SPEC, "encodings": {"facet": True}},
    "grouped_line": {
        "data": {"inline": {
            "x": [1, 2, 3, 4] * 3,
            "y": [2, 4, 3, 5, 1, 2, 2, 3, 4, 3, 1, 2],
            "g": ["r"] * 4 + ["s"] * 4 + ["t"] * 4,
        }},
        "chart": {"type": "line", "x": "x", "y": "y", "group": "g"},
        "palette": ["#D62728", "#009502", "#00602A"],
    },
    "escaped_bar": {
        "title": "a<b&c",
        "data": {"inline": {"c": ["a<b&c", "x>y", "a<b&c", '"q"']}},
        "chart": {"type": "bar", "x": "c"},
    },
}
CVD_GRID_SHA256 = {
    "escaped_bar": "8ffa40503b17ce8520a18c995c7962291e2c2f4db7fab3a8032927805f978786",
    "grouped_line": "a1e0aac807368fc2c69ff0f41064cef17af007097497075d77d134ba7100b014",
    "six_shapes": "573e1d44d031d93812da5e2982cba97be0adae51d5b3c2d878c20021cfd3e466",
    "six_shapes_facet":
        "a6d4abcc1e0647d6e70ddf5e8248ab7210de004f1836ac7dfb464d6881261741",
}


@pytest.mark.parametrize("name", sorted(CVD_GRID_SPECS))
def test_cvd_grid_golden_hash(workdir, name):
    Path("g.json").write_text(json.dumps(CVD_GRID_SPECS[name]), encoding="utf-8")
    assert main(["cvd-grid", "g.json", "-o", "g.svg"]) == 0
    assert _sha256("g.svg") == CVD_GRID_SHA256[name]


# Sonify WAVs of grouped, faceted and regression charts, pinned byte for
# byte: name -> (fixture file or inline spec, sonify flags, WAV digest).
# Both tone modes stable-sort the rows by x, so the rows must reach them in
# data order; in "interleaved_line" the levels take turns at tied x values,
# and rows in level order would change its bytes.
SONIFY_SHA256 = {
    "grouped_line": (
        CVD_GRID_SPECS["grouped_line"], (),
        "7b164380f4772da3864db1d8a4ddd46a24e79fa3d1a543e9126082798f9c516b"),
    "interleaved_line": (
        {"data": {"inline": {"x": [1, 1, 2, 2, 3, 3], "y": [1, 4, 2, 5, 3, 1],
                             "g": ["s", "r", "r", "s", "r", "s"]}},
         "chart": {"type": "line", "x": "x", "y": "y", "group": "g"}}, (),
        "4bba4545d9f746e8bf7584794c42696ff2320d9b229b7fcb6f0ff7be64718a7d"),
    "six_shapes_facet": (
        CVD_GRID_SPECS["six_shapes_facet"], (),
        "23d9da53899241122e8ea556f8eabd77a3c390ec206fe944370fb6315f744ec5"),
    "lin_regression": (
        "lin.json", ("--mode", "regression"),
        "fdeedac503addfc740d163fe3e5e88dbf79ff3fe321bc3b7b3119a93ce54281e"),
}


@pytest.mark.parametrize("name", sorted(SONIFY_SHA256))
def test_sonify_golden_hash(workdir, name):
    spec, flags, digest = SONIFY_SHA256[name]
    if isinstance(spec, dict):
        Path("s.json").write_text(json.dumps(spec), encoding="utf-8")
        spec = "s.json"
    assert main(["sonify", spec, *flags, "-o", "s.wav"]) == 0
    assert _sha256("s.wav") == digest


# Charts over a seeded 10^4-row table shaped like the benchmark's many-rows
# workload (grp, cat, value, weight), pinned byte for byte: performance work
# on the CSV parser must not change a single parsed value.
# (SVG, alt text sidecar, tactile PDF, `sonify --categorical` WAV); a chart
# that cannot be sonified pins its exact error line instead of a WAV digest
MANY_ROWS_SHA256 = {
    "bar": ("cefb7a0233658e4f9b0b66aadb493200dea6e2d5ae252ac021dc43e62f65d08a",
            "f9ce37991cbef3c5fac5970b8b5d6daf753b2a17576b62331a24c041eceea07a",
            "d2dc1be7af0610d343947307cf60aba44b98b7b50e91993ee9391aced451122e",
            "c132b207ae2434861fe763349e5d25e10f301d19da5b7c5f9be0a1ca6f46eede"),
    "box": ("9b61c577df99203260e38844e252d7f29c8d670ce96c40d18a69e6a3a326172a",
            "c52a68685fbef0c4ee8bc2c5406cbcc82ae1a807b868434142353eded3aa2bda",
            "3f547f0840b678e93e30d521efc91fab91b341a4dded6ee5851262fae7509e41",
            "polyrep: error[data]: cannot sonify a boxplot chart\n"),
    "hist": ("58aac730b661e79bfbbe6029cb73f47bc191526291b4618f815e7852e2192ba2",
             "0c5c8b777a4e0ac0600c09957449ac256aa3f2e6c79d264d039c1d6a168a65b7",
             "6afccb5bb265d30522558ff0100c04fb63539d6b3630f41895ef59b8b6cb91e1",
             "273e36eda262657a9a8959fd1dd5c695fe897436d2e05518ebe0b279df251d5a"),
}
MANY_ROWS_CHARTS = {
    "hist": {"type": "histogram", "x": "value", "bins": 20},
    "bar": {"type": "bar", "x": "cat"},
    "box": {"type": "boxplot", "x": "grp", "y": "value"},
}


@pytest.fixture(scope="module")
def many_rows_dir(tmp_path_factory):
    rng = random.Random(4242)
    levels = [f"level{i}" for i in range(8)]
    rows = [
        [rng.choice(("north", "south", "east")), rng.choice(levels),
         f"{rng.triangular(0.0, 200.0):.3f}", f"{rng.random():.4f}"]
        for _ in range(10_000)
    ]
    rows[0][2], rows[1][2] = "0", "200"
    root = tmp_path_factory.mktemp("many_rows")
    with (root / "rows.csv").open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["grp", "cat", "value", "weight"])
        writer.writerows(rows)
    for name, chart in MANY_ROWS_CHARTS.items():
        spec = {"data": {"csv": "rows.csv"}, "chart": chart}
        (root / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    return root


@pytest.mark.parametrize("name", sorted(MANY_ROWS_CHARTS))
def test_many_rows_artifacts_golden_hash(many_rows_dir, name, monkeypatch, capsys):
    monkeypatch.chdir(many_rows_dir)
    assert main(["render", f"{name}.json", "-o", f"{name}.svg"]) == 0
    assert main(["tactile", f"{name}.json", "-o", f"{name}.pdf"]) == 0
    digests = tuple(
        hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in (f"{name}.svg", f"{name}.svg.alt.txt", f"{name}.pdf")
    )
    capsys.readouterr()
    if main(["sonify", f"{name}.json", "--categorical", "-o", f"{name}.wav"]) == 0:
        sound = hashlib.sha256(Path(f"{name}.wav").read_bytes()).hexdigest()
    else:
        sound = capsys.readouterr().err
    assert (*digests, sound) == MANY_ROWS_SHA256[name]


def test_audit_palette_pass_and_fail_exit_codes(workdir, capsys):
    assert main(["audit-palette", "#E69F00,#56B4E9,#009E73"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    # two nearly identical colors must fail the audit
    assert main(["audit-palette", "#808080,#828282"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_audit_palette_json(workdir, capsys):
    assert main(["audit-palette", "okabe-ito", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True and len(doc["colors"]) == 8


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
    ],
    ids=["missing-column", "numeric-group", "bar-missing-column",
         "histogram-missing-column", "inline-missing-token", "inline-boolean",
         "inline-huge-integer"],
)
@pytest.mark.parametrize("command", CHART_COMMANDS)
def test_chart_commands_reject_unbound_spec_alike(workdir, capsys, command, spec,
                                                  message):
    Path("bad.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "bad.json"]) == 1
    assert capsys.readouterr().err == f"polyrep: error[spec]: {message}\n"


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
# change; a larger paper is offered only when one has room for them
@pytest.mark.parametrize("digits,fix", [
    (155, "rescale column 'x'"),
    (25, "rescale column 'x' or use a larger --paper"),
], ids=["no-paper-fits", "larger-paper"])
def test_tactile_wide_tick_label_error(workdir, capsys, digits, fix):
    x_max = "1" + "0" * digits
    spec = _scatter_spec({"x": [0, float(x_max), 1], "y": [1, 2, 3]})
    Path("far.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("far.json", capsys) == (
        f"polyrep: error[tactile]: x tick label '{x_max}' is too wide for the page "
        f"at braille size; {fix}\n"
    )


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


def test_overlong_csv_field_exits_1(workdir, capsys):
    Path("long.csv").write_text("species\nAdelie\n" + "x" * 131073 + "\n")
    Path("long.json").write_text(
        '{"data":{"csv":"long.csv"},"chart":{"type":"bar","x":"species"}}'
    )
    assert main(["alt", "long.json"]) == 1
    err = capsys.readouterr().err
    assert "error[csv]: row 3: field larger than field limit" in err


# Each command imports only the modules it runs, and only audio needs numpy:
# a fresh process that makes no audio never loads it.
COLD_START = """\
import sys
import polyrep.cli

def loaded():
    return {name for name in sys.modules if name.partition(".")[0] == "polyrep"}

assert "numpy" not in sys.modules, "import polyrep.cli"
assert loaded() == {"polyrep", "polyrep.cli", "polyrep.errors", "polyrep.pdfwrite"}, loaded()
for argv, unused in (
    (["alt", "penguins_bar.json"], {"svgout", "tactile", "braille", "sonify"}),
    (["render", "penguins_bar.json", "-o", "r.svg"], {"tactile", "braille", "sonify"}),
    (["cvd-grid", "penguins_bar.json", "-o", "g.svg"], {"tactile", "braille", "sonify"}),
    (["tactile", "penguins_bar.json", "-o", "t.pdf"], {"sonify"}),
):
    assert polyrep.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
    assert not loaded() & {f"polyrep.{name}" for name in unused}, (argv, loaded())
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
    """Run `script` in a new interpreter that imports this checkout's polyrep."""
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
