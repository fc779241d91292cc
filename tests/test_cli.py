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
from pathlib import Path

import numpy as np
import pytest

from oracles import read_wav_oracle, validate_pdf
from polyrep import cli
from polyrep.chartspec import load_dataset, parse_spec
from polyrep.cli import build_parser, main
from polyrep.scene import layout

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


def test_help_enumerates_every_flag():
    parser = build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
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


def test_sonify_bar_needs_categorical(workdir, capsys):
    assert main(["sonify", "penguins_bar.json", "-o", "b.wav"]) == 1
    err = capsys.readouterr().err
    assert "error[data]" in err and "--categorical" in err
    assert main(["sonify", "penguins_bar.json", "-o", "b.wav", "--categorical"]) == 0


def test_tactile_with_preview(workdir, capsys):
    assert main(["tactile", "penguins_box.json", "-o", "box.pdf", "--preview"]) == 0
    validate_pdf(Path("box.pdf").read_bytes())
    assert Path("box.preview.svg").exists()


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
    "penguins_box": "eb77bd517195dadf0a5ba8d5a7d0dde27585e5a425a616e4931dd63bd7318403",
    "lin": "157ad24083567191b89c45b6d22368727c6a64dc67f6205159549151f082fa52",
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
        "c839c37ab9ca3f322ce07760b8021e5c5d017a445c9d89023b31478a582624e2",
    ("penguins_box", "braille11x11"):
        "7c65beca0abcaba919a42e5dbf878d90be7ee957a6185b5ae49f1dcf7db79a89",
    # the only paper the scatter's title fits, and the densest fixture page
    ("penguins_scatter", "braille11x11"):
        "5ebc941d8f5a6b60b6c1389c25805ccdb9df51dfb465944b39364b0ba16789a7",
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
    # 150 rows put the count ticks so close that pushing left cannot clear them
    spec = {"data": {"inline": {"c": [LONG_CATEGORY] * 150}},
            "chart": {"type": "bar", "x": "c"}}
    Path("crowded.json").write_text(json.dumps(spec), encoding="utf-8")
    assert _tactile_error("crowded.json", capsys) == (
        "polyrep: error[tactile]: braille labels overlap even after "
        "displacement; abbreviate the labels or enlarge the page\n"
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


# A scatter with six groups draws every marker shape (circle, triangle,
# square, diamond, plus, cross) in the SVG and as tactile outlines.
SIX_SHAPES_SPEC = {
    "data": {"inline": {
        "x": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "y": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
        "g": ["a", "b", "c", "d", "e", "f"] * 2,
    }},
    "chart": {"type": "scatter", "x": "x", "y": "y", "group": "g"},
}
SIX_SHAPES_SHA256 = (  # (render SVG, tactile PDF)
    "47a3bad01ec36d705c32c08da76f5fd2a648f7149a9e6947e7700d0c5ab74300",
    "d5251ad6f528938149e963d8273ac369ba4a216e451b323f244eefe246751552",
)


def test_six_shapes_golden_hash(workdir):
    Path("six.json").write_text(json.dumps(SIX_SHAPES_SPEC), encoding="utf-8")
    assert main(["render", "six.json", "-o", "six.svg"]) == 0
    assert main(["tactile", "six.json", "-o", "six.pdf"]) == 0
    assert (_sha256("six.svg"), _sha256("six.pdf")) == SIX_SHAPES_SHA256


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
    ],
    ids=["missing-column", "numeric-group"],
)
@pytest.mark.parametrize("command", CHART_COMMANDS)
def test_chart_commands_reject_unbound_spec_alike(workdir, capsys, command, spec,
                                                  message):
    Path("bad.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main([command, "bad.json"]) == 1
    assert capsys.readouterr().err == f"polyrep: error[spec]: {message}\n"


def _tones(wav: bytes) -> int:
    """Runs of sound separated by at least 10 ms of silence."""
    frames, rate = read_wav_oracle(wav)
    loud = np.flatnonzero(np.abs(frames).max(axis=1) > 0)
    return int(loud.size > 0) + int(np.count_nonzero(np.diff(loud) > rate // 100))


def test_sonify_plays_the_points_the_chart_draws(workdir):
    # the row with no group level is not drawn, so it must not sound either
    spec = _scatter_spec(
        {"x": [1, 2, 3, 4, 5], "y": [2, 4, 1, 5, 3], "g": ["a", "b", None, "a", "b"]},
        group="g",
    )
    raw = json.dumps(spec).encode("utf-8")
    Path("g.json").write_bytes(raw)
    parsed = parse_spec(raw)
    n_points = layout(parsed, load_dataset(parsed)).summary.n_points
    assert n_points == 4
    assert main(["sonify", "g.json", "-o", "g.wav"]) == 0
    assert _tones(Path("g.wav").read_bytes()) == n_points


def test_overlong_csv_field_exits_1(workdir, capsys):
    Path("long.csv").write_text("species\nAdelie\n" + "x" * 131073 + "\n")
    Path("long.json").write_text(
        '{"data":{"csv":"long.csv"},"chart":{"type":"bar","x":"species"}}'
    )
    assert main(["alt", "long.json"]) == 1
    err = capsys.readouterr().err
    assert "error[csv]: row 3: field larger than field limit" in err


# Only audio needs numpy: a fresh process that makes no audio never loads it.
COLD_START = """\
import sys
import polyrep.cli
assert "numpy" not in sys.modules, "import polyrep.cli"
for argv in (["render", "penguins_bar.json", "-o", "r.svg"],
             ["cvd-grid", "penguins_bar.json", "-o", "g.svg"],
             ["alt", "penguins_bar.json"],
             ["tactile", "penguins_bar.json", "-o", "t.pdf"]):
    assert polyrep.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


def test_non_audio_commands_never_import_numpy(workdir):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", COLD_START], cwd=workdir,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert {p.name for p in workdir.iterdir()} >= {"r.svg", "g.svg", "t.pdf"}


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
