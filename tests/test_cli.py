from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
import wave
from pathlib import Path

import pytest

from oracles import validate_pdf
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


# Charts over a seeded 10^4-row table shaped like the benchmark's many-rows
# workload (grp, cat, value, weight), pinned byte for byte: performance work
# on the CSV parser must not change a single parsed value.
MANY_ROWS_SHA256 = {  # (SVG, alt text sidecar, tactile PDF)
    "bar": ("cefb7a0233658e4f9b0b66aadb493200dea6e2d5ae252ac021dc43e62f65d08a",
            "f9ce37991cbef3c5fac5970b8b5d6daf753b2a17576b62331a24c041eceea07a",
            "d2dc1be7af0610d343947307cf60aba44b98b7b50e91993ee9391aced451122e"),
    "box": ("9b61c577df99203260e38844e252d7f29c8d670ce96c40d18a69e6a3a326172a",
            "c52a68685fbef0c4ee8bc2c5406cbcc82ae1a807b868434142353eded3aa2bda",
            "3f547f0840b678e93e30d521efc91fab91b341a4dded6ee5851262fae7509e41"),
    "hist": ("58aac730b661e79bfbbe6029cb73f47bc191526291b4618f815e7852e2192ba2",
             "0c5c8b777a4e0ac0600c09957449ac256aa3f2e6c79d264d039c1d6a168a65b7",
             "6afccb5bb265d30522558ff0100c04fb63539d6b3630f41895ef59b8b6cb91e1"),
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
def test_many_rows_artifacts_golden_hash(many_rows_dir, name, monkeypatch):
    monkeypatch.chdir(many_rows_dir)
    assert main(["render", f"{name}.json", "-o", f"{name}.svg"]) == 0
    assert main(["tactile", f"{name}.json", "-o", f"{name}.pdf"]) == 0
    digests = tuple(
        hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in (f"{name}.svg", f"{name}.svg.alt.txt", f"{name}.pdf")
    )
    assert digests == MANY_ROWS_SHA256[name]


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


def test_overlong_csv_field_exits_1(workdir, capsys):
    Path("long.csv").write_text("species\nAdelie\n" + "x" * 131073 + "\n")
    Path("long.json").write_text(
        '{"data":{"csv":"long.csv"},"chart":{"type":"bar","x":"species"}}'
    )
    assert main(["alt", "long.json"]) == 1
    err = capsys.readouterr().err
    assert "error[csv]: row 3: field larger than field limit" in err


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
