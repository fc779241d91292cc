from __future__ import annotations

import hashlib
import json
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
