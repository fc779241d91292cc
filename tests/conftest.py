from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

from polyrep.chartspec import bind, parse_spec, summarize
from polyrep.dataset import parse_csv
from polyrep.scene import layout

FIXTURES = Path(__file__).parent / "fixtures"

# the alt text of tests/fixtures/penguins_bar.json
GOLDEN_BAR_BLOCK = """\
This is an untitled chart with no subtitle or caption.
It has x-axis 'species' with labels Adelie, Chinstrap and Gentoo.
It has y-axis 'count' with labels 0, 50, 100 and 150.
The chart is a bar chart with 3 vertical bars.
Bar 1 is centered horizontally at Adelie, and spans vertically from 0 to 152.
Bar 2 is centered horizontally at Chinstrap, and spans vertically from 0 to 68.
Bar 3 is centered horizontally at Gentoo, and spans vertically from 0 to 124.
"""


@pytest.fixture(autouse=True)
def xdg_cache(tmp_path_factory, monkeypatch):
    """An empty XDG cache directory of each test's own, so that the column
    cache of a large CSV (`dataset.load_csv`) starts cold and never writes
    to the user's ~/.cache; subprocesses inherit it through the environment."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


@pytest.fixture(scope="session")
def penguins():
    return parse_csv((FIXTURES / "penguins.csv").read_bytes())


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """A fresh working directory holding the penguins data and fixture specs."""
    for name in ("penguins.csv", "penguins_bar.json", "penguins_scatter.json",
                 "penguins_box.json", "penguins_hist.json", "lin.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="session")
def golden_dir(tmp_path_factory):
    """A directory holding every CLI case of the golden table (tests/golden.py)."""
    from golden import write_cases

    return write_cases(tmp_path_factory.mktemp("golden"))


def load_fixture_spec(name: str):
    return parse_spec((FIXTURES / name).read_bytes())


def laid_out(spec, data):
    """The scene of `spec` drawn from `data`: one bind, one summary, one layout."""
    return layout(summarize(spec, bind(spec, data)))


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace `fn` under every name that a loaded polyrep module holds it by."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "polyrep":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)
