from __future__ import annotations

import sys
from pathlib import Path

import pytest

from polyrep.chartspec import bind, parse_spec, summarize
from polyrep.dataset import parse_csv
from polyrep.scene import layout

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def penguins():
    return parse_csv((FIXTURES / "penguins.csv").read_bytes())


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


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
