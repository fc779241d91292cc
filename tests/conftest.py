from __future__ import annotations

import random
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


BIG_SCATTER_GROUPS = ("north", "south", "east")


def big_scatter_points() -> tuple[list[float], list[float], list[str]]:
    """Seeded 2,000-point scatter data in three groups, with the points
    (0, 0) and (100, 100) pinning both axis ranges: (xs, ys, groups)."""
    rng = random.Random(3001)
    xs, ys = [0.0, 100.0], [0.0, 100.0]
    gs = [BIG_SCATTER_GROUPS[0], BIG_SCATTER_GROUPS[1]]
    for i in range(1998):
        g = i % 3
        x = min(100.0, max(0.0, rng.gauss(30 + 20 * g, 12)))
        xs.append(round(x, 2))
        ys.append(round(min(100.0, max(0.0, 0.7 * x + 10 + rng.gauss(0, 10))), 2))
        gs.append(BIG_SCATTER_GROUPS[g])
    return xs, ys, gs
