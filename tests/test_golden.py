from __future__ import annotations

import pytest

from golden import CASES, CLI_OUTPUT, LIBRARY, PINNED, PINS, run_cli, run_library


def test_table_names_known_cases_and_commands_once():
    assert len(PINNED) == len(PINS), "a key pinned twice"
    for case, artifact, _ in PINNED:
        assert case in CASES, case
        assert artifact in LIBRARY or artifact.partition(".")[0] in CLI_OUTPUT, artifact
    assert {case for case, *_ in PINNED} == set(CASES), "a case no pin uses"


def _written(key: tuple) -> str:
    """A key as golden.txt writes it: `<case> <artifact> [<flag> ...]`."""
    case, artifact, flags = key
    return " ".join((case, artifact, *flags))


# One item per pin, named by its key; a failure prints the golden.txt line
# that pins the actual value (a refusal's without its newline).
@pytest.mark.parametrize("key", PINNED, ids=_written)
def test_pinned_artifact_matches(golden_dir, key):
    actual = run_library(*key) if key[1] in LIBRARY else run_cli(golden_dir, *key)
    line = f"{_written(key)} = " + actual.removesuffix("\n")
    assert actual == PINNED[key], line
