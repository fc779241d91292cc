from __future__ import annotations

import pytest

from golden import CASES, CLI_OUTPUT, LIBRARY, PINNED, PINS, run_cli, run_library


def test_table_names_known_cases_and_commands_once():
    assert len(PINNED) == len(PINS), "a key pinned twice"
    for case, artifact, _ in PINNED:
        assert case in CASES, case
        assert artifact in LIBRARY or artifact.partition(".")[0] in CLI_OUTPUT, artifact
    assert {case for case, *_ in PINNED} == set(CASES), "a case no pin uses"


# Every CLI pin, then every library pin, each run once: the test fails once,
# listing each key whose value differs with the pinned and the actual value.
@pytest.mark.parametrize("library", [False, True], ids=["cli", "library"])
def test_every_pinned_artifact_matches(golden_dir, library):
    differ = []
    for key, pinned in PINNED.items():
        if (key[1] in LIBRARY) == library:
            actual = run_library(*key) if library else run_cli(golden_dir, *key)
            if actual != pinned:
                differ.append(f"{key!r}: pinned {pinned!r}, got {actual!r}")
    assert not differ, f"{len(differ)} pinned artifacts differ:\n" + "\n".join(differ)
