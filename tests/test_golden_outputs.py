"""Byte-for-byte pins of the program's deterministic outputs.

``golden_outputs.json`` holds the sha256 of every file the figure presets
write and of the standard output of the main verbs at the reference
parameters.  A refactor must leave them all unchanged.  A change that moves
an output on purpose, such as a correctness fix, replaces the affected
hashes in the JSON file and says which and why in CHANGES.md.

The hashes were recorded with the numpy version named in the file; a
different numpy may round some values differently, so a failure names both
versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavityblockade import cli, figures
from cavityblockade.params import FIGURE_NAMES

GOLDEN = Path(__file__).with_name("golden_outputs.json")
RECORDED = json.loads(GOLDEN.read_text())

VERBS = {
    "g2": ["g2"],
    "optimize": ["optimize"],
    "optimize --fix-delta-c --delta-c 2.5": ["optimize", "--fix-delta-c", "--delta-c", "2.5"],
    "nonreciprocal": ["nonreciprocal"],
    "validate-full": ["validate-full"],
    # Off Raman resonance: the Floquet mode over a beat period T = 2.094.
    "validate-full --e-he 2 --delta-c 0 --delta-he 103.46": [
        "validate-full", "--e-he", "2", "--delta-c", "0", "--delta-he", "103.46",
    ],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatch(what: str) -> str:
    return (
        f"{what} differs from its sha256 in {GOLDEN.name} "
        f"(recorded with numpy {RECORDED['numpy']}, running numpy {np.__version__})"
    )


def test_every_preset_and_verb_is_recorded():
    assert sorted(RECORDED["figures"]) == sorted(FIGURE_NAMES)
    assert sorted(RECORDED["stdout"]) == sorted(VERBS)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_files(name, tmp_path):
    written = figures.figure(name, tmp_path)
    expected = RECORDED["figures"][name]
    assert sorted(written) == sorted(expected), mismatch(f"the file list of {name}")
    for file, digest in expected.items():
        assert sha256((tmp_path / file).read_bytes()) == digest, mismatch(file)


def verb_stdout(verb: str) -> str:
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore")
        assert cli.main(VERBS[verb]) == 0
    return out.getvalue()


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_stdout(verb):
    assert sha256(verb_stdout(verb).encode()) == RECORDED["stdout"][verb], mismatch(
        f"the stdout of `{verb}`"
    )


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_stdout_ends_in_one_newline(verb):
    text = verb_stdout(verb)
    assert text.endswith("\n") and not text.endswith("\n\n")
