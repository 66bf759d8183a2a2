"""Pinned CLI outputs: the sha256 of every subcommand's ``--json`` stdout on
every spec, and of the text stdout of all but ``convert`` (whose stdout is
JSON in both modes), recorded in ``tests/data/spec_outputs.json``.

Criterion 9 compares repeat runs of one build; this file compares a build
against the outputs recorded when the file was last written, so a change that
should not move any number (a refactor, a speed-up) can show that it did not.
A spec and command pair is pinned where the command supports the model (exit
code 0).  After a change that is meant to move an output, rewrite the file
with ``PYTHONPATH=src python tests/test_spec_outputs.py`` and say why in the
change's notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from zerotalk.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
PINNED = ROOT / "tests" / "data" / "spec_outputs.json"

COMMANDS = {
    "jgk": ["jgk", "--json"],
    "oracle": ["oracle", "--json"],
    "verify": ["verify", "--json"],
    "bound --search": ["bound", "--search", "--json"],
    "convert": ["convert", "--to", "hypergraphical", "--json"],
    "simulate --n 1000 --seed 0": ["simulate", "--n", "1000", "--seed", "0", "--json"],
    "jgk (text)": ["jgk"],
    "oracle (text)": ["oracle"],
    "verify (text)": ["verify"],
    "bound --search (text)": ["bound", "--search"],
    "simulate --n 1000 --seed 0 (text)": ["simulate", "--n", "1000", "--seed", "0"],
}


def run(spec: str, command: str) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one command on one spec, in-process.

    The spec is named as ``specs/<spec>`` from the repository root, the form
    ``verify`` prints as its scope."""
    name, *flags = COMMANDS[command]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([name, f"specs/{spec}", *flags])
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def spec_outputs() -> dict:
    """{spec file name: {command: sha256}} for every supported pair."""
    table = {}
    for spec in sorted(SPECS.glob("*.json")):
        row = {}
        for command in COMMANDS:
            code, digest = run(spec.name, command)
            if code == 0:
                row[command] = digest
        table[spec.name] = row
    return table


# An absent file pins nothing, so test_every_spec_is_pinned fails on it.
PINNED_TABLE = json.loads(PINNED.read_text()) if PINNED.exists() else {}


def test_every_spec_is_pinned():
    assert sorted(PINNED_TABLE) == sorted(p.name for p in SPECS.glob("*.json"))


@pytest.mark.parametrize(
    "spec, command",
    [(spec, command) for spec, row in sorted(PINNED_TABLE.items()) for command in row],
)
def test_spec_output_matches_pinned_digest(spec, command):
    code, digest = run(spec, command)
    assert code == 0
    assert digest == PINNED_TABLE[spec][command]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(spec_outputs(), indent=2, sort_keys=True) + "\n")
