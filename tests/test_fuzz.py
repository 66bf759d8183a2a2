"""Seeded mutations of the spec model files, run in-process through the CLI.

Model files are untrusted input: whatever a file holds, every subcommand
must end in one of the documented exit codes (0 ok, 2 parse, 3 model,
4 unsupported, 5 resource) and no exception may leave ``cli.main``.  A
mismatch (1) would mean the engines disagree on a model the parser accepted.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from zerotalk import cli

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))
MUTANTS = 600
VALUES = (None, True, -1, 2**70, 1.5, "x", "1/0", [], {})
COMMANDS = (["jgk"], ["oracle"], ["verify"], ["bound", "--search"], ["simulate", "--n", "50"])
EXIT_CODES = {0, 2, 3, 4, 5}


def _places(doc) -> list:
    """Every (container, key or index) pair in a JSON document."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for k in keys:
            out.append((node, k))
            stack.append(node[k])
    return out


def mutate(rng: random.Random, doc):
    """A copy of doc with one or two keys deleted or values replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((1, 1, 1, 2))):
        places = _places(doc)
        if not places:
            break
        node, key = rng.choice(places)
        if isinstance(node, dict) and rng.random() < 0.3:
            del node[key]
        else:
            node[key] = json.loads(json.dumps(rng.choice(VALUES)))
    return doc


def test_mutated_specs_exit_with_a_documented_code(tmp_path, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "5000")
    rng = random.Random(20261018)
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in SPECS]
    assert docs
    seen = set()
    for i in range(MUTANTS):
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(mutate(rng, rng.choice(docs))), encoding="utf-8")
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in EXIT_CODES, (argv, path.read_text(encoding="utf-8"), code)
            seen.add(code)
    # the mutations reach past the parser: some run, some fail as models
    assert {0, 2, 3} <= seen
