"""Seeded mutations of the spec model files, run in-process through the CLI.

Model files are untrusted input: whatever a file holds, every subcommand
must end in one of the documented exit codes (0 ok, 2 parse, 3 model,
4 unsupported, 5 resource) and no exception may leave ``cli.main``.  A
mismatch (1) would mean the engines disagree on a model the parser accepted.
Half of the mutants break the file's types (``mutate``); the other half keep
it well-formed (``reshape``), so that most of them reach the engines.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from zerotalk import cli
from zerotalk.errors import ModelError, ParseError
from zerotalk.sources import DiscreteSource

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))
MUTANTS = 600
VALUES = (None, True, -1, 2**70, 1.5, "x", "1/0", [], {})
FRACTIONS = ("0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1", "5/4")
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


def reshape(rng: random.Random, doc):
    """A copy of doc with one or two changes that keep its types: a small int
    for an int inside a list (matrix entries, subsets, alphabets, symbols),
    another "a/b" string for a probability string, or an edge repeated under
    a new name."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((1, 1, 1, 2))):
        edges = doc.get("edges")
        places = [
            (node, k) for node, k in _places(doc)
            if isinstance(node, list) and type(node[k]) is int or isinstance(node[k], str) and "/" in node[k]
        ]
        if edges and (not places or rng.random() < 0.3):
            edges.append(dict(json.loads(json.dumps(rng.choice(edges))), name=f"copy{len(edges)}"))
        elif places:
            node, k = rng.choice(places)
            node[k] = rng.randrange(4) if type(node[k]) is int else rng.choice(FRACTIONS)
    return doc


def test_mutated_specs_exit_with_a_documented_code(tmp_path, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "5000")
    rng = random.Random(20261018)
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in SPECS]
    assert docs
    codes = {mutate: Counter(), reshape: Counter()}
    for i in range(MUTANTS):
        change = (mutate, reshape)[i % 2]
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(change(rng, rng.choice(docs))), encoding="utf-8")
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in EXIT_CODES, (argv, path.read_text(encoding="utf-8"), code)
            codes[change][code] += 1
    # the mutations reach past the parser: some run, some fail as models
    assert {0, 2, 3} <= set(codes[mutate] + codes[reshape])
    # and most well-formed mutants get past it
    calls = sum(codes[reshape].values())
    assert codes[reshape][2] < calls / 2, codes[reshape]


# wider than the spec's two coins: 3 users, 12 points, masses (i + 1)/78
WIDE_DISCRETE = {"model": "discrete", "alphabets": [3, 4, 2], "pmf": [
    {"symbols": [i % 3, i % 4, i % 2], "p": f"{i + 1}/78"} for i in range(12)]}


def test_discrete_mutants_load_as_the_fraction_constructor_builds_them():
    """A discrete mutant that parses is the source that the public constructor
    builds from Fraction(str) of its strings, in the same key order, or fails
    with the constructor's message."""
    rng = random.Random(20261019)
    docs = [d for d in (json.loads(p.read_text(encoding="utf-8")) for p in SPECS) if d["model"] == "discrete"]
    docs.append(WIDE_DISCRETE)
    outcomes = Counter()
    for i in range(MUTANTS):
        doc = (mutate, reshape)[i % 2](rng, rng.choice(docs))
        try:
            loaded = cli.parse_model(doc)
        except ParseError:
            continue  # a malformed file has no constructor reading
        except ModelError as exc:
            loaded = str(exc)
        masses = {tuple(e["symbols"]): e["p"] if isinstance(e["p"], float) else Fraction(e["p"]) for e in doc["pmf"]}
        try:
            reference = DiscreteSource(doc["alphabets"], masses)
        except ModelError as exc:
            reference = str(exc)
        assert loaded == reference, doc
        if isinstance(loaded, DiscreteSource):
            assert list(loaded.weights) == list(reference.weights)
        outcomes[type(loaded)] += 1
    assert outcomes[DiscreteSource] > 50 and outcomes[str] > 50, outcomes
