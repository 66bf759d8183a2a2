"""What the package imports, and what each command loads.

Every name a zerotalk module imports is used in that module, so a deletion
that leaves its import behind fails here rather than lingering.  A cold
``import zerotalk.cli`` loads only ``errors``, ``gf`` and ``sources``; each
command imports the rest of what it runs, and the package's exports load
their module on first use.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zerotalk

PACKAGE = Path(zerotalk.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SPECS = PACKAGE.parent.parent / "specs"
# perfbench's tracing patches gf.vec_mat in every namespace that holds it,
# and its tests read these two.
UNUSED_ALLOWED = {("mcf", "vec_mat"), ("sim", "vec_mat")}
DEFERRED = {"zerotalk.mcf", "zerotalk.bounds", "zerotalk.sim"}
EXPORTS = [
    "CommonFunctionWitness", "DiscreteSource", "Edge", "EdgeSubsetWitness", "EntropyProfile",
    "ExpansionTooLarge", "FieldOrder", "FiniteLinearSource", "FiniteMatrix", "HypergraphicalSource",
    "KeyExtractor", "LabelingWitness", "LaminationBound", "ModelError", "NotTwoUsers", "ParseError",
    "Partition", "PartitionInvalid", "SimulationRun", "SubspaceNotContained", "SubspaceWitness",
    "UnsupportedModel", "WitnessInvalid", "ZerotalkError", "all_partitions", "alpha",
    "best_partition", "build_extractor", "chain_bound", "common_function", "entropy_profile",
    "evaluate_witness", "expand_finite_linear", "expand_hypergraphical", "fls_to_hypergraphical",
    "gk_finite_linear", "gk_hypergraphical", "gk_oracle", "jgk", "lamination_bound", "run",
    "shannon_bits", "singleton_partition", "to_discrete",
]


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    quoted = [c.value for a in annotations(tree) for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]  # such as -> "DiscreteSource"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    for node in [tree, *map(ast.parse, quoted)]:
        used.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    imported, used = imported_and_used(ast.parse(path.read_text()))
    unused = {name for name in imported - used if (path.stem, name) not in UNUSED_ALLOWED}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_the_allowed_unused_imports_are_still_imported():
    for stem, name in UNUSED_ALLOWED:
        imported, used = imported_and_used(ast.parse((PACKAGE / f"{stem}.py").read_text()))
        assert name in imported and name not in used, (stem, name)


def _loaded(code: str, *argv: str) -> set[str]:
    """The modules a fresh ``python -S`` process holds after running code,
    which leaves sys.modules' names on stderr."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return set(proc.stderr.split())


def test_cli_import_loads_only_what_every_command_needs():
    """-S makes the check exact: site imports nothing first."""
    loaded = _loaded("import sys, zerotalk.cli; print(*sys.modules, file=sys.stderr)")
    assert {"zerotalk.errors", "zerotalk.gf", "zerotalk.sources"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "hashlib", "random", "typing", *DEFERRED}


@pytest.mark.parametrize("argv, loads", [
    (["convert", "overlap_pair.json", "--to", "hypergraphical"], set()),
    (["jgk", "shared_bit.json"], {"zerotalk.mcf"}),
    (["oracle", "two_coins.json"], {"zerotalk.mcf"}),
    (["bound", "shared_bit.json", "--search"], {"zerotalk.mcf", "zerotalk.bounds"}),
    (["verify", "pairwise_xor.json"], {"zerotalk.mcf", "zerotalk.bounds"}),
    (["simulate", "shared_bit.json", "--n", "10"], {"zerotalk.mcf", "zerotalk.sim"}),
], ids=["convert", "jgk", "oracle", "bound", "verify", "simulate"])
def test_each_command_loads_only_the_modules_it_runs(argv, loads):
    code = ("import sys\nfrom zerotalk import cli\ncode = cli.main(sys.argv[1:])\n"
            "print(*sys.modules, file=sys.stderr)\nsys.exit(code)")
    loaded = _loaded(code, argv[0], str(SPECS / argv[1]), *argv[2:])
    assert loaded & DEFERRED == loads


def test_the_exports_are_the_defining_modules_objects():
    assert zerotalk.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(zerotalk))
    star: dict = {}
    exec("from zerotalk import *", star)
    for name in EXPORTS:
        value = getattr(zerotalk, name)
        assert value is star[name] is getattr(sys.modules[value.__module__], name), name
    with pytest.raises(AttributeError, match="module 'zerotalk' has no attribute 'no_such_name'"):
        zerotalk.no_such_name  # noqa: B018
