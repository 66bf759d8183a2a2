"""What the package imports, and what each command loads.

Every name a zerotalk module imports is used in that module, so a deletion
that leaves its import behind fails here rather than lingering.  A cold
``import zerotalk.cli`` loads only ``errors`` and ``sources``; each command
imports the rest of what it runs, ``gf`` loads with the first finite linear
model or ``simulate``, and the package's exports load their module on first
use.  A source pickled in one process runs every engine in a fresh one.
"""

from __future__ import annotations

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import zerotalk

PACKAGE = Path(zerotalk.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SPECS = PACKAGE.parent.parent / "specs"
# perfbench's tracing patches gf.vec_mat in every namespace that holds it,
# and its tests read sim.vec_mat (and mcf.vec_mat, which mcf's __getattr__ serves).
UNUSED_ALLOWED = {("sim", "vec_mat")}
MCF, BOUNDS, SIM, GF = "zerotalk.mcf", "zerotalk.bounds", "zerotalk.sim", "zerotalk.gf"
DEFERRED = {MCF, BOUNDS, SIM, GF}
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


def _python(code: str, *argv: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """A fresh ``python -S`` process running code; -S makes an import check
    exact, as site imports nothing first."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], input=stdin,
                          capture_output=True, env=env, timeout=60)


def _loaded(code: str, *argv: str) -> tuple[int, set[str]]:
    """The exit code of code and the modules the process then holds, which
    code prints as the last line of stderr."""
    proc = _python(code, *argv)
    return proc.returncode, set(proc.stderr.decode().splitlines()[-1].split())


def test_cli_import_loads_only_what_every_command_needs():
    code, loaded = _loaded("import sys, zerotalk.cli; print(*sys.modules, file=sys.stderr)")
    assert code == 0
    assert {"zerotalk.errors", "zerotalk.sources"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "hashlib", "random", "typing", *DEFERRED}


FAMILIES = {"edge": "shared_bit.json", "discrete": "two_coins.json", "linear": "overlap_pair.json"}
# command -> (exit code, deferred modules loaded) on an edge, a discrete and a
# linear model: only a linear model or the simulator loads gf, and a
# discrete model's verify runs no bound
COMMANDS = {
    "jgk": ((0, {MCF}), (0, {MCF}), (0, {MCF, GF})),
    "oracle": ((0, {MCF}), (0, {MCF}), (0, {MCF, GF})),
    "verify": ((0, {MCF, BOUNDS}), (0, {MCF}), (0, {MCF, BOUNDS, GF})),
    "bound --search": ((0, {MCF, BOUNDS}), (4, {MCF, BOUNDS}), (0, {MCF, BOUNDS, GF})),
    "convert --to hypergraphical": ((4, set()), (4, set()), (0, {GF})),
    "simulate --n 10": ((0, {MCF, SIM, GF}),) * 3,
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command, family):
    name, *options = command.split()
    code = ("import sys\nfrom zerotalk import cli\ncode = cli.main(sys.argv[1:])\n"
            "print(*sys.modules, file=sys.stderr)\nsys.exit(code)")
    exit_code, loaded = _loaded(code, name, str(SPECS / FAMILIES[family]), *options)
    assert (exit_code, loaded & DEFERRED) == COMMANDS[command][list(FAMILIES).index(family)]


def test_mcf_vec_mat_is_gf_vec_mat():
    from zerotalk import gf, mcf

    assert mcf.vec_mat is gf.vec_mat
    with pytest.raises(AttributeError, match="module 'zerotalk.mcf' has no attribute 'row_space_keys'"):
        mcf.row_space_keys  # noqa: B018


def test_gf_is_int_is_errors_is_int():
    from zerotalk import errors, gf

    assert gf.is_int is errors.is_int


# jgk and verify run before sim, whose import loads gf
UNPICKLED_RUN = """
import pickle, sys
from zerotalk import cli, mcf
s = pickle.loads(sys.stdin.buffer.read())
out = [mcf.jgk(s), cli._verify_one(s)]
from zerotalk import sim
out.append(sim.run(s, 500, 7))
sys.stdout.buffer.write(pickle.dumps(out))
"""


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
@pytest.mark.parametrize("family", FAMILIES)
def test_an_unpickled_source_runs_in_a_fresh_process(family, used):
    """A used source carries what it cached, a linear one its reduced basis
    and its matrices' packed columns."""
    from zerotalk import cli, mcf, sim

    s = cli.load_model(str(SPECS / FAMILIES[family]))
    pickled = pickle.dumps(s)
    want = [mcf.jgk(s), cli._verify_one(s), sim.run(s, 500, 7)]
    if used:
        pickled = pickle.dumps(s)
    if family == "linear":
        assert all(("packed_cols" in vars(m)) is used for m in pickle.loads(pickled).matrices)
    proc = _python(UNPICKLED_RUN, stdin=pickled)
    assert proc.returncode == 0, proc.stderr.decode()
    assert pickle.loads(proc.stdout) == want


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
