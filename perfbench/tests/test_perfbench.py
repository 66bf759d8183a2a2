"""Self-tests of the benchmark: its inputs, its output checks and its trace.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_cli()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def prepared(name: str, seed: int = checks.DEFAULT_SEED):
    w = workloads.build(name, seed)
    workloads.write_models(w, run.ROOT)
    return w, [workloads.argv_for(w, op, run.ROOT) for op in w.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_writes_identical_model_files(tmp_path, name):
    first = workloads.write_models(workloads.build(name, 11), tmp_path / "a")
    second = workloads.write_models(workloads.build(name, 11), tmp_path / "b")
    other = workloads.write_models(workloads.build(name, 12), tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    assert len(workloads.build(name, 11).ops) >= 100


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_matches_untraced_pass(name):
    w, argvs = prepared(name)
    _, plain = run.run_pass(CLI, argvs)
    assert [r[0] for r in plain] == [0] * len(argvs)  # in particular, no exit code 5
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, traced = run.run_pass(CLI, argvs, tracer)
    assert [r[:2] for r in traced] == [r[:2] for r in plain]
    failed, reasons = run.judge(w, [(0.0, plain), (0.0, traced)], CLI, checks.load_goldens()[name])
    assert (failed, reasons) == (0, {})
    spans = tracer.spans()
    assert sum(1 for s in spans if s[0] == "cli.main") == len(argvs)
    for span_name, start, end, parent, op, self_s in spans:
        assert end >= start
        assert self_s >= -1e-9, (span_name, self_s)  # zero up to float rounding
        if parent >= 0:
            assert spans[parent][4] == op


def test_instrument_patches_every_namespace_and_restores_it():
    from zerotalk import cli, gf, mcf, sim, sources

    originals = (gf.vec_mat, mcf.vec_mat, sim.vec_mat, cli.entropy_profile,
                 sources.Edge.__dict__["uniform"], sources.DiscreteSource.marginal)
    with tracing.instrument(tracing.Tracer()):
        assert gf.vec_mat is mcf.vec_mat is sim.vec_mat
        assert gf.vec_mat is not originals[0]
        assert cli.entropy_profile is sources.entropy_profile is not originals[3]
        assert sources.Edge.uniform("e", {1}, 2).alphabet_size == 2
    assert (gf.vec_mat, mcf.vec_mat, sim.vec_mat, cli.entropy_profile,
            sources.Edge.__dict__["uniform"], sources.DiscreteSource.marginal) == originals


def _outputs() -> dict:
    """(command, model family) -> (op, stdout, model doc, jgk of the model)."""
    found = {}
    for name in workloads.WORKLOADS:
        w, argvs = prepared(name)
        docs = {m.name: m.doc for m in w.models}
        outs = [run.call(CLI, argv) for argv in argvs]
        assert [rc for rc, *_ in outs] == [0] * len(outs)
        refs = {op.model: json.loads(out)["jgk_bits"]
                for op, (_, out, _, _) in zip(w.ops, outs) if op.command == "jgk"}
        for op, (_, out, _, _) in zip(w.ops, outs):
            found.setdefault((op.command, docs[op.model]["model"]),
                             (op, out, docs[op.model], refs.get(op.model)))
    return found


def _corruptions(command: str, out: dict) -> list:
    if command == "jgk" or command == "oracle":
        return [dict(out, jgk_bits=out["jgk_bits"] + 1)]
    if command == "verify":
        return [dict(out, all_ok=False), dict(out, passed=out["total"] - 1)]
    if command == "bound":
        return [dict(out, intercept_bits=out["intercept_bits"] + 1),
                dict(out, partition=[[u] for u in range(1, 3)])]
    if command == "convert":
        edges = [dict(e, uniform=e["uniform"] * 2) if e["name"] == "shared" else e
                 for e in out["edges"]]
        if not any(e["name"] == "shared" for e in edges):
            edges.append({"name": "shared", "subset": [1, 2], "uniform": 2})
        return [dict(out, edges=edges), dict(out, users=3)]
    assert command == "simulate"
    return [dict(out, agreement=False), dict(out, rate_ok=False),
            dict(out, discussion_bits=1),
            dict(out, expected_rate_bits=out["expected_rate_bits"] + 1)]


def test_each_check_rejects_a_corrupted_output():
    found = _outputs()
    assert {command for command, _ in found} == set(checks.CHECKS)
    goldens = checks.load_goldens()
    for (command, _), (op, out, doc, ref) in found.items():
        if command == "simulate":
            ref = json.loads(out)["expected_rate_bits"]
        assert checks.check_output(command, out, doc, ref) is None, command
        for bad in _corruptions(command, json.loads(out)):
            assert checks.check_output(command, json.dumps(bad), doc, ref) is not None, (command, bad)
        assert checks.check_output(command, out[: len(out) // 2], doc, ref) is not None
        if command != "simulate":
            golden = next(g for g in goldens.values() if op.key in g)
            assert checks.check_golden(golden, op.key, command, out) is None
            assert checks.check_golden(golden, op.key, command, out + " ") is not None


def test_metric_names_match_benchmark_json():
    plain = run.bench(CLI, "edge-bounds", checks.DEFAULT_SEED, 0.0, trace=False)
    traced = run.bench(CLI, "simulate", checks.DEFAULT_SEED, 0.0, trace=True)
    assert plain["failed"] == traced["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec_list, metrics in ((SPEC["end_to_end"], plain["metrics"]),
                               (SPEC["per_layer"], traced["metrics"])):
        for m in spec_list:
            assert metrics[m["name"]][1] == m["unit"], m["name"]
    assert all(v > 0 for v, _ in plain["metrics"].values())
    for key in ("python", "git_sha", "nproc", "seed"):
        assert key in plain["record"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
