"""Benchmark one zerotalk workload from the root of a checkout.

    python3 perfbench/run.py --workload linear-bruteforce --seed 1 --seconds 12 --trace 0

The run writes the workload's seeded model files under perfbench/.work, then
calls ``zerotalk.cli.main(argv)`` in this process as a closed loop: one
thread, each op starting only after the previous one returned.  A pass is
the workload's fixed list of ops; passes repeat until ``--seconds`` have
gone by, and the last pass is always finished.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate, and the last line
carries the per-layer metrics: span totals and counters per pass, layer
self-time shares, the tracing overhead, the layer probes and the cold start.
The line before it is a record of the run (Python version, git SHA, nproc,
seed, pass count, failure reasons).

``--record-goldens`` re-records perfbench/goldens.json from the default seed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
# Runs in a fresh interpreter; interpreter start-up itself is not counted.
SETUP_CODE = """import sys, time
t0 = time.perf_counter()
from zerotalk import cli
for p in sys.argv[1:]:
    cli.load_model(p)
print(time.perf_counter() - t0)
"""

# Per-layer metrics read from span totals: metric -> (span name, field).
SPAN_METRICS = {
    "gf.vec_mat.s": ("gf.vec_mat", "leaf_s"),
    "gf.rref.calls": ("gf.rref", "calls"),
    "gf.rref.s": ("gf.rref", "s"),
    "gf.intersect.calls": ("gf.intersect", "calls"),
    "gf.intersect.s": ("gf.intersect", "s"),
    "gf.extend_basis.calls": ("gf.extend_basis", "calls"),
    "sources.expand.calls": ("sources.expand", "calls"),
    "sources.expand.s": ("sources.expand", "s"),
    "sources.marginal.calls": ("sources.marginal", "leaf_calls"),
    "sources.marginal.s": ("sources.marginal", "leaf_s"),
    "sources.profile.calls": ("sources.profile", "calls"),
    "sources.profile.s": ("sources.profile", "s"),
    "sources.edge_uniform.s": ("sources.edge_uniform", "leaf_s"),
    "bounds.best_partition.calls": ("bounds.best_partition", "calls"),
    "bounds.best_partition.s": ("bounds.best_partition", "s"),
    "bounds.alpha.calls": ("bounds.alpha", "leaf_calls"),
    "bounds.chain.calls": ("bounds.chain", "calls"),
    "bounds.chain.s": ("bounds.chain", "s"),
    "mcf.common_function.s": ("mcf.common_function", "s"),
    "mcf.oracle.calls": ("mcf.oracle", "calls"),
    "mcf.oracle.self_s": ("mcf.oracle", "self_s"),
    "mcf.evaluate_witness.s": ("mcf.evaluate_witness", "s"),
    "sim.build_extractor.s": ("sim.build_extractor", "s"),
    "sim.run.calls": ("sim.run", "calls"),
    "sim.run.s": ("sim.run", "s"),
    "sim.run.self_s": ("sim.run", "self_s"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.s": ("cli.main", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "cli.load_model.s": ("cli.load_model", "s"),
}
COUNTER_METRICS = (
    "gf.vec_mat.mults", "gf.rref.cells", "gf.extend_basis.rank_calls",
    "sources.expand.points_walked", "sources.expand.support_points",
    "sources.profile.pairs", "sources.uniform_entries", "bounds.partitions_scanned",
    "mcf.oracle.unions", "mcf.evaluate_witness.vectors_walked", "sim.rounds",
)


def unit_of(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("us_per_round"):
        return "us"
    if name.endswith("rounds_per_s"):
        return "1/s"
    if name.endswith("_frac") or name.endswith(".yield"):
        return "ratio"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith(".per_op"):
        return "count/op"
    return "count"


def import_cli():
    """Import zerotalk.cli from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "zerotalk"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no zerotalk package at {package}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from zerotalk import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported zerotalk from {cli.__file__}, not from {package}")
    return cli


# --- ops ---


def call(cli, argv: list) -> tuple:
    """(exit code or None if it raised, stdout, seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing op is a failed op, and the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return rc, out.getvalue(), seconds, error or err.getvalue().strip()


def run_pass(cli, argvs: list, tracer=None) -> tuple:
    """One pass over every op; returns (pass wall seconds, per-op results)."""
    gc.collect()
    results = []
    t0 = perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        results.append(call(cli, argv))
    return perf_counter() - t0, results


# --- correctness ---


def judge(w, passes: list, cli, goldens) -> tuple:
    """(failed executions, reasons by op key) over all passes of a run.

    Every pass must repeat the first pass's exit codes and stdout exactly;
    the first pass's outputs then go through the output checks.
    """
    first = passes[0][1]
    docs = {m.name: m.doc for m in w.models}
    refs = {}
    for op, (rc, out, _, _) in zip(w.ops, first):
        if op.command == "jgk" and rc == 0:
            refs[op.model] = json.loads(out)["jgk_bits"]
    for model in {op.model for op in w.ops} - set(refs):
        rc, out, _, _ = call(cli, ["jgk", str(w.model_path(ROOT, model).relative_to(ROOT)), "--json"])
        if rc == 0:
            refs[model] = json.loads(out)["jgk_bits"]
    reasons = {}
    for k, (op, (rc, out, _, error)) in enumerate(zip(w.ops, first)):
        if rc != 0:
            why = f"exit code {rc}: {error[-200:]}"
        else:
            why = checks.check_output(op.command, out, docs[op.model], refs.get(op.model))
            if why is None and goldens is not None:
                why = checks.check_golden(goldens, op.key, op.command, out)
        if why is None and any(p[1][k][:2] != (rc, out) for p in passes[1:]):
            why = "output changed between passes"
        if why is not None:
            reasons[op.key] = why
    return len(reasons) * len(passes), reasons


# --- metrics ---


def fastest_latencies(passes: list) -> list:
    """Each op's latency: its fastest execution over the passes.

    CPU speed on a shared host swings in phases of seconds; the fastest
    repeat is the least disturbed one and also skips first-pass warm-up.
    """
    return [min(p[1][k][2] for p in passes) for k in range(len(passes[0][1]))]


def end_to_end(passes: list, setup_s: float) -> dict:
    lat = sorted(fastest_latencies(passes))
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(w, tracer, untraced: list, traced: list) -> dict:
    n = len(traced)
    totals = tracer.totals()
    metrics = {}
    for name, (span, field) in SPAN_METRICS.items():
        if field == "leaf_calls":
            value = tracer.leaf_calls[span]
        elif field == "leaf_s":
            value = tracer.leaf_seconds[span]
        else:
            calls, total, own = totals.get(span, (0, 0.0, 0.0))
            value = {"calls": calls, "s": total, "self_s": own}[field]
        metrics[name] = value / n
    for name in COUNTER_METRICS:
        metrics[name] = tracer.counts[name] / n
    metrics["gf.vec_mat.calls"] = tracer.leaf_calls["gf.vec_mat"] / n
    walked = metrics["sources.expand.points_walked"]
    metrics["sources.expand.yield"] = metrics["sources.expand.support_points"] / walked if walked else 0.0
    metrics["sources.expand.per_op"] = metrics["sources.expand.calls"] / len(w.ops)
    rounds = metrics["sim.rounds"]
    metrics["sim.us_per_round"] = totals.get("sim.run", (0, 0.0))[1] / n / rounds * 1e6 if rounds else 0.0
    op_wall = totals["cli.main"][1]
    for layer, seconds in tracer.layer_self_seconds().items():
        metrics[f"{layer}.self_frac"] = seconds / op_wall
    metrics["trace.overhead_frac"] = sum(p[0] for p in traced) / sum(p[0] for p in untraced) - 1
    lat = fastest_latencies(untraced)
    sim_s = sum(t for op, t in zip(w.ops, lat) if op.command == "simulate")
    sim_ops = sum(op.command == "simulate" for op in w.ops)
    metrics["sim.rounds_per_s"] = sim_ops * workloads.SIM_ROUNDS / sim_s if sim_s else 0.0
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def setup_seconds(paths: list) -> float:
    """Fresh-process import of zerotalk.cli plus load_model of every model file."""
    argv = ["-c", SETUP_CODE, *(str(p.relative_to(ROOT)) for p in paths)]
    return float(probes.run_python(argv, ROOT))


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


# --- entry points ---


def bench(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = workloads.build(name, seed)
    paths = workloads.write_models(w, ROOT)
    argvs = [workloads.argv_for(w, op, ROOT) for op in w.ops]
    for path in paths:  # the timed process loads the same files before timing
        cli.load_model(str(path.relative_to(ROOT)))
    goldens = checks.load_goldens()[name] if seed == checks.DEFAULT_SEED else None
    untraced, traced, setups = [], [], []
    tracer = tracing.Tracer()
    start = perf_counter()
    while not untraced or perf_counter() - start < seconds:
        untraced.append(run_pass(cli, argvs))
        if trace:
            with tracing.instrument(tracer):
                traced.append(run_pass(cli, argvs, tracer))
        else:  # set-up runs between passes, so its repeats span the run too
            setups.append(setup_seconds(paths))
    while not trace and len(setups) < SETUP_REPS:
        setups.append(setup_seconds(paths))
    failed, reasons = judge(w, untraced + traced, cli, goldens)
    if trace:
        metrics = per_layer(w, tracer, untraced, traced)
        metrics.update(probes.layer_probes(seed, ROOT))
        metrics["cli.cold_start_ms"] = (probes.cold_start_ms(ROOT), "ms")
    else:
        metrics = end_to_end(untraced, statistics.median(setups))
    attempted = len(w.ops) * (len(untraced) + len(traced))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(w.ops), "passes": len(untraced) + len(traced),
        "elapsed_s": perf_counter() - start, "fail_frac": failed / attempted,
        "failures": dict(sorted(reasons.items())[:20]),
    }
    return {"record": record, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_goldens(cli) -> None:
    goldens = {}
    for name in workloads.WORKLOADS:
        w = workloads.build(name, checks.DEFAULT_SEED)
        workloads.write_models(w, ROOT)
        passes = [run_pass(cli, [workloads.argv_for(w, op, ROOT) for op in w.ops])]
        failed, reasons = judge(w, passes, cli, None)
        if failed:
            sys.exit(f"error: {name} fails its checks, goldens not written: {reasons}")
        goldens[name] = {op.key: checks.digest(out) for op, (_, out, _, _) in zip(w.ops, passes[0][1])
                         if op.command != "simulate"}
    checks.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")
    os.environ.pop("ZEROTALK_EXPANSION_LIMIT", None)
    cli = import_cli()
    if args.record_goldens:
        record_goldens(cli)
        return 0
    result = bench(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": result["record"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
