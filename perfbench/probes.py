"""Single-layer probes: the ROADMAP baseline table, re-measured per run.

Each probe times one library call on an input drawn from the run's seed, with
no tracing, and reports milliseconds (or microseconds per simulated round).
The multi-second rows of that table (the oracle at dim 17, the profile at
m = 11 and ``Edge.uniform(10**6)``) are replaced by smaller sizes.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def _ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def _matrix(rng, q, rows, cols):
    from zerotalk.gf import FiniteMatrix

    return FiniteMatrix(q, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))


def _linear(rng, q, dim, users, cols):
    from zerotalk.sources import FiniteLinearSource

    return FiniteLinearSource(q, dim, tuple(_matrix(rng, q, dim, cols) for _ in range(users)))


def _hypergraph(rng, users, edges):
    from zerotalk.sources import Edge, HypergraphicalSource

    everyone = range(1, users + 1)
    return HypergraphicalSource(users, tuple(
        Edge.uniform(f"e{k}", rng.sample(everyone, rng.randint(2, users - 1)), 2)
        for k in range(edges)))


def _round_us(source, n: int) -> float:
    from zerotalk.sim import run

    t0 = perf_counter()
    run(source, n=n, seed=1)
    return (perf_counter() - t0) / n * 1e6


def layer_probes(seed: int, root: Path) -> dict:
    """Per-layer probe metrics by name, as (value, unit)."""
    from zerotalk import cli, gf
    from zerotalk.bounds import best_partition
    from zerotalk.mcf import gk_oracle
    from zerotalk.sources import Edge, entropy_profile

    rng = random.Random(f"probes:{seed}")
    out = {}
    for n in (64, 128):
        m = _matrix(rng, 2, n, n)
        out[f"gf.rank_{n}.ms"] = _ms(lambda: gf.rank(m), 3)
    target = _matrix(rng, 2, 64, 32)
    base = gf.reduce_to_full_column_rank(gf.matmul(target, _matrix(rng, 2, 32, 16)))
    out["gf.extend_basis_64x32.ms"] = _ms(lambda: gf.extend_basis(base, target), 3)
    for dim, reps in ((10, 3), (14, 1)):
        f = _linear(rng, 2, dim, 3, dim // 2)
        out[f"mcf.oracle_dim{dim}.ms"] = _ms(lambda: gk_oracle(f), reps)
    for users, reps in ((8, 3), (10, 1)):
        h = _hypergraph(rng, users, users)
        out[f"sources.profile_m{users}.ms"] = _ms(lambda: entropy_profile(h), reps)
    for users in (6, 7, 8):
        h = _hypergraph(rng, users, users)
        out[f"bounds.best_partition_m{users}.ms"] = _ms(lambda: best_partition(h), 3)
    shared_bit = cli.load_model(str(root / "specs" / "shared_bit.json"))
    out["sim.round_us.shared_bit"] = _round_us(shared_bit, 20000)
    out["sim.round_us.gf2_8"] = _round_us(_linear(rng, 2, 8, 3, 4), 5000)
    out["sources.edge_uniform_1e5.ms"] = _ms(lambda: Edge.uniform("e", {1, 2}, 10**5), 1)
    return {k: (v, "us" if ".round_us." in k else "ms") for k, v in out.items()}


def run_python(argv: list, root: Path) -> str:
    """stdout of ``python <argv>`` in a fresh interpreter using this checkout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("ZEROTALK_EXPANSION_LIMIT", None)
    return subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def cold_start_ms(root: Path, reps: int = 5) -> float:
    """Median wall time of a whole ``python -m zerotalk jgk`` process."""
    argv = ["-m", "zerotalk", "jgk", "specs/shared_bit.json", "--json"]
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        run_python(argv, root)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000
