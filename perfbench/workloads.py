"""Seeded model files and operation lists for the benchmark workloads.

Every workload has a fixed size schedule: the field orders, dimensions, user
counts, edge alphabets and support sizes are the same for every seed, so the
cost of a pass does not depend on the seed.  The seed only draws the contents
(matrix entries, edge subsets, pmfs, support points) and the order of the
operations.  A model file is the only thing the program sees.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("linear-bruteforce", "edge-bounds", "simulate")

# Rounds per simulate op; every simulate op uses the same count, so the
# simulate workload's ops_per_s times this is its rounds per second.
SIM_ROUNDS = 1000


@dataclass(frozen=True)
class Op:
    """One CLI call: ``key`` is stable across seeds and names the golden."""

    key: str
    model: str
    command: str
    argv: tuple


@dataclass(frozen=True)
class Model:
    name: str
    doc: dict


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    models: tuple
    ops: tuple

    def model_path(self, root: Path, model: str) -> Path:
        return work_dir(root, self.name, self.seed) / f"{model}.json"


def work_dir(root: Path, workload: str, seed: int) -> Path:
    return root / "perfbench" / ".work" / f"{workload}-s{seed}"


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_models(w: Workload, root: Path) -> list:
    """Write every model file of the workload; returns their paths."""
    directory = work_dir(root, w.name, w.seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for m in w.models:
        path = directory / f"{m.name}.json"
        path.write_text(render(m.doc), encoding="utf-8")
        paths.append(path)
    return paths


# --- GF(q) helpers for drawing models of an exact rank ---


def _rank(rows: list, q: int) -> int:
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        sel = next((i for i in range(rank, len(work)) if work[i][c] % q), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        inv = pow(work[rank][c], -1, q)
        work[rank] = [(x * inv) % q for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % q for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _random_rows(rng: random.Random, q: int, rows: int, cols: int) -> list:
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def _full_rank_rows(rng: random.Random, q: int, rows: int, cols: int) -> list:
    while True:
        m = _random_rows(rng, q, rows, cols)
        if _rank(m, q) == min(rows, cols):
            return m


def _matmul(a: list, b: list, q: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def _hcat(*blocks: list) -> list:
    return [sum((list(b[i]) for b in blocks), []) for i in range(len(blocks[0]))]


def linear_doc(rng: random.Random, q: int, dim: int, rank: int, users: int, shared: int) -> dict:
    """Finite linear model whose stacked observation matrix has rank ``rank``.

    In rank-dimensional coordinates user i sees [S G_i | P_i]: a mixed copy
    of a shared basis S plus private columns.  The stacked [S | P_1 | ...]
    is redrawn until it has full rank, so the joint support always has
    exactly q**rank points out of q**dim hidden vectors walked.  A random
    dim x rank embedding of full rank lifts it to the hidden space.
    """
    private = math.ceil((rank - shared) / users) + 1
    while True:
        s = _random_rows(rng, q, rank, shared)
        ps = [_random_rows(rng, q, rank, private) for _ in range(users)]
        if _rank(_hcat(s, *ps), q) == rank:
            break
    embed = _full_rank_rows(rng, q, dim, rank)
    matrices = {}
    for i, p in enumerate(ps, start=1):
        if shared:
            mixed = _matmul(s, _full_rank_rows(rng, q, shared, shared), q)
            block = _hcat(mixed, p)
        else:
            block = p
        order = list(range(len(block[0])))
        rng.shuffle(order)
        block = [[row[j] for j in order] for row in block]
        matrices[str(i)] = _matmul(embed, block, q)
    return {"model": "finite_linear", "q": q, "dim": dim, "matrices": matrices}


def _pmf_strings(rng: random.Random, size: int) -> list:
    weights = [rng.randint(1, 9) for _ in range(size)]
    total = sum(weights)
    return [f"{w}/{total}" for w in weights]


def hyper_doc(rng: random.Random, users: int, alphabets: list, global_edges: int,
              uniform_global: bool = False) -> dict:
    """Hypergraphical model; the first ``global_edges`` edges are seen by all.

    Odd-numbered edges carry a random exact pmf, the others are uniform, so
    every seed has the same mix of exact arithmetic.
    """
    edges = []
    everyone = list(range(1, users + 1))
    for k, size in enumerate(alphabets):
        if k < global_edges:
            subset = everyone
        else:
            subset = sorted(rng.sample(everyone, rng.randint(1, users - 1)))
        edge = {"name": f"e{k}", "subset": subset}
        if k % 2 and not (uniform_global and k < global_edges):
            edge["pmf"] = _pmf_strings(rng, size)
        else:
            edge["uniform"] = size
        edges.append(edge)
    return {"model": "hypergraphical", "users": users, "edges": edges}


def discrete_doc(rng: random.Random, users: int, blocks: int, block_size: int,
                 points_per_block: int, uniform_blocks: bool) -> dict:
    """Discrete model made of ``blocks`` groups of support points.

    User 1 sees the group index itself, so each group is one connected
    component of the support; the other users see a symbol from the group's
    own range of ``block_size``.  With ``uniform_blocks`` every group has
    mass 1/blocks, so the common function is uniform on ``blocks`` labels.
    """
    if points_per_block > block_size ** (users - 1):
        raise ValueError("a block cannot hold that many distinct points")
    alphabets = [blocks] + [blocks * block_size] * (users - 1)
    grid = [range(k * block_size, (k + 1) * block_size) for k in range(blocks)]
    weights = {}
    for k in range(blocks):
        points = set()
        while len(points) < points_per_block:
            points.add((k, *(rng.choice(grid[k]) for _ in range(users - 1))))
        for p in sorted(points):
            weights[p] = rng.randint(1, 9)
    pmf = []
    block_totals = {}
    for p, w in weights.items():
        block_totals[p[0]] = block_totals.get(p[0], 0) + w
    total = sum(weights.values())
    for p, w in sorted(weights.items()):
        if uniform_blocks:
            prob = f"{w}/{block_totals[p[0]] * blocks}"
        else:
            prob = f"{w}/{total}"
        pmf.append({"symbols": list(p), "p": prob})
    return {"model": "discrete", "alphabets": alphabets, "pmf": pmf}


# --- the three workloads ---

# (q, dim, rank, users, shared): q**dim hidden vectors walked per expansion,
# q**rank support points.  Spans q**dim from 2**3 to 3**7 (about 2**11).
LINEAR_SCHEDULE = (
    (2, 3, 3, 2, 1), (2, 4, 4, 2, 1), (2, 5, 4, 3, 1), (2, 6, 6, 4, 2),
    (2, 7, 6, 2, 2), (2, 8, 8, 3, 2), (2, 9, 7, 4, 2), (2, 10, 9, 2, 3),
    (2, 10, 8, 3, 2), (2, 9, 6, 4, 2), (2, 10, 8, 2, 3), (2, 11, 6, 2, 2),
    (3, 2, 2, 2, 1), (3, 3, 3, 3, 1), (3, 4, 3, 4, 1), (3, 4, 4, 2, 1),
    (3, 5, 5, 2, 2), (3, 6, 5, 3, 2), (3, 6, 6, 2, 2), (3, 6, 4, 3, 2),
    (3, 7, 4, 2, 2),
    (5, 2, 2, 3, 1), (5, 3, 2, 3, 1), (5, 3, 3, 2, 1), (5, 4, 3, 3, 1),
    (5, 4, 4, 2, 2), (5, 4, 3, 2, 1),
)
# (users, blocks, block_size, points_per_block)
LINEAR_DISCRETE = ((3, 6, 6, 30), (3, 10, 5, 20), (4, 8, 4, 25))

# (users, alphabets, global_edges)
EDGE_SCHEDULE = (
    (3, [2, 3, 3], 1), (3, [2, 2, 3, 3], 0), (3, [3, 3, 2, 2, 2], 1),
    (4, [2, 3, 3], 0), (4, [3, 2, 2, 3, 2], 1), (4, [2, 2, 2, 2, 3, 3], 1),
    (5, [2, 2, 3, 3], 1), (5, [2, 2, 2, 3, 3], 0), (5, [3, 2, 2, 2, 2, 2], 1),
    (6, [2, 3, 3], 1), (6, [2, 2, 2, 2, 3], 0), (6, [3, 2, 2, 2, 2, 2], 1),
    (7, [2, 2, 3], 1), (7, [2, 2, 2, 2], 0), (7, [2, 2, 2, 2, 2], 1),
    (8, [2, 2, 2], 1), (6, [2, 2, 2, 2], 0), (7, [2, 3, 2, 2], 1),
)
# (users, small alphabets, size of the one large uniform edge).  The large
# sizes are q**2 for q = 53, 61, 79, 97: what convert emits for a shared
# two-dimensional space over those fields.
EDGE_UNIFORM_SCHEDULE = (
    (3, [2, 3], 53**2), (4, [2, 2, 3], 61**2),
    (5, [3, 2, 2], 79**2), (6, [2, 2, 2, 3], 97**2),
)
EDGE_REPEATS = 2

# Simulate models all have uniform keys on at least 16 labels: the
# simulator's rate check then has no variance term, and a false alarm of its
# label-count allowance is below 1e-8 per run.  Linear models cost about five
# times more per round than the others, so they get fewer ops per pass.
# hypergraphical: (users, global uniform alphabets, other alphabets)
SIM_HYPER = ((3, [4, 4], [2, 3]), (4, [16], [2, 2, 3]), (5, [2, 2, 2, 2], [3, 2]),
             (3, [8, 3], [2, 2, 2, 2]))
# finite linear: (q, dim, rank, users, shared)
SIM_LINEAR = ((2, 8, 8, 3, 4), (2, 10, 9, 2, 5), (3, 6, 6, 3, 3), (3, 7, 6, 2, 4))
# discrete: (users, blocks, block_size, points_per_block)
SIM_DISCRETE = ((3, 16, 4, 6), (4, 20, 3, 5))
# simulate ops per model of each family, per pass
SIM_OPS = {"h": 16, "fl": 4, "d": 11}


def _linear_bruteforce(rng: random.Random) -> tuple:
    models, ops = [], []
    for q, dim, rank, users, shared in LINEAR_SCHEDULE:
        name = f"fl{len(models):02d}"
        models.append(Model(name, linear_doc(rng, q, dim, rank, users, shared)))
        commands = ["verify", "oracle", "jgk"] + (["convert"] if users == 2 else [])
        ops.extend(_ops(name, commands))
    for users, blocks, size, per in LINEAR_DISCRETE:
        name = f"d{len(models):02d}"
        models.append(Model(name, discrete_doc(rng, users, blocks, size, per, False)))
        ops.extend(_ops(name, ["verify", "oracle", "jgk"]))
    return models, ops


def _edge_bounds(rng: random.Random) -> tuple:
    models, ops = [], []
    for _ in range(EDGE_REPEATS):
        for users, alphabets, global_edges in EDGE_SCHEDULE:
            name = f"h{len(models):02d}"
            models.append(Model(name, hyper_doc(rng, users, alphabets, global_edges)))
            ops.extend(_ops(name, ["bound", "verify", "jgk"]))
    for users, alphabets, large in EDGE_UNIFORM_SCHEDULE:
        name = f"u{len(models):02d}"
        doc = hyper_doc(rng, users, alphabets, 1)
        doc["edges"].insert(rng.randrange(len(doc["edges"]) + 1),
                            {"name": "wide", "subset": sorted(rng.sample(range(1, users + 1), 2)),
                             "uniform": large})
        models.append(Model(name, doc))
        ops.extend(_ops(name, ["bound", "jgk"]))
    return models, ops


def _simulate(rng: random.Random) -> tuple:
    models = []
    for users, global_sizes, other in SIM_HYPER:
        doc = hyper_doc(rng, users, global_sizes + other, len(global_sizes), uniform_global=True)
        models.append(Model(f"h{len(models):02d}", doc))
    for q, dim, rank, users, shared in SIM_LINEAR:
        models.append(Model(f"fl{len(models):02d}", linear_doc(rng, q, dim, rank, users, shared)))
    for users, blocks, size, per in SIM_DISCRETE:
        models.append(Model(f"d{len(models):02d}", discrete_doc(rng, users, blocks, size, per, True)))
    ops = []
    for m in models:
        for k in range(SIM_OPS[m.name.rstrip("0123456789")]):
            sim_seed = rng.randrange(10**6)
            ops.append(Op(f"{m.name} simulate#{k}", m.name, "simulate",
                          ("simulate", "{model}", "--n", str(SIM_ROUNDS), "--seed", str(sim_seed), "--json")))
    return models, ops


_ARGV = {
    "verify": ("verify", "{model}", "--json"),
    "oracle": ("oracle", "{model}", "--json"),
    "jgk": ("jgk", "{model}", "--json"),
    "convert": ("convert", "{model}", "--to", "hypergraphical"),
    "bound": ("bound", "{model}", "--search", "--json"),
}


def _ops(model: str, commands: list) -> list:
    return [Op(f"{model} {c}", model, c, _ARGV[c]) for c in commands]


_BUILDERS = {
    "linear-bruteforce": _linear_bruteforce,
    "edge-bounds": _edge_bounds,
    "simulate": _simulate,
}


def build(name: str, seed: int) -> Workload:
    """The workload's models and its pass of ops, in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    models, ops = _BUILDERS[name](rng)
    rng.shuffle(ops)
    return Workload(name, seed, tuple(models), tuple(ops))


def argv_for(w: Workload, op: Op, root: Path) -> list:
    path = w.model_path(root, op.model).relative_to(root)
    return [str(path) if a == "{model}" else a for a in op.argv]
