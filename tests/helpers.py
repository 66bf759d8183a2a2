"""Shared test utilities: random model generators and reference algorithms."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from zerotalk.errors import ModelError, SubspaceNotContained
from zerotalk.gf import FiniteMatrix, columns_subset, hstack, rank, vec_mat
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    shannon_bits,
)


def random_hypergraphical(rng: random.Random, users: int, edge_count: int) -> HypergraphicalSource:
    names = [f"e{i}" for i in range(edge_count)]
    all_users = list(range(1, users + 1))
    edges = []
    for name in names:
        k = rng.randrange(1, users + 1)
        subset = frozenset(rng.sample(all_users, k))
        edges.append(Edge.uniform(name, subset, rng.choice([2, 2, 3])))
    return HypergraphicalSource(users, tuple(edges))


def random_fls(rng: random.Random, users: int) -> FiniteLinearSource:
    q = rng.choice([2, 3])
    dim = rng.randrange(1, 4)
    mats = tuple(
        FiniteMatrix(q, dim, cols, tuple(rng.randrange(q) for _ in range(dim * cols)))
        for cols in (rng.randrange(0, 3) for _ in range(users))
    )
    return FiniteLinearSource(q, dim, mats)


def bfs_components(support):
    """Quadratic pairwise-linkage reference: link realizations sharing any
    coordinate, return (component id per index, component count)."""
    n = len(support)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if any(a == b for a, b in zip(support[i], support[j])):
                adj[i].append(j)
                adj[j].append(i)
    comp = [-1] * n
    count = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = count
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp[v] == -1:
                    comp[v] = count
                    stack.append(v)
        count += 1
    return comp, count


def partition_of(labeling):
    blocks = {}
    for realization, label in labeling.items():
        blocks.setdefault(label, set()).add(realization)
    return {frozenset(b) for b in blocks.values()}


# --- reference algorithms kept from the greedy and q**dim implementations ---


def greedy_extend_basis(base: FiniteMatrix, target: FiniteMatrix) -> FiniteMatrix:
    """extend_basis by one rank call per target column: add a column when it
    raises the rank of [base | picked so far]."""
    if base.q != target.q or base.rows != target.rows:
        raise ValueError("base and target must share field and row count")
    if rank(base) != base.cols:
        raise ModelError("base must have full column rank")
    target_rank = rank(target)
    if rank(hstack(target, base)) != target_rank:
        raise SubspaceNotContained("base spans vectors outside the target space")
    picked: list[int] = []
    current = base.cols
    for j in range(target.cols):
        if current == target_rank:
            break
        r = rank(hstack(base, columns_subset(target, picked + [j])))
        if r > current:
            picked.append(j)
            current = r
    return columns_subset(target, picked)


def _digits(values, q: int) -> int:
    idx = 0
    for v in values:
        idx = idx * q + v
    return idx


def hidden_walk_expansion(f: FiniteLinearSource) -> DiscreteSource:
    """Joint pmf of a finite linear source by walking all q**dim hidden
    vectors x and adding mass q**-dim at the observations x @ M_i."""
    q = int(f.q)
    weight = Fraction(1, q**f.dim)
    pmf: dict = {}
    for x in product(range(q), repeat=f.dim):
        key = tuple(_digits(vec_mat(x, m), q) for m in f.matrices)
        pmf[key] = pmf.get(key, 0) + weight
    return DiscreteSource(tuple(q**m.cols for m in f.matrices), pmf)


def hidden_walk_witness_bits(f: FiniteLinearSource, basis: FiniteMatrix) -> float:
    """Entropy of x @ basis by counting images over all q**dim hidden x."""
    q = int(f.q)
    total = q**f.dim
    counts: dict = {}
    for x in product(range(q), repeat=f.dim):
        image = vec_mat(x, basis)
        counts[image] = counts.get(image, 0) + 1
    return shannon_bits(Fraction(c, total) for c in counts.values())
