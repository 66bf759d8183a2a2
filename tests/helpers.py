"""Shared test utilities: random model generators and reference algorithms."""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from itertools import product
from operator import add
from typing import Iterator

from zerotalk.bounds import LaminationBound, Partition, all_partitions, alpha, lamination_bound
from zerotalk.errors import ModelError, PartitionInvalid, SubspaceNotContained
from zerotalk.gf import (
    FiniteMatrix,
    columns_subset,
    hstack,
    rank,
    row_space_basis,
    solve,
    vec_mat,
)
from zerotalk.mcf import EdgeSubsetWitness, LabelingWitness, SubspaceWitness
from zerotalk.sources import (
    ENTROPY_TOLERANCE,
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    shannon_bits,
)


def identity(q, n: int) -> FiniteMatrix:
    return FiniteMatrix(q, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def zeros(q, rows: int, cols: int) -> FiniteMatrix:
    return FiniteMatrix(q, rows, cols, (0,) * (rows * cols))


def block_of(p: Partition, user: int) -> int:
    """Index of the block of p holding user, by a scan over the blocks."""
    for i, block in enumerate(p.blocks):
        if user in block:
            return i
    raise PartitionInvalid(f"user {user} not in partition")


def random_hypergraphical(rng: random.Random, users: int, edge_count: int) -> HypergraphicalSource:
    names = [f"e{i}" for i in range(edge_count)]
    all_users = list(range(1, users + 1))
    edges = []
    for name in names:
        k = rng.randrange(1, users + 1)
        subset = frozenset(rng.sample(all_users, k))
        edges.append(Edge.uniform(name, subset, rng.choice([2, 2, 3])))
    return HypergraphicalSource(users, tuple(edges))


def random_fls(rng: random.Random, users: int, q: int | None = None) -> FiniteLinearSource:
    q = q if q is not None else rng.choice([2, 3])
    dim = rng.randrange(1, 4)
    mats = tuple(
        FiniteMatrix(q, dim, cols, tuple(rng.randrange(q) for _ in range(dim * cols)))
        for cols in (rng.randrange(0, 3) for _ in range(users))
    )
    return FiniteLinearSource(q, dim, mats)


def random_discrete(rng: random.Random, users: int) -> DiscreteSource:
    """Random support on small alphabets with exact random masses."""
    alphabets = tuple(rng.randrange(2, 5) for _ in range(users))
    points = list(product(*(range(a) for a in alphabets)))
    support = rng.sample(points, rng.randrange(1, min(len(points), 12) + 1))
    weights = [rng.randrange(1, 10) for _ in support]
    return DiscreteSource(alphabets, {r: Fraction(w, sum(weights)) for r, w in zip(support, weights)})


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


def row_space(basis: FiniteMatrix) -> Iterator[tuple[int, ...]]:
    """Stream every GF(q) combination of the rows of basis, each exactly once.

    With linearly independent rows (as from row_space_basis) these are the
    q**rows distinct points of the row space; zero rows yield the single
    zero vector.  The walk is an odometer over the coefficients with the
    first row's turning fastest.  Stepping a coefficient adds its row once,
    and a wrap from q-1 back to 0 adds the q-th copy, which is zero mod q,
    so a point costs one vector addition plus amortized carries.  Nothing
    is materialized.  The reference walk for gf.row_space_keys.
    """
    q = int(basis.q)
    reduce = q.__rmod__

    def plus(u, v):
        return tuple(map(reduce, map(add, u, v)))

    rows = [basis.row(i) for i in range(basis.rows)]
    start = (0,) * basis.cols
    if not rows:
        yield start
        return
    first, rest = rows[0], rows[1:]
    digits = [0] * len(rest)
    while True:
        point = start
        yield point
        for _ in range(q - 1):
            point = plus(point, first)
            yield point
        for k, row in enumerate(rest):
            start = plus(start, row)
            if digits[k] < q - 1:
                digits[k] += 1
                break
            digits[k] = 0
        else:
            return


def reference_row_space_keys(basis: FiniteMatrix, widths) -> list:
    """row_space cut into slices of the given widths, each encoded digit by
    digit in base q."""
    q = int(basis.q)
    bounds = [(sum(widths[:i]), sum(widths[: i + 1])) for i in range(len(widths))]
    return [
        tuple(_digits(point[lo:hi], [q] * (hi - lo)) for lo, hi in bounds)
        for point in row_space(basis)
    ]


# --- the list-row elimination and the validating builds gf used before the
# --- GF(2) int rows and FiniteMatrix._of


def row_list(m: FiniteMatrix) -> list[list[int]]:
    return [list(m.row(i)) for i in range(m.rows)]


def list_rref(m: FiniteMatrix) -> tuple[FiniteMatrix, tuple[int, ...]]:
    """Gauss-Jordan on list rows for every q, the result built by from_rows."""
    q = m.q
    work = row_list(m)
    pivots: list[int] = []
    pr = 0
    for col in range(m.cols):
        sel = next((r for r in range(pr, m.rows) if work[r][col]), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = pow(work[pr][col], -1, q)
        work[pr] = [(x * inv) % q for x in work[pr]]
        for r in range(m.rows):
            if r != pr and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % q for a, b in zip(work[r], work[pr])]
        pivots.append(col)
        pr += 1
        if pr == m.rows:
            break
    return FiniteMatrix.from_rows(q, work, cols=m.cols), tuple(pivots)


def reference_transpose(m: FiniteMatrix) -> FiniteMatrix:
    return FiniteMatrix.from_cols(m.q, row_list(m), rows=m.cols)


def reference_hstack(*mats: FiniteMatrix) -> FiniteMatrix:
    cols = [tuple(m.at(i, j) for i in range(m.rows)) for m in mats for j in range(m.cols)]
    return FiniteMatrix.from_cols(mats[0].q, cols, rows=mats[0].rows)


def reference_column_space_basis(m: FiniteMatrix) -> FiniteMatrix:
    reduced, pivots = list_rref(reference_transpose(m))
    return FiniteMatrix.from_cols(m.q, [reduced.row(i) for i in range(len(pivots))], rows=m.rows)


def reference_intersection(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """Zassenhaus on [a_j | a_j] and [b_j | 0], as column_space_intersection."""
    n = a.rows
    at, bt = reference_transpose(a), reference_transpose(b)
    block = [at.row(j) * 2 for j in range(a.cols)] + [bt.row(j) + (0,) * n for j in range(b.cols)]
    reduced, pivots = list_rref(FiniteMatrix.from_rows(a.q, block, cols=2 * n))
    meet = [reduced.row(i)[n:] for i, p in enumerate(pivots) if p >= n]
    return FiniteMatrix.from_cols(a.q, meet, rows=n)


def reference_solve(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    reduced, pivots = list_rref(reference_hstack(a, b))
    if any(p >= a.cols for p in pivots):
        raise SubspaceNotContained("right-hand side is not in the column space")
    out = [[0] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for j in range(b.cols):
            out[p][j] = reduced.at(r, a.cols + j)
    return FiniteMatrix.from_rows(a.q, out, cols=b.cols)


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


def _digits(values, sizes) -> int:
    """Mixed-radix index of a digit sequence, most significant digit first."""
    idx = 0
    for v, s in zip(values, sizes):
        idx = idx * s + v
    return idx


def hidden_walk_expansion(f: FiniteLinearSource) -> DiscreteSource:
    """Joint pmf of a finite linear source by walking all q**dim hidden
    vectors x and adding mass q**-dim at the observations x @ M_i."""
    q = int(f.q)
    weight = Fraction(1, q**f.dim)
    pmf: dict = {}
    for x in product(range(q), repeat=f.dim):
        key = tuple(_digits(vec_mat(x, m), [q] * m.cols) for m in f.matrices)
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


# --- reference per-round simulator kept from the one-draw-per-round sim ---


def round_sampler(s):
    """rng -> (obs_1, ..., obs_m): one realization, one observation per user.

    An observation is a tuple of coordinates, or the bare symbol for a
    discrete source."""
    if isinstance(s, HypergraphicalSource):
        cdfs = []
        for e in s.edges:
            acc, cum = 0.0, []
            for p in e.pmf:
                acc += float(p)
                cum.append(acc)
            cum[-1] = 1.0
            cdfs.append(cum)
        incident = [s.incident(u) for u in range(1, s.user_count + 1)]

        def draw(rng):
            values = [bisect.bisect_right(cum, rng.random()) for cum in cdfs]
            return tuple(tuple(values[k] for k in inc) for inc in incident)

        return draw
    if isinstance(s, FiniteLinearSource):
        q = int(s.q)

        def draw(rng):
            x = [rng.randrange(q) for _ in range(s.dim)]
            return tuple(tuple(vec_mat(x, mat)) for mat in s.matrices)

        return draw
    support, pmf = s.support(), s.pmf  # pmf builds its mapping on each read
    acc, cum = 0.0, []
    for realization in support:
        acc += float(pmf[realization])
        cum.append(acc)
    cum[-1] = 1.0

    def draw(rng):
        return tuple(support[bisect.bisect_right(cum, rng.random())])

    return draw


def round_decoders(s, w):
    """Per-user maps from one observation of s to the label, for a witness
    already checked against s."""
    if isinstance(w, EdgeSubsetWitness):
        chosen = [k for k, e in enumerate(s.edges) if e.name in w.payload]
        decoders = []
        for user in range(1, s.user_count + 1):
            positions = tuple(s.incident(user).index(k) for k in chosen)
            decoders.append(lambda obs, positions=positions: tuple(obs[p] for p in positions))
        return decoders
    if isinstance(w, SubspaceWitness):
        decoders = []
        for mat in s.matrices:
            coeffs = solve(mat, w.payload)
            decoders.append(lambda obs, coeffs=coeffs: tuple(vec_mat(list(obs), coeffs)))
        return decoders
    assert isinstance(w, LabelingWitness)
    return [{r[coord]: w.payload[r] for r in s.pmf}.__getitem__ for coord in range(s.user_count)]


def key_label(radices, code):
    """The label of one simulator key code: its mixed-radix digits, the first
    most significant, or the code itself when radices is None (a discrete
    key).  The per-code reference for gf.digits."""
    if radices is None:
        return code
    digits = []
    for r in reversed(radices[1:]):
        code, v = divmod(code, r)
        digits.append(v)
    return tuple(reversed(digits + [code])) if radices else ()


def key_labels(run) -> tuple:
    """One tuple of key labels per user of a SimulationRun."""
    return tuple(tuple(key_label(run.radices, code) for code in stream) for stream in run.codes)


def round_key_streams(s, w, n: int, seed: int) -> tuple:
    """Per-user key streams of n rounds, one draw and one decode per round."""
    decoders = round_decoders(s, w)
    draw = round_sampler(s)
    rng = random.Random(seed)
    keys = [[] for _ in decoders]
    for _ in range(n):
        world = draw(rng)
        for i, decode in enumerate(decoders):
            keys[i].append(decode(world[i]))
    return tuple(tuple(stream) for stream in keys)


# --- reference checks kept from the exhaustive partition scan and the pairwise profile check ---


def exhaustive_best_partition(h: HypergraphicalSource) -> LaminationBound:
    """best_partition by scoring every partition of two or more blocks with
    alpha: the smallest (coefficient, block count, blocks) wins."""
    best, best_key = None, None
    for p in all_partitions(h.user_count):
        if len(p) < 2:
            continue
        key = (alpha(h, p), len(p), p.blocks)
        if best_key is None or key < best_key:
            best, best_key = p, key
    return lamination_bound(h, best)


def pairwise_profile_ok(user_count: int, h: list) -> bool:
    """Monotone at every subset and user, submodular at every pair of subsets,
    each within ENTROPY_TOLERANCE; h[mask] as in EntropyProfile."""
    tol = ENTROPY_TOLERANCE
    masks = range(1, 2**user_count)
    for s in masks:
        for u in range(user_count):
            if not s >> u & 1 and h[s] > h[s | 1 << u] + tol:
                return False
    return all(h[s] + h[t] >= h[s | t] + h[s & t] - tol for s in masks for t in masks)


def profile_at(prof, subset) -> float:
    """H(X_S) of an EntropyProfile for a set of 1-based users: prof.h at the mask."""
    return prof.h[sum(1 << (u - 1) for u in set(subset))]


# --- reference Fraction paths kept from before exact masses were integer weights ---


def fraction_shannon_bits(probs) -> float:
    """Plug-in entropy in bits of the masses themselves, Fraction or float,
    the terms added exactly as shannon_bits adds them."""
    return 0.0 - math.fsum(x * math.log2(x) for x in map(float, probs) if x > 0.0)


def fraction_marginal(pmf, subset) -> dict:
    """Projection of a realization -> mass mapping onto the given users,
    adding the masses (exact ones as Fractions) in first-seen order."""
    coords = sorted(subset)
    out: dict = {}
    for key, p in pmf.items():
        proj = tuple(key[i - 1] for i in coords)
        out[proj] = out.get(proj, 0) + p
    return out


def fraction_label_masses(pmf, labeling) -> dict:
    """Mass of each label in first-seen order, exact masses as Fractions."""
    masses: dict = {}
    for realization, p in pmf.items():
        label = labeling[realization]
        masses[label] = masses.get(label, 0) + p
    return masses


def fraction_cdf(probs) -> list:
    """Float cumulative masses for random.choices, ending at exactly 1."""
    acc, cum = 0.0, []
    for p in probs:
        acc += float(p)
        cum.append(acc)
    cum[-1] = 1.0
    return cum


def fraction_expansion(h: HypergraphicalSource) -> dict:
    """Joint pmf of a hypergraphical source as products of the edge masses
    (Fractions when every edge is exact), sorted by realization."""
    incident = [h.incident(i) for i in range(1, h.user_count + 1)]
    sizes = [e.alphabet_size for e in h.edges]
    exact = all(isinstance(p, Fraction) for e in h.edges for p in e.pmf)
    pmf: dict = {}
    for assignment in product(*(range(s) for s in sizes)):
        p = Fraction(1) if exact else 1.0
        for e, v in zip(h.edges, assignment):
            p = p * e.pmf[v]
        if p != 0:
            key = tuple(
                _digits([assignment[k] for k in inc], [sizes[k] for k in inc]) for inc in incident
            )
            pmf[key] = p
    return dict(sorted(pmf.items()))


def fraction_subspace_bits(f: FiniteLinearSource, basis: FiniteMatrix) -> float:
    """SubspaceWitness.brute_force_bits with each label's mass a Fraction."""
    joint = row_space_basis(hstack(*f.matrices, basis))
    total = int(f.q) ** joint.rows
    first = joint.cols - basis.cols
    counts: dict = {}
    for point in row_space(joint):
        label = point[first:]
        counts[label] = counts.get(label, 0) + 1
    return fraction_shannon_bits(Fraction(c, total) for c in counts.values())
