"""Maximum common function engines.

Every user can compute the same value from its own observation alone exactly
when that value is constant on the connected components that shared
coordinates induce on the joint support.  The richest such value — the finest
labeling all users can agree on with no discussion — is what these engines
produce, together with its entropy in bits.

Three engines cover the three model families:

* hypergraphical: the globally visible edges are the answer,
* finite linear: the intersection of the users' column spaces,
* discrete (oracle): connected components of the support graph.

The closed forms are exact; the oracle is the ground truth they are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ExpansionTooLarge, ModelError
from .gf import FiniteMatrix, hstack, intersect_all, row_space, row_space_basis
from .gf import vec_mat  # noqa: F401  unused here; perfbench's self-test reads mcf.vec_mat
from .sources import (
    DiscreteSource,
    FiniteLinearSource,
    HypergraphicalSource,
    expansion_limit,
    shannon_bits,
    to_discrete,
)

Source = Union[HypergraphicalSource, FiniteLinearSource, DiscreteSource]


@dataclass(frozen=True)
class CommonFunctionWitness:
    """A common function realized as an explicit, checkable object.

    kind:
        "edge-subset"     payload is a tuple of edge names (hypergraphical)
        "subspace-basis"  payload is a FiniteMatrix whose columns span the
                          common subspace (finite linear)
        "support-labeling" payload is a dict mapping each support realization
                          to a component label (discrete oracle)
    entropy_bits:
        Shannon entropy of the witness value under the source distribution.
    """

    kind: str
    payload: object
    entropy_bits: float


def gk_hypergraphical(h: HypergraphicalSource) -> CommonFunctionWitness:
    """Common function of a hypergraphical source: the globally seen edges.

    An edge variable is computable by every user iff its subset is the full
    user set; nothing else survives, because any edge missing some user is
    independent of that user's observation.
    """
    everyone = h.users()
    global_edges = tuple(e.name for e in h.edges if e.subset == everyone)
    bits = math.fsum(
        e.entropy_bits() for e in h.edges if e.subset == everyone
    )
    return CommonFunctionWitness("edge-subset", global_edges, bits)


def gk_finite_linear(f: FiniteLinearSource) -> CommonFunctionWitness:
    """Common function of a finite linear source.

    The linear functions of the hidden vector that every user can compute are
    exactly those in the intersection of the users' column spaces; the witness
    is a canonical basis of that intersection.
    """
    basis = intersect_all(list(f.matrices))
    bits = basis.cols * math.log2(int(f.q))
    return CommonFunctionWitness("subspace-basis", basis, bits)


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


def gk_oracle(s: Source, limit: Union[int, None] = None) -> CommonFunctionWitness:
    """Ground-truth common function via the joint support.

    Two realizations are linked when they agree in some coordinate; connected
    components of that graph are the finest labeling every user can compute.
    Components are found with a union-find keyed on per-coordinate value
    buckets, so the cost is O(support size x user count) rather than
    quadratic in the support.

    Labels are 0..K-1, ordered by each component's lexicographically smallest
    member realization.
    """
    d = to_discrete(s, limit)
    support = d.support()
    uf = _UnionFind(len(support))
    m = len(d.alphabet_sizes)
    for coord in range(m):
        buckets: dict = {}
        for idx, realization in enumerate(support):
            v = realization[coord]
            if v in buckets:
                uf.union(buckets[v], idx)
            else:
                buckets[v] = idx
    roots: dict = {}
    labeling: dict = {}
    for idx, realization in enumerate(support):
        root = uf.find(idx)
        if root not in roots:
            roots[root] = len(roots)
        labeling[realization] = roots[root]
    masses: list = [Fraction(0)] * len(roots)
    exact = all(isinstance(p, Fraction) for p in d.pmf.values())
    if not exact:
        masses = [0.0] * len(roots)
    for realization, p in d.pmf.items():
        masses[labeling[realization]] += p
    bits = shannon_bits(masses)
    return CommonFunctionWitness("support-labeling", labeling, bits)


def common_function(s: Source) -> CommonFunctionWitness:
    """Dispatch to the closed-form engine for the model, oracle for discrete."""
    if isinstance(s, HypergraphicalSource):
        return gk_hypergraphical(s)
    if isinstance(s, FiniteLinearSource):
        return gk_finite_linear(s)
    if isinstance(s, DiscreteSource):
        return gk_oracle(s)
    raise ModelError(f"unrecognized source type: {type(s).__name__}")


def jgk(s: Source) -> float:
    """Entropy in bits of the maximum common function of the source."""
    return common_function(s).entropy_bits


def evaluate_witness(s: Source, w: CommonFunctionWitness, limit: Union[int, None] = None) -> float:
    """Recompute a witness's entropy directly on the expanded distribution.

    Used to cross-check closed-form entropies against brute force.  For an
    edge-subset witness the label is the tuple of named edge values; for a
    subspace basis it is the image of the hidden vector under the basis,
    counted over the row space of [A | basis] with A = [M_1 | ... | M_m]:
    that is the support of the joint law of (observations, label), so the
    walk costs q**rank rather than q**dim and assumes nothing about whether
    the witness is valid.

    Raises:
        ExpansionTooLarge: if the points to walk exceed the enumeration
            limit (ZEROTALK_EXPANSION_LIMIT unless ``limit`` is given).
    """
    if w.kind == "support-labeling":
        d = to_discrete(s, limit)
        masses: dict = {}
        for realization, p in d.pmf.items():
            label = w.payload[realization]
            masses[label] = masses.get(label, 0) + p
        return shannon_bits(masses.values())
    if w.kind == "edge-subset":
        if not isinstance(s, HypergraphicalSource):
            raise ModelError("edge-subset witness needs a hypergraphical source")
        names = set(w.payload)
        return math.fsum(e.entropy_bits() for e in s.edges if e.name in names)
    if w.kind == "subspace-basis":
        if not isinstance(s, FiniteLinearSource):
            raise ModelError("subspace-basis witness needs a finite linear source")
        basis: FiniteMatrix = w.payload
        cap = expansion_limit() if limit is None else limit
        joint = row_space_basis(hstack(*s.matrices, basis))
        total = int(s.q) ** joint.rows
        if total > cap:
            raise ExpansionTooLarge(f"witness check: {total} points exceed the limit of {cap}")
        first = joint.cols - basis.cols
        counts: dict = {}
        for point in row_space(joint):
            label = point[first:]
            counts[label] = counts.get(label, 0) + 1
        return shannon_bits(Fraction(c, total) for c in counts.values())
    raise ModelError(f"unknown witness kind: {w.kind!r}")
