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
from collections import Counter
from functools import reduce

from .errors import ModelError, Value, WitnessInvalid
from .sources import (
    AnySource,
    DiscreteSource,
    FiniteLinearSource,
    HypergraphicalSource,
    check_budget,
    load_gf,
    shannon_bits,
    to_discrete,
)


def __getattr__(name):
    """mcf.vec_mat, which perfbench's tests read, is gf.vec_mat; reading it
    loads gf (PEP 562)."""
    if name == "vec_mat":
        return load_gf().vec_mat
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _label_masses(weights: dict, labeling: dict) -> dict:
    """Weight of each label, in first-seen order, over the weights' total."""
    masses: dict = {}
    try:
        for realization, w in weights.items():
            label = labeling[realization]
            masses[label] = masses.get(label, 0) + w
    except KeyError:
        raise WitnessInvalid(f"labeling does not cover support realization {realization}") from None
    return masses


class CommonFunctionWitness(Value):
    """A common function realized as an explicit, checkable object.

    One subclass per model family, named by ``kind`` in reports.  payload is
    a tuple of edge names (EdgeSubsetWitness), a FiniteMatrix whose
    columns span the common subspace (SubspaceWitness), or a dict from
    support realizations to component labels (LabelingWitness).
    entropy_bits is the entropy of the witness value under the source law.
    """

    payload: object
    entropy_bits: float

    def brute_force_bits(self, s: AnySource) -> float:
        """Entropy of the witness value, recomputed on the source's distribution."""
        raise NotImplementedError

    def summary(self) -> dict:
        """JSON-ready description of the witness."""
        raise NotImplementedError


class EdgeSubsetWitness(CommonFunctionWitness):
    kind = "edge-subset"

    def _edges(self, s: AnySource) -> list:
        """Indices, in edge order, of the named edges of s."""
        if not isinstance(s, HypergraphicalSource):
            raise WitnessInvalid("edge-subset witness needs a hypergraphical source")
        names = set(self.payload)
        if len(names) != len(self.payload):
            raise WitnessInvalid("witness names an edge more than once")
        unknown = names - {e.name for e in s.edges}
        if unknown:
            name = next(n for n in self.payload if n in unknown)
            raise WitnessInvalid(f"witness names unknown edge {name!r}")
        return [k for k, e in enumerate(s.edges) if e.name in names]

    def brute_force_bits(self, s: AnySource) -> float:
        return math.fsum(s.edges[k].entropy_bits() for k in self._edges(s))

    def summary(self) -> dict:
        return {"kind": self.kind, "edges": list(self.payload)}

    def __str__(self) -> str:
        return f"witness edges: {{{', '.join(self.payload)}}}"


class SubspaceWitness(CommonFunctionWitness):
    kind = "subspace-basis"

    def _basis(self, s: AnySource):
        if not isinstance(s, FiniteLinearSource):
            raise WitnessInvalid("subspace-basis witness needs a finite linear source")
        basis = self.payload
        if basis.q != s.q or basis.rows != s.dim:
            raise WitnessInvalid("witness basis has the wrong field or dimension")
        return basis

    def brute_force_bits(self, s: AnySource) -> float:
        """Walks the row space of [A | basis], A = [M_1 | ... | M_m]: the support
        of (observations, label), q**rank points, valid witness or not."""
        basis, gf = self._basis(s), load_gf()
        joint = gf.row_space_basis(gf.hstack(*s.matrices, basis))
        total = int(s.q) ** joint.rows
        check_budget("witness check", total, "points")
        walk = gf.row_space_keys(joint, (joint.cols - basis.cols, basis.cols))
        counts = Counter(label for _, label in walk)
        return shannon_bits(counts.values(), total)

    def _columns(self) -> list:
        return [list(self.payload.col(j)) for j in range(self.payload.cols)]

    def summary(self) -> dict:
        return {"kind": self.kind, "q": int(self.payload.q), "basis_columns": self._columns()}

    def __str__(self) -> str:
        return f"witness subspace basis columns (GF({int(self.payload.q)})): {self._columns()}"


class LabelingWitness(CommonFunctionWitness):
    kind = "support-labeling"

    def brute_force_bits(self, s: AnySource) -> float:
        d = to_discrete(s)
        return shannon_bits(_label_masses(d.weights, self.payload).values(), d.total)

    def summary(self) -> dict:
        return {"kind": self.kind, "labels": len(set(self.payload.values()))}

    def __str__(self) -> str:
        return f"witness labels: {len(set(self.payload.values()))} support components"


def gk_hypergraphical(h: HypergraphicalSource) -> EdgeSubsetWitness:
    """Common function of a hypergraphical source: the globally seen edges.

    An edge variable is computable by every user iff its subset is the full
    user set; nothing else survives, because any edge missing some user is
    independent of that user's observation.
    """
    everyone = h.users()
    global_edges = [e for e in h.edges if e.subset == everyone]
    bits = math.fsum(e.entropy_bits() for e in global_edges)
    return EdgeSubsetWitness(tuple(e.name for e in global_edges), bits)


def gk_finite_linear(f: FiniteLinearSource) -> SubspaceWitness:
    """Common function of a finite linear source.

    The linear functions of the hidden vector that every user can compute are
    exactly those in the intersection of the users' column spaces; the witness
    is a canonical basis of that intersection.  A source has at least two
    users, so the fold's first step already returns the canonical basis.
    """
    basis = reduce(load_gf().column_space_intersection, f.matrices)
    bits = basis.cols * math.log2(int(f.q))
    return SubspaceWitness(basis, bits)


def gk_oracle(s: AnySource) -> LabelingWitness:
    """Ground-truth common function via the joint support.

    Two realizations are linked when they agree in some coordinate; connected
    components of that graph are the finest labeling every user can compute.
    Each realization is joined to the first one holding its value in each
    coordinate, with a union-find whose ``find`` halves paths, so the cost
    is near O(support size x user count) rather than quadratic in the
    support.

    Labels are 0..K-1, ordered by each component's lexicographically smallest
    member realization.
    """
    d = to_discrete(s)
    support = d.support()
    parent = list(range(len(support)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    for coord in range(len(d.alphabet_sizes)):
        first: dict = {}  # value -> the first realization holding it at coord
        for idx, realization in enumerate(support):
            j = first.setdefault(realization[coord], idx)
            if j != idx:
                parent[find(idx)] = find(j)
    roots: dict = {}
    labeling = {r: roots.setdefault(find(idx), len(roots)) for idx, r in enumerate(support)}
    bits = shannon_bits(_label_masses(d.weights, labeling).values(), d.total)
    return LabelingWitness(labeling, bits)


def common_function(s: AnySource) -> CommonFunctionWitness:
    """Dispatch to the closed-form engine for the model, oracle for discrete."""
    if isinstance(s, HypergraphicalSource):
        return gk_hypergraphical(s)
    if isinstance(s, FiniteLinearSource):
        return gk_finite_linear(s)
    if isinstance(s, DiscreteSource):
        return gk_oracle(s)
    raise ModelError(f"unrecognized source type: {type(s).__name__}")


def jgk(s: AnySource) -> float:
    """Entropy in bits of the maximum common function of the source."""
    return common_function(s).entropy_bits


def evaluate_witness(s: AnySource, w: CommonFunctionWitness) -> float:
    """Recompute a witness's entropy directly on the source's distribution.

    Raises WitnessInvalid if the witness does not fit the source, and
    ExpansionTooLarge past the enumeration limit (ZEROTALK_EXPANSION_LIMIT).
    """
    return w.brute_force_bits(s)
