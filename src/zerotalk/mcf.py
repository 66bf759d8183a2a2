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
from functools import partial, reduce
from typing import Callable, ClassVar

from .errors import ModelError, SubspaceNotContained, Value, WitnessInvalid
from .gf import (FiniteMatrix, codes, cols_mat, column_space_intersection, hstack,
                 row_space_basis, row_space_keys, solve)
# Unused here; perfbench's test_instrument_patches_every_namespace_and_restores_it
# reads mcf.vec_mat.
from .gf import vec_mat  # noqa: F401
from .sources import (
    AnySource,
    DiscreteSource,
    FiniteLinearSource,
    HypergraphicalSource,
    check_budget,
    shannon_bits,
    to_discrete,
)


def _surprisal_variance(probs) -> float:
    """Variance of -log2 p in bits^2 for a probability vector."""
    ps = [float(p) for p in probs if p > 0]
    surprises = [-math.log2(p) for p in ps]
    mean = math.fsum(p * s for p, s in zip(ps, surprises))
    return math.fsum(p * (s - mean) ** 2 for p, s in zip(ps, surprises))


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


def _digits(radices: tuple, code: int) -> tuple:
    """The digits of a code of gf.codes; the first is what the lower radices leave."""
    digits = []
    for r in reversed(radices[1:]):
        code, v = divmod(code, r)
        digits.append(v)
    return tuple(reversed(digits + [code])) if radices else ()


class KeyExtractor(Value):
    """Per-user deterministic key maps realizing a common-function witness.

    source is the model the decoders read observations of (a discrete view of
    the original model when the witness is a support labeling).  decoders[i]
    is user (i+1)'s column decoder: decoders[i](obs, n) takes that user's
    observations of n rounds of source as a tuple of coordinate columns, each
    n values long, and returns the list of the n keys as int codes; one
    observation is the case n = 1.  expected_bits is the witness entropy.
    surprise_var is the variance of the key's surprisal in bits^2, used for
    the empirical-rate tolerance; label_count the number of possible keys.
    label(code) is the key's label: the tuple of the chosen edges' values, the
    tuple of the subspace coordinates, or the support component.
    """

    source: AnySource
    decoders: tuple
    expected_bits: float
    surprise_var: float
    label_count: int
    label: Callable


class CommonFunctionWitness(Value):
    """A common function realized as an explicit, checkable object.

    One subclass per model family, named by ``kind`` in reports.  payload is
    a tuple of edge names (EdgeSubsetWitness), a FiniteMatrix whose
    columns span the common subspace (SubspaceWitness), or a dict from
    support realizations to component labels (LabelingWitness).
    entropy_bits is the entropy of the witness value under the source law.
    key_map(s) turns the witness into the KeyExtractor each user runs on s.
    """

    kind: ClassVar[str]
    payload: object
    entropy_bits: float

    def brute_force_bits(self, s: AnySource) -> float:
        """Entropy of the witness value, recomputed on the source's distribution."""
        raise NotImplementedError

    def key_map(self, s: AnySource) -> KeyExtractor:
        """The KeyExtractor of this witness on s."""
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

    def key_map(self, s: AnySource) -> KeyExtractor:
        chosen = self._edges(s)
        everyone = s.users()
        for k in chosen:
            if s.edges[k].subset != everyone:
                raise WitnessInvalid(
                    f"edge {s.edges[k].name!r} is not observed by every user; "
                    "some user cannot compute the key"
                )
        radices = tuple(s.edges[k].alphabet_size for k in chosen)
        decoders = []
        for user in range(1, s.user_count + 1):
            incident = s.incident(user)
            positions = tuple(incident.index(k) for k in chosen)

            def decode(obs, n, positions=positions):
                return codes([obs[p] for p in positions], radices, n)

            decoders.append(decode)
        # a uniform edge's surprisal is constant: its variance is zero
        var = math.fsum(_surprisal_variance(s.edges[k].probs) for k in chosen
                        if s.edges[k].probs is not None)
        return KeyExtractor(s, tuple(decoders), self.entropy_bits, var, math.prod(radices),
                            partial(_digits, radices))

    def summary(self) -> dict:
        return {"kind": self.kind, "edges": list(self.payload)}

    def __str__(self) -> str:
        return f"witness edges: {{{', '.join(self.payload)}}}"


class SubspaceWitness(CommonFunctionWitness):
    kind = "subspace-basis"

    def _basis(self, s: AnySource) -> FiniteMatrix:
        if not isinstance(s, FiniteLinearSource):
            raise WitnessInvalid("subspace-basis witness needs a finite linear source")
        basis: FiniteMatrix = self.payload
        if basis.q != s.q or basis.rows != s.dim:
            raise WitnessInvalid("witness basis has the wrong field or dimension")
        return basis

    def brute_force_bits(self, s: AnySource) -> float:
        """Walks the row space of [A | basis], A = [M_1 | ... | M_m]: the support
        of (observations, label), q**rank points, valid witness or not."""
        basis = self._basis(s)
        joint = row_space_basis(hstack(*s.matrices, basis))
        total = int(s.q) ** joint.rows
        check_budget("witness check", total, "points")
        walk = row_space_keys(joint, (joint.cols - basis.cols, basis.cols))
        counts = Counter(label for _, label in walk)
        return shannon_bits(counts.values(), total)

    def key_map(self, s: AnySource) -> KeyExtractor:
        basis = self._basis(s)
        radices = (int(s.q),) * basis.cols
        decoders = []
        for mat in s.matrices:
            try:
                coeffs = solve(mat, basis)
            except (SubspaceNotContained, ModelError) as exc:
                raise WitnessInvalid("witness subspace is not computable from every observation") from exc

            def decode(obs, n, coeffs=coeffs):
                return codes(cols_mat(obs, coeffs, n), radices, n)

            decoders.append(decode)
        # the key is uniform over the image: surprisal is constant, variance zero
        return KeyExtractor(s, tuple(decoders), self.entropy_bits, 0.0, math.prod(radices),
                            partial(_digits, radices))

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

    def key_map(self, s: AnySource) -> KeyExtractor:
        d = to_discrete(s)
        masses = _label_masses(d.weights, self.payload)
        decoders = []
        for coord in range(d.user_count):
            fiber: dict = {}
            for realization in d.weights:
                v = realization[coord]
                label = self.payload[realization]
                if fiber.setdefault(v, label) != label:
                    raise WitnessInvalid(
                        f"user {coord + 1} cannot compute the labeling: "
                        f"symbol {v} belongs to two different labels"
                    )

            def decode(obs, n, lookup=fiber.__getitem__):
                return list(map(lookup, obs[0]))

            decoders.append(decode)
        variance = _surprisal_variance(m / d.total for m in masses.values())
        return KeyExtractor(d, tuple(decoders), self.entropy_bits, variance, len(masses),
                            lambda code: code)  # codes are the labels

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
    basis = reduce(column_space_intersection, f.matrices)
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
