"""Exact joint masses as integer weights over one total, bit for bit.

Every consumer of a joint pmf divides a weight once, w / total, where it used
to add Fractions.  Int true division rounds correctly, so each float must be
the one the Fraction path gives: the references in helpers.py are that path.
Compared with ==, never approx: profile values, oracle entropies, witness
brute force, the key's surprisal variance and the samplers' cdfs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import (
    fraction_cdf,
    fraction_expansion,
    fraction_label_masses,
    fraction_marginal,
    fraction_shannon_bits,
    fraction_subspace_bits,
    hidden_walk_expansion,
    random_fls,
)
from zerotalk.errors import ModelError
from zerotalk.gf import FiniteMatrix
from zerotalk.mcf import _surprisal_variance, gk_finite_linear, gk_oracle
from zerotalk.sim import _cdf
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    HypergraphicalSource,
    entropy_profile,
    pmf_weights,
    to_discrete,
)


def random_masses(rng: random.Random, count: int, kind: str) -> list:
    """count masses summing to 1, about a quarter of them zero: exact
    Fractions, floats, or both in turn.  Half the pmfs have weights past
    2**53, where float(w) / total would round twice and w / total does not."""
    top = rng.choice([12, 2**64])
    raw = [0 if rng.random() < 0.25 else rng.randrange(1, top) for _ in range(count)]
    if not any(raw):
        raw[rng.randrange(count)] = 1
    total = sum(raw)
    if kind == "float":
        return [w / total for w in raw]
    exact = [Fraction(w, total) for w in raw]
    return exact if kind == "exact" else [p if i % 2 else float(p) for i, p in enumerate(exact)]


def random_discrete(rng: random.Random, kind: str) -> tuple[DiscreteSource, dict]:
    """A source and the positive-mass part of the pmf it was given, sorted."""
    alphabets = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(2, 5)))
    points = list(product(*(range(a) for a in alphabets)))
    support = rng.sample(points, rng.randrange(1, min(len(points), 14) + 1))
    pmf = dict(zip(support, random_masses(rng, len(support), kind)))
    return DiscreteSource(alphabets, pmf), {r: p for r, p in sorted(pmf.items()) if p != 0}


def random_edges(rng: random.Random, users: int, kind: str) -> HypergraphicalSource:
    """Edges with random pmfs (zero entries included); in a mixed model the
    edges alternate between exact and float."""
    edges = []
    for k in range(rng.randrange(1, 5)):
        edge_kind = kind if kind != "mixed" else ("exact", "float")[k % 2]
        subset = rng.sample(range(1, users + 1), rng.randrange(1, users + 1))
        edges.append(Edge(f"e{k}", subset, random_masses(rng, rng.randrange(1, 5), edge_kind)))
    return HypergraphicalSource(users, edges)


def assert_consumers_match_the_fraction_path(d: DiscreteSource, pmf: dict) -> None:
    """Every consumer of d's masses against the Fraction path over pmf."""
    assert dict(d.pmf) == pmf and list(d.pmf) == list(pmf)
    assert d == DiscreteSource(d.alphabet_sizes, pmf)
    m = d.user_count
    profile = entropy_profile(d)
    for mask in range(1, 2**m):
        users = [i + 1 for i in range(m) if mask >> i & 1]
        reference = fraction_marginal(pmf, users)
        weights = d.marginal(users)
        assert list(weights) == list(reference)
        exact = [Fraction(w, d.total) if isinstance(w, int) else w for w in weights.values()]
        assert exact == list(reference.values())
        assert profile.h[mask] == fraction_shannon_bits(reference.values())
    w = gk_oracle(d)
    masses = fraction_label_masses(pmf, w.payload)
    assert w.entropy_bits == fraction_shannon_bits(masses.values())
    assert w.brute_force_bits(d) == w.entropy_bits
    assert w.key_map(d)[2] == _surprisal_variance(masses.values())
    assert _cdf(d.weights.values(), d.total) == fraction_cdf(pmf[r] for r in d.support())


@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
@pytest.mark.parametrize("seed", range(12))
def test_discrete_sources_match_the_fraction_path(kind, seed):
    d, pmf = random_discrete(random.Random(f"{kind}-{seed}"), kind)
    assert_consumers_match_the_fraction_path(d, pmf)


@pytest.mark.parametrize("kind", ["exact", "mixed"])
@pytest.mark.parametrize("seed", range(12))
def test_hypergraphical_expansions_match_the_fraction_path(kind, seed):
    rng = random.Random(f"edges-{kind}-{seed}")
    h = random_edges(rng, rng.randrange(2, 5), kind)
    assert_consumers_match_the_fraction_path(to_discrete(h), fraction_expansion(h))
    for e in h.edges:
        assert _cdf(*pmf_weights(e.pmf)) == fraction_cdf(e.pmf)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("seed", range(8))
def test_linear_expansions_match_the_fraction_path(q, seed):
    rng = random.Random(f"linear-{q}-{seed}")
    f = random_fls(rng, rng.randrange(2, 4), q)
    d = to_discrete(f)
    assert all(w == 1 for w in d.weights.values()) and d.total == len(d.weights)
    assert_consumers_match_the_fraction_path(d, dict(hidden_walk_expansion(f).pmf))
    witness = gk_finite_linear(f)
    assert witness.brute_force_bits(f) == fraction_subspace_bits(f, witness.payload)
    other = FiniteMatrix(q, f.dim, 2, tuple(rng.randrange(q) for _ in range(2 * f.dim)))
    assert type(witness)(other, 0.0).brute_force_bits(f) == fraction_subspace_bits(f, other)


def test_exact_weights_are_over_the_lcm_of_the_reduced_denominators():
    pmf = {(0, 0): Fraction(1, 6), (0, 1): Fraction(2, 4), (1, 1): Fraction(1, 3)}
    d = DiscreteSource((2, 2), pmf)
    assert d.total == 6
    assert d.weights == {(0, 0): 1, (0, 1): 3, (1, 1): 2}
    assert d.pmf[(0, 1)] == Fraction(1, 2) and type(d.pmf[(0, 1)]) is Fraction
    assert pmf_weights((0.25, Fraction(3, 4))) == ([0.25, Fraction(3, 4)], 1)


def test_exact_sum_check_keeps_its_message():
    with pytest.raises(ModelError, match=r"joint pmf: exact probabilities sum to 5/6, not 1"):
        DiscreteSource((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 3)})
    with pytest.raises(ModelError, match=r"edge 'e': exact probabilities sum to 2, not 1"):
        Edge("e", {1}, (Fraction(1), Fraction(1)))


def test_pmf_is_a_read_only_view():
    d = DiscreteSource((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    with pytest.raises(TypeError):
        d.pmf[(0, 0)] = Fraction(1)  # type: ignore[index]
    assert len(d.pmf) == 2 and (1, 1) in d.pmf and (0, 1) not in d.pmf
