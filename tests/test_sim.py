"""Key agreement simulation: zero discussion, honest per-user decoding."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from zerotalk.errors import ModelError, WitnessInvalid
from zerotalk.gf import FiniteMatrix, vec_mat
from zerotalk.mcf import (
    EdgeSubsetWitness,
    LabelingWitness,
    SubspaceWitness,
    common_function,
    gk_oracle,
)
from zerotalk.sim import build_extractor, rate_tolerance, run
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    to_discrete,
)
from helpers import random_fls, random_hypergraphical


def test_run_shared_bit(shared_bit_source):
    result = run(shared_bit_source, n=1000, seed=42)
    assert result.agreement
    assert result.discussion_bits == 0
    assert result.expected_rate_bits == pytest.approx(1.0, abs=1e-12)
    assert abs(result.empirical_rate_bits - 1.0) < 0.1
    assert result.rate_ok
    assert len(result.per_user_keys) == 3
    assert all(len(k) == 1000 for k in result.per_user_keys)


def test_run_overlap_pair(overlap_pair_source):
    result = run(overlap_pair_source, n=1000, seed=42)
    assert result.agreement
    assert result.expected_rate_bits == pytest.approx(1.0, abs=1e-12)
    assert result.rate_ok


def test_run_trivial_key(pairwise_xor_source):
    result = run(pairwise_xor_source, n=200, seed=7)
    assert result.agreement
    assert result.expected_rate_bits == 0.0
    assert result.empirical_rate_bits == 0.0
    assert result.rate_ok
    assert set(result.per_user_keys[0]) == {()}


def test_run_is_deterministic(shared_bit_source):
    a = run(shared_bit_source, n=100, seed=5)
    b = run(shared_bit_source, n=100, seed=5)
    assert a == b
    c = run(shared_bit_source, n=100, seed=6)
    assert c.per_user_keys != a.per_user_keys


def test_run_discrete_oracle_witness(shared_bit_source):
    d = to_discrete(shared_bit_source)
    result = run(d, n=500, seed=11)
    assert result.agreement
    assert result.expected_rate_bits == pytest.approx(1.0, abs=1e-12)
    assert result.rate_ok


def test_run_labeling_witness_on_structured_source(shared_bit_source):
    # oracle witness applied to the hypergraphical model: simulated through
    # the discrete view, still zero-discussion per-user decoding
    w = gk_oracle(shared_bit_source)
    result = run(shared_bit_source, n=300, seed=3, witness=w)
    assert result.agreement
    assert result.expected_rate_bits == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_agreement_on_random_models(seed):
    rng = random.Random(4000 + seed)
    h = random_hypergraphical(rng, rng.randrange(2, 4), rng.randrange(0, 4))
    f = random_fls(rng, rng.randrange(2, 4))
    for s in (h, f):
        result = run(s, n=200, seed=seed)
        assert result.agreement
        assert result.discussion_bits == 0


def test_rejects_nonpositive_rounds(shared_bit_source):
    with pytest.raises(ModelError):
        run(shared_bit_source, n=0, seed=1)


# --- extractor structure ---


def test_extractor_projects_global_edge(shared_bit_source):
    ext = build_extractor(shared_bit_source)
    # user 1 sees (a, b, c); users 2 and 3 see two edges each; each decoder
    # must pick out exactly the c component
    assert ext.decoders[0]((10, 20, 30)) == (30,)
    assert ext.decoders[1]((20, 30)) == (30,)
    assert ext.decoders[2]((10, 30)) == (30,)
    assert ext.label_count == 2
    assert ext.surprise_var == pytest.approx(0.0, abs=1e-12)


def test_extractor_computes_hidden_sum(overlap_pair_source):
    ext = build_extractor(overlap_pair_source)
    # both users' decoders recover x1 + x2 from their own observation
    rng = random.Random(0)
    for _ in range(50):
        x = [rng.randrange(2) for _ in range(3)]
        expected = ((x[0] + x[1]) % 2,)
        for decode, mat in zip(ext.decoders, overlap_pair_source.matrices):
            obs = tuple(vec_mat(x, mat))
            assert decode(obs) == expected


def test_extractor_rejects_nonglobal_edge_witness(shared_bit_source):
    w = EdgeSubsetWitness(("a",), 1.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(shared_bit_source, w)


def test_extractor_rejects_unknown_edge(shared_bit_source):
    w = EdgeSubsetWitness(("zzz",), 1.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(shared_bit_source, w)


def test_extractor_rejects_repeated_edge(shared_bit_source):
    w = EdgeSubsetWitness(("c", "c"), 1.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(shared_bit_source, w)


def test_extractor_rejects_uncomputable_subspace(pairwise_xor_source):
    # the full hidden vector is not computable from any single observation
    w = SubspaceWitness(FiniteMatrix.identity(2, 2), 2.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(pairwise_xor_source, w)


def test_extractor_rejects_wrong_field_subspace(overlap_pair_source):
    w = SubspaceWitness(FiniteMatrix.identity(3, 3), 1.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(overlap_pair_source, w)


def test_extractor_rejects_conflicting_labeling():
    d = DiscreteSource((1, 2), {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    w = LabelingWitness({(0, 0): 0, (0, 1): 1}, 1.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(d, w)


def test_extractor_rejects_partial_labeling():
    d = DiscreteSource((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    w = LabelingWitness({(0, 0): 0}, 1.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(d, w)


def test_extractor_rejects_model_mismatch(shared_bit_source, overlap_pair_source):
    edge_witness = common_function(shared_bit_source)
    with pytest.raises(WitnessInvalid):
        build_extractor(overlap_pair_source, edge_witness)
    basis_witness = common_function(overlap_pair_source)
    with pytest.raises(WitnessInvalid):
        build_extractor(shared_bit_source, basis_witness)


# --- empirical rate behavior ---


def test_rate_tolerance_shrinks_with_n():
    assert rate_tolerance(1.0, 4, 10000) < rate_tolerance(1.0, 4, 100)


def test_rate_concentrates_on_biased_edge():
    # one global edge with a skewed distribution: nonzero surprise variance
    edge = Edge("e", frozenset({1, 2}), (Fraction(3, 4), Fraction(1, 4)))
    h = HypergraphicalSource(2, (edge,))
    result = run(h, n=4000, seed=99)
    assert result.agreement
    assert result.rate_ok
    assert result.expected_rate_bits == pytest.approx(0.8112781244591328, abs=1e-12)


def test_keys_over_larger_alphabet(shared_bit_source):
    h = HypergraphicalSource(
        2, (Edge.uniform("g", {1, 2}, 5), Edge.uniform("p", {1}, 3))
    )
    result = run(h, n=2000, seed=1)
    assert result.agreement
    assert result.rate_ok
    assert set(result.per_user_keys[0]) <= {(v,) for v in range(5)}
