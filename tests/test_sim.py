"""Key agreement simulation: zero discussion, honest per-user decoding."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from zerotalk.errors import ExpansionTooLarge, ModelError, WitnessInvalid
from zerotalk.gf import FiniteMatrix, vec_mat
from zerotalk.mcf import (
    EdgeSubsetWitness,
    LabelingWitness,
    SubspaceWitness,
    common_function,
    gk_oracle,
)
from zerotalk.cli import load_model
from zerotalk.sim import _uniform_column, build_extractor, rate_tolerance, run
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    to_discrete,
)
from helpers import (
    identity,
    random_discrete,
    random_fls,
    random_hypergraphical,
    round_decoders,
    round_key_streams,
    round_sampler,
)

TWO_COINS = Path(__file__).resolve().parent.parent / "specs" / "two_coins.json"


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


@pytest.mark.parametrize(
    "source, columns",
    [("shared_bit_source", 3), ("overlap_pair_source", 3), ("two_coins", 2), ("no_edges", 1)],
)
def test_round_budget_is_checked_before_drawing(request, monkeypatch, source, columns):
    import zerotalk.sim as sim_module

    if source == "two_coins":
        s = load_model(str(TWO_COINS))
    elif source == "no_edges":
        s = HypergraphicalSource(2, ())
    else:
        s = request.getfixturevalue(source)

    # the limit of 10 points admits 1000 values
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "10")
    assert run(s, n=1000 // columns, seed=1).agreement

    def refuse(*args):
        raise AssertionError("rounds were drawn past the budget")

    monkeypatch.setattr(sim_module, "_observation_columns", refuse)
    over = 1000 // columns + 1
    with pytest.raises(ExpansionTooLarge) as info:
        run(s, n=over, seed=1)
    assert str(info.value) == f"simulation: {over * columns} values exceed the limit of 1000"


class Drawn(Exception):
    pass


@pytest.mark.parametrize("source", ["shared_bit_source", "overlap_pair_source"])
def test_default_round_budget_admits_a_million_rounds(request, monkeypatch, source):
    import zerotalk.sim as sim_module

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(sim_module, "_observation_columns", drawn)
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    with pytest.raises(Drawn):
        run(request.getfixturevalue(source), n=10**6, seed=1)


# --- extractor structure ---


def test_extractor_projects_global_edge(shared_bit_source):
    ext = build_extractor(shared_bit_source)
    # user 1 sees (a, b, c); users 2 and 3 see two edges each; each decoder
    # must pick out exactly the c component (one round: one-value columns)
    assert ext.decoders[0](([10], [20], [30]), 1) == [(30,)]
    assert ext.decoders[1](([20], [30]), 1) == [(30,)]
    assert ext.decoders[2](([10], [30]), 1) == [(30,)]
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
            obs = tuple([v] for v in vec_mat(x, mat))
            assert decode(obs, 1) == [expected]


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
    w = SubspaceWitness(identity(2, 2), 2.0)
    with pytest.raises(WitnessInvalid):
        build_extractor(pairwise_xor_source, w)


def test_extractor_rejects_wrong_field_subspace(overlap_pair_source):
    w = SubspaceWitness(identity(3, 3), 1.0)
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


# --- column decoders and sampler against the per-round reference ---


def _linear(q, dim, *cols_per_user):
    return FiniteLinearSource(
        q, dim, tuple(FiniteMatrix.from_cols(q, cols, rows=dim) for cols in cols_per_user)
    )


def _decoder_cases():
    rng = random.Random(5100)
    cases = []
    for k in range(4):
        h = random_hypergraphical(rng, rng.randrange(2, 5), rng.randrange(0, 5))
        cases.append(pytest.param(h, common_function(h), id=f"edge-{k}"))
    for q in (2, 3, 5):
        for k in range(3):
            f = random_fls(rng, rng.randrange(2, 4), q)
            cases.append(pytest.param(f, common_function(f), id=f"gf{q}-random-{k}"))
        # one shared column plus private ones: a nonzero key
        shared = _linear(q, 3, [[1, 2, 0], [0, 0, 1]], [[1, 1, 1], [1, 2, 0]], [[1, 2, 0]])
        cases.append(pytest.param(shared, common_function(shared), id=f"gf{q}-shared"))
        # a user with no columns: jgk = 0
        blind = _linear(q, 2, [[1, 1]], [], [[0, 1], [1, 0]])
        cases.append(pytest.param(blind, common_function(blind), id=f"gf{q}-zero-column-user"))
    for k in range(3):
        d = random_discrete(rng, rng.randrange(2, 4))
        cases.append(pytest.param(d, common_function(d), id=f"discrete-{k}"))
    h = random_hypergraphical(rng, 3, 3)
    cases.append(pytest.param(h, gk_oracle(h), id="labeling-on-edges"))
    f = random_fls(rng, 3, 3)
    cases.append(pytest.param(f, gk_oracle(f), id="labeling-on-linear"))
    return cases


def _user_columns(worlds, i, source):
    """User (i+1)'s observations in the drawn rounds as a tuple of columns."""
    if isinstance(source, DiscreteSource):
        return ([world[i] for world in worlds],)
    return tuple(list(col) for col in zip(*(world[i] for world in worlds)))


@pytest.mark.parametrize("s, w", _decoder_cases())
def test_column_decoders_match_reference_round_by_round(s, w):
    ext = build_extractor(s, w)
    source, reference = round_decoders(s, w)
    assert ext.source == source
    rng = random.Random(17)
    draw = round_sampler(source)
    worlds = [draw(rng) for _ in range(80)]
    for i, (decode, ref) in enumerate(zip(ext.decoders, reference)):
        labels = decode(_user_columns(worlds, i, source), len(worlds))
        assert labels == [ref(world[i]) for world in worlds]


@pytest.mark.parametrize("seed", range(5))
def test_discrete_key_stream_matches_reference(seed, shared_bit_source):
    rng = random.Random(5200 + seed)
    for d in (load_model(str(TWO_COINS)), random_discrete(rng, 2), random_discrete(rng, 3),
              to_discrete(shared_bit_source)):
        w = common_function(d)
        assert run(d, 300, seed).per_user_keys == round_key_streams(d, w, 300, seed)
    w = gk_oracle(shared_bit_source)
    keys = run(shared_bit_source, 300, seed, witness=w).per_user_keys
    assert keys == round_key_streams(shared_bit_source, w, 300, seed)


class _CyclingBytes:
    """Stands in for random.Random: randbytes returns 0, 1, ..., 255, 0, ..."""

    def __init__(self):
        self.next = 0

    def randbytes(self, n):
        out = bytes((self.next + i) % 256 for i in range(n))
        self.next = (self.next + n) % 256
        return out


@pytest.mark.parametrize("q", [2, 3, 5, 7, 251])
def test_uniform_column_keeps_bytes_below_a_multiple_of_q(q):
    # bytes at or above the largest multiple of q are dropped and the draw is
    # topped up, so every residue comes from the same number of byte values
    keep = 256 - 256 % q
    col = _uniform_column(_CyclingBytes(), q, 4 * keep)
    assert list(col) == [b % q for b in range(keep)] * 4


def test_large_field_run_agrees():
    q = 65521
    f = _linear(q, 2, [[1, 5]], [[2, 10], [0, 1]])
    result = run(f, n=300, seed=8)
    assert result.agreement and result.rate_ok
    assert len(set(result.per_user_keys[0])) > 250
    assert all(0 <= v < q for (v,) in result.per_user_keys[0])


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
