"""Common-function engines: closed forms versus the support-graph oracle."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from zerotalk.errors import ExpansionTooLarge, WitnessInvalid
from zerotalk.gf import FiniteMatrix, column_space_intersection, hstack, matmul, rank
from zerotalk.mcf import (
    CommonFunctionWitness,
    EdgeSubsetWitness,
    LabelingWitness,
    SubspaceWitness,
    common_function,
    evaluate_witness,
    gk_finite_linear,
    gk_hypergraphical,
    gk_oracle,
    jgk,
)
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    to_discrete,
)


from helpers import (
    bfs_components,
    hidden_walk_witness_bits,
    identity,
    joint_walk_witness_bits,
    partition_of,
    profile_at,
    random_discrete,
    random_fls,
    random_hypergraphical,
    reference_column_space_basis,
)


# --- goldens ---


def test_shared_bit_witness(shared_bit_source):
    w = gk_hypergraphical(shared_bit_source)
    assert w.kind == "edge-subset"
    assert w.payload == ("c",)
    assert w.entropy_bits == pytest.approx(1.0, abs=1e-12)
    assert jgk(shared_bit_source) == pytest.approx(1.0, abs=1e-12)


def test_pairwise_xor_is_trivial(pairwise_xor_source):
    w = gk_finite_linear(pairwise_xor_source)
    assert w.kind == "subspace-basis"
    assert w.payload.cols == 0
    assert w.entropy_bits == 0.0


def test_overlap_pair_witness(overlap_pair_source):
    w = gk_finite_linear(overlap_pair_source)
    assert w.payload.cols == 1
    assert w.payload.col(0) == (1, 1, 0)
    assert w.entropy_bits == pytest.approx(1.0, abs=1e-12)


def test_oracle_on_shared_bit(shared_bit_source):
    w = gk_oracle(shared_bit_source)
    assert w.kind == "support-labeling"
    assert len(set(w.payload.values())) == 2
    assert w.entropy_bits == pytest.approx(1.0, abs=1e-12)


def test_oracle_on_pairwise_xor(pairwise_xor_source):
    w = gk_oracle(pairwise_xor_source)
    assert len(set(w.payload.values())) == 1
    assert w.entropy_bits == 0.0


def test_oracle_fully_disconnected():
    # one global edge: each realization is its own component
    h = HypergraphicalSource(2, (Edge.uniform("e", {1, 2}, 4),))
    w = gk_oracle(h)
    assert len(set(w.payload.values())) == 4
    assert w.entropy_bits == pytest.approx(2.0, abs=1e-12)


def test_oracle_labels_are_canonical():
    h = HypergraphicalSource(2, (Edge.uniform("e", {1, 2}, 3),))
    w = gk_oracle(h)
    # lexicographically smallest realization gets label 0, next gets 1, ...
    ordered = sorted(w.payload)
    assert [w.payload[r] for r in ordered] == [0, 1, 2]


def test_oracle_joins_a_realization_only_to_one_sharing_its_symbol():
    # no two realizations share a symbol, so find runs once per realization, for its label
    import sys

    h = HypergraphicalSource(2, (Edge.uniform("e", {1, 2}, 4),))
    finds = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "find" and frame.f_code.co_filename.endswith("mcf.py"):
            finds.append(event)

    sys.setprofile(profile)
    try:
        w = gk_oracle(h)
    finally:
        sys.setprofile(None)
    assert len(set(w.payload.values())) == 4
    assert len(finds) == 4


def test_oracle_respects_limit(shared_bit_source, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "3")
    with pytest.raises(ExpansionTooLarge):
        gk_oracle(shared_bit_source)


# --- oracle vs independent reference ---


@pytest.mark.parametrize("seed", range(12))
def test_oracle_matches_quadratic_reference(seed):
    rng = random.Random(seed)
    users = rng.randrange(2, 4)
    sources = [random_hypergraphical(rng, users, rng.randrange(1, 4)),
               random_discrete(rng, users), random_fls(rng, users)]
    for source in sources:
        d = to_discrete(source)
        w = gk_oracle(d)
        support = d.support()
        comp, count = bfs_components(support)
        assert len(set(w.payload.values())) == count
        reference = {}
        for idx, realization in enumerate(support):
            reference[realization] = comp[idx]
        assert partition_of(w.payload) == partition_of(reference)
        # the reference numbers each component by its first realization in
        # support order, which is the oracle's documented label order
        assert list(w.payload.items()) == list(reference.items())


def test_oracle_labeling_is_computable_by_every_user():
    rng = random.Random(7)
    for _ in range(8):
        d = to_discrete(random_hypergraphical(rng, 3, 2))
        w = gk_oracle(d)
        m = len(d.alphabet_sizes)
        for coord in range(m):
            seen = {}
            for realization, label in w.payload.items():
                v = realization[coord]
                assert seen.setdefault(v, label) == label, (
                    "coordinate value maps to two different labels"
                )


# --- closed form vs oracle ---


@pytest.mark.parametrize("seed", range(20))
def test_hypergraphical_closed_form_matches_oracle(seed):
    rng = random.Random(1000 + seed)
    h = random_hypergraphical(rng, rng.randrange(2, 4), rng.randrange(0, 4))
    closed = gk_hypergraphical(h)
    oracle = gk_oracle(h)
    assert closed.entropy_bits == pytest.approx(oracle.entropy_bits, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_finite_linear_closed_form_matches_oracle(seed):
    rng = random.Random(2000 + seed)
    f = random_fls(rng, rng.randrange(2, 4))
    closed = gk_finite_linear(f)
    oracle = gk_oracle(f)
    assert closed.entropy_bits == pytest.approx(oracle.entropy_bits, abs=1e-9)


def test_witness_entropy_survives_brute_force(shared_bit_source, overlap_pair_source):
    for s in (shared_bit_source, overlap_pair_source):
        w = common_function(s)
        assert evaluate_witness(s, w) == pytest.approx(w.entropy_bits, abs=1e-9)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("seed", range(10))
def test_subspace_witness_bits_match_hidden_walk(q, seed):
    rng = random.Random(f"witness:{q}:{seed}")
    dim = rng.randrange(1, {2: 7, 3: 6, 5: 5}[q])

    def draw(rows, cols):
        return FiniteMatrix(q, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))

    k = rng.randrange(0, dim + 1)  # k < dim gives a rank-deficient stack
    embed = draw(dim, k)
    f = FiniteLinearSource(
        q, dim, tuple(matmul(embed, draw(k, rng.randrange(0, 4))) for _ in range(rng.randrange(2, 4)))
    )
    # the engine's witness, and an arbitrary basis that need not be valid
    for basis in (gk_finite_linear(f).payload, draw(dim, rng.randrange(0, 3))):
        w = SubspaceWitness(basis, 0.0)
        assert evaluate_witness(f, w) == hidden_walk_witness_bits(f, basis)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_label_only_witness_walk_equals_the_joint_walk(q):
    # 70 models a field: the engine's witness, the witness plus a column outside
    # the meet when there is one, and an arbitrary basis
    rng = random.Random(f"label-walk:{q}")

    def draw(rows, cols):
        return FiniteMatrix(q, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))

    outside_seen = 0
    for _ in range(70):
        dim = rng.randrange(1, {2: 7, 3: 5, 5: 4}[q])
        embed = draw(dim, rng.randrange(0, dim + 1))
        f = FiniteLinearSource(
            q, dim, tuple(matmul(embed, draw(embed.cols, rng.randrange(0, 4))) for _ in range(rng.randrange(2, 5)))
        )
        meet = gk_finite_linear(f).payload
        bases = [meet, draw(dim, rng.randrange(0, 3))]
        if meet.cols < dim:
            extra = draw(dim, 1)
            while rank(hstack(meet, extra)) == meet.cols:
                extra = draw(dim, 1)
            bases.append(hstack(meet, extra))
            outside_seen += 1
        for basis in bases:
            assert evaluate_witness(f, SubspaceWitness(basis, 0.0)) == joint_walk_witness_bits(f, basis)
    assert outside_seen >= 35


def test_subspace_witness_check_respects_limit(monkeypatch):
    import zerotalk.gf as gf_module

    def no_walk(basis, widths):
        raise AssertionError("the walk started before the limit check")

    monkeypatch.setattr(gf_module, "row_space_keys", no_walk)
    eye = identity(2, 16)
    f = FiniteLinearSource(2, 16, (eye, eye))  # full rank: 2**16 points to walk
    w = gk_finite_linear(f)
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1000")
    with pytest.raises(ExpansionTooLarge, match=r"^witness check: 65536 points exceed the limit of 1000$"):
        evaluate_witness(f, w)


def test_witness_check_past_the_default_cap_fails_fast(monkeypatch):
    # through the CLI the linear expansion, which counts the same q**rank
    # points, trips first; the check itself is timed here
    monkeypatch.delenv("ZEROTALK_EXPANSION_LIMIT", raising=False)
    eye = identity(2, 21)
    f = FiniteLinearSource(2, 21, (eye, eye))
    w = gk_finite_linear(f)
    start = time.perf_counter()
    with pytest.raises(ExpansionTooLarge, match=r"^witness check: 2097152 points exceed the limit of 1000000$"):
        evaluate_witness(f, w)
    assert time.perf_counter() - start < 1.0


def test_dispatcher_matches_engines(shared_bit_source, pairwise_xor_source):
    assert common_function(shared_bit_source).kind == "edge-subset"
    assert common_function(pairwise_xor_source).kind == "subspace-basis"
    d = to_discrete(shared_bit_source)
    assert common_function(d).kind == "support-labeling"
    assert jgk(d) == pytest.approx(jgk(shared_bit_source), abs=1e-9)


def test_engines_return_typed_witnesses(shared_bit_source, overlap_pair_source):
    d = to_discrete(shared_bit_source)
    for w, cls, kind, payload_type in (
        (gk_hypergraphical(shared_bit_source), EdgeSubsetWitness, "edge-subset", tuple),
        (gk_finite_linear(overlap_pair_source), SubspaceWitness, "subspace-basis", FiniteMatrix),
        (gk_oracle(d), LabelingWitness, "support-labeling", dict),
        (common_function(d), LabelingWitness, "support-labeling", dict),
    ):
        assert type(w) is cls and isinstance(w, CommonFunctionWitness)
        assert w.kind == kind and w.summary()["kind"] == kind
        assert isinstance(w.payload, payload_type)


def test_edge_witness_check_rejects_unknown_and_repeated_names(shared_bit_source):
    for names in (("zzz",), ("c", "c")):
        with pytest.raises(WitnessInvalid):
            evaluate_witness(shared_bit_source, EdgeSubsetWitness(names, 0.0))


def test_witness_check_rejects_wrong_family(shared_bit_source, overlap_pair_source):
    with pytest.raises(WitnessInvalid):
        evaluate_witness(overlap_pair_source, EdgeSubsetWitness(("c",), 1.0))
    with pytest.raises(WitnessInvalid):
        evaluate_witness(shared_bit_source, SubspaceWitness(identity(2, 3), 1.0))


def test_witness_check_rejects_wrong_field_subspace(overlap_pair_source):
    with pytest.raises(WitnessInvalid):
        evaluate_witness(overlap_pair_source, SubspaceWitness(identity(3, 3), 1.0))


def test_witness_check_rejects_partial_labeling():
    d = DiscreteSource((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    with pytest.raises(WitnessInvalid):
        evaluate_witness(d, LabelingWitness({(0, 0): 0}, 1.0))


# --- structural properties ---


def test_dropping_a_user_never_decreases_common_information():
    rng = random.Random(333)
    for _ in range(10):
        f = random_fls(rng, 3)
        full = gk_finite_linear(f).entropy_bits
        for pair in itertools.combinations(range(3), 2):
            sub = FiniteLinearSource(f.q, f.dim, tuple(f.matrices[i] for i in pair))
            assert gk_finite_linear(sub).entropy_bits >= full - 1e-12


def test_intersection_fold_is_order_invariant():
    rng = random.Random(55)
    for _ in range(10):
        f = random_fls(rng, 3)
        base = gk_finite_linear(f).payload
        for perm in itertools.permutations(f.matrices):
            assert gk_finite_linear(FiniteLinearSource(f.q, f.dim, perm)).payload.entries == base.entries


def test_the_fold_needs_no_canonical_first_step():
    # Zassenhaus's RREF depends only on the two spans, so canonicalizing M_1
    # before the fold gives the identical witness
    rng = random.Random(56)
    for users in (2, 3, 4):
        for _ in range(20):
            f = random_fls(rng, users, rng.choice([2, 3, 5]))
            first = reference_column_space_basis(f.matrices[0])
            assert gk_finite_linear(f).payload == reduce(column_space_intersection, f.matrices[1:], first)


def test_common_information_bounded_by_min_marginal():
    rng = random.Random(77)
    for _ in range(10):
        h = random_hypergraphical(rng, 3, 3)
        d = to_discrete(h)
        w = gk_oracle(d)
        from zerotalk.sources import entropy_profile

        prof = entropy_profile(d)
        least = min(profile_at(prof, {i}) for i in range(1, 4))
        assert w.entropy_bits <= least + 1e-9


def test_oracle_exact_masses_give_exact_dyadic_entropy():
    # 4 equiprobable components -> exactly 2 bits with Fraction masses
    h = HypergraphicalSource(2, (Edge.uniform("e", {1, 2}, 4),))
    assert gk_oracle(h).entropy_bits == 2.0
