"""Partition spread coefficients, bound lines, and the sequential chain bound."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerotalk.bounds import (
    LaminationBound,
    Partition,
    all_partitions,
    alpha,
    best_partition,
    chain_bound,
    lamination_bound,
    singleton_partition,
)
from zerotalk.errors import ExpansionTooLarge, PartitionInvalid, UnsupportedModel
from zerotalk.gf import FiniteMatrix
from zerotalk.mcf import gk_hypergraphical, jgk
from zerotalk.sources import Edge, FiniteLinearSource, HypergraphicalSource, fls_to_hypergraphical, to_discrete
from helpers import block_of, exhaustive_best_partition, forbid_matrix_builds, random_fls, random_hypergraphical


def alpha_reference(h, blocks):
    """Second opinion on the spread coefficient, written independently."""
    owner = {}
    for i, block in enumerate(blocks):
        for u in block:
            owner[u] = i
    touches = [
        len({owner[u] for u in e.subset})
        for e in h.edges
        if e.subset != frozenset(range(1, h.user_count + 1))
    ]
    if not touches:
        return Fraction(0)
    return Fraction(max(touches) - 1, len(blocks) - 1)


# --- partitions ---


def test_partition_canonical_form():
    p = Partition(4, [[3, 1], [4, 2]])
    assert p.blocks == ((1, 3), (2, 4))
    assert p == Partition(4, [(2, 4), (1, 3)])


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(PartitionInvalid):
        Partition(3, [[1, 2], [2, 3]])
    with pytest.raises(PartitionInvalid):
        Partition(3, [[1, 2]])
    with pytest.raises(PartitionInvalid):
        Partition(3, [[1, 2], [3, 4]])
    with pytest.raises(PartitionInvalid):
        Partition(3, [[1], [2], [3], []])
    with pytest.raises(PartitionInvalid, match="^user count must be positive$"):
        Partition(0, [])


@pytest.mark.parametrize("blocks", [[[1, 1], [2], [3]], [[1], [1, 2], [3]]], ids=["one-block", "two-blocks"])
def test_partition_rejects_a_repeated_user_in_one_block_or_two(blocks):
    with pytest.raises(PartitionInvalid, match="^user 1 appears more than once$"):
        Partition(3, blocks)


def test_singleton_partition():
    p = singleton_partition(4)
    assert p.blocks == ((1,), (2,), (3,), (4,))


# no users have no partition to scan
@pytest.mark.parametrize("m,bell", [(0, 0), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_partition_enumeration_counts(m, bell):
    seen = list(all_partitions(m))
    assert len(seen) == bell
    assert len(set(seen)) == bell  # no duplicates


def partitions_recursive(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in partitions_recursive(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def test_partition_enumeration_matches_recursive_reference():
    for m in (2, 3, 4):
        ours = {p.blocks for p in all_partitions(m)}
        ref = {
            Partition(m, blocks).blocks
            for blocks in partitions_recursive(list(range(1, m + 1)))
        }
        assert ours == ref


# --- spread coefficient ---


def test_alpha_golden_singletons(shared_bit_source):
    a = alpha(shared_bit_source, singleton_partition(3))
    assert a == Fraction(1, 2)
    # by hand: the two non-global edges each touch two of the three blocks


def test_alpha_two_block_partition(shared_bit_source):
    # grouping users 2 and 3: edges {1,3} and {1,2} still straddle
    a = alpha(shared_bit_source, Partition(3, [[1], [2, 3]]))
    assert a == Fraction(1)


def test_alpha_zero_when_all_edges_global():
    h = HypergraphicalSource(3, (Edge.uniform("e", {1, 2, 3}, 2),))
    assert alpha(h, singleton_partition(3)) == Fraction(0)


def test_alpha_zero_when_no_edge_straddles():
    h = HypergraphicalSource(4, (Edge.uniform("e", {1, 2}, 2),))
    a = alpha(h, Partition(4, [[1, 2], [3, 4]]))
    assert a == Fraction(0)


def test_alpha_requires_matching_user_count(shared_bit_source):
    with pytest.raises(PartitionInvalid):
        alpha(shared_bit_source, singleton_partition(4))


def test_alpha_requires_two_blocks(shared_bit_source):
    with pytest.raises(PartitionInvalid):
        alpha(shared_bit_source, Partition(3, [[1, 2, 3]]))


@pytest.mark.parametrize("seed", range(15))
def test_alpha_matches_reference(seed):
    rng = random.Random(400 + seed)
    h = random_hypergraphical(rng, rng.randrange(2, 5), rng.randrange(0, 5))
    for p in all_partitions(h.user_count):
        if len(p) < 2:
            continue
        assert alpha(h, p) == alpha_reference(h, p.blocks)


def block_of_alpha(h, p):
    """alpha with each user's block found by block_of, a scan over
    the blocks: the form alpha had before it built one user -> block dict."""
    touches = [
        len({block_of(p, u) for u in e.subset}) for e in h.edges if e.subset != h.users()
    ]
    worst = max(touches, default=0)
    return Fraction(worst - 1, len(p) - 1) if worst else Fraction(0)


@pytest.mark.parametrize("seed", range(10))
def test_alpha_matches_the_block_of_form_on_random_partitions(seed):
    rng = random.Random(700 + seed)
    m = rng.randrange(2, 40)
    h = random_hypergraphical(rng, m, rng.randrange(0, 30))
    for _ in range(20):
        labels = [rng.randrange(rng.randrange(2, m + 1)) for _ in range(m)]
        if len(set(labels)) < 2:
            continue
        p = Partition(m, [[u for u in range(1, m + 1) if labels[u - 1] == b] for b in set(labels)])
        assert alpha(h, p) == block_of_alpha(h, p)


def test_alpha_on_4000_users_with_4000_pair_edges():
    """One dict per call, not one block scan per user and edge: the block_of
    form took about a second on this model."""
    m = 4000
    edges = tuple(Edge.uniform(f"e{u}", {u, u % m + 1}, 2) for u in range(1, m + 1))
    h = HypergraphicalSource(m, edges)
    assert alpha(h, singleton_partition(m)) == Fraction(1, m - 1)
    halves = Partition(m, [range(1, m // 2 + 1), range(m // 2 + 1, m + 1)])
    assert alpha(h, halves) == Fraction(1)


@pytest.mark.parametrize("seed", range(15))
def test_alpha_singleton_cap(seed):
    rng = random.Random(500 + seed)
    m = rng.randrange(3, 6)
    h = random_hypergraphical(rng, m, rng.randrange(1, 5))
    a = alpha(h, singleton_partition(m))
    assert a <= Fraction(m - 2, m - 1)


@given(st.integers(0, 2**30), st.integers(2, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_alpha_always_in_unit_interval(seed, users, edge_count):
    h = random_hypergraphical(random.Random(seed), users, edge_count)
    for p in all_partitions(users):
        if len(p) < 2:
            continue
        a = alpha(h, p)
        assert Fraction(0) <= a <= Fraction(1)


@given(st.integers(0, 2**30), st.integers(2, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_best_partition_never_worse_than_singletons(seed, users, edge_count):
    rng = random.Random(seed)
    for h in (random_hypergraphical(rng, users, edge_count), fls_to_hypergraphical(random_fls(rng, 2))):
        searched = best_partition(h)
        singletons = lamination_bound(h, singleton_partition(h.user_count))
        assert searched.coefficient <= singletons.coefficient
        # neither line is vacuous, so at rate 0 both read J_GK exactly: verify's
        # lamination_at_zero reads the singleton line and runs no search
        assert singletons.bound_at(0.0) == searched.bound_at(0.0) == gk_hypergraphical(h).entropy_bits


# --- bound lines ---


def test_bound_line_golden(shared_bit_source):
    b = lamination_bound(shared_bit_source, singleton_partition(3))
    assert b.coefficient == Fraction(1, 2)
    assert b.intercept_bits == pytest.approx(1.0, abs=1e-12)
    assert b.bound_at(0.0) == pytest.approx(1.0, abs=1e-12)
    assert b.bound_at(1.0) == pytest.approx(2.0, abs=1e-12)
    assert not b.vacuous


def test_bound_line_vacuous(shared_bit_source):
    b = lamination_bound(shared_bit_source, Partition(3, [[1], [2, 3]]))
    assert b.vacuous
    assert b.bound_at(0.0) == math.inf


def test_bound_line_flat_when_coefficient_zero():
    h = HypergraphicalSource(2, (Edge.uniform("e", {1, 2}, 4),))
    b = lamination_bound(h, singleton_partition(2))
    assert b.coefficient == 0
    assert b.bound_at(0.0) == b.bound_at(100.0) == pytest.approx(2.0, abs=1e-12)


def test_bound_at_zero_equals_common_information_when_not_vacuous():
    rng = random.Random(600)
    for _ in range(10):
        h = random_hypergraphical(rng, 3, rng.randrange(0, 4))
        b = lamination_bound(h, singleton_partition(3))
        if not b.vacuous:
            assert b.bound_at(0.0) == pytest.approx(jgk(h), abs=1e-9)


# --- best partition search ---


def test_best_partition_golden(shared_bit_source):
    b = best_partition(shared_bit_source)
    assert b.coefficient == Fraction(1, 2)
    assert b.partition == singleton_partition(3)


def test_best_partition_prefers_non_straddling_grouping():
    h = HypergraphicalSource(4, (Edge.uniform("e", {1, 2}, 2), Edge.uniform("f", {3, 4}, 2)))
    b = best_partition(h)
    assert b.coefficient == Fraction(0)
    assert b.partition == Partition(4, [[1, 2], [3, 4]])


@pytest.mark.parametrize("seed", range(10))
def test_best_partition_matches_exhaustive_reference(seed):
    rng = random.Random(700 + seed)
    h = random_hypergraphical(rng, rng.randrange(2, 5), rng.randrange(0, 4))
    b = best_partition(h)
    candidates = [
        alpha_reference(h, blocks)
        for blocks in partitions_recursive(list(range(1, h.user_count + 1)))
        if len(blocks) >= 2
    ]
    assert b.coefficient == min(candidates)


def sweep_model(rng: random.Random, users: int, kind: str) -> HypergraphicalSource:
    everyone = range(1, users + 1)
    if kind == "no-edges":
        subsets = []
    elif kind == "global-only":
        subsets = [everyone] * rng.randrange(1, 3)
    elif kind == "single-user":
        subsets = [[rng.randrange(1, users + 1)] for _ in range(rng.randrange(1, 4))]
        subsets += [rng.sample(everyone, rng.randrange(1, users + 1)) for _ in range(2)]
    else:
        subsets = [rng.sample(everyone, rng.randrange(1, users + 1))
                   for _ in range(rng.randrange(1, 6))]
        if kind == "duplicates":
            subsets += [rng.choice(subsets) for _ in range(2)]
    edges = [Edge.uniform(f"e{i}", subset, rng.choice([2, 3])) for i, subset in enumerate(subsets)]
    return HypergraphicalSource(users, tuple(edges))


@pytest.mark.parametrize("kind", ["random", "no-edges", "global-only", "single-user", "duplicates"])
@pytest.mark.parametrize("users", range(2, 9))
def test_best_partition_matches_exhaustive_search(users, kind):
    # 1200 models of 2-7 users: the search cuts the ties whose blocks so far are
    # not below the best's, and must pick the partition that scoring them all picks
    rng = random.Random(f"sweep:{users}:{kind}")
    for _ in range(40 if users < 8 else 1):
        h = sweep_model(rng, users, kind)
        assert best_partition(h) == exhaustive_best_partition(h), h


def test_best_partition_scores_only_the_winner(monkeypatch):
    import zerotalk.bounds as bounds_module

    calls = []
    real = bounds_module.alpha
    monkeypatch.setattr(bounds_module, "alpha", lambda h, p: calls.append(p) or real(h, p))
    monkeypatch.setattr(bounds_module, "all_partitions", None)
    h = HypergraphicalSource(5, (Edge.uniform("e", {1, 2}, 2), Edge.uniform("f", {3, 4, 5}, 2)))
    b = best_partition(h)
    assert calls == [b.partition] == [Partition(5, [[1, 2], [3, 4, 5]])]


def test_best_partition_step_budget(monkeypatch):
    # no user cap: more than 8 users are searched, and the limit counts steps
    rng = random.Random(9)
    h = HypergraphicalSource(9, tuple(
        Edge.uniform(f"e{i}", rng.sample(range(1, 10), rng.randint(2, 8)), 2) for i in range(5)))
    assert best_partition(h) == exhaustive_best_partition(h)
    # every partition ties at 0; the tie cut keeps the walk to two blocks
    g = HypergraphicalSource(12, (Edge.uniform("g", range(1, 13), 2),))
    assert best_partition(g).partition == Partition(12, [[1], range(2, 13)])
    # 3000 levels deep, past the interpreter's recursion limit
    wide = HypergraphicalSource(3000, (Edge.uniform("e", range(1, 3000), 2),))
    assert best_partition(wide).partition == Partition(3000, [range(1, 3000), [3000]])
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1000")
    with pytest.raises(ExpansionTooLarge) as info:
        best_partition(g)
    assert str(info.value) == "partition search: 1002 search steps exceed the limit of 1000"


def test_partition_search_runs_at_the_cap_and_stops_one_step_past_it(monkeypatch):
    # the whole search on one global edge over 12 users takes 1375 steps
    g = HypergraphicalSource(12, (Edge.uniform("g", range(1, 13), 2),))
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1375")
    assert best_partition(g).partition == Partition(12, [[1], range(2, 13)])
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1374")
    with pytest.raises(ExpansionTooLarge) as info:
        best_partition(g)
    assert str(info.value) == "partition search: 1375 search steps exceed the limit of 1374"


def test_best_partition_reads_the_limit_once_below_the_cap(monkeypatch):
    # the cap is read as the search starts, not at each of its 1375 steps
    import zerotalk.bounds as bounds_module
    import zerotalk.sources as sources_module

    g = HypergraphicalSource(12, (Edge.uniform("g", range(1, 13), 2),))
    reads = []
    real = sources_module.expansion_limit
    counting = lambda: reads.append(1) or real()
    monkeypatch.setattr(bounds_module, "expansion_limit", counting)
    monkeypatch.setattr(sources_module, "expansion_limit", counting)
    assert best_partition(g).partition == Partition(12, [[1], range(2, 13)])
    assert len(reads) == 1


def test_best_partition_is_never_vacuous():
    # the singleton partition's coefficient is at most (m-2)/(m-1) < 1
    rng = random.Random(800)
    for _ in range(40):
        h = random_hypergraphical(rng, rng.randrange(2, 7), rng.randrange(0, 6))
        assert best_partition(h).vacuous is False, h


def test_best_partition_is_deterministic(shared_bit_source):
    first = best_partition(shared_bit_source)
    second = best_partition(shared_bit_source)
    assert first == second


# --- chain bound ---


def test_chain_bound_golden(shared_bit_source, overlap_pair_source, pairwise_xor_source):
    assert chain_bound(shared_bit_source) == pytest.approx(1.0, abs=1e-12)
    assert chain_bound(overlap_pair_source) == pytest.approx(1.0, abs=1e-12)
    assert chain_bound(pairwise_xor_source) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_chain_bound_equals_common_information(seed):
    rng = random.Random(800 + seed)
    h = random_hypergraphical(rng, 3, rng.randrange(0, 4))
    f = random_fls(rng, 3)
    assert chain_bound(h) == pytest.approx(jgk(h), abs=1e-9)
    assert chain_bound(f) == pytest.approx(jgk(f), abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_chain_bound_is_ordering_invariant(seed):
    rng = random.Random(900 + seed)
    h = random_hypergraphical(rng, 3, rng.randrange(1, 4))
    f = random_fls(rng, 3)
    for s in (h, f):
        values = {
            round(chain_bound(s, order), 12)
            for order in itertools.permutations((1, 2, 3))
        }
        assert len(values) == 1


@pytest.mark.parametrize("q", [2, 5, 131])
def test_chain_bound_packs_each_input_column_once_and_builds_no_matrix(monkeypatch, q):
    rng = random.Random(f"chain-packs:{q}")
    dim, shared = 5, [rng.randrange(q) for _ in range(5)]
    mats = tuple(  # a shared column, so the meet is not trivial, then random ones
        FiniteMatrix.from_cols(q, [shared] + [[rng.randrange(q) for _ in range(dim)] for _ in range(c)], rows=dim)
        for c in (3, 1, 2, 0)
    )
    s = FiniteLinearSource(q, dim, mats)
    packed = forbid_matrix_builds(monkeypatch)
    # every ordering computes its own chain; only the first packs the columns it reads
    values = {chain_bound(s, order) for order in itertools.permutations((1, 2, 3, 4))}
    assert sorted(packed) == sorted(m.col(j) for m in mats for j in range(m.cols))
    monkeypatch.undo()
    assert values == {jgk(s)}


def test_chain_bound_rejects_bad_ordering(shared_bit_source):
    with pytest.raises(PartitionInvalid):
        chain_bound(shared_bit_source, (1, 2))
    with pytest.raises(PartitionInvalid):
        chain_bound(shared_bit_source, (1, 2, 2))
    with pytest.raises(PartitionInvalid):
        chain_bound(shared_bit_source, (0, 1, 2))


def test_chain_bound_rejects_discrete(shared_bit_source):
    with pytest.raises(UnsupportedModel):
        chain_bound(to_discrete(shared_bit_source))
