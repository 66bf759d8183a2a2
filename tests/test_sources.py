"""Source models, expansions, entropy profiles, and the two-user conversion."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerotalk.errors import ExpansionTooLarge, ModelError, NotTwoUsers
from zerotalk.gf import FiniteMatrix, rank, hstack, matmul
from zerotalk.mcf import common_function, evaluate_witness, gk_finite_linear
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    EntropyProfile,
    FiniteLinearSource,
    HypergraphicalSource,
    check_budget,
    entropy_profile,
    expand_finite_linear,
    expand_hypergraphical,
    expansion_limit,
    fls_to_hypergraphical,
    shannon_bits,
    to_discrete,
)

from helpers import (
    hidden_walk_expansion,
    identity,
    pairwise_profile_ok,
    random_discrete,
    random_hypergraphical,
)


def random_fls(rng: random.Random, users=None, q=None, dim=None, max_cols=3) -> FiniteLinearSource:
    q = q or rng.choice([2, 3, 5])
    dim = dim or rng.randrange(1, 4)
    users = users or rng.randrange(2, 4)
    mats = tuple(
        FiniteMatrix(q, dim, cols, tuple(rng.randrange(q) for _ in range(dim * cols)))
        for cols in (rng.randrange(1, max_cols + 1) for _ in range(users))
    )
    return FiniteLinearSource(q, dim, mats)


# --- model validation ---


def test_edge_requires_valid_pmf():
    with pytest.raises(ModelError):
        Edge("e", {1}, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ModelError):
        Edge("e", {1}, (0.5, 0.6))
    Edge("e", {1}, (0.5, 0.5 + 1e-12))  # float slack within tolerance


def test_edge_requires_nonempty_subset():
    with pytest.raises(ModelError):
        Edge("e", frozenset(), (Fraction(1),))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 64, 53**2, 97**2])
def test_uniform_edge_holds_its_size(n):
    e = Edge.uniform("e", {1, 2}, n)
    explicit = Edge("e", {1, 2}, (Fraction(1, n),) * n)
    assert e == explicit and hash(e) == hash(explicit)
    assert e.probs is None and e.alphabet_size == n
    assert e.pmf == (Fraction(1, n),) * n
    assert e.entropy_bits() == math.log2(n)
    assert abs(e.entropy_bits() - shannon_bits(e.pmf)) < 1e-12


def test_only_exact_uniform_pmfs_are_held_as_a_size():
    assert Edge("e", {1}, (0.5, 0.5)).probs == (0.5, 0.5)
    assert Edge("e", {1}, (1.0,)).probs == (1.0,)
    assert Edge("e", {1}, (Fraction(1, 2), 0.5)).probs == (Fraction(1, 2), 0.5)
    assert Edge("e", {1}, (Fraction(1, 3), Fraction(2, 3))).probs == (Fraction(1, 3), Fraction(2, 3))


def test_hypergraphical_rejects_out_of_range_subsets():
    with pytest.raises(ModelError):
        HypergraphicalSource(2, (Edge.uniform("e", {1, 3}, 2),))


def test_hypergraphical_rejects_duplicate_edge_names():
    edges = (Edge.uniform("e", {1}, 2), Edge.uniform("e", {2}, 2))
    with pytest.raises(ModelError):
        HypergraphicalSource(2, edges)


def test_fls_rejects_row_count_mismatch():
    with pytest.raises(ModelError):
        FiniteLinearSource(2, 3, (identity(2, 2), identity(2, 3)))


def test_discrete_drops_zero_mass_and_sorts_support():
    s = DiscreteSource(
        (2, 2),
        {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 2), (0, 1): Fraction(0)},
    )
    assert s.support() == ((0, 0), (1, 1))


def test_discrete_requires_unit_mass():
    with pytest.raises(ModelError):
        DiscreteSource((2, 2), {(0, 0): Fraction(1, 2)})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Edge("", {1}, (Fraction(1),)), "edge name must be nonempty", id="edge-name"),
        pytest.param(lambda: Edge("e", {1}, ()), "edge 'e': empty distribution", id="edge-empty-pmf"),
        pytest.param(lambda: Edge("e", {1}, (-0.5, 1.5)), "edge 'e': bad probability -0.5", id="edge-negative"),
        pytest.param(lambda: Edge("e", {1}, (1,)), "edge 'e': probability must be Fraction or float, got int",
                     id="edge-int-probability"),
        pytest.param(lambda: Edge.uniform("e", {1}, 0), "edge 'e': alphabet size must be positive, got 0",
                     id="edge-uniform-size"),
        pytest.param(lambda: Edge.uniform("e", {1}, 2.0), "edge 'e': alphabet size must be an integer, got 2.0",
                     id="edge-uniform-float-size"),
        pytest.param(lambda: Edge.uniform("e", {1}, True), "edge 'e': alphabet size must be an integer, got True",
                     id="edge-uniform-bool-size"),
        pytest.param(lambda: HypergraphicalSource(2.0, ()), "user count must be an integer, got 2.0",
                     id="hypergraphical-float-users"),
        pytest.param(lambda: FiniteLinearSource(2, 2.0, (identity(2, 2),) * 2),
                     "ambient dimension must be an integer, got 2.0", id="linear-float-dim"),
        pytest.param(lambda: DiscreteSource((2.0, 2), {(0, 0): Fraction(1)}),
                     "alphabet sizes must be positive integers, got (2.0, 2)", id="discrete-float-alphabet"),
        pytest.param(lambda: DiscreteSource((2, False), {(0, 0): Fraction(1)}),
                     "alphabet sizes must be positive integers, got (2, False)", id="discrete-bool-alphabet"),
        pytest.param(lambda: HypergraphicalSource(1, ()), "need at least 2 users, got 1", id="hypergraphical-one-user"),
        pytest.param(lambda: FiniteLinearSource(2, 2, (identity(2, 2),)), "need at least 2 users, got 1",
                     id="linear-one-user"),
        pytest.param(lambda: FiniteLinearSource(2, 0, (identity(2, 0),) * 2),
                     "ambient dimension must be positive, got 0", id="linear-dim"),
        pytest.param(lambda: FiniteLinearSource(2, 2, (identity(2, 2), identity(3, 2))),
                     "user 2: matrix field GF(3) differs from GF(2)", id="linear-field"),
        pytest.param(lambda: DiscreteSource((2,), {(0,): Fraction(1)}), "need at least 2 users, got 1",
                     id="discrete-one-user"),
        pytest.param(lambda: DiscreteSource((2, 2), {(0,): Fraction(1)}),
                     "realization (0,) has 1 symbols, expected 2", id="discrete-short-realization"),
        pytest.param(lambda: DiscreteSource((2, 2), {(0.5, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}),
                     "realization (0.5, 1): symbol 0.5 of user 1 is not an integer", id="discrete-float-symbol"),
        pytest.param(lambda: DiscreteSource((2, 2), {(0, True): Fraction(1)}),
                     "realization (0, True): symbol True of user 2 is not an integer", id="discrete-bool-symbol"),
        pytest.param(lambda: DiscreteSource((2, 2), {("a", 0): Fraction(1, 2), (0, 0): Fraction(1, 2)}),
                     "realization ('a', 0): symbol 'a' of user 1 is not an integer", id="discrete-str-symbol"),
    ],
)
def test_models_reject_invalid_data(call, message):
    with pytest.raises(ModelError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (to_discrete, "not a source model: object"),
        (entropy_profile, "not a source model: object"),
        (common_function, "unrecognized source type: object"),
    ],
)
def test_non_sources_are_rejected(call, message):
    with pytest.raises(ModelError) as info:
        call(object())
    assert str(info.value) == message


# --- expansion ---


def test_expand_shared_bit_source(shared_bit_source):
    d = expand_hypergraphical(shared_bit_source)
    assert len(d.support()) == 8
    assert all(p == Fraction(1, 8) for p in d.pmf.values())
    assert shannon_bits(d.pmf.values()) == pytest.approx(3.0, abs=1e-12)


def test_expand_single_global_edge():
    h = HypergraphicalSource(3, (Edge.uniform("e", {1, 2, 3}, 4),))
    d = expand_hypergraphical(h)
    assert all(len(set(key)) == 1 for key in d.support())
    assert len(d.support()) == 4


def test_expand_two_private_bits_are_independent():
    h = HypergraphicalSource(2, (Edge.uniform("e1", {1}, 2), Edge.uniform("e2", {2}, 2)))
    d = expand_hypergraphical(h)
    assert len(d.support()) == 4
    h1 = shannon_bits(d.marginal({1}).values(), d.total)
    h2 = shannon_bits(d.marginal({2}).values(), d.total)
    h12 = shannon_bits(d.pmf.values())
    assert h1 == pytest.approx(1.0, abs=1e-12)
    assert h2 == pytest.approx(1.0, abs=1e-12)
    assert h1 + h2 - h12 == pytest.approx(0.0, abs=1e-12)  # mutual information zero


def test_expand_pairwise_xor(pairwise_xor_source):
    d = expand_finite_linear(pairwise_xor_source)
    assert len(d.support()) == 4
    for key in d.support():
        assert key[2] == key[0] ^ key[1]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        hi = shannon_bits(d.marginal({i}).values(), d.total)
        hj = shannon_bits(d.marginal({j}).values(), d.total)
        hij = shannon_bits(d.marginal({i, j}).values(), d.total)
        assert hi + hj - hij == pytest.approx(0.0, abs=1e-12)
    assert shannon_bits(d.pmf.values()) == pytest.approx(2.0, abs=1e-12)


def test_expand_zero_column_observations():
    empty = FiniteMatrix(3, 2, 0, ())
    f = FiniteLinearSource(3, 2, (empty, empty))
    d = expand_finite_linear(f)
    assert d.support() == ((0, 0),)
    assert shannon_bits(d.pmf.values()) == 0.0


def test_expand_overlap_pair_entropies(overlap_pair_source):
    d = expand_finite_linear(overlap_pair_source)
    assert shannon_bits(d.marginal({1}).values(), d.total) == pytest.approx(2.0, abs=1e-12)
    assert shannon_bits(d.marginal({2}).values(), d.total) == pytest.approx(2.0, abs=1e-12)
    assert shannon_bits(d.pmf.values()) == pytest.approx(3.0, abs=1e-12)


def test_expansion_limit_enforced(shared_bit_source, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "7")
    with pytest.raises(ExpansionTooLarge):
        expand_hypergraphical(shared_bit_source)
    with pytest.raises(ExpansionTooLarge):
        expand_finite_linear(FiniteLinearSource(2, 3, (identity(2, 3),) * 2))


def random_stacked_fls(rng: random.Random, q: int) -> FiniteLinearSource:
    """Linear source with zero-column users allowed and, half of the time, a
    stacked matrix of rank below dim (every M_i factors through dim x k)."""
    dim = rng.randrange(1, {2: 7, 3: 6, 5: 5}[q])

    def draw(rows, cols):
        return FiniteMatrix(q, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))

    k = rng.randrange(0, dim) if rng.random() < 0.5 else dim
    embed = draw(dim, k)
    mats = tuple(matmul(embed, draw(k, rng.randrange(0, 4))) for _ in range(rng.randrange(2, 5)))
    return FiniteLinearSource(q, dim, mats)


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("seed", range(15))
def test_row_space_expansion_matches_hidden_walk(q, seed):
    f = random_stacked_fls(random.Random(f"expand:{q}:{seed}"), q)
    got, want = expand_finite_linear(f), hidden_walk_expansion(f)
    assert got.alphabet_sizes == want.alphabet_sizes
    assert got.pmf == want.pmf
    assert list(got.pmf) == list(want.pmf)  # same sorted support order
    assert all(type(p) is Fraction for p in got.pmf.values())


def test_expansion_cap_counts_support_points(monkeypatch):
    # dim 6 over GF(3), but the stacked matrix has rank 2: 9 support points
    e1 = FiniteMatrix.from_cols(3, [[1, 0, 0, 0, 0, 0]])
    e2 = FiniteMatrix.from_cols(3, [[0, 1, 0, 0, 0, 0]])
    f = FiniteLinearSource(3, 6, (e1, e2, hstack(e1, e2)))
    assert rank(hstack(*f.matrices)) == 2
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "9")
    d = expand_finite_linear(f)  # 3**6 > 9 >= 3**2
    assert len(d.support()) == 9
    assert d.pmf == hidden_walk_expansion(f).pmf
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "8")
    with pytest.raises(ExpansionTooLarge):
        expand_finite_linear(f)


def test_expansion_limit_env_override(shared_bit_source, monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "4")
    assert expansion_limit() == 4
    with pytest.raises(ExpansionTooLarge):
        expand_hypergraphical(shared_bit_source)
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "not-a-number")
    with pytest.raises(ModelError):
        expansion_limit()
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "0")
    with pytest.raises(ModelError, match="^ZEROTALK_EXPANSION_LIMIT must be positive, got 0$"):
        expansion_limit()


def test_to_discrete_passthrough_checks_support_cap(monkeypatch):
    d = DiscreteSource((2, 2), {(0, 0): 0.5, (1, 1): 0.5})
    assert to_discrete(d) is d
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "1")
    with pytest.raises(ExpansionTooLarge):
        to_discrete(d)


# GF(2)^6 seen through columns e1, e2, e3 and e3, e4, e1 + e4: the stack
# has rank 4, so 16 support points, and the two spans meet in span(e1, e3)
RANK_4_OF_6 = FiniteLinearSource(2, 6, (
    FiniteMatrix.from_cols(2, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
    FiniteMatrix.from_cols(2, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [1, 0, 0, 1, 0, 0]]),
))

BUDGETED_STAGES = {
    "hypergraphical expansion": (
        lambda: expand_hypergraphical(
            HypergraphicalSource(3, (Edge.uniform("a", {1, 2}, 3), Edge.uniform("b", {2, 3}, 3)))
        ),
        "9 edge assignments",
    ),
    "linear expansion": (
        lambda: expand_finite_linear(FiniteLinearSource(2, 4, (identity(2, 4),) * 2)),
        "16 support points",
    ),
    "discrete support": (
        lambda: to_discrete(DiscreteSource((3, 3), {(i, j): Fraction(1, 9) for i in range(3) for j in range(3)})),
        "9 points",
    ),
    "hypergraphical model": (lambda: HypergraphicalSource(9, ()), "9 users"),
    "edge 'c'": (lambda: Edge.uniform("c", {1}, 9), "9 uniform values"),
    "entropy profile": (
        lambda: entropy_profile(HypergraphicalSource(3, ())), "9 elemental inequalities"
    ),
    "witness check": (
        lambda: evaluate_witness(RANK_4_OF_6, gk_finite_linear(RANK_4_OF_6)), "16 points"
    ),
}


@pytest.mark.parametrize("stage", BUDGETED_STAGES)
def test_budget_error_names_stage_count_and_cap(stage, monkeypatch):
    build, counted = BUDGETED_STAGES[stage]
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "8")
    with pytest.raises(ExpansionTooLarge) as info:
        build()
    assert str(info.value) == f"{stage}: {counted} exceed the limit of 8"


@pytest.mark.parametrize("stage", BUDGETED_STAGES)
def test_budget_at_the_cap_runs(stage, monkeypatch):
    build, counted = BUDGETED_STAGES[stage]
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", counted.split()[0])
    build()


def test_rank_deficient_linear_expansion_is_counted_by_its_rank(monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "16")
    assert len(expand_finite_linear(RANK_4_OF_6).weights) == 16
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "15")
    with pytest.raises(ExpansionTooLarge) as info:
        expand_finite_linear(RANK_4_OF_6)
    assert str(info.value) == "linear expansion: 16 support points exceed the limit of 15"


def test_profile_budget_is_checked_before_anything_is_built(monkeypatch):
    import zerotalk.sources as sources_module

    def refuse(*args):
        raise AssertionError("profile work started before the budget check")

    class Untouchable(dict):  # the discrete profile's first work reads the weights
        __len__ = __iter__ = __getitem__ = keys = values = items = refuse

    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "100")
    h = HypergraphicalSource(6, (Edge.uniform("e", range(1, 7), 2),))
    d = to_discrete(h)
    object.__setattr__(d, "weights", Untouchable(d.weights))
    monkeypatch.setattr(sources_module, "EntropyProfile", refuse)
    monkeypatch.setattr(Edge, "entropy_bits", refuse)
    for s in (h, d):
        with pytest.raises(ExpansionTooLarge, match="^entropy profile: 246 elemental"):
            entropy_profile(s)


def test_budget_error_prints_counts_past_the_int_digit_limit(monkeypatch):
    # 2**20000 has more decimal digits than str(int) allows by default
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "8")
    edges = tuple(Edge.uniform(f"e{i}", {1}, 2) for i in range(20000))
    with pytest.raises(ExpansionTooLarge, match=r"^hypergraphical expansion: 2\*\*20000 "):
        expand_hypergraphical(HypergraphicalSource(2, edges))
    with pytest.raises(ExpansionTooLarge, match=r"^stage: more than 2\*\*20000 items"):
        check_budget("stage", 2**20000 + 1, "items")


def test_budget_error_prints_counts_past_100_bits_as_a_power_of_two(monkeypatch):
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "8")
    for count, shown in [(2**100 - 1, str(2**100 - 1)), (2**100, "2**100"),
                         (2**100 + 1, "more than 2**100"), (3 * 2**200, "more than 2**201")]:
        with pytest.raises(ExpansionTooLarge) as info:
            check_budget("stage", count, "items")
        assert str(info.value) == f"stage: {shown} items exceed the limit of 8"


def test_user_budget_is_checked_before_the_user_set_is_built(monkeypatch):
    def no_users(self):
        raise AssertionError("the user set was built before the budget check")

    monkeypatch.setattr(HypergraphicalSource, "users", no_users)
    with pytest.raises(ExpansionTooLarge, match="1000000000 users"):
        HypergraphicalSource(10**9, (Edge.uniform("e", {1, 2}, 2),))


# --- entropy profiles ---


def test_profile_pairwise_xor(pairwise_xor_source):
    prof = entropy_profile(pairwise_xor_source)
    for single in ({1}, {2}, {3}):
        assert prof.of(single) == pytest.approx(1.0, abs=1e-12)
    for pair in ({1, 2}, {1, 3}, {2, 3}):
        assert prof.of(pair) == pytest.approx(2.0, abs=1e-12)
    assert prof.total() == pytest.approx(2.0, abs=1e-12)


def test_profile_deterministic_source_is_zero():
    d = DiscreteSource((1, 1), {(0, 0): Fraction(1)})
    prof = entropy_profile(d)
    assert prof.h == [0.0] * 4


def test_profile_formulas_agree_with_expansion(shared_bit_source):
    prof = entropy_profile(shared_bit_source)
    assert prof.of({2}) == pytest.approx(2.0, abs=1e-12)
    expanded = entropy_profile(to_discrete(shared_bit_source))
    assert prof.matches(expanded)


def test_profile_formulas_agree_with_expansion_random_fls():
    rng = random.Random(1234)
    for _ in range(15):
        f = random_fls(rng)
        assert entropy_profile(f).matches(entropy_profile(to_discrete(f)))


@st.composite
def small_edge_model(draw):
    m = draw(st.integers(2, 3))
    edge_count = draw(st.integers(0, 3))
    edges = []
    for i in range(edge_count):
        subset = draw(st.sets(st.integers(1, m), min_size=1, max_size=m))
        size = draw(st.integers(1, 3))
        edges.append(Edge.uniform(f"e{i}", subset, size))
    return HypergraphicalSource(m, tuple(edges))


@given(small_edge_model())
@settings(max_examples=60, deadline=None)
def test_profile_survives_expansion(h):
    assert entropy_profile(h).matches(entropy_profile(to_discrete(h)))


@given(small_edge_model())
@settings(max_examples=60, deadline=None)
def test_profile_is_monotone_and_submodular_by_construction(h):
    # EntropyProfile refuses non-monotone / non-submodular data, so surviving
    # construction on both the formula and expansion paths is the assertion
    entropy_profile(h)
    entropy_profile(to_discrete(h))


def test_profile_rejects_non_monotone():
    # h[mask] with bit i-1 for user i: H({1}) = 2, H({2}) = 0, H({1, 2}) = 1
    with pytest.raises(ModelError, match=r"not monotone at \[1\] \+ user 2"):
        EntropyProfile(2, [0.0, 2.0, 0.0, 1.0])


def test_profile_rejects_non_submodular():
    with pytest.raises(ModelError, match=r"not submodular at \[1\], \[2\]"):
        EntropyProfile(2, [0.0, 1.0, 1.0, 3.0])


def subsets_of(users: int):
    return [sub for k in range(1, users + 1) for sub in combinations(range(1, users + 1), k)]


@pytest.mark.parametrize("seed", range(10))
def test_profile_values_are_the_subset_formulas_bit_for_bit(seed):
    rng = random.Random(1500 + seed)
    h = random_hypergraphical(rng, rng.randrange(2, 8), rng.randrange(0, 6))
    prof = entropy_profile(h)
    for sub in subsets_of(h.user_count):
        meets = [e.entropy_bits() for e in h.edges if e.subset & set(sub)]
        assert prof.of(sub) == math.fsum(meets)
    f = random_fls(rng, users=rng.randrange(2, 5))
    prof = entropy_profile(f)
    for sub in subsets_of(f.user_count):
        stacked = hstack(*(f.matrices[i - 1] for i in sub))
        assert prof.of(sub) == rank(stacked) * math.log2(int(f.q))
    d = random_discrete(rng, rng.randrange(2, 5))
    prof = entropy_profile(d)
    for sub in subsets_of(d.user_count):
        assert prof.of(sub) == shannon_bits(d.marginal(sub).values(), d.total)


def assert_profile_is_the_tuple_path(d: DiscreteSource) -> None:
    """The profile of d, bit for bit, against each subset's tuple marginal."""
    users = range(1, d.user_count + 1)
    tuple_path = [0.0] + [
        shannon_bits(d.marginal([u for u in users if mask >> (u - 1) & 1]).values(), d.total)
        for mask in range(1, 2**d.user_count)
    ]
    assert list(map(float.hex, entropy_profile(d).h)) == list(map(float.hex, tuple_path))


@pytest.mark.parametrize("seed", range(12))
def test_packed_profile_is_the_tuple_path_on_random_sources(seed):
    rng = random.Random(1700 + seed)
    assert_profile_is_the_tuple_path(random_discrete(rng, rng.randrange(2, 6)))
    assert_profile_is_the_tuple_path(to_discrete(random_hypergraphical(rng, rng.randrange(2, 8),
                                                                       rng.randrange(0, 6))))
    assert_profile_is_the_tuple_path(to_discrete(random_fls(rng, users=rng.randrange(2, 5))))


def random_support(rng: random.Random, alphabets, points: int, exact=True, top=10) -> DiscreteSource:
    keys = {tuple(rng.randrange(a) for a in alphabets) for _ in range(points)}
    weights = [rng.randrange(1, top) for _ in keys]
    if exact:
        return DiscreteSource(alphabets, {k: Fraction(w, sum(weights)) for k, w in zip(keys, weights)})
    return DiscreteSource(alphabets, {k: w / sum(weights) for k, w in zip(keys, weights)})


def test_packed_profile_field_widths():
    # a user who sees no edge has alphabet 1, a field of width 0
    h = HypergraphicalSource(4, (Edge.uniform("a", {1, 2}, 4), Edge.uniform("b", {2, 4}, 5)))
    assert to_discrete(h).alphabet_sizes == (4, 20, 1, 5)
    assert_profile_is_the_tuple_path(to_discrete(h))
    rng = random.Random(1800)
    for _ in range(4):
        # alphabets of exactly 2**k and 2**k + 1 symbols, widths k and k + 1
        assert_profile_is_the_tuple_path(random_support(rng, (1, 2, 3, 4, 5, 8, 9), 40))
        # keys of 20 + 21 + 2 + 30 + 3 = 76 bits
        assert_profile_is_the_tuple_path(random_support(rng, (2**20, 2**20 + 1, 3, 2**30, 5), 40))


def test_packed_profile_of_keys_past_64_bits():
    # five users see one 97**2 edge: 14-bit fields, 70-bit keys; user 6 sees nothing
    h = HypergraphicalSource(6, (Edge.uniform("g", range(1, 6), 97**2), Edge.uniform("p", {1, 2}, 2)))
    assert_profile_is_the_tuple_path(to_discrete(h))


def test_packed_profile_of_float_mixed_and_wide_weights():
    edges = (Edge("a", {1, 2}, (0.1, 0.2, 0.7)), Edge("b", {2, 3}, (Fraction(1, 3), Fraction(2, 3))))
    assert_profile_is_the_tuple_path(to_discrete(HypergraphicalSource(3, edges)))
    # exact and float masses in one pmf: a marginal entry fed only by Fractions stays a Fraction
    third = Fraction(1, 3)
    mixed = DiscreteSource((2, 3, 2), {(0, 0, 1): third, (0, 2, 0): 1 / 3, (1, 1, 1): third})
    assert any(isinstance(w, Fraction) for w in mixed.marginal({1}).values())
    assert_profile_is_the_tuple_path(mixed)
    rng = random.Random(1900)
    for _ in range(4):
        assert_profile_is_the_tuple_path(random_support(rng, (3, 4, 2, 5), 30, exact=False))
        # integer weights past 2**53: each mass is one correctly rounded division
        wide = random_support(rng, (3, 2, 4, 5), 60, top=2**70)
        assert wide.total > 2**53
        assert_profile_is_the_tuple_path(wide)
        d = random_support(rng, (3, 2, 4), 12)
        assert_profile_is_the_tuple_path(DiscreteSource(d.alphabet_sizes, {
            k: float(p) if i % 2 else p for i, (k, p) in enumerate(d.pmf.items())
        }))


@pytest.mark.parametrize("seed", range(12))
def test_elemental_check_accepts_what_the_pairwise_check_accepts(seed):
    rng = random.Random(1600 + seed)
    m = rng.randrange(2, 6)
    s = random_discrete(rng, m) if seed % 2 else random_hypergraphical(rng, m, rng.randrange(0, 5))
    h = entropy_profile(s).h
    assert pairwise_profile_ok(m, h)

    def elemental_ok(values):
        try:
            EntropyProfile(m, values)
        except ModelError:
            return False
        return True

    for _ in range(30):
        bent = list(h)
        bent[rng.randrange(1, len(h))] += rng.choice([-1, 1]) * rng.uniform(0.05, 1.0)
        assert elemental_ok(bent) == pairwise_profile_ok(m, bent)
    # H(V) pushed below H(V - {1}): both checks refuse it
    bent = list(h)
    bent[-1] = h[-2] - 0.5
    assert not elemental_ok(bent) and not pairwise_profile_ok(m, bent)


def test_profile_matches_only_a_profile_of_as_many_users():
    one, two = EntropyProfile(1, [0.0, 1.0]), EntropyProfile(2, [0.0, 1.0, 0.0, 1.0])
    # the first two entries agree, so only the user count tells them apart
    assert one.matches(one) and two.matches(two)
    assert not one.matches(two) and not two.matches(one)


def test_profile_rejects_wrong_length_and_nonzero_empty_set():
    with pytest.raises(ModelError, match="needs 4 subset entropies, got 3"):
        EntropyProfile(2, [0.0, 1.0, 1.0])
    with pytest.raises(ModelError, match="empty set"):
        EntropyProfile(2, [0.5, 1.0, 1.0, 1.0])


# --- two-user conversion ---


def test_conversion_golden(overlap_pair_source):
    h = fls_to_hypergraphical(overlap_pair_source)
    assert h.user_count == 2
    subsets = [e.subset for e in h.edges]
    assert subsets == [frozenset({1, 2}), frozenset({1}), frozenset({2})]
    assert [e.entropy_bits() for e in h.edges] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_conversion_identical_observations():
    f = FiniteLinearSource(3, 2, (identity(3, 2), identity(3, 2)))
    h = fls_to_hypergraphical(f)
    assert len(h.edges) == 1
    (edge,) = h.edges
    assert edge.subset == frozenset({1, 2})
    assert edge.entropy_bits() == pytest.approx(2 * 1.5849625007211562, abs=1e-12)  # 2*log2(3)


def test_conversion_preserves_profile_random():
    rng = random.Random(97)
    for _ in range(25):
        f = random_fls(rng, users=2, dim=rng.randrange(1, 5))
        h = fls_to_hypergraphical(f)
        assert entropy_profile(f).matches(entropy_profile(h))
        # shared edge dimension equals the overlap dimension
        total = rank(hstack(*f.matrices))
        overlap = rank(f.matrices[0]) + rank(f.matrices[1]) - total
        shared_edges = [e for e in h.edges if e.subset == frozenset({1, 2})]
        got = sum(e.entropy_bits() for e in shared_edges)
        import math

        assert got == pytest.approx(overlap * math.log2(int(f.q)), abs=1e-9)


def test_conversion_rejects_other_user_counts(pairwise_xor_source):
    with pytest.raises(NotTwoUsers):
        fls_to_hypergraphical(pairwise_xor_source)
