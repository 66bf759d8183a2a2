"""Key agreement simulation: zero discussion, honest per-user decoding."""

from __future__ import annotations

import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

from zerotalk.errors import ExpansionTooLarge, ModelError
from zerotalk.gf import FiniteMatrix, digits, vec_mat
from zerotalk.mcf import common_function, gk_oracle
from zerotalk.cli import load_model
import zerotalk.sim as sim_module
from zerotalk.sim import (
    KeyExtractor,
    SimulationRun,
    _cdf,
    _draw,
    _observation_columns,
    _uniform_columns,
    build_extractor,
    rate_tolerance,
    run,
)
from zerotalk.sources import (
    DiscreteSource,
    Edge,
    FiniteLinearSource,
    HypergraphicalSource,
    to_discrete,
)
from helpers import (
    identity,
    key_label,
    key_labels,
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
    assert len(key_labels(result)) == 3
    assert all(len(k) == 1000 for k in key_labels(result))


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
    assert set(key_labels(result)[0]) == {()}


def test_run_is_deterministic(shared_bit_source):
    a = run(shared_bit_source, n=100, seed=5)
    b = run(shared_bit_source, n=100, seed=5)
    assert a == b
    c = run(shared_bit_source, n=100, seed=6)
    assert key_labels(c) != key_labels(a)


def test_run_discrete_oracle_witness(shared_bit_source):
    d = to_discrete(shared_bit_source)
    result = run(d, n=500, seed=11)
    assert result.agreement
    assert result.expected_rate_bits == pytest.approx(1.0, abs=1e-12)
    assert result.rate_ok


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

    # a round counts its drawn columns and the key label each user decodes
    per_round = columns + s.user_count
    # the limit of 10 points admits 1000 values
    monkeypatch.setenv("ZEROTALK_EXPANSION_LIMIT", "10")
    assert run(s, n=1000 // per_round, seed=1).agreement

    def refuse(*args):
        raise AssertionError("decoders were built or rounds drawn past the budget")

    monkeypatch.setattr(sim_module, "build_extractor", refuse)
    monkeypatch.setattr(sim_module, "_observation_columns", refuse)
    over = 1000 // per_round + 1
    with pytest.raises(ExpansionTooLarge) as info:
        run(s, n=over, seed=1)
    assert str(info.value) == f"simulation: {over * per_round} values exceed the limit of 1000"


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
    assert [key_label(ext.radices, c) for c in ext.decoders[0](([10], [20], [30]), 1)] == [(30,)]
    assert [key_label(ext.radices, c) for c in ext.decoders[1](([20], [30]), 1)] == [(30,)]
    assert [key_label(ext.radices, c) for c in ext.decoders[2](([10], [30]), 1)] == [(30,)]
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
            assert [key_label(ext.radices, c) for c in decode(obs, 1)] == [expected]


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
    cases.append(pytest.param(to_discrete(h), gk_oracle(h), id="labeling-on-edges"))
    f = random_fls(rng, 3, 3)
    cases.append(pytest.param(to_discrete(f), gk_oracle(f), id="labeling-on-linear"))
    # chosen edges: none, one, several; radix products of 256 (every code a
    # byte) and 257 (the list combine), with private edges between them
    for name, sizes in [("none", []), ("one", [5]), ("several", [2, 3, 4, 2]),
                        ("product-256", [16, 16]), ("product-257", [257]),
                        ("product-272", [17, 2, 8])]:
        edges = [Edge.uniform(f"g{k}", {1, 2, 3}, v) for k, v in enumerate(sizes)]
        edges[1:1] = [Edge.uniform("p", {1, 2}, 3), Edge.uniform("r", {3}, 2)]
        h = HypergraphicalSource(3, tuple(edges))
        cases.append(pytest.param(h, common_function(h), id=f"edges-{name}"))
    # one shared column over GF(131): the q > 127 column product, codes in a byte
    f = _linear(131, 3, [[1, 2, 0], [0, 0, 1]], [[1, 2, 0], [0, 1, 5]])
    cases.append(pytest.param(f, common_function(f), id="gf131-shared"))
    for q, dim in [(2, 8), (2, 9), (3, 5), (5, 4)]:  # q**dim on both sides of 256
        f = FiniteLinearSource(q, dim, (identity(q, dim), identity(q, dim)))
        cases.append(pytest.param(f, common_function(f), id=f"gf{q}-dim{dim}"))
    nothing = _linear(3, 2, [[1, 0]], [[0, 1]])  # a zero-column basis
    cases.append(pytest.param(nothing, common_function(nothing), id="zero-column-basis"))
    return cases


def _user_columns(worlds, i, source):
    """User (i+1)'s observations in the drawn rounds as a tuple of columns."""
    if isinstance(source, DiscreteSource):
        return ([world[i] for world in worlds],)
    return tuple(list(col) for col in zip(*(world[i] for world in worlds)))


@pytest.mark.parametrize("s, w", _decoder_cases())
def test_column_decoders_match_reference_round_by_round(s, w):
    # the decoders return int codes; each code's key_label is the reference's label
    ext = build_extractor(s)
    reference = round_decoders(s, w)
    rng = random.Random(17)
    draw = round_sampler(s)
    worlds = [draw(rng) for _ in range(80)]
    for i, (decode, ref) in enumerate(zip(ext.decoders, reference)):
        labels = [key_label(ext.radices, c) for c in decode(_user_columns(worlds, i, s), len(worlds))]
        assert labels == [ref(world[i]) for world in worlds]


@pytest.mark.parametrize("s, w", _decoder_cases())
def test_labels_of_a_code_list_is_each_codes_label(s, w):
    # radix keys take their digits a column at a time; every code of the key, the largest first
    ext = build_extractor(s)
    codes = [ext.label_count - 1, *range(min(ext.label_count, 300)), 0]
    labels = codes if ext.radices is None else digits(codes, ext.radices)
    assert labels == [key_label(ext.radices, c) for c in codes]


@pytest.mark.parametrize("seed", range(5))
def test_discrete_key_stream_matches_reference(seed, shared_bit_source):
    rng = random.Random(5200 + seed)
    for d in (load_model(str(TWO_COINS)), random_discrete(rng, 2), random_discrete(rng, 3),
              to_discrete(shared_bit_source)):
        w = common_function(d)
        assert key_labels(run(d, 300, seed)) == round_key_streams(d, w, 300, seed)


@pytest.mark.parametrize("seed", range(3))
def test_discrete_decoder_output_follows_its_column_type(seed, shared_bit_source):
    # bytes in gives bytes out, list in gives list out, with equal codes; the
    # last source has 255 points, each its own component
    rng = random.Random(5300 + seed)
    apart = DiscreteSource((255, 255), {(i, (i * 7) % 255): Fraction(1, 255) for i in range(255)})
    for d in (load_model(str(TWO_COINS)), random_discrete(rng, 3), to_discrete(shared_bit_source), apart):
        ext = build_extractor(d)
        for decode, (col,) in zip(ext.decoders, _observation_columns(d, random.Random(seed), 500)):
            assert type(col) is bytes
            as_bytes, as_list = decode((col,), 500), decode((list(col),), 500)
            assert type(as_bytes) is bytes and type(as_list) is list
            assert list(as_bytes) == as_list


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
    col = _uniform_columns(_CyclingBytes(), q, 4 * keep, 1)[0]
    assert list(col) == [b % q for b in range(keep)] * 4


@pytest.mark.parametrize("seed", range(10))
def test_uniform_edge_column_is_the_cdf_draw(seed):
    # a uniform edge draws floor(random() * n) with no cdf; the pinned
    # simulate digests rely on it matching the bisect over the float cdf
    for n in range(2, 65):
        h = HypergraphicalSource(2, (Edge.uniform("e", {1, 2}, n),))
        cdf_draw = random.Random(seed).choices(range(n), cum_weights=_cdf([1] * n, n), k=1000)
        assert tuple(map(list, _observation_columns(h, random.Random(seed), 1000)[0])) == (cdf_draw,)


def _column_kind(d, seed, n):
    """bytes exactly when the index column is bytes and every alphabet is at most 256."""
    picks = _draw(random.Random(seed), len(d.weights), n, _cdf(d.weights.values(), d.total))
    return bytes if isinstance(picks, bytes) and max(d.alphabet_sizes) <= 256 else list


@pytest.mark.parametrize("seed", range(10))
def test_discrete_columns_are_each_users_symbols_of_the_cdf_draw(seed):
    # random small supports (the byte table), one of 300 points (choices' list)
    # and one of 4 points whose second user's alphabet of 257 takes the list path
    rng = random.Random(seed)
    wide = DiscreteSource((300, 3), {(i, i % 3): Fraction(1, 300) for i in range(300)})
    symbol_257 = DiscreteSource((2, 257), {(0, 0): Fraction(1, 4), (0, 256): Fraction(1, 4),
                                           (1, 7): Fraction(1, 4), (1, 255): Fraction(1, 4)})
    for d in [random_discrete(rng, rng.randrange(2, 5)) for _ in range(10)] + [wide, symbol_257]:
        support = d.support()
        draws = random.Random(seed).choices(support, cum_weights=_cdf(d.weights.values(), d.total), k=500)
        columns = [([r[i] for r in draws],) for i in range(d.user_count)]
        got = _observation_columns(d, random.Random(seed), 500)
        assert [tuple(map(list, cols)) for cols in got] == columns
        assert {type(col) for cols in got for col in cols} == {_column_kind(d, seed, 500)}
    assert _column_kind(symbol_257, seed, 500) is list and _column_kind(wide, seed, 500) is list


def _same_draw(size, n, seed, cum=None):
    """_draw returns random.choices' values and leaves the generator where it does."""
    a, b = random.Random(seed), random.Random(seed)
    assert list(_draw(a, size, n, cum)) == b.choices(range(size), cum_weights=cum, k=n)
    assert a.random() == b.random()


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_draw_is_random_choices_for_every_size(n):
    # sizes past MAX_TABLE_CUTS + 1 fall back to random.choices itself
    for size in range(1, 301):
        _same_draw(size, n, 9000 + size)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_draw_is_random_choices_for_random_pmfs(n):
    rng = random.Random(9100 + n)
    for _ in range(200):
        size = rng.randint(1, 40)
        weights = [rng.choice([0, 0, 1, 2, 3, 5, 8, 1000]) for _ in range(size)]
        weights[rng.randrange(size)] += 1
        _same_draw(size, n, rng.randrange(10**6), _cdf(weights, sum(weights)))
        floats = [rng.random() for _ in range(size)]
        _same_draw(size, n, rng.randrange(10**6), _cdf([w / sum(floats) for w in floats], 1))


def test_draw_crosses_chunks_of_rounds():
    for size in (1, 3, 10, 16):
        _same_draw(size, (1 << 16) + 1000, size)


@pytest.mark.parametrize("seed", range(3))
def test_discrete_columns_are_the_choices_draw_on_1_to_120_points(seed):
    rng = random.Random(9200 + seed)
    for points in range(1, 121):
        weights = [rng.randint(1, 9) for _ in range(points)]
        d = DiscreteSource((points, 3), {(i, rng.randrange(3)): Fraction(w, sum(weights))
                                         for i, w in enumerate(weights)})
        n = rng.choice([1, 7, 1000])
        a, b = random.Random(seed), random.Random(seed)
        draws = b.choices(d.support(), cum_weights=_cdf(d.weights.values(), d.total), k=n)
        got = _observation_columns(d, a, n)
        assert [tuple(map(list, cols)) for cols in got] == [(list(col),) for col in zip(*draws)]
        assert a.random() == b.random()
        assert {type(col) for cols in got for col in cols} == {_column_kind(d, seed, n)}


def test_random_is_built_from_two_getrandbits_words():
    # the layout _draw reads: round i's m is (a >> 5) << 26 | b >> 6 for the
    # 32-bit words a, b at bytes 8i and 8i + 4 of getrandbits(64 * n)
    raw = random.Random(7).getrandbits(64 * 500).to_bytes(8 * 500, "little")
    ref = random.Random(7)
    for i in range(500):
        a = int.from_bytes(raw[8 * i:8 * i + 4], "little")
        b = int.from_bytes(raw[8 * i + 4:8 * i + 8], "little")
        assert ((a >> 5) << 26 | b >> 6) * 2**-53 == ref.random()


class _CraftedRounds(random.Random):
    """A generator whose rounds have the given m (random() == m / 2**53).

    getrandbits returns the words CPython's random() would read m from, with
    the low bits it drops set; random() returns m / 2**53 itself, so
    random.Random.choices on this class applies its own expression to m.
    """

    def __init__(self, ms):
        super().__init__(0)
        self.ms, self.at = ms, 0

    def random(self):
        self.at += 1
        return self.ms[self.at - 1] * 2**-53

    def getrandbits(self, k):
        words = 0
        for j in range(k // 64):
            m = self.ms[self.at + j]
            a, b = (m >> 26) << 5 | 0b10101, (m & (1 << 26) - 1) << 6 | 0b101010
            words |= (b << 32 | a) << 64 * j
        self.at += k // 64
        return words


def _edge_rounds(pick, size):
    """Every m within 4 of a top-byte edge or of the first m that picks k."""
    jumps = [bisect_left(range(1 << 53), k, key=pick) for k in range(1, size)]
    centers = jumps + [t << 45 for t in range(257)]
    return sorted({c + d for c in centers for d in range(-4, 5) if 0 <= c + d < 1 << 53})


def _check_crafted(size, cum=None):
    if cum is None:
        pick = lambda m: math.floor(m * 2**-53 * float(size))
    else:
        pick = lambda m: bisect_right(cum, m * 2**-53 * (cum[-1] + 0.0), 0, size - 1)
    ms = _edge_rounds(pick, size)
    got = list(_draw(_CraftedRounds(ms), size, len(ms), cum))
    assert got == _CraftedRounds(ms).choices(range(size), cum_weights=cum, k=len(ms))
    assert got == [pick(m) for m in ms]


@pytest.mark.parametrize("limit", [sim_module.MAX_TABLE_CUTS, 253])
def test_draw_at_every_cut_and_byte_edge(limit, monkeypatch):
    # limit 253 puts every size below 255 through the byte table
    monkeypatch.setattr(sim_module, "MAX_TABLE_CUTS", limit)
    for size in [*range(1, 70), 96, 100, 127, 128, 129, 200, 251, 253, 254]:
        _check_crafted(size)
    rng = random.Random(9300)
    for size in [*range(1, 30), 60, 120, 254]:
        weights = [rng.choice([0, 0, 1, 2, 3, 7, 10**6]) for _ in range(size)]
        weights[rng.randrange(size)] += 1
        _check_crafted(size, _cdf(weights, sum(weights)))


class _NoChoices(random.Random):
    """A generator that fails if the draw falls back to random.choices."""

    def choices(self, *args, **kwargs):
        raise AssertionError("drawn by random.choices")


@pytest.mark.parametrize("cuts", [17, 99, 254])
def test_two_byte_table_is_random_choices(cuts):
    # past MAX_TABLE_CUTS a weighted draw's table reads the top two bytes of
    # m; zero masses at both ends and inside put several cuts at one m
    size = cuts + 1
    rng = random.Random(9400 + cuts)
    weights = [rng.choice([0, 0, 1, 2, 3, 7, 10**6]) for _ in range(size)]
    weights[0] = weights[-1] = 0
    weights[rng.randrange(1, size - 1)] += 1
    cum = _cdf(weights, sum(weights))
    _check_crafted(size, cum)
    for n in (1, 7, 1000, (1 << 16) + 1000):
        seed = rng.randrange(10**6)
        assert list(_draw(_NoChoices(seed), size, n, cum)) == random.Random(seed).choices(
            range(size), cum_weights=cum, k=n)
        _same_draw(size, n, seed, cum)


@pytest.mark.parametrize("size, weighted", [(18, False), (256, False), (256, True)])
def test_draw_is_random_choices_itself_past_the_tables(size, weighted):
    cum = _cdf([1] * size, size) if weighted else None
    with pytest.raises(AssertionError, match="drawn by random.choices"):
        _draw(_NoChoices(1), size, 10, cum)


@pytest.mark.parametrize("size, weighted, kind", [(255, True, bytes), (18, False, list), (256, False, list),
                                                   (256, True, list)])
def test_draw_returns_bytes_on_the_table_path(size, weighted, kind):
    # table indices stay below 255, so the table path's column is immutable bytes
    cum = _cdf(range(1, size + 1), size * (size + 1) // 2) if weighted else None
    assert type(_draw(random.Random(2), size, 1000, cum)) is kind
    _same_draw(size, 1000, 2, cum)


def test_draw_table_picks_only_for_cuts_near_a_slice_edge(monkeypatch):
    # the cut of a 1 : 2 draw lies a third of the way into its slice of m, so the
    # table marks that slice with no pick; a cut on a slice edge is searched by picks
    picks = []
    real = sim_module.bisect_right
    monkeypatch.setattr(sim_module, "bisect_right", lambda *args: picks.append(args) or real(*args))
    assert _draw(random.Random(0), 2, 0, [1, 3]) == b""
    assert picks == []
    assert _draw(random.Random(0), 2, 0, [1, 2]) == b""
    assert picks


def test_draw_of_a_huge_uniform_edge_builds_nothing_per_value():
    # a 10**6-value edge goes to random.choices before any per-cut list is made
    tracemalloc.start()
    try:
        _same_draw(10**6, 5, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("labels, kind", [(256, bytes), (257, list)])
def test_run_streams_share_one_type_and_compare_by_labels(labels, kind):
    h = HypergraphicalSource(3, (Edge.uniform("g", {1, 2, 3}, labels), Edge.uniform("p", {1, 2}, 3)))
    result = run(h, 1000, 6)
    assert result.agreement and [type(stream) for stream in result.codes] == [kind] * 3
    as_lists = SimulationRun(*[getattr(result, f) for f in SimulationRun._fields[:6]],
                             tuple(map(list, result.codes)), result.radices)
    # runs compare by every field: a list-coded copy of a bytes-coded run is
    # another run, with the same key labels
    assert (as_lists == result) is (kind is list) and key_labels(as_lists) == key_labels(result)
    assert key_labels(result)[0] == tuple((code,) for code in list(result.codes[0]))


def test_large_field_run_agrees():
    q = 65521
    f = _linear(q, 2, [[1, 5]], [[2, 10], [0, 1]])
    result = run(f, n=300, seed=8)
    assert result.agreement and result.rate_ok
    assert len(set(key_labels(result)[0])) > 250
    assert all(0 <= v < q for (v,) in key_labels(result)[0])


# --- empirical rate behavior ---


def test_rate_tolerance_shrinks_with_n():
    assert rate_tolerance(1.0, 4, 10000) < rate_tolerance(1.0, 4, 100)


def test_rate_tolerance_is_infinite_past_the_float_range():
    # a label count no float holds gives an infinite allowance, not an OverflowError
    assert rate_tolerance(0.0, 10**312, 10) == math.inf
    assert rate_tolerance(0.0, 2**1024, 10**9) == math.inf
    assert rate_tolerance(0.0, 10**300, 10) == pytest.approx(3e299)


def test_rate_concentrates_on_biased_edge():
    # one global edge with a skewed distribution: nonzero surprise variance
    edge = Edge("e", frozenset({1, 2}), (Fraction(3, 4), Fraction(1, 4)))
    h = HypergraphicalSource(2, (edge,))
    result = run(h, n=4000, seed=99)
    assert result.agreement
    assert result.rate_ok
    assert result.expected_rate_bits == pytest.approx(0.8112781244591328, abs=1e-12)


@pytest.mark.parametrize("errors, ok", [(0, True), (10, False)])
def test_rate_gap_of_ten_standard_errors_is_out_of_tolerance(monkeypatch, errors, ok):
    # the tolerance is three standard errors of the mean surprisal plus the
    # bias allowance: an expected rate moved by ten of them is reported
    h = HypergraphicalSource(2, (Edge("e", frozenset({1, 2}), (Fraction(3, 4), Fraction(1, 4))),))
    ext = build_extractor(h)
    n = 4000
    moved = ext.expected_bits + errors * math.sqrt(ext.surprise_var / n)
    shifted = KeyExtractor(ext.decoders, moved, ext.surprise_var, ext.label_count, ext.radices)
    monkeypatch.setattr(sim_module, "build_extractor", lambda s: shifted)
    result = run(h, n=n, seed=99)
    assert result.agreement and result.rate_ok is ok


def test_keys_over_larger_alphabet(shared_bit_source):
    h = HypergraphicalSource(
        2, (Edge.uniform("g", {1, 2}, 5), Edge.uniform("p", {1}, 3))
    )
    result = run(h, n=2000, seed=1)
    assert result.agreement
    assert result.rate_ok
    assert set(key_labels(result)[0]) <= {(v,) for v in range(5)}
