"""Zero-discussion agreement simulator.

Draws n i.i.d. realizations of a source, has every user apply a deterministic
decoder of the source's own maximum common function to its own observations
only, and checks that all users produce the identical key stream with no
messages exchanged.  The empirical key rate is compared against the witness
entropy with a concentration-style tolerance.

The simulation is column-wise: the sampler draws every coordinate for all n
rounds at once (one column per edge or hidden coordinate; a discrete run draws
one column of support indices, off which each user reads its own symbols), and
each user's decoder, read off ``common_function(s).payload`` by
``build_extractor``, turns its own observation columns into its n keys in one
call.  A key is an int code plus the radices it is mixed-radix in (``None``
for a discrete key, whose code is its component label); ``gf.digits`` turns
codes into labels only where they are shown.
Edge and discrete columns are read off the generator's raw words through a
table of the top byte or two of each round, the same draws as
``random.choices`` (``_draw``).  A column or key stream is ``bytes`` on the
byte paths and a list otherwise: an edge column is bytes when a table draws
it, a linear user's columns when q < 128, and an edge or linear key stream
when its codes are below 256.  A discrete run's index column is bytes when
the support has at most 255 points; each user's column is then that column
translated through the user's symbols, and its keys through a table of its
components, both bytes when every alphabet has at most 256 symbols.
The n values of every column drawn and the n keys each user decodes are
checked against ``VALUES_PER_POINT`` times ``ZEROTALK_EXPANSION_LIMIT``
before any decoder is built or value drawn.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from functools import partial
from struct import unpack, unpack_from

from .errors import ModelError, Value
from .gf import codes, cols_mat, solve
# Unused here; perfbench's test_instrument_patches_every_namespace_and_restores_it
# reads sim.vec_mat.
from .gf import vec_mat  # noqa: F401
from .mcf import _label_masses, common_function
from .sources import (
    AnySource,
    FiniteLinearSource,
    HypergraphicalSource,
    check_budget,
    pmf_weights,
    shannon_bits,
)


def _surprisal_variance(probs) -> float:
    """Variance of -log2 p in bits^2 for a probability vector."""
    ps = [float(p) for p in probs if p > 0]
    surprises = [-math.log2(p) for p in ps]
    mean = math.fsum(p * s for p, s in zip(ps, surprises))
    return math.fsum(p * (s - mean) ** 2 for p, s in zip(ps, surprises))


class KeyExtractor(Value):
    """Each user's key decoder for the maximum common function of a source.

    decoders[i](obs, n) takes user (i+1)'s observations of n rounds, a tuple of
    coordinate columns n values long, and returns its n keys as int codes
    (bytes on the byte paths, a list otherwise).
    expected_bits is the witness entropy, surprise_var the variance of the
    key's surprisal in bits^2 (for the rate tolerance), label_count the number
    of possible keys, and radices those of the codes, whose gf.digits are the
    chosen edges' values or the subspace coordinates; None for a discrete
    source, whose code is its support component.
    """

    decoders: tuple
    expected_bits: float
    surprise_var: float
    label_count: int
    radices: tuple | None


def _component_codes(lookup: dict, table: bytes | None, obs: tuple, n: int) -> Sequence[int]:
    """A discrete user's n component codes, read off its one symbol column
    through lookup (symbol -> component): a bytes column is translated through
    table, the same map as 256 bytes, and a list column is mapped to a list.
    The sampler's bytes columns come from at most 255 points, so from as many
    components at most, which is when build_extractor makes the table."""
    col = obs[0]
    if table is not None and isinstance(col, bytes):
        return col.translate(table)
    return list(map(lookup.__getitem__, col))


def build_extractor(s: AnySource) -> KeyExtractor:
    """Each user's decoder of common_function(s), read off its payload: the
    global edges, the basis of the common subspace or the support labeling."""
    w = common_function(s)
    if isinstance(s, HypergraphicalSource):
        chosen = [k for k, e in enumerate(s.edges) if e.name in w.payload]
        radices = tuple(s.edges[k].alphabet_size for k in chosen)
        positions = [tuple(map(s.incident(u).index, chosen)) for u in range(1, s.user_count + 1)]
        decoders = tuple(lambda obs, n, ps=ps: codes([obs[p] for p in ps], radices, n) for ps in positions)
        # a uniform edge (probs None) has a constant surprisal: its variance is zero
        var = math.fsum(_surprisal_variance(s.edges[k].probs or ()) for k in chosen)
    elif isinstance(s, FiniteLinearSource):
        radices = (int(s.q),) * w.payload.cols
        coeffs = [solve(mat, w.payload) for mat in s.matrices]
        decoders = tuple(lambda obs, n, c=c: codes(cols_mat(obs, c, n), radices, n) for c in coeffs)
        var = 0.0  # the key is uniform over the image: its surprisal is constant
    else:  # a DiscreteSource: each symbol lies in one component, whose label is the code
        masses = _label_masses(s.weights, w.payload)
        decoders = []
        for i in range(s.user_count):
            lookup = {r[i]: label for r, label in w.payload.items()}
            table = bytes(map(lookup.get, range(256), bytes(256))) if len(masses) <= 256 else None
            decoders.append(partial(_component_codes, lookup, table))
        var = _surprisal_variance(m / s.total for m in masses.values())
        return KeyExtractor(tuple(decoders), w.entropy_bits, var, len(masses), None)
    return KeyExtractor(decoders, w.entropy_bits, var, math.prod(radices), radices)


def _cdf(weights, total: int) -> list:
    """Float cumulative masses w / total for random.choices, ending at exactly 1."""
    acc, cum = 0.0, []
    for w in weights:
        acc += float(w / total)
        cum.append(acc)
    cum[-1] = 1.0
    return cum


# Past this many cuts too many rounds (a byte in 256 per cut) would go to the
# exact pick, so a weighted draw's table reads the top two bytes of m instead
# of one.  A uniform draw then stays with choices: its floor(random() * size)
# costs no more per round than the two-byte lookup.
MAX_TABLE_CUTS = 16


def _draw(rng: random.Random, size: int, n: int, cum=None) -> Sequence[int]:
    """rng.choices(range(size), cum_weights=cum, k=n), leaving rng where choices would.

    random() is m / 2**53, m = (a >> 5) << 26 | b >> 6 for its 32-bit words a,
    b; getrandbits(64 * k) holds the next 2k words least significant first, so
    bytes 8i + 3 and 8i + 2 are the top two bytes of round i's m.  The pick is
    monotone in m, so a table maps the top byte (past MAX_TABLE_CUTS cuts, the
    top two) to the index, and only rounds whose slice of m a cut falls inside
    (255) are picked from m by choices' own expression.  An index must be
    below that mark, so past 254 cuts this is choices itself.  The table
    returns bytes, immutable as users' tuples share a column; choices a list.
    """
    if size > 255 or cum is None and size - 1 > MAX_TABLE_CUTS:
        return rng.choices(range(size), cum_weights=cum, k=n)
    # cut k, the first m that picks k or more, is within a few units of cuts[k - 1]
    if cum is None:
        fsize = float(size)
        pick = lambda m: math.floor(m * 2**-53 * fsize)
        cuts = [(k << 53) // size for k in range(1, size)]
    else:
        total = cum[-1] + 0.0
        pick = lambda m: bisect_right(cum, m * 2**-53 * total, 0, size - 1)
        cuts = [int(c / total * 2**53) for c in cum[:-1]]
    wide = len(cuts) > MAX_TABLE_CUTS
    shift, end = (37, 1 << 16) if wide else (45, 256)
    slot = 1 << shift
    # the table's pieces, joined once; filled is their length.  Cut k's slice
    # t never falls below cut k - 1's, so a 255 already at t is cut k's too.
    pieces, filled = [], 0
    for k, c in enumerate(cuts, 1):
        t, r = divmod(c, slot)
        inside = 64 < r < slot - 64
        if not inside:  # near a slice edge: the first slice from t - 1 whose highest m picks k
            t = max(t - 1, 0)
            while t < end and pick((t + 1) * slot - 1) < k:
                t += 1
            inside = t < end and pick(t * slot) < k
        if t > filled:
            pieces.append(bytes((k - 1,)) * (t - filled))
            filled = t
        if inside and filled == t:
            pieces.append(b"\xff")
            filled += 1
    pieces.append(bytes((size - 1,)) * (end - filled))
    table = b"".join(pieces)
    out = bytearray()
    while len(out) < n:  # 2**16 rounds at a time bounds the raw bytes held
        base, rounds = len(out), min(n - len(out), 1 << 16)
        raw = rng.getrandbits(64 * rounds).to_bytes(8 * rounds, "little")
        if wide:  # each round's top two bytes of m as one big-endian 16-bit key
            keys = bytearray(2 * rounds)
            keys[::2], keys[1::2] = raw[3::8], raw[2::8]
            col = bytes(map(table.__getitem__, unpack(f">{rounds}H", keys)))
        else:
            col = raw[3::8].translate(table)
        out += col
        i = col.find(255)
        while i >= 0:
            a, b = unpack_from("<II", raw, 8 * i)
            out[base + i] = pick(a >> 5 << 26 | b >> 6)
            i = col.find(255, i + 1)
    return bytes(out)


def _uniform_columns(rng: random.Random, q: int, n: int, count: int) -> list:
    """count columns of n exactly uniform draws from [0, q), one after another.

    For q < 256 random bytes are reduced mod q after dropping those at or
    above the largest multiple of q, so every kept byte is uniform.
    """
    if q >= 256:
        return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]
    reduce, reject = bytes(b % q for b in range(256)), bytes(range(256 - 256 % q, 256))
    cols = [b""] * count
    for j in range(count):
        while len(cols[j]) < n:
            cols[j] += rng.randbytes(n - len(cols[j])).translate(reduce, reject)
    return cols


# A simulated value is one small int in a column or one key code a user
# decodes: a byte on the byte paths, up to tens of bytes in a list.  A
# realization of an expansion is a tuple and a probability, so the simulation
# limit is 100 values per point of the expansion limit: 10**8 values by default.
VALUES_PER_POINT = 100


def _columns_drawn(s: AnySource) -> int:
    """Columns of n values the sampler draws: one per edge (at least one),
    hidden coordinate or discrete user."""
    if isinstance(s, HypergraphicalSource):
        return max(len(s.edges), 1)
    if isinstance(s, FiniteLinearSource):
        return s.dim
    return s.user_count


def _observation_columns(s: AnySource, rng: random.Random, n: int) -> list:
    """n rounds of s: per user, the tuple of its observation columns."""
    if isinstance(s, HypergraphicalSource):
        cols = [
            _draw(rng, e.alphabet_size, n, None if e.probs is None else _cdf(*pmf_weights(e.probs)))
            for e in s.edges
        ]
        return [tuple(cols[k] for k in s.incident(u)) for u in range(1, s.user_count + 1)]
    if isinstance(s, FiniteLinearSource):
        hidden = _uniform_columns(rng, int(s.q), n, s.dim)
        return [tuple(cols_mat(hidden, mat, n)) for mat in s.matrices]
    # a DiscreteSource: one column of support indices, off which each user reads its symbols
    picks = _draw(rng, len(s.weights), n, _cdf(s.weights.values(), s.total))
    if isinstance(picks, bytes) and max(s.alphabet_sizes) <= 256:
        return [(picks.translate(bytes(symbols).ljust(256, b"\0")),) for symbols in zip(*s.weights)]
    return [(list(map(symbols.__getitem__, picks)),) for symbols in zip(*s.weights)]


class SimulationRun(Value):
    """Outcome of n zero-discussion key-extraction rounds: each user's stream
    of n key codes (bytes on the byte paths, a list otherwise; all users' of
    one type) and the extractor's radices of those codes."""

    n: int
    seed: int
    agreement: bool
    empirical_rate_bits: float
    expected_rate_bits: float
    rate_ok: bool
    codes: tuple
    radices: tuple | None
    discussion_bits = 0


def rate_tolerance(surprise_var: float, label_count: int, n: int) -> float:
    """Allowed |empirical - expected| gap: three standard errors of the mean
    surprisal plus a plug-in bias allowance of order label_count/n, infinite
    past the float range."""
    bias = 3.0 * label_count / n if label_count <= sys.float_info.max else math.inf
    return 3.0 * math.sqrt(surprise_var / n) + bias


def run(s: AnySource, n: int, seed: int) -> SimulationRun:
    if n < 1:
        raise ModelError("need at least one round")
    per_round = _columns_drawn(s) + s.user_count  # and one label per user
    check_budget("simulation", n * per_round, "values", VALUES_PER_POINT)
    ext = build_extractor(s)
    observations = _observation_columns(s, random.Random(seed), n)
    codes = tuple(decode(obs, n) for decode, obs in zip(ext.decoders, observations))
    first = codes[0]
    agreement = all(stream == first for stream in codes[1:])
    counts = Counter(first)
    empirical = shannon_bits(c / n for c in counts.values())
    gap = abs(empirical - ext.expected_bits)
    ok = gap <= rate_tolerance(ext.surprise_var, ext.label_count, n)
    return SimulationRun(
        n=n,
        seed=seed,
        agreement=agreement,
        empirical_rate_bits=empirical,
        expected_rate_bits=ext.expected_bits,
        rate_ok=ok,
        codes=codes,
        radices=ext.radices,
    )
