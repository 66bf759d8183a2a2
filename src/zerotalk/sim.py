"""Zero-discussion agreement simulator.

Draws n i.i.d. realizations of a source, has every user apply a deterministic
decoder (derived from a common-function witness) to its own observations
only, and checks that all users produce the identical key stream with no
messages exchanged.  The empirical key rate is compared against the witness
entropy with a concentration-style tolerance.

The simulation is column-wise: the sampler draws every coordinate for all n
rounds at once (one column per edge, hidden coordinate or discrete draw), and
each user's decoder turns its own observation columns into its n keys in one
call.  The witness's ``key_map`` returns those decoders as a KeyExtractor
(defined in mcf, re-exported here); a key is an int code, turned into its
label only where one is shown.  Edge and discrete columns are read off
the generator's raw words through a table of the top byte or two of each
round, the same draws as ``random.choices`` (``_draw``).  The n values of
every column drawn and the n keys each user decodes are checked against
``VALUES_PER_POINT`` times ``ZEROTALK_EXPANSION_LIMIT`` before any decoder is
built or value drawn.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from struct import unpack, unpack_from
from typing import Callable, ClassVar, Optional

from .errors import ModelError, Value
from .gf import cols_mat
# Unused here; perfbench's test_instrument_patches_every_namespace_and_restores_it
# reads sim.vec_mat.
from .gf import vec_mat  # noqa: F401
from .mcf import CommonFunctionWitness, KeyExtractor, LabelingWitness, common_function
from .sources import (
    AnySource,
    FiniteLinearSource,
    HypergraphicalSource,
    check_budget,
    pmf_weights,
    shannon_bits,
)


def build_extractor(s: AnySource, witness: Optional[CommonFunctionWitness] = None) -> KeyExtractor:
    return (witness if witness is not None else common_function(s)).key_map(s)


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


def _draw(rng: random.Random, size: int, n: int, cum=None) -> list:
    """rng.choices(range(size), cum_weights=cum, k=n), leaving rng where choices would.

    random() is m / 2**53, m = (a >> 5) << 26 | b >> 6 for its 32-bit words a,
    b; getrandbits(64 * k) holds the next 2k words least significant first, so
    bytes 8i + 3 and 8i + 2 are the top two bytes of round i's m.  The pick is
    monotone in m, so a table maps the top byte (past MAX_TABLE_CUTS cuts, the
    top two) to the index, and only rounds whose slice of m a cut falls inside
    (255) are picked from m by choices' own expression.  An index must be
    below that mark, so past 254 cuts this is choices itself.
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
    table = bytearray()
    for k, c in enumerate(cuts, 1):
        t, r = divmod(c, 1 << shift)
        inside = 64 < r < (1 << shift) - 64
        if not inside:  # near a slice edge: the first slice from t - 1 whose highest m picks k
            t = max(t - 1, 0)
            while t < end and pick(((t + 1) << shift) - 1) < k:
                t += 1
            inside = t < end and pick(t << shift) < k
        table += bytes((k - 1,)) * (t - len(table))
        if inside:
            table[t:] = b"\xff"
    table += bytes((size - 1,)) * (end - len(table))
    out = []
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
    return out


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


# A simulated value is one small int in a column or one key label a user
# decodes; a run peaks at tens of bytes per value.  A realization of an
# expansion is a tuple and a probability, so the simulation limit is 100
# values per point of the expansion limit: 10**8 values (several GB) by default.
VALUES_PER_POINT = 100


def _columns_drawn(s: AnySource, witness: Optional[CommonFunctionWitness]) -> int:
    """Columns of n values the sampler draws: one per edge (at least one),
    hidden coordinate or discrete user.  A labeling witness is drawn from the
    discrete view of s, one column per user."""
    if isinstance(witness, LabelingWitness):
        return s.user_count
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
    # a DiscreteSource: key_map returns one of the three families
    support = s.support()
    draws = map(support.__getitem__, _draw(rng, len(support), n, _cdf(s.weights.values(), s.total)))
    return [(list(col),) for col in zip(*draws)]


class SimulationRun(Value, compared=6):
    """Outcome of n zero-discussion key-extraction rounds: each user's list of
    n key codes and label(code), a code's key label.  Runs compare by labels."""

    n: int
    seed: int
    agreement: bool
    empirical_rate_bits: float
    expected_rate_bits: float
    rate_ok: bool
    codes: tuple
    label: Callable
    discussion_bits: ClassVar[int] = 0
    __hash__ = Value.__hash__  # defining __eq__ below would clear it

    @cached_property
    def per_user_keys(self) -> tuple:
        """One tuple of key labels per user, built when first read."""
        return tuple(tuple(map(self.label, stream)) for stream in self.codes)

    def __eq__(self, other):
        return Value.__eq__(self, other) is True and self.per_user_keys == other.per_user_keys


def rate_tolerance(surprise_var: float, label_count: int, n: int) -> float:
    """Allowed |empirical - expected| gap: three standard errors of the mean
    surprisal plus a plug-in bias allowance of order label_count/n."""
    return 3.0 * math.sqrt(surprise_var / n) + 3.0 * label_count / n


def run(
    s: AnySource,
    n: int,
    seed: int,
    witness: Optional[CommonFunctionWitness] = None,
) -> SimulationRun:
    if n < 1:
        raise ModelError("need at least one round")
    per_round = _columns_drawn(s, witness) + s.user_count  # and one label per user
    check_budget("simulation", n * per_round, "values", VALUES_PER_POINT)
    ext = build_extractor(s, witness)
    observations = _observation_columns(ext.source, random.Random(seed), n)
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
        label=ext.label,
    )
