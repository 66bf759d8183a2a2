"""Zero-discussion agreement simulator.

Draws n i.i.d. realizations of a source, has every user apply a deterministic
decoder (derived from a common-function witness) to its own observations
only, and checks that all users produce the identical key stream with no
messages exchanged.  The empirical key rate is compared against the witness
entropy with a concentration-style tolerance.

The simulation is column-wise: the sampler draws every coordinate for all n
rounds at once (one column per edge, hidden coordinate or discrete draw), and
each user's decoder turns its own observation columns into its n key labels
in one call.  The n values of every column drawn are checked against
``VALUES_PER_POINT`` times ``ZEROTALK_EXPANSION_LIMIT`` before anything is
drawn.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .errors import ModelError
from .gf import cols_mat
# Unused here; perfbench's test_instrument_patches_every_namespace_and_restores_it
# reads sim.vec_mat.
from .gf import vec_mat  # noqa: F401
from .mcf import CommonFunctionWitness, Source, common_function
from .sources import (
    FiniteLinearSource,
    HypergraphicalSource,
    check_budget,
    pmf_weights,
    shannon_bits,
)


@dataclass(frozen=True)
class KeyExtractor:
    """Per-user deterministic key maps realizing a common-function witness.

    source is the model the decoders read observations of (a discrete view of
    the original model when the witness is a support labeling).  decoders[i]
    is user (i+1)'s column decoder: decoders[i](obs, n) maps that user's
    observation columns of n rounds to its list of n key labels (see
    CommonFunctionWitness.key_map).  surprise_var is the variance of the
    label's surprisal in bits^2, used for the empirical-rate tolerance;
    label_count the number of possible labels.
    """

    source: Source
    decoders: tuple
    expected_bits: float
    surprise_var: float
    label_count: int


def build_extractor(
    s: Source, witness: Optional[CommonFunctionWitness] = None
) -> KeyExtractor:
    w = witness if witness is not None else common_function(s)
    source, decoders, var, count = w.key_map(s)
    return KeyExtractor(source, tuple(decoders), w.entropy_bits, var, count)


def _cdf(weights, total: int) -> list:
    """Float cumulative masses w / total for random.choices, ending at exactly 1."""
    acc, cum = 0.0, []
    for w in weights:
        acc += float(w / total)
        cum.append(acc)
    cum[-1] = 1.0
    return cum


def _uniform_column(rng: random.Random, q: int, n: int):
    """n exactly uniform draws from [0, q).

    For q < 256 random bytes are reduced mod q after dropping those at or
    above the largest multiple of q, so every kept byte is uniform.
    """
    if q >= 256:
        return [rng.randrange(q) for _ in range(n)]
    reduce = bytes(b % q for b in range(256))
    reject = bytes(range(256 - 256 % q, 256))
    col = b""
    while len(col) < n:
        col += rng.randbytes(n - len(col)).translate(reduce, reject)
    return col


# A simulated value is one small int in a column; a run peaks at about
# 30-80 bytes per value, counting the decoded key streams.  A realization of
# an expansion is a tuple and a probability, so the simulation limit is 100
# values per point of the expansion limit: 10**8 values (several GB) by default.
VALUES_PER_POINT = 100


def _columns_drawn(s: Source) -> int:
    """Columns of n values the sampler draws: one per edge (the key stream
    counts as one when there is none), hidden coordinate or discrete user."""
    if isinstance(s, HypergraphicalSource):
        return max(len(s.edges), 1)
    if isinstance(s, FiniteLinearSource):
        return s.dim
    return s.user_count


def _observation_columns(s: Source, rng: random.Random, n: int) -> list:
    """n rounds of s: per user, the tuple of its observation columns."""
    if isinstance(s, HypergraphicalSource):
        cols = [
            rng.choices(range(e.alphabet_size), cum_weights=_cdf(*pmf_weights(e.pmf)), k=n)
            for e in s.edges
        ]
        return [tuple(cols[k] for k in s.incident(u)) for u in range(1, s.user_count + 1)]
    if isinstance(s, FiniteLinearSource):
        hidden = [_uniform_column(rng, int(s.q), n) for _ in range(s.dim)]
        return [tuple(cols_mat(hidden, mat, n)) for mat in s.matrices]
    # a DiscreteSource: key_map returns one of the three families
    draws = rng.choices(s.support(), cum_weights=_cdf(s.weights.values(), s.total), k=n)
    return [(list(col),) for col in zip(*draws)]


@dataclass(frozen=True)
class SimulationRun:
    """Outcome of n zero-discussion key-extraction rounds."""

    n: int
    seed: int
    per_user_keys: tuple  # one label sequence per user
    agreement: bool
    empirical_rate_bits: float
    expected_rate_bits: float
    rate_ok: bool
    discussion_bits: int = 0


def rate_tolerance(surprise_var: float, label_count: int, n: int) -> float:
    """Allowed |empirical - expected| gap: three standard errors of the mean
    surprisal plus a plug-in bias allowance of order label_count/n."""
    return 3.0 * math.sqrt(surprise_var / n) + 3.0 * label_count / n


def run(
    s: Source,
    n: int,
    seed: int,
    witness: Optional[CommonFunctionWitness] = None,
) -> SimulationRun:
    if n < 1:
        raise ModelError("need at least one round")
    ext = build_extractor(s, witness)
    check_budget("simulation", n * _columns_drawn(ext.source), "values", VALUES_PER_POINT)
    observations = _observation_columns(ext.source, random.Random(seed), n)
    keys = [decode(obs, n) for decode, obs in zip(ext.decoders, observations)]
    first = keys[0]
    agreement = all(stream == first for stream in keys[1:])
    counts = Counter(first)
    empirical = shannon_bits(c / n for c in counts.values())
    gap = abs(empirical - ext.expected_bits)
    ok = gap <= rate_tolerance(ext.surprise_var, ext.label_count, n)
    return SimulationRun(
        n=n,
        seed=seed,
        per_user_keys=tuple(map(tuple, keys)),
        agreement=agreement,
        empirical_rate_bits=empirical,
        expected_rate_bits=ext.expected_bits,
        rate_ok=ok,
    )
