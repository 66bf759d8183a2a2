"""Zero-discussion agreement simulator.

Draws i.i.d. realizations of a source, has every user apply a deterministic
decoder (derived from a common-function witness) to its own observation only,
and checks that all users produce the identical key stream with no messages
exchanged.  The empirical key rate is compared against the witness entropy
with a concentration-style tolerance.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ModelError
from .gf import vec_mat
from .mcf import CommonFunctionWitness, Source, common_function
from .sources import (
    DiscreteSource,
    FiniteLinearSource,
    HypergraphicalSource,
    shannon_bits,
)


@dataclass(frozen=True)
class KeyExtractor:
    """Per-user deterministic key maps realizing a common-function witness.

    source is the model the decoders read observations of (a discrete view of
    the original model when the witness is a support labeling).  decoders[i]
    maps user (i+1)'s observation to the key label.  surprise_var is the
    variance of the label's surprisal in bits^2, used for the empirical-rate
    tolerance; label_count the number of possible labels.
    """

    source: Source
    witness: CommonFunctionWitness
    decoders: tuple
    expected_bits: float
    surprise_var: float
    label_count: int


def build_extractor(
    s: Source, witness: Optional[CommonFunctionWitness] = None
) -> KeyExtractor:
    w = witness if witness is not None else common_function(s)
    source, decoders, var, count = w.key_map(s)
    return KeyExtractor(source, w, tuple(decoders), w.entropy_bits, var, count)


def _observation_sampler(s: Source) -> Callable[[random.Random], tuple]:
    """Returns rng -> (obs_1, ..., obs_m), one observation per user."""
    if isinstance(s, HypergraphicalSource):
        cdfs = []
        for e in s.edges:
            acc, cum = 0.0, []
            for p in e.pmf:
                acc += float(p)
                cum.append(acc)
            cum[-1] = 1.0
            cdfs.append(cum)
        incident = [s.incident(u) for u in range(1, s.user_count + 1)]

        def draw(rng: random.Random) -> tuple:
            values = [bisect.bisect_right(cum, rng.random()) for cum in cdfs]
            return tuple(
                tuple(values[k] for k in inc) for inc in incident
            )

        return draw
    if isinstance(s, FiniteLinearSource):
        q = int(s.q)

        def draw(rng: random.Random) -> tuple:
            x = [rng.randrange(q) for _ in range(s.dim)]
            return tuple(tuple(vec_mat(x, mat)) for mat in s.matrices)

        return draw
    if isinstance(s, DiscreteSource):
        support = s.support()
        acc, cum = 0.0, []
        for realization in support:
            acc += float(s.pmf[realization])
            cum.append(acc)
        cum[-1] = 1.0

        def draw(rng: random.Random) -> tuple:
            realization = support[bisect.bisect_right(cum, rng.random())]
            return tuple(realization)

        return draw
    raise ModelError(f"unrecognized source type: {type(s).__name__}")


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
    draw = _observation_sampler(ext.source)
    rng = random.Random(seed)
    keys: list = [[] for _ in ext.decoders]
    for _ in range(n):
        world = draw(rng)
        for i, decode in enumerate(ext.decoders):
            keys[i].append(decode(world[i]))
    first = keys[0]
    agreement = all(stream == first for stream in keys[1:])
    counts: dict = {}
    for label in first:
        counts[label] = counts.get(label, 0) + 1
    empirical = shannon_bits(c / n for c in counts.values())
    gap = abs(empirical - ext.expected_bits)
    ok = gap <= rate_tolerance(ext.surprise_var, ext.label_count, n)
    return SimulationRun(
        n=n,
        seed=seed,
        per_user_keys=tuple(tuple(stream) for stream in keys),
        agreement=agreement,
        empirical_rate_bits=empirical,
        expected_rate_bits=ext.expected_bits,
        rate_ok=ok,
    )
