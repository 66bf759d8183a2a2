"""Source models for multiterminal key agreement.

Three model families, each describing how a set of users jointly observes
correlated randomness:

* ``HypergraphicalSource`` — independent edge variables, each observed by
  the users its hyperedge touches.
* ``FiniteLinearSource`` — every user sees a linear transform x @ M_i of one
  shared uniform vector over a prime field.
* ``DiscreteSource`` — an explicit joint pmf over finite alphabets; the
  universal fallback and the substrate for brute-force checks.

Probabilities may be exact ``Fraction`` values or floats; entropies are
always reported as floats in bits.  A joint pmf whose masses are all exact
is held as integer weights over one common denominator (``pmf_weights``):
the expansions, marginals, label masses and samplers add ints and divide
once per mass, ``w / total``.  Int true division rounds correctly, so that
float is the float of the exact mass.  A pmf with any float keeps its
values over a denominator of 1.
Enumerating a joint support is capped by ``ZEROTALK_EXPANSION_LIMIT``
(default 10**6) so oversized models fail loudly instead of thrashing.  The
cap counts the points an expansion enumerates, checked before it starts:
edge assignments for a hypergraphical source, and the q**rank support points
of a finite linear source, whose expansion walks the row space of the
stacked observation matrix rather than all q**dim hidden vectors.  The same
cap refuses a hypergraphical user count, a uniform edge size, and an entropy
profile's elemental inequalities and (``PROJECTIONS_PER_POINT`` per point)
subset projections before anything of that size is built; ``check_budget``
is the one check.  A uniform edge holds only its size: only an expansion,
under its cap, or ``Edge.pmf`` builds its values.
The entropy profile of a discrete source packs each realization once into
an int, a bit field per user, and projects it onto a subset with one AND;
``DiscreteSource.marginal`` is the tuple form of the same marginal.  A
subset that keeps every realization apart, and each of its supersets,
takes the full entropy and projects nothing: the projection budget is a
worst case.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter, lshift
from types import MappingProxyType

from .errors import ExpansionTooLarge, ModelError, NotTwoUsers, Value, is_int

Probability = Fraction | float
Weight = int | Fraction | float  # an int over a common total, or a mass over 1

DEFAULT_EXPANSION_LIMIT = 10**6
PROJECTIONS_PER_POINT = 100  # 10**8 profile projections, ~210 ns each: ~20 s (2-vCPU VM, CPython 3.11)
PROBABILITY_TOLERANCE = 1e-9
ENTROPY_TOLERANCE = 1e-9


@cache
def load_gf():
    """The finite-field module ``gf``, imported on the first call.  Only
    finite linear models use it (and the simulator, which imports it itself),
    so a command on an edge or discrete model never compiles it."""
    from . import gf
    return gf


def expansion_limit() -> int:
    """Joint-realization cap: ZEROTALK_EXPANSION_LIMIT, or the default."""
    raw = os.environ.get("ZEROTALK_EXPANSION_LIMIT")
    if raw is None:
        return DEFAULT_EXPANSION_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ModelError(f"ZEROTALK_EXPANSION_LIMIT must be an integer, got {raw!r}") from None
    if value < 1:
        raise ModelError(f"ZEROTALK_EXPANSION_LIMIT must be positive, got {value}")
    return value


def check_budget(stage: str, count: int, what: str, per_point: int = 1) -> None:
    """Refuse to build ``count`` items past the expansion limit, before building any.

    ``per_point`` items count as one point of the limit, for items much
    smaller than a realization.

    Raises:
        ExpansionTooLarge: naming the stage, the count and the cap.
    """
    cap = per_point * expansion_limit()
    if count > cap:
        k = count.bit_length() - 1  # past 100 bits, a power of two says as much
        shown = count if k < 100 else f"2**{k}" if count == 1 << k else f"more than 2**{k}"
        raise ExpansionTooLarge(f"{stage}: {shown} {what} exceed the limit of {cap}")


def pmf_weights(probs) -> tuple[list, int]:
    """(weights, total) with probs[i] equal to weights[i] / total.

    An all-``Fraction`` pmf becomes integer weights over the lcm of its
    reduced denominators, the one such form with the least total; a pmf with
    any float keeps its values over a total of 1.
    """
    if all(isinstance(p, Fraction) for p in probs):
        total = math.lcm(*(p.denominator for p in probs))
        return [p.numerator * (total // p.denominator) for p in probs], total
    return list(probs), 1


def _check_sum(weights, total: int, what: str) -> None:
    """Exact weights sum to their total exactly; others to 1 within tolerance."""
    if not weights:
        raise ModelError(f"{what}: empty distribution")
    if all(isinstance(w, int) for w in weights):
        mass = sum(weights)
        if mass != total:
            raise ModelError(f"{what}: exact probabilities sum to {Fraction(mass, total)}, not 1")
    else:
        mass = math.fsum(float(w) for w in weights)
        if abs(mass - 1.0) > PROBABILITY_TOLERANCE:
            raise ModelError(f"{what}: probabilities sum to {mass!r}, not 1")


def _check_pmf(probs: tuple[Probability, ...], what: str) -> tuple[list, int]:
    """Check a pmf and return it as ``pmf_weights`` does."""
    for p in probs:
        if isinstance(p, Fraction):
            if p < 0:
                raise ModelError(f"{what}: negative probability {p}")
        elif isinstance(p, float):
            if not math.isfinite(p) or p < 0:
                raise ModelError(f"{what}: bad probability {p!r}")
        else:
            raise ModelError(f"{what}: probability must be Fraction or float, got {type(p).__name__}")
    weights, total = pmf_weights(probs)
    _check_sum(weights, total, what)
    return weights, total


def shannon_bits(probs, total: int = 1) -> float:
    """Plug-in Shannon entropy in bits of the masses p / total; zero-mass
    entries are skipped.  For integer weights, p / total is the correctly
    rounded float of the exact mass.  The terms are added exactly: from left
    to right, 6 * 10**6 equal masses miss log2 n by 1.8e-9 bits."""
    return 0.0 - math.fsum(x * math.log2(x) for p in probs if (x := float(p / total)) > 0.0)


class Edge(Value):
    """One hyperedge: its name, the users observing it, and its value pmf.

    A uniform edge holds only its alphabet size (``probs`` is None); ``pmf``
    builds its masses on each read.  An exact pmf of n masses
    ``Fraction(1, n)`` is held the same way, so it equals
    ``Edge.uniform(name, subset, n)``; a float pmf keeps its floats.
    """

    name: str
    subset: frozenset[int]
    alphabet_size: int
    probs: tuple[Probability, ...] | None

    def __init__(self, name: str, subset, pmf):
        probs = tuple(pmf)
        super().__init__(name, frozenset(subset), len(probs), probs)
        weights, _ = _check_pmf(probs, f"edge {name!r}")
        if isinstance(weights[0], int) and weights.count(weights[0]) == len(weights):  # exact, all equal
            object.__setattr__(self, "probs", None)

    @classmethod
    def uniform(cls, name: str, subset, size: int) -> "Edge":
        if not is_int(size):
            raise ModelError(f"edge {name!r}: alphabet size must be an integer, got {size!r}")
        if size < 1:
            raise ModelError(f"edge {name!r}: alphabet size must be positive, got {size}")
        check_budget(f"edge {name!r}", size, "uniform values")
        e = cls.__new__(cls)
        Value.__init__(e, name, frozenset(subset), size, None)
        return e

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("edge name must be nonempty")
        if not self.subset:
            raise ModelError(f"edge {self.name!r}: user subset must be nonempty")

    @property
    def pmf(self) -> tuple[Probability, ...]:
        n = self.alphabet_size
        return (Fraction(1, n),) * n if self.probs is None else self.probs

    def entropy_bits(self) -> float:
        return math.log2(self.alphabet_size) if self.probs is None else shannon_bits(self.probs)


class HypergraphicalSource(Value):
    """Independent edge variables; user i observes every edge whose subset contains i."""

    model = "hypergraphical"
    user_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not is_int(self.user_count):
            raise ModelError(f"user count must be an integer, got {self.user_count!r}")
        if self.user_count < 2:
            raise ModelError(f"need at least 2 users, got {self.user_count}")
        check_budget("hypergraphical model", self.user_count, "users")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ModelError("edge names must be unique")
        users = self.users()
        for e in self.edges:
            if not e.subset <= users:
                raise ModelError(f"edge {e.name!r}: subset {sorted(e.subset)} outside 1..{self.user_count}")

    def users(self) -> frozenset[int]:
        return frozenset(range(1, self.user_count + 1))

    def incident(self, user: int) -> tuple[int, ...]:
        """Indices (in edge order) of the edges observed by the given user."""
        return tuple(k for k, e in enumerate(self.edges) if user in e.subset)


class FiniteLinearSource(Value):
    """Shared uniform vector over GF(q); user i observes x @ matrices[i]."""

    model = "finite_linear"
    q: int  # a gf.FieldOrder
    dim: int
    matrices: tuple  # a gf.FiniteMatrix per user

    def __post_init__(self):
        object.__setattr__(self, "q", load_gf().FieldOrder(self.q))
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not is_int(self.dim):
            raise ModelError(f"ambient dimension must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ModelError(f"ambient dimension must be positive, got {self.dim}")
        if len(self.matrices) < 2:
            raise ModelError(f"need at least 2 users, got {len(self.matrices)}")
        for i, m in enumerate(self.matrices, start=1):
            if m.q != self.q:
                raise ModelError(f"user {i}: matrix field GF({int(m.q)}) differs from GF({int(self.q)})")
            if m.rows != self.dim:
                raise ModelError(f"user {i}: matrix has {m.rows} rows, ambient dimension is {self.dim}")

    @property
    def user_count(self) -> int:
        return len(self.matrices)

    @cached_property
    def _joint_basis(self):
        """A basis of the row space of [M_1 | ... | M_m], reduced on the first read."""
        gf = load_gf()
        return gf.row_space_basis(gf.hstack(*self.matrices))


def _check_alphabets(sizes: tuple[int, ...]) -> None:
    if len(sizes) < 2:
        raise ModelError(f"need at least 2 users, got {len(sizes)}")
    if not all(is_int(a) and a >= 1 for a in sizes):
        raise ModelError(f"alphabet sizes must be positive integers, got {sizes}")


def _check_symbols(sizes: tuple[int, ...], keys) -> None:
    """Check realizations, int tuples of one symbol per user, against the
    alphabets by each user's min and max; name the first symbol outside."""
    if all(0 <= min(col) and max(col) < a for a, col in zip(sizes, zip(*keys))):
        return
    key, i, sym = next((key, i, sym) for key in keys
                       for i, (sym, a) in enumerate(zip(key, sizes), start=1) if not 0 <= sym < a)
    raise ModelError(f"realization {key}: symbol {sym} outside alphabet of user {i}")


class DiscreteSource(Value):
    """Explicit joint pmf over per-user finite alphabets (0-based symbol indices).

    The pmf is held as ``weights`` over one ``total``: realization r has
    mass weights[r] / total (see ``pmf_weights``), and ``pmf`` is a
    read-only mapping of the masses themselves, built on each read.
    """

    model = "discrete"
    alphabet_sizes: tuple[int, ...]
    weights: dict[tuple[int, ...], Weight]
    total: int

    def __init__(self, alphabet_sizes, pmf: dict[tuple[int, ...], Probability]):
        sizes = tuple(alphabet_sizes)
        _check_alphabets(sizes)
        masses = {tuple(key): p for key, p in pmf.items()}
        for key in masses:  # int symbols only, as the profile packs them into bit fields
            if len(key) != len(sizes):
                raise ModelError(f"realization {key} has {len(key)} symbols, expected {len(sizes)}")
            for i, sym in enumerate(key, start=1):
                if not is_int(sym):
                    raise ModelError(f"realization {key}: symbol {sym!r} of user {i} is not an integer")
        _check_symbols(sizes, masses)
        keys = sorted(k for k, p in masses.items() if p != 0)
        weights, total = _check_pmf(tuple(map(masses.get, keys)), "joint pmf")
        Value.__init__(self, sizes, dict(zip(keys, weights)), total)

    @classmethod
    def _from_weights(cls, alphabet_sizes, weights: dict, total: int) -> "DiscreteSource":
        """A source from the positive weights, in ``pmf_weights`` form, of
        realizations that the caller built inside the alphabets: the keys are
        sorted as the constructor sorts them but not checked again."""
        _check_sum(tuple(weights.values()), total, "joint pmf")
        d = cls.__new__(cls)
        Value.__init__(d, tuple(alphabet_sizes), {k: weights[k] for k in sorted(weights)}, total)
        return d

    @classmethod
    def _from_ratios(cls, alphabet_sizes, masses: dict) -> "DiscreteSource":
        """A source from exact masses as reduced (numerator, denominator) int
        pairs on ``_check_symbols`` keys, with the constructor's errors."""
        sizes = tuple(alphabet_sizes)
        _check_alphabets(sizes)
        _check_symbols(sizes, masses)
        negative = [k for k, (n, _) in masses.items() if n < 0]
        if negative:  # the first in sorted order, where _check_pmf meets it
            raise ModelError(f"joint pmf: negative probability {Fraction(*masses[min(negative)])}")
        total = math.lcm(*(d for _, d in masses.values()))
        return cls._from_weights(sizes, {k: n * (total // d) for k, (n, d) in masses.items() if n}, total)

    @property
    def pmf(self) -> Mapping[tuple[int, ...], Probability]:
        t = self.total
        return MappingProxyType({k: Fraction(w, t) if isinstance(w, int) else w
                                 for k, w in self.weights.items()})

    @property
    def user_count(self) -> int:
        return len(self.alphabet_sizes)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Positive-probability realizations, lexicographically sorted."""
        return tuple(self.weights)

    def marginal(self, subset) -> dict[tuple[int, ...], Weight]:
        """Projection onto the given users (ascending order), as weights over
        ``self.total``."""
        idx = [i - 1 for i in sorted(subset)]
        if len(idx) == 1:  # itemgetter of one index returns the bare value, not a 1-tuple
            i = idx[0]
            project = lambda key: (key[i],)
        else:
            project = itemgetter(*idx) if idx else lambda key: ()
        out: dict[tuple[int, ...], Weight] = {}
        for key, w in self.weights.items():
            proj = project(key)
            out[proj] = out.get(proj, 0) + w
        return out

AnySource = DiscreteSource | HypergraphicalSource | FiniteLinearSource


class EntropyProfile:
    """All subset entropies H(Z_S) in bits, as a flat list over user bitmasks.

    ``h[mask]`` is the entropy of the users whose bits are set in ``mask``;
    bit i-1 stands for user i, and ``h[0]`` is the empty set's 0.0.  Serves
    as a bijection-invariant fingerprint of a source: two models with equal
    profiles carry the same correlation structure even if their symbol
    labelings differ.

    Construction checks Yeung's elemental inequalities, each at
    ENTROPY_TOLERANCE: H(V) >= H(V - {i}) for every user i, and
    I(i; j | K) >= 0 for every i < j and K inside V - {i, j} (R. W. Yeung,
    "A framework for linear information inequalities", IEEE T-IT 43(6),
    1997).  Together they imply every monotonicity and submodularity
    instance, so these m + C(m,2)*2**(m-2) comparisons, not the pairwise
    ones they imply, are the contract: with a tolerance, a profile within
    rounding of the boundary could pass one form and fail the other.
    """

    def __init__(self, user_count: int, h):
        self.user_count = user_count
        self.h = [float(x) for x in h]
        expected = 2**user_count
        if len(self.h) != expected:
            raise ModelError(f"profile needs {expected} subset entropies, got {len(self.h)}")
        if self.h[0] != 0.0:
            raise ModelError(f"profile gives the empty set entropy {self.h[0]!r}, not 0")
        self._validate()

    def _validate(self) -> None:
        tol = ENTROPY_TOLERANCE
        h = self.h
        m = self.user_count
        full = len(h) - 1
        for i in range(m):
            rest = full ^ (1 << i)
            if h[rest] > h[full] + tol:
                raise ModelError(f"profile not monotone at {_users_of(rest)} + user {i + 1}")
        for i in range(m):
            bi = 1 << i
            for j in range(i + 1, m):
                bj = 1 << j
                rest = full ^ bi ^ bj
                k = rest
                while True:  # every K inside rest, by the submask walk
                    if h[k | bi] + h[k | bj] < h[k | bi | bj] + h[k] - tol:
                        raise ModelError(
                            f"profile not submodular at {_users_of(k | bi)}, {_users_of(k | bj)}"
                        )
                    if not k:
                        break
                    k = (k - 1) & rest

    def matches(self, other: "EntropyProfile") -> bool:
        if self.user_count != other.user_count:
            return False
        return all(abs(a - b) <= ENTROPY_TOLERANCE for a, b in zip(self.h, other.h))


def _users_of(mask: int) -> list[int]:
    """The users, ascending, whose bits are set in a profile mask."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _edge_weights(e: Edge, exact: bool) -> tuple:
    """An edge's pmf in ``pmf_weights`` form in an exact model, else its masses over 1."""
    n = e.alphabet_size
    if e.probs is None:  # the one place a uniform edge's values are built
        return ([1] * n, n) if exact else ((1.0 / n,) * n, 1)
    return pmf_weights(e.probs) if exact else (e.probs, 1)


def expand_hypergraphical(h: HypergraphicalSource) -> DiscreteSource:
    """Enumerate the joint pmf of a hypergraphical source, one edge at a time.

    Each edge appends its value to the symbols of the users who see it and
    multiplies its weight into every partial realization, so each user's
    symbol is the mixed-radix value of its incident edges, in edge order,
    and the joint probability is the product over the independent edges.
    With exact edges it is the product of their integer weights over the
    product of their totals.  Every edge is seen by some user, so each step
    keeps the keys distinct and assignments and realizations correspond one
    to one; for every prime some weight of each edge is prime to it, so the
    product weights are in the least-total form of ``pmf_weights``.

    Raises:
        ExpansionTooLarge: if the product of edge alphabet sizes exceeds
            the enumeration limit (checked before the first edge).
    """
    support_size(h)
    exact = all(isinstance(p, Fraction) for e in h.edges for p in e.probs or ())
    tables = [_edge_weights(e, exact) for e in h.edges]
    alphabets = [1] * h.user_count
    joint: dict[tuple[int, ...], Weight] = {(0,) * h.user_count: 1 if exact else 1.0}
    for e, (table, _) in zip(h.edges, tables):
        size = e.alphabet_size
        sees = [u in e.subset for u in range(1, h.user_count + 1)]
        alphabets = [a * size if seen else a for a, seen in zip(alphabets, sees)]
        joint = {tuple(k * size + v if seen else k for k, seen in zip(key, sees)): x
                 for key, w in joint.items() for v, p in enumerate(table) if (x := w * p)}
    return DiscreteSource._from_weights(alphabets, joint, math.prod(t for _, t in tables))


def expand_finite_linear(f: FiniteLinearSource) -> DiscreteSource:
    """Enumerate the joint pmf of a finite linear source.

    The joint observation is x @ A for the stacked A = [M_1 | ... | M_m], so
    for uniform x it is uniform on the row space of A: q**r points of weight
    1 over a total of q**r, r being the rank of A.  The walk streams that
    row space from one RREF of A instead of walking all q**dim hidden
    vectors; user i's symbol is its slice of the point read in base q
    (``gf.row_space_keys``).  The support and the exact masses are those of
    the q**dim walk.

    Raises:
        ExpansionTooLarge: if the q**r support points exceed the
            enumeration limit (checked before the walk starts).
    """
    q = int(f.q)
    basis = _stacked_row_space(f)
    widths = [m.cols for m in f.matrices]
    weights = dict.fromkeys(load_gf().row_space_keys(basis, widths), 1)
    return DiscreteSource._from_weights(tuple(q**w for w in widths), weights, q**basis.rows)


def _stacked_row_space(f: FiniteLinearSource):
    """A basis of the row space of [M_1 | ... | M_m], once its q**rank points pass the limit."""
    basis = f._joint_basis
    check_budget("linear expansion", int(f.q) ** basis.rows, "support points")
    return basis


def support_size(s: AnySource) -> int:
    """Points of the joint support of s, counted without building any, once the
    points that ``to_discrete(s)`` enumerates pass the limit.  An edge product
    of float masses that underflows to zero is still counted."""
    if isinstance(s, HypergraphicalSource):
        check_budget("hypergraphical expansion", math.prod(e.alphabet_size for e in s.edges),
                     "edge assignments")
        return math.prod(e.alphabet_size - (e.probs or ()).count(0) for e in s.edges)
    if isinstance(s, FiniteLinearSource):
        return int(s.q) ** _stacked_row_space(s).rows
    check_budget("discrete support", len(s.weights), "points")
    return len(s.weights)


def check_projections(users: int, points: int) -> None:
    """Refuse the discrete profile of points support points, 2**users subset
    projections each, past PROJECTIONS_PER_POINT times the limit."""
    check_budget("entropy profile", 2**users * points, "subset projections", PROJECTIONS_PER_POINT)


def to_discrete(s: AnySource) -> DiscreteSource:
    """Expand any source model to its explicit joint pmf."""
    if isinstance(s, DiscreteSource):
        support_size(s)  # the support cap
        return s
    if isinstance(s, HypergraphicalSource):
        return expand_hypergraphical(s)
    if isinstance(s, FiniteLinearSource):
        return expand_finite_linear(s)
    raise ModelError(f"not a source model: {type(s).__name__}")


def entropy_profile(s: AnySource) -> EntropyProfile:
    """Subset entropies of any source model, in bits.

    Hypergraphical and linear sources use their closed forms: edge-entropy
    sums, and rank times log2 q, the rank of the subset's chained
    ``packed_cols`` (``gf.packed_rank``, no matrix built).  A discrete source
    packs each realization into one int, a field of
    (alphabet size - 1).bit_length() bits per user with user 1 most
    significant, and a subset's marginal keeps key & fields: the weights
    ``marginal`` adds, in its first-seen order, so each entropy is
    bit-identical to ``shannon_bits(s.marginal(users).values(), s.total)``.
    ``shannon_bits`` sums exactly, so that order matters only to float
    weights, whose additions into one entry round.  A subset whose marginal
    keeps every point apart has the point weights as its masses and the full
    entropy H(full), and so does every superset: in increasing mask order, a
    subset one user larger than such a subset reuses H(full), computed once,
    without projecting a point.

    Raises:
        ExpansionTooLarge: if the m + C(m,2)*2**(m-2) elemental inequalities
            of an m-user profile exceed the enumeration limit, or its 2**m *
            edges terms (closed form) or 2**m * points projections (discrete)
            exceed PROJECTIONS_PER_POINT times it, before any subset entropy.
    """
    if not isinstance(s, (HypergraphicalSource, FiniteLinearSource, DiscreteSource)):
        raise ModelError(f"not a source model: {type(s).__name__}")
    m = s.user_count
    check_budget("entropy profile", m + math.comb(m, 2) * 2 ** (m - 2), "elemental inequalities")
    masks = range(2**m)
    if isinstance(s, HypergraphicalSource):
        check_budget("entropy profile", 2**m * len(s.edges), "edge terms", PROJECTIONS_PER_POINT)
        edges = [(sum(1 << (u - 1) for u in e.subset), e.entropy_bits()) for e in s.edges]
        h = [math.fsum(bits for edge, bits in edges if edge & mask) for mask in masks]
        return EntropyProfile(m, h)
    if isinstance(s, FiniteLinearSource):
        rank, log_q = load_gf().packed_rank, math.log2(int(s.q))
        cols = [m.packed_cols for m in s.matrices]
        h = [rank(s.q, s.dim, chain.from_iterable(cols[i - 1] for i in _users_of(mask))) * log_q
             for mask in masks]
        return EntropyProfile(m, h)
    check_projections(m, support_size(s))  # the support cap, then the projections
    # one int per realization: a bit field per user, user 1 most significant
    widths = [(a - 1).bit_length() for a in s.alphabet_sizes]
    offsets = [sum(widths[i + 1:]) for i in range(m)]
    user_fields = [(1 << w) - 1 << off for w, off in zip(widths, offsets)]
    points = [(sum(map(lshift, key, offsets)), w) for key, w in s.weights.items()]
    h_full = shannon_bits(s.weights.values(), s.total)
    fields, h, apart = [0] * 2**m, [0.0] * 2**m, [False] * 2**m
    for mask in masks[1:]:
        low = mask & -mask
        fields[mask] = f = fields[mask ^ low] | user_fields[low.bit_length() - 1]
        rest = mask  # stops at a user whose removal leaves an apart subset, if there is one
        while rest and not apart[mask ^ (bit := rest & -rest)]:
            rest ^= bit
        if not rest:
            marginal: dict[int, Weight] = {}  # first-seen order, as s.marginal builds it
            for key, w in points:
                key &= f
                marginal[key] = marginal.get(key, 0) + w
            if len(marginal) < len(points):
                h[mask] = shannon_bits(marginal.values(), s.total)
                continue
        # the mask keeps every point apart: its masses are the point weights,
        # and fsum adds their terms exactly in any order
        apart[mask], h[mask] = True, h_full
    return EntropyProfile(m, h)


def fls_to_hypergraphical(f: FiniteLinearSource) -> HypergraphicalSource:
    """Rewrite a two-user finite linear source as a hypergraphical one.

    The shared part of the two observations is the intersection of the
    column spaces, of dimension k = r1 + r2 - r12 (ri = rank M_i,
    r12 = rank [M_1 | M_2]); user i's remainder has dimension ri - k.  Each
    part is carried by one uniform edge, "shared", "own1" and "own2", of
    q**k, q**(r1 - k) and q**(r2 - k) values; empty parts get no edge.  The
    three ranks fix the entropy profile of both models, so the profiles
    agree (``verify`` checks this as conversion_preserves_profile).  Each
    rank is a ``gf.packed_rank`` of ``packed_cols``, with no matrix built.

    Raises:
        NotTwoUsers: for sources with more or fewer than two users.
    """
    if f.user_count != 2:
        raise NotTwoUsers(f"conversion needs exactly 2 users, got {f.user_count}")
    rank, (c1, c2) = load_gf().packed_rank, (m.packed_cols for m in f.matrices)
    r1, r2 = rank(f.q, f.dim, c1), rank(f.q, f.dim, c2)
    shared = r1 + r2 - rank(f.q, f.dim, c1 + c2)
    q = int(f.q)
    parts = (("shared", {1, 2}, shared), ("own1", {1}, r1 - shared), ("own2", {2}, r2 - shared))
    edges = [Edge.uniform(name, subset, q**dim) for name, subset, dim in parts if dim > 0]
    return HypergraphicalSource(2, tuple(edges))
