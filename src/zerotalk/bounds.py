"""Upper bounds on the secrecy rate at vanishing discussion.

Two families:

* a partition bound: split the users into blocks, measure how badly the
  non-global edges straddle blocks (the "spread" coefficient), and read off a
  line in the discussion rate whose intercept is the common-function entropy;
* a chain bound: peel users off one at a time, carrying forward the pairwise
  common function, which for the structured models collapses to the full
  common-function entropy no matter the peeling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import PartitionInvalid, TooManyUsers, UnsupportedModel
from .gf import FiniteMatrix, column_space_intersection
from .mcf import gk_finite_linear, gk_hypergraphical
from .sources import FiniteLinearSource, HypergraphicalSource


@dataclass(frozen=True)
class Partition:
    """A partition of users 1..m into disjoint nonempty blocks.

    Blocks are canonicalized: each block sorted ascending, blocks ordered by
    their smallest member.  Two partitions of the same set compare equal iff
    they have the same blocks.
    """

    user_count: int
    blocks: tuple

    def __init__(self, user_count: int, blocks):
        canonical = tuple(
            sorted(tuple(sorted(set(b))) for b in blocks)
        )
        object.__setattr__(self, "user_count", user_count)
        object.__setattr__(self, "blocks", canonical)
        self._validate()

    def _validate(self) -> None:
        if self.user_count < 1:
            raise PartitionInvalid("user count must be positive")
        seen = set()
        for block in self.blocks:
            if not block:
                raise PartitionInvalid("empty block")
            for u in block:
                if not 1 <= u <= self.user_count:
                    raise PartitionInvalid(f"user {u} outside 1..{self.user_count}")
                if u in seen:
                    raise PartitionInvalid(f"user {u} appears in two blocks")
                seen.add(u)
        if len(seen) != self.user_count:
            missing = sorted(set(range(1, self.user_count + 1)) - seen)
            raise PartitionInvalid(f"users not covered: {missing}")

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, user: int) -> int:
        for i, block in enumerate(self.blocks):
            if user in block:
                return i
        raise PartitionInvalid(f"user {user} not in partition")


def singleton_partition(user_count: int) -> Partition:
    return Partition(user_count, [[u] for u in range(1, user_count + 1)])


def all_partitions(user_count: int) -> Iterator[Partition]:
    """Every set partition of 1..m, by restricted growth strings."""
    if user_count < 1:
        return
    rgs = [0] * user_count
    maxima = [0] * user_count
    while True:
        blocks: list = [[] for _ in range(max(rgs) + 1)]
        for user, label in enumerate(rgs, start=1):
            blocks[label].append(user)
        yield Partition(user_count, blocks)
        # next restricted growth string
        i = user_count - 1
        while i > 0 and rgs[i] == maxima[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxima[i] = max(maxima[i - 1], rgs[i])
        for j in range(i + 1, user_count):
            rgs[j] = 0
            maxima[j] = maxima[i]


def alpha(h: HypergraphicalSource, p: Partition) -> Fraction:
    """Spread coefficient of a partition against a hypergraphical source.

    For each edge not seen by everyone, count the blocks its subset touches;
    the coefficient is (max touches - 1)/(block count - 1).  With no
    non-global edges the coefficient is 0 and the bound line is flat.
    """
    if p.user_count != h.user_count:
        raise PartitionInvalid(
            f"partition is over {p.user_count} users, source has {h.user_count}"
        )
    if len(p) < 2:
        raise PartitionInvalid("spread coefficient needs at least two blocks")
    everyone = h.users()
    worst = 0
    for e in h.edges:
        if e.subset == everyone:
            continue
        touched = len({p.block_of(u) for u in e.subset})
        worst = max(worst, touched)
    if worst == 0:
        return Fraction(0)
    return Fraction(worst - 1, len(p) - 1)


@dataclass(frozen=True)
class LaminationBound:
    """A line R -> intercept + slope*R upper-bounding the secrecy rate.

    intercept_bits is the common-function entropy; the slope is
    coefficient/(1 - coefficient).  A coefficient of 1 makes the line
    vacuous (bound is +inf for R > 0 and the intercept only at R = 0 is not
    guaranteed, so we report +inf throughout).
    """

    partition: Partition
    coefficient: Fraction
    intercept_bits: float

    @property
    def vacuous(self) -> bool:
        return self.coefficient >= 1

    def bound_at(self, rate: float) -> float:
        if self.vacuous:
            return math.inf
        slope = self.coefficient / (1 - self.coefficient)
        return self.intercept_bits + float(slope) * rate


def lamination_bound(h: HypergraphicalSource, p: Partition) -> LaminationBound:
    return LaminationBound(p, alpha(h, p), gk_hypergraphical(h).entropy_bits)


MAX_EXHAUSTIVE_USERS = 8


def best_partition(h: HypergraphicalSource) -> LaminationBound:
    """Find the partition with the smallest spread coefficient, by branch and bound.

    Ties break toward fewer blocks, then lexicographically by blocks, so the
    result is deterministic.  The search walks restricted growth strings
    depth first: user k joins one of the blocks opened so far or opens the
    next one.  For each non-global edge it keeps how many of the edge's
    users sit in each block, and so how many blocks the edge touches.
    Touches never shrink as users are added and a completion has at most
    (blocks so far + users left) blocks, so a prefix whose
    (max touches - 1)/(blocks so far + users left - 1) is strictly above
    the best coefficient found, or which cannot reach two blocks, is cut.
    A prefix that only ties the best is searched, so the tie-break sees
    every partition of the smallest coefficient.  Refuses sources with more
    users than the cap (the worst case still walks a Bell number of
    partitions).
    """
    m = h.user_count
    if m > MAX_EXHAUSTIVE_USERS:
        raise TooManyUsers(f"{m} users exceeds exhaustive-search cap {MAX_EXHAUSTIVE_USERS}")
    everyone = h.users()
    edges = [e.subset for e in h.edges if e.subset != everyone]
    edges_of = [[k for k, subset in enumerate(edges) if u in subset] for u in range(1, m + 1)]
    counts = [[0] * m for _ in edges]  # counts[k][b]: users of edge k in block b
    touches = [0] * len(edges)
    labels = [0] * m
    best = None  # (coefficient numerator, denominator, block count, blocks)

    def search(user: int, opened: int, worst: int) -> None:
        nonlocal best
        most = opened + m - user  # blocks of the fullest completion
        if most < 2:
            return
        if best is not None and (worst - 1) * best[1] > best[0] * (most - 1):
            return
        if user == m:  # not cut, so the coefficient is at most the best
            blocks = tuple(
                tuple(u + 1 for u in range(m) if labels[u] == b) for b in range(opened)
            )
            if (best is None or (worst - 1) * best[1] < best[0] * (opened - 1)
                    or (opened, blocks) < best[2:]):
                best = (worst - 1, opened - 1, opened, blocks)
            return
        mine = edges_of[user]
        for b in range(opened + 1):
            grown = worst
            for k in mine:
                row = counts[k]
                if not row[b]:
                    touches[k] += 1
                    grown = max(grown, touches[k])
                row[b] += 1
            labels[user] = b
            search(user + 1, max(opened, b + 1), grown)
            for k in mine:
                row = counts[k]
                row[b] -= 1
                if not row[b]:
                    touches[k] -= 1

    search(0, 0, 1)
    if best is None:  # single user: no two-block partition exists
        raise PartitionInvalid("no partition with two or more blocks")
    return lamination_bound(h, Partition(m, best[3]))


def _validate_ordering(user_count: int, ordering: Sequence[int]) -> tuple:
    order = tuple(ordering)
    if sorted(order) != list(range(1, user_count + 1)):
        raise PartitionInvalid(
            f"ordering must be a permutation of 1..{user_count}, got {order}"
        )
    return order


def chain_bound(
    s: Union[HypergraphicalSource, FiniteLinearSource],
    ordering: Optional[Sequence[int]] = None,
) -> float:
    """Sequential two-party bound: fold users in, keeping the pairwise
    common function of the next user's observation and the running value.

    For hypergraphical sources the running value is a set of edges; folding
    in a user keeps the edges that user also sees.  For finite linear sources
    it is a column space; folding intersects with the user's column space.
    Both collapse to the full common-function entropy, for every ordering.
    """
    if isinstance(s, HypergraphicalSource):
        order = _validate_ordering(s.user_count, ordering or range(1, s.user_count + 1))
        carried = set(s.incident(order[0]))
        for user in order[1:]:
            carried &= set(s.incident(user))
        return math.fsum(s.edges[k].entropy_bits() for k in carried)
    if isinstance(s, FiniteLinearSource):
        order = _validate_ordering(s.user_count, ordering or range(1, s.user_count + 1))
        carried: FiniteMatrix = s.matrices[order[0] - 1]
        for user in order[1:]:
            carried = column_space_intersection(carried, s.matrices[user - 1])
        return carried.cols * math.log2(int(s.q))
    raise UnsupportedModel(
        "chain bound needs edge or subspace structure; "
        "general discrete sources are not supported"
    )
