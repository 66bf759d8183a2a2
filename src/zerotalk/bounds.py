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
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .errors import PartitionInvalid, UnsupportedModel, Value
from .mcf import gk_hypergraphical
from .sources import FiniteLinearSource, HypergraphicalSource, check_budget, expansion_limit, load_gf


class Partition(Value):
    """A partition of users 1..m into disjoint nonempty blocks.

    Blocks are canonicalized: each block sorted ascending, blocks ordered by
    their smallest member.  Two partitions of the same set compare equal iff
    they have the same blocks.
    """

    user_count: int
    blocks: tuple

    def __init__(self, user_count: int, blocks):
        # repeats are kept, so __post_init__ rejects a user twice in one block as in two
        canonical = tuple(sorted(tuple(sorted(b)) for b in blocks))
        Value.__init__(self, user_count, canonical)

    def __post_init__(self) -> None:
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
                    raise PartitionInvalid(f"user {u} appears more than once")
                seen.add(u)
        if len(seen) != self.user_count:
            missing = sorted(set(range(1, self.user_count + 1)) - seen)
            raise PartitionInvalid(f"users not covered: {missing}")

    def __len__(self) -> int:
        return len(self.blocks)


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
    block_of = {u: i for i, block in enumerate(p.blocks) for u in block}
    worst = 0
    for e in h.edges:
        if e.subset == everyone:
            continue
        touched = len({block_of[u] for u in e.subset})
        worst = max(worst, touched)
    if worst == 0:
        return Fraction(0)
    return Fraction(worst - 1, len(p) - 1)


class LaminationBound(Value):
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


def best_partition(h: HypergraphicalSource) -> LaminationBound:
    """Find the partition with the smallest spread coefficient, by branch and bound.

    Ties break toward fewer blocks, then lexicographically by blocks, so the
    result is deterministic.  The search walks restricted growth strings
    depth first: user k joins one of the blocks opened so far or opens the
    next one.  For each edge of 2..m-1 users it keeps how many of the edge's
    users sit in each block, and so how many blocks the edge touches.
    Touches never shrink and a completion has at most (blocks so far + users
    left) blocks, so no completion's coefficient is below
    (max touches - 1)/(blocks so far + users left - 1).  A prefix is cut when
    that bound is above the best coefficient, or when it cannot reach two
    blocks.  A prefix whose bound ties the best coefficient is cut when it
    has opened more blocks than the best has, or as many and its blocks so
    far are not lexicographically below the best's: a completion that opens
    another block loses the tie-break, and one that opens none appends later
    users to the ends of these blocks, which cannot take them below the
    best's.  So every leaf that is not cut beats the best.
    The worst case is still a Bell number of partitions, so the search
    counts steps (a user placed, an edge count updated, a user read out of a
    tie or a leaf) against ZEROTALK_EXPANSION_LIMIT and raises
    ExpansionTooLarge past it.
    """
    m = h.user_count
    # an edge of one user touches one block, and a repeated edge never raises the max
    edges = list({e.subset for e in h.edges if 1 < len(e.subset) < m})
    edges_of = [[] for _ in range(m)]  # edges_of[u]: the edges of user u + 1
    for k, subset in enumerate(edges):
        for u in subset:
            edges_of[u - 1].append(k)
    counts = [{} for _ in edges]  # counts[k][b]: users of edge k in block b
    touches = [0] * len(edges)
    labels = [-1] * m  # block of each placed user; -1 before its first try
    opened = [0] * m  # opened[u]: blocks used by the users before u
    worst = [1] * m  # worst[u]: most blocks an edge touches, users before u
    cap, steps = expansion_limit(), 0
    best = None  # (coefficient numerator, denominator, block count, blocks)
    user = 0
    while user >= 0:
        if steps > cap:
            check_budget("partition search", steps, "search steps")
        mine, b = edges_of[user], labels[user]
        if b >= 0:  # take back the last block tried
            for k in mine:
                row = counts[k]
                row[b] -= 1
                if not row[b]:
                    touches[k] -= 1
        b += 1
        if b > opened[user]:  # every block tried: back up
            labels[user] = -1
            user -= 1
            continue
        labels[user] = b
        grown = worst[user]
        for k in mine:
            row = counts[k]
            c = row.get(b, 0)
            if not c:
                touches[k] += 1
                grown = max(grown, touches[k])
            row[b] = c + 1
        steps += 1 + len(mine)
        blocks = max(opened[user], b + 1)
        most = blocks + m - 1 - user  # blocks of the fullest completion
        if most < 2:
            continue
        if best is not None:
            over, under = (grown - 1) * best[1], best[0] * (most - 1)
            if over > under:
                continue
            if over == under and blocks >= best[2]:  # a tie, with no fewer blocks than the best
                if blocks > best[2]:
                    continue
                steps += user + 1
                if _blocks(labels, user + 1, blocks) >= best[3]:
                    continue
        if user + 1 < m:
            user += 1
            opened[user], worst[user] = blocks, grown
            continue
        steps += m
        best = (grown - 1, blocks - 1, blocks, _blocks(labels, m, blocks))
    return lamination_bound(h, Partition(m, best[3]))


def _blocks(labels: list, placed: int, count: int) -> list:
    """The blocks, as ascending user lists, of the first ``placed`` users'
    block labels."""
    parts = [[] for _ in range(count)]
    for u in range(placed):
        parts[labels[u]].append(u + 1)
    return parts


def chain_bound(
    s: HypergraphicalSource | FiniteLinearSource,
    ordering: Sequence[int] | None = None,
) -> float:
    """Sequential two-party bound: fold users in, keeping the pairwise
    common function of the next user's observation and the running value.

    For hypergraphical sources the running value is a set of edges; folding
    in a user keeps the edges that user also sees.  For finite linear sources
    it is a column space; folding intersects with the user's column space.
    Both collapse to the full common-function entropy, for every ordering.
    """
    if not isinstance(s, (HypergraphicalSource, FiniteLinearSource)):
        raise UnsupportedModel(
            "chain bound needs edge or subspace structure; "
            "general discrete sources are not supported"
        )
    users = list(range(1, s.user_count + 1))
    order = tuple(ordering or users)
    if sorted(order) != users:
        raise PartitionInvalid(f"ordering must be a permutation of 1..{s.user_count}, got {order}")
    if isinstance(s, HypergraphicalSource):
        carried = set(s.incident(order[0]))
        for user in order[1:]:
            carried &= set(s.incident(user))
        return math.fsum(s.edges[k].entropy_bits() for k in carried)
    intersect, carried = load_gf().column_space_intersection, s.matrices[order[0] - 1]
    for user in order[1:]:
        carried = intersect(carried, s.matrices[user - 1])
    return carried.cols * math.log2(int(s.q))
