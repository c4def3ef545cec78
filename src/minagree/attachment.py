"""Tip-selection strategies and vertex payload construction.

Four ways to pick the two parents of a new vertex:

* ``random``: two uniform draws from the eligible tips, without
  replacement when at least two are available.
* ``joint_cardinality``: the pair whose combined cover is largest.
* ``metropolis``: uniform pair draws, accepted once the joint cover
  reaches a threshold fraction of the active vertex count, with a random
  fallback when the draw budget runs out.  At 100 attachers or more the
  default threshold is almost never reached: in the seed-7 Table-1 grid
  no metropolis call accepted a pair at 100 (0 of 9,981) or 1000
  (0 of 99,947) attachers, against 822 of 933 at 10.  Those cells
  measure uniform random selection behind a 33-pair draw stream.
* ``greedy``: each link maximised separately: the largest-cover tip
  first, then the largest among the rest (overlap ignored).

All selections are pure functions of (dag state, candidate tips, rng
stream), so identical seeds reproduce identical choices.  The attachers
of one round share a :class:`RoundPool`, which gives each candidate of
the round one bit: the base pool first, then each published vertex.
An attacher's :class:`PoolView` is one integer, the mask of the
candidates it may attach to.  greedy and joint_cardinality read the
pool's ranking of the candidates by cover size, built once on first
use, and each published vertex inserts its own entry, so no attacher
re-scans the pool.  A selection reads the ranking and only ``publish``
writes it, so selections for distinct attachers may be evaluated in
parallel between two publishes, as long as the results are merged in a
fixed order.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .dag import Dag, Pending, Vertex, make_vertex
from .errors import EmptyDag, UnknownParent

STRATEGY_NAMES = ("random", "joint_cardinality", "metropolis", "greedy")

Entry = tuple[int, bytes, int, int]  # (-cover size, id, cover mask, bit) of one candidate

_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class AttachmentStrategy:
    kind: str
    metropolis_threshold: float = 0.5
    metropolis_max_iters: int = 32

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.kind!r}; expected one of {', '.join(STRATEGY_NAMES)}"
            )
        if not 0.0 < self.metropolis_threshold <= 1.0:
            raise ValueError("metropolis_threshold must be in (0, 1]")
        if self.metropolis_max_iters < 1:
            raise ValueError("metropolis_max_iters must be >= 1")

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "AttachmentStrategy":
        return cls(kind=name.strip().lower(), **kwargs)


def _random_pair(pool: Sequence[bytes], rng: random.Random) -> tuple[bytes, bytes]:
    """Two distinct uniform draws from a duplicate-free pool;
    select_parents answers a one-tip pool itself.

    Each index is drawn as ``rng.randrange(n)`` draws it: ``getrandbits``
    of ``n.bit_length()`` bits until the value is below ``n``.  Skipping
    ``randrange``'s argument handling keeps the stream bit for bit and
    halves the cost of a pair.
    """
    n = len(pool)
    k = n.bit_length()
    getrandbits = rng.getrandbits
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    j = i
    while j == i:
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
    return pool[i], pool[j]


class RoundPool:
    """The candidate tips of one attach phase, shared by its attachers' views.

    Each candidate has one bit, ``1 << k`` for the ``k``-th in draw
    order: ``base``, the pool every attacher starts from, holds bits
    ``0..B-1`` and each vertex the phase publishes takes the next bit.
    A vertex's cover mask cannot change before the next prune, so the
    first ranked read ranks the candidates once, as ``(-cover size, id,
    mask, bit)`` entries, and each later publish inserts one entry.  A
    random or metropolis phase never ranks.
    """

    def __init__(self, dag: Dag, base: Sequence[bytes]) -> None:
        self.dag = dag
        self.ids = list(base)  # the candidates in bit order
        self._bits = {vid: 1 << k for k, vid in enumerate(base)}
        self._ranking: list[Entry] | None = None

    def publish(self, vertex_id: bytes) -> tuple[int, int]:
        """Add a vertex the phase published; returns its bit and the bits
        of its parents that are candidates."""
        bits = self._bits
        bit = 1 << len(self.ids)
        parents = self.dag.vertices[vertex_id].parents
        parent_bits = bits.get(parents[0], 0) | bits.get(parents[-1], 0)
        self.ids.append(vertex_id)
        bits[vertex_id] = bit
        if self._ranking is not None:
            mask = self.dag.cover_mask((vertex_id,))
            insort(self._ranking, (-mask.bit_count(), vertex_id, mask, bit))
        return bit, parent_bits

    def ranking(self) -> list[Entry]:
        """The entries of every candidate, ranked on first call."""
        if self._ranking is None:
            ids = self.ids
            masks = self.dag.tip_masks(ids)
            bits = [1 << k for k in range(len(ids))]
            self._ranking = sorted(zip([-m.bit_count() for m in masks], ids, masks, bits))
        return self._ranking


class PoolView:
    """One attacher's pool: the candidates of a :class:`RoundPool` whose
    bits are set in ``members``.

    :meth:`tips` lists the members in bit order, which is draw order:
    the base, then the published vertices in publish order.
    :meth:`ranked` reads them off the round's ranking.
    """

    __slots__ = ("pool", "members")

    def __init__(self, pool: RoundPool, members: int) -> None:
        self.pool = pool
        self.members = members

    def __len__(self) -> int:
        return self.members.bit_count()

    def tips(self) -> list[bytes]:
        # bin() writes the highest bit first; reversed, digit k selects candidate k
        digits = bin(self.members)[:1:-1].encode().translate(_BINARY_DIGITS)
        return list(compress(self.pool.ids, digits))

    def ranked(self, limit: int | None = None) -> list[Entry]:
        """The members' entries in rank order, only the first ``limit`` when given."""
        members = self.members
        ranking = self.pool.ranking()
        if limit is None:
            return [entry for entry in ranking if entry[3] & members]
        top = []
        for entry in ranking:
            if entry[3] & members:
                top.append(entry)
                if len(top) == limit:
                    break
        return top


def _max_union_pair(members: list[Entry]) -> tuple[bytes, bytes]:
    """Exact argmax of |cover(a) ∪ cover(b)| over distinct member pairs.

    ``members`` holds at least two ``(-cover size, id, mask, bit)`` entries in
    rank order, as :meth:`PoolView.ranked` reads them off the round's
    shared ranking, so a call looks up no mask, counts no cover and
    sorts no bucket.  Ties resolve to the lexicographically smallest
    (low id, high id) pair.

    The anchor is the first entry, a member with the largest cover, and
    ``excl[k] = |anchor ∪ k| - |anchor|``, so a pair with the anchor is
    worth ``|anchor| + excl[k]``.  The anchor's private bits are the bits
    of its cover that no other member covers; ``private`` counts them.
    A pair (i, j) without the anchor misses them all, so

        |i ∪ j| = |anchor ∪ i ∪ j| - |anchor ∖ (i ∪ j)|
               <= |anchor| + excl[i] + excl[j] - private,

    and it is worth at most ``|i| + |j|`` too.  Only the anchor's
    descendants cover its own bit, and their covers would be larger, so
    an active anchor has ``private >= 1``.  The other members are
    bucketed by ``excl`` (a small integer); walking them in rank order
    leaves each bucket by descending cover size, so the first miss of
    either bound ends a walk.

    The value pass starts from the best anchor pair and walks bucket
    pairs in descending ``excl``, exact-checking only the pairs whose
    bounds beat the running maximum.  The lex pass reads the first
    anchor pair reaching the maximum off ``excl``.  Only a pair whose
    low id is at most that pair's can come first, so it walks those low
    ids in ascending order, exact-checks each partner whose bounds reach
    the maximum and keeps the smallest pair that does.
    """
    anchor_neg, anchor, anchor_mask, _ = members[0]
    anchor_pop = -anchor_neg
    buckets: dict[int, list[Entry]] = {}
    others = 0
    for k in range(1, len(members)):
        entry = members[k]
        neg, _, mask, _ = entry
        others |= mask
        # the intersection is no longer than the shorter mask; a union is not
        e = -neg - (anchor_mask & mask).bit_count()
        if e in buckets:
            buckets[e].append(entry)
        else:
            buckets[e] = [entry]
    private = (anchor_mask & ~others).bit_count()
    keys = sorted(buckets, reverse=True)

    best = anchor_pop + keys[0]
    for a, e1 in enumerate(keys):
        if anchor_pop + 2 * e1 - private <= best:
            break
        first = buckets[e1]
        for e2 in keys[a:]:
            if anchor_pop + e1 + e2 - private <= best:
                break
            second = buckets[e2]
            top = -second[0][0]
            for x, (neg_i, _, mask_i, _) in enumerate(first):
                pop_i = -neg_i
                if pop_i + top <= best:
                    break
                for neg_j, _, mask_j, _ in first[x + 1:] if e1 == e2 else second:
                    if pop_i - neg_j <= best:
                        break
                    value = (mask_i | mask_j).bit_count()
                    if value > best:
                        best = value

    # the first anchor pair worth best has the smallest partner id
    need = best - anchor_pop
    pair = None
    if need in buckets:
        k = min(entry[1] for entry in buckets[need])
        pair = (k, anchor) if k < anchor else (anchor, k)
    # a low id needs a partner within both bounds of best
    pop_floor = best + members[1][0]
    excl_floor = need + private - keys[0]
    lows = []
    for e in keys:
        if e < excl_floor:
            break
        for neg, vid, mask, _ in buckets[e]:
            if -neg < pop_floor:
                break
            if pair is None or vid <= pair[0]:
                lows.append((vid, e, -neg, mask))
    lows.sort()
    for low, excl_low, pop_low, mask_low in lows:
        if pair is not None and low > pair[0]:
            break
        for e in keys:
            if excl_low + e - private < need:
                break
            for neg_j, j, mask_j, _ in buckets[e]:
                if pop_low - neg_j < best:
                    break
                if low < j and (pair is None or (low, j) < pair) and (mask_low | mask_j).bit_count() == best:
                    pair = (low, j)
    return pair


def select_parents(
    dag: Dag,
    strategy: AttachmentStrategy,
    rng: random.Random,
    tips: Sequence[bytes] | PoolView | None = None,
) -> tuple[bytes, bytes]:
    """Pick the two parents for a new vertex among eligible tips.

    ``tips`` overrides the candidate pool: a sequence (e.g. a delayed
    visibility snapshot), which must be duplicate-free and
    deterministically ordered since the random draws index into it, or
    an attach phase's :class:`PoolView`, whose member mask picks the
    attacher's candidates.  A plain pool becomes a view of all its
    candidates.  greedy and joint_cardinality read the view's ranked
    entries; random and metropolis draw from its members in bit order.
    The metropolis threshold is measured against the dag's active
    vertex count.
    """
    if isinstance(tips, PoolView):
        view = tips
    else:
        pool = RoundPool(dag, dag.eligible_tips() if tips is None else tips)
        view = PoolView(pool, (1 << len(pool.ids)) - 1)
    kind = strategy.kind
    if kind == "greedy" or kind == "joint_cardinality":
        members = view.ranked(2 if kind == "greedy" else None)
        pool = [entry[1] for entry in members[:2]]
    else:
        pool = view.tips()
    if not pool:
        raise EmptyDag("no eligible vertex to attach to")
    if len(pool) == 1:
        return pool[0], pool[0]

    if kind == "greedy":
        # each link maximised separately: the top two of the ranking
        return pool[0], pool[1]

    if kind == "joint_cardinality":
        return _max_union_pair(members)

    if kind == "random":
        return _random_pair(pool, rng)

    # metropolis
    needed = strategy.metropolis_threshold * dag.active_count
    # |A ∪ B| <= |A| + |B| <= 2 * max_cover: below that no pair can
    # pass, so only the checks are skipped and the draws stay the same
    reachable = 2 * dag.max_cover >= needed
    for _ in range(strategy.metropolis_max_iters):
        pair = _random_pair(pool, rng)
        if reachable and dag.cover_cardinality(pair) >= needed:
            return pair
    return _random_pair(pool, rng)


def build_vertex(
    dag: Dag,
    attacher_id: str,
    mempool: Pending,
    parents: tuple[bytes, bytes],
    round_no: int,
) -> Vertex:
    """Assemble the vertex an attacher publishes for this round.

    The payload lists every mempool transaction hash not already covered
    by the chosen parents, preserving mempool arrival order.  ``mempool``
    is a :meth:`Dag.pending` snapshot, taken once per round and shared
    by the round's attachers: the payload is a union of its runs, which
    stays exact while every vertex attached since the snapshot was built
    from it too.
    """
    for parent in parents:
        if parent not in dag.vertices and parent not in dag.boundary:
            raise UnknownParent(f"unknown parent {parent.hex()}")
    tx_hashes = dag.uncovered_hashes(mempool, dag.cover_mask(parents))
    return make_vertex(parents, attacher_id, round_no, tx_hashes)
