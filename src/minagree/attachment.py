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
stream), so identical seeds reproduce identical choices.  Evaluating
selections for distinct attachers in parallel is safe as long as the
results are merged in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import nsmallest
from typing import Sequence

from .dag import Dag, Pending, Vertex, make_vertex
from .errors import EmptyDag, UnknownParent

STRATEGY_NAMES = ("random", "joint_cardinality", "metropolis", "greedy")


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


def _max_union_pair(dag: Dag, pool: Sequence[bytes]) -> tuple[bytes, bytes]:
    """Exact argmax of |cover(a) ∪ cover(b)| over distinct tip pairs.

    Ties resolve to the lexicographically smallest (low id, high id)
    pair.  The anchor is the first member with the largest cover, and
    ``excl[k] = |anchor ∪ k| - |anchor|``, so a pair with the anchor is
    worth ``|anchor| + excl[k]``.  Only the anchor's descendants cover the
    anchor itself, and their covers would be larger, so any other pair
    misses it and is worth at most ``|anchor| + excl[i] + excl[j] - 1``,
    and at most ``|i| + |j|``.  The other members are bucketed by
    ``excl`` (a small integer), each bucket by descending cover size, so
    the first miss of either bound ends a walk.

    The value pass starts from the best anchor pair and walks bucket
    pairs in descending ``excl``, exact-checking only the pairs whose
    bounds beat the running maximum.  The lex pass reads the first
    anchor pair reaching the maximum off ``excl``.  Only a pair whose
    low id is at most that pair's can come first, so it walks those low
    ids in ascending order, exact-checks each partner whose bounds reach
    the maximum and keeps the smallest pair that does.
    """
    ordered = sorted(pool)
    n = len(ordered)
    masks = dag.tip_masks(ordered)
    pops = [m.bit_count() for m in masks]
    anchor_pop = max(pops)
    anchor = pops.index(anchor_pop)
    anchor_mask = masks[anchor]
    # the intersection is no longer than the shorter mask; a union is not
    excl = [pop - (anchor_mask & m).bit_count() for m, pop in zip(masks, pops)]
    buckets: dict[int, list[int]] = {}
    for k, e in enumerate(excl):
        if e in buckets:
            buckets[e].append(k)
        else:
            buckets[e] = [k]
    buckets[0].remove(anchor)
    if not buckets[0]:
        del buckets[0]
    for bucket in buckets.values():
        bucket.sort(key=pops.__getitem__, reverse=True)
    keys = sorted(buckets, reverse=True)

    best = anchor_pop + keys[0]
    for a, e1 in enumerate(keys):
        if anchor_pop + 2 * e1 - 1 <= best:
            break
        first = buckets[e1]
        for e2 in keys[a:]:
            if anchor_pop + e1 + e2 - 1 <= best:
                break
            second = buckets[e2]
            top = pops[second[0]]
            for x, i in enumerate(first):
                pop_i = pops[i]
                if pop_i + top <= best:
                    break
                mask_i = masks[i]
                for j in first[x + 1:] if e1 == e2 else second:
                    if pop_i + pops[j] <= best:
                        break
                    value = (mask_i | masks[j]).bit_count()
                    if value > best:
                        best = value

    # A pair (i, j), i < j, is keyed i * n + j: the smallest key comes first.
    # A pair without the anchor reaches best only if its excl sum exceeds need.
    need = best - anchor_pop
    k = next((k for k in range(n) if k != anchor and excl[k] == need), n)
    pair = min(k, anchor) * n + max(k, anchor) if k < n else n * n
    pop_floor = best - max(pops[bucket[0]] for bucket in buckets.values())
    excl_floor = need - keys[0]
    lows = [
        k for k in range(min(pair // n + 1, n))
        if k != anchor and pops[k] >= pop_floor and excl[k] > excl_floor
    ]
    for low in lows:
        row = low * n
        if row > pair:
            break
        pop_low, excl_low, mask_low = pops[low], excl[low], masks[low]
        for e in keys:
            if excl_low + e <= need:
                break
            for j in buckets[e]:
                if pop_low + pops[j] < best:
                    break
                if low < j and row + j < pair and (mask_low | masks[j]).bit_count() == best:
                    pair = row + j
    return ordered[pair // n], ordered[pair % n]


def select_parents(
    dag: Dag,
    strategy: AttachmentStrategy,
    rng: random.Random,
    tips: Sequence[bytes] | None = None,
) -> tuple[bytes, bytes]:
    """Pick the two parents for a new vertex among eligible tips.

    ``tips`` overrides the candidate pool (e.g. a delayed visibility
    snapshot); it must be duplicate-free and deterministically ordered,
    since the random draws index into it.  The metropolis threshold is
    measured against the dag's active vertex count.
    """
    pool = list(tips) if tips is not None else dag.eligible_tips()
    if not pool:
        raise EmptyDag("no eligible vertex to attach to")
    if len(pool) == 1:
        return pool[0], pool[0]

    kind = strategy.kind
    if kind == "random":
        return _random_pair(pool, rng)

    if kind == "joint_cardinality":
        return _max_union_pair(dag, pool)

    if kind == "metropolis":
        needed = strategy.metropolis_threshold * dag.active_count
        # |A ∪ B| <= |A| + |B| <= 2 * max_cover: below that no pair can
        # pass, so only the checks are skipped and the draws stay the same
        reachable = 2 * dag.max_cover >= needed
        for _ in range(strategy.metropolis_max_iters):
            pair = _random_pair(pool, rng)
            if reachable and dag.cover_cardinality(pair) >= needed:
                return pair
        return _random_pair(pool, rng)

    # greedy: maximise each link separately, ties by ascending id
    (_, first), (_, second) = nsmallest(2, zip([-m.bit_count() for m in dag.tip_masks(pool)], pool))
    return first, second


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
