"""Tip-selection strategies and vertex payload construction.

Four ways to pick the two parents of a new vertex:

* ``random``: two uniform draws from the eligible tips, without
  replacement when at least two are available.
* ``joint_cardinality``: the pair whose combined cover is largest.
* ``metropolis``: uniform pair draws, accepted once the joint cover
  reaches a threshold fraction of the active vertex count, with a random
  fallback when the draw budget runs out.
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

from .dag import Dag, Transaction, Vertex, make_vertex
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
    first = pool[rng.randrange(len(pool))]
    if len(pool) == 1:
        return first, first
    second = first
    while second == first:
        second = pool[rng.randrange(len(pool))]
    return first, second


def _max_union_pair(dag: Dag, pool: Sequence[bytes]) -> tuple[bytes, bytes]:
    """Exact argmax of |cover(a) ∪ cover(b)| over distinct tip pairs.

    Ties resolve to the lexicographically smallest (low id, high id)
    pair.  Every pair value is bounded above by
    ``u[a] + u[b] - |cover(anchor)|`` where ``u[t]`` is the cover of t
    joined with the largest single cover; enumerating in descending
    order of that bound allows early exit, and the plain cardinality
    sum prunes the sparse, mostly-disjoint pools cheaply.  The lex pass
    then locates the first id-ordered pair reaching the maximum.
    """
    ordered = sorted(pool)
    n = len(ordered)
    masks = dag.tip_masks(ordered)
    pops = [m.bit_count() for m in masks]
    anchor = max(range(n), key=lambda i: pops[i])
    anchor_mask, anchor_pop = masks[anchor], pops[anchor]
    u = [(anchor_mask | m).bit_count() for m in masks]

    # Value pass: the anchor paired with its best complement is already a
    # candidate, so seed with it and only examine pairs whose bound beats
    # the running maximum.
    best = max(u[i] for i in range(n) if i != anchor)
    by_excl = sorted(range(n), key=lambda i: anchor_pop - u[i])
    for oi in range(n - 1):
        i = by_excl[oi]
        if u[i] + u[by_excl[oi + 1]] - anchor_pop <= best:
            break
        for j in by_excl[oi + 1:]:
            if u[i] + u[j] - anchor_pop <= best:
                break
            if pops[i] + pops[j] <= best:
                continue
            value = (masks[i] | masks[j]).bit_count()
            if value > best:
                best = value

    # Lex pass: first ascending-id pair achieving the maximum.  A pair
    # reaching ``best`` needs both its cardinality sum and its anchored
    # bound at the maximum, so both ends pass these per-index bounds,
    # which rule out almost every candidate.
    excl = [ui - anchor_pop for ui in u]
    need = best - anchor_pop
    pop_top = max(pops)
    excl_top = max(excl)
    viable = [k for k in range(n) if pops[k] + pop_top >= best and excl[k] + excl_top >= need]
    for vi, i in enumerate(viable):
        for j in viable[vi + 1:]:
            if pops[i] + pops[j] < best or excl[i] + excl[j] < need:
                continue
            if (masks[i] | masks[j]).bit_count() == best:
                return ordered[i], ordered[j]
    raise AssertionError("pair search must find its own maximum")


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
        for _ in range(strategy.metropolis_max_iters):
            pair = _random_pair(pool, rng)
            if dag.cover_cardinality(pair) >= needed:
                return pair
        return _random_pair(pool, rng)

    # greedy: maximise each link separately, ties by ascending id
    (_, first), (_, second) = nsmallest(2, zip([-m.bit_count() for m in dag.tip_masks(pool)], pool))
    return first, second


def build_vertex(
    dag: Dag,
    attacher_id: str,
    mempool: Sequence[Transaction],
    parents: tuple[bytes, bytes],
    round_no: int,
) -> Vertex:
    """Assemble the vertex an attacher publishes for this round.

    The payload lists every mempool transaction not already covered by
    the chosen parents, preserving mempool arrival order.
    """
    for parent in parents:
        if parent not in dag.vertices and parent not in dag.boundary:
            raise UnknownParent(f"unknown parent {parent.hex()}")
    tx_hashes = dag.uncovered_hashes(mempool, dag.cover_mask(parents))
    return make_vertex(parents, attacher_id, round_no, tx_hashes)
