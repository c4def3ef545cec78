"""Independent oracles and random DAG builders used across the suite.

Everything here recomputes results from first principles (plain BFS,
exhaustive enumeration, recursive hashing) so the production code paths
are checked against genuinely separate implementations.
"""

import hashlib
import math
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations

import pytest

from minagree import harness
from minagree.dag import _UNLISTED, Dag, make_vertex
from minagree.errors import UnknownTransaction
from minagree.incentives import LedgerAccounts, check_hard_constraint, delta_score, proposer_reward
from minagree.rounds import greedy_min_cover


def h32(label) -> bytes:
    if isinstance(label, str):
        label = label.encode("utf-8")
    return hashlib.sha256(label).digest()


def raises_exactly(call, error, message) -> None:
    """``call()`` raises ``error`` itself, not a subclass, with ``message``."""
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def bfs_cover(dag: Dag, roots) -> set:
    """Transitive closure over parent references by plain BFS.

    Walks the raw vertex records only; pruned markers are not expanded
    and not counted.
    """
    seen = set()
    queue = [r for r in roots]
    while queue:
        vid = queue.pop()
        if vid in seen or vid not in dag.vertices:
            continue
        seen.add(vid)
        queue.extend(dag.vertices[vid].parents)
    return seen


def bfs_payload(dag: Dag, mempool, parents) -> tuple:
    """The hashes of ``mempool`` that no vertex in the BFS cover of
    ``parents`` lists, checked one hash at a time against the vertex
    records."""
    covered = {txh for vid in bfs_cover(dag, parents) for txh in dag.vertices[vid].tx_hashes}
    return tuple(txh for txh in mempool if txh not in covered)


def in_degree_zero(dag: Dag) -> set:
    """Brute-force tip computation over the active vertex records."""
    referenced = set()
    for vertex in dag.vertices.values():
        referenced.update(vertex.parents)
    return {vid for vid in dag.vertices if vid not in referenced}


def assert_runs_maximal_and_uniform(dag: Dag, pending) -> None:
    """Every run of the :class:`~minagree.dag.Pending` snapshot holds
    hashes that the same active vertices list, found by scanning the
    vertex records, and no two neighbouring runs could be one."""
    listed_by = {txh: set() for txh in pending.hashes}
    for vid, vertex in dag.vertices.items():
        for txh in vertex.tx_hashes:
            if txh in listed_by:
                listed_by[txh].add(vid)
    sets = [listed_by[txh] for txh in pending.hashes]
    runs = pending.runs
    assert [start for start, _ in runs] == [0] + [end for _, end in runs[:-1]]
    assert runs[-1][1] == len(pending) and all(start < end for start, end in runs)
    for start, end in runs:
        assert all(sets[k] == sets[start] for k in range(start, end))
        assert start == 0 or sets[start] != sets[start - 1]


def per_hash_runs(dag: Dag, tx_hashes: tuple) -> list:
    """``Dag._runs`` walked one hash at a time over the listing index: a
    run that starts a whole listing in its listed order is that listing,
    and any other run is the longest stretch of hashes that map to the
    same index entry, ``_UNLISTED`` standing for no entry."""
    index = dag._listing
    runs, start = [], 0
    while start < len(tx_hashes):
        listing = index.get(tx_hashes[start], _UNLISTED)
        end = start + len(listing.hashes)
        whole = end > start and tx_hashes[start:end] == listing.hashes
        if not whole:
            end = start + 1
            while end < len(tx_hashes) and index.get(tx_hashes[end], _UNLISTED) is listing:
                end += 1
        runs.append((listing, start, end, whole))
        start = end
    return runs


def grow_random_dag(rng: random.Random, n_vertices: int, txs_per_vertex: int = 0) -> tuple[Dag, list]:
    """Random DAG grown by attaching to uniformly chosen existing vertices."""
    dag = Dag()
    ids = [dag.genesis_id]
    for k in range(n_vertices):
        parents = (rng.choice(ids), rng.choice(ids))
        txs = tuple(
            h32(f"tx-{rng.getrandbits(64)}-{k}-{t}") for t in range(txs_per_vertex)
        )
        vertex = make_vertex(parents, f"node-{k}", k + 1, txs)
        dag.attach(vertex)
        ids.append(vertex.vertex_id)
    return dag, ids


def reference_order(dag: Dag, roots) -> list:
    """Canonical transaction order rebuilt from scratch: Kahn's algorithm
    over the BFS cover of ``roots``, taking the smallest ready vertex id
    first, with each hash kept at its first position."""
    cover = bfs_cover(dag, roots)
    waiting = {vid: {p for p in dag.vertices[vid].parents if p in cover} for vid in cover}
    ready = [vid for vid, parents in waiting.items() if not parents]
    heapify(ready)
    order, seen = [], set()
    while ready:
        vid = heappop(ready)
        for txh in dag.vertices[vid].tx_hashes:
            if txh not in seen:
                seen.add(txh)
                order.append(txh)
        for child, parents in waiting.items():
            if vid in parents:
                parents.remove(vid)
                if not parents:
                    heappush(ready, child)
    return order


def brute_force_best_pair(dag: Dag, tips) -> tuple:
    """Exhaustive joint-cardinality argmax with the ascending-id tie rule."""
    best = None
    tips = sorted(tips)
    for a, b in combinations(tips, 2):
        value = dag.cover_cardinality((a, b))
        key = (-value, a, b)
        if best is None or key < best[0]:
            best = (key, (a, b))
    return best[1]


def brute_force_min_cover(dag: Dag, targets, tips) -> int:
    """Size of the smallest tip subset covering all targets (exhaustive)."""
    targets = set(targets)
    tips = sorted(tips)
    if not targets:
        return 0
    for size in range(1, len(tips) + 1):
        for subset in combinations(tips, size):
            if targets <= dag.cover_set(subset):
                return size
    raise AssertionError("targets not coverable by any tip subset")


def reference_greedy_cover(dag: Dag, targets, tips) -> list:
    """Greedy set cover that re-sorts the candidates on every pick.

    Gains are counted over BFS covers; among the largest gains the
    lowest tip id is taken.
    """
    uncovered = set(targets)
    candidates = {tip: bfs_cover(dag, (tip,)) for tip in tips}
    chosen = []
    while uncovered:
        tip = max(sorted(candidates), key=lambda t: len(candidates[t] & uncovered))
        if not candidates[tip] & uncovered:
            raise AssertionError("targets not coverable by the candidate tips")
        chosen.append(tip)
        uncovered -= candidates.pop(tip)
    return chosen


def reference_merkle(leaves) -> bytes:
    """Recursive Merkle root, structured unlike the production version."""
    leaves = list(leaves)
    if not leaves:
        return b"\x00" * 32
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2:
        leaves.append(leaves[-1])
    mid = []
    for i in range(0, len(leaves), 2):
        mid.append(hashlib.sha256(leaves[i] + leaves[i + 1]).digest())
    return reference_merkle(mid)


def bfs_censoring_pool(dag: Dag, target_tx) -> list:
    """Eligible tips whose BFS cover misses every vertex listing the
    transaction, with the listers found by scanning the vertex records."""
    listers = {vid for vid, vertex in dag.vertices.items() if target_tx in vertex.tx_hashes}
    if not listers:
        raise UnknownTransaction(f"transaction {target_tx.hex()} not in any active vertex")
    return [tip for tip in dag.eligible_tips() if not bfs_cover(dag, (tip,)) & listers]


def set_cover_censorship_cost(dag: Dag, target_tx, n_vertices, round_fees, policy) -> tuple:
    """Censorship price from two explicit greedy set covers.

    Builds the honest and the censoring proposal's tip sets with
    ``greedy_min_cover``, as ``proposal_body`` does, over the pools of
    :func:`bfs_censoring_pool`, and counts what each covers;
    ``censorship_cost`` must agree without building either cover.
    """
    censor_pool = bfs_censoring_pool(dag, target_tx)

    def covered(pool) -> int:
        tips = greedy_min_cover(dag, dag.cover_set(pool) - {dag.genesis_id}, pool=pool)
        return len(dag.cover_set(tips) - {dag.genesis_id})

    n_honest = covered(dag.eligible_tips())
    n_censor = covered(censor_pool)

    def reward(n_covered: int):
        delta = delta_score(n_covered, n_vertices)
        return proposer_reward(round_fees, policy.base_block_reward, delta, policy)

    cost = reward(n_honest) - reward(n_censor)
    return cost, check_hard_constraint(n_censor, n_vertices, policy.hard_alpha)


def whole_history_rewards(rows, policy) -> LedgerAccounts:
    """Rewards of a whole run, computed from every round's producer pot.

    Each round pays its attachers and committee their equal floored
    shares, withholds the coverage penalty and pays its producer the
    mean of the trailing ``decouple_window`` scaled pots; after the last
    round, pot ``j`` of ``n`` returns its ``window - min(window, n - j)``
    unclaimed slices to its producer.  One carry runs through every
    producer payout, and what is left of it ends in the residual.
    """
    ledger = LedgerAccounts()
    window = policy.decouple_window
    rows = sorted(rows, key=lambda row: row.round)
    scaled = []
    carry = Fraction(0)

    def pay(producer, claim):
        nonlocal carry
        claim += carry
        payout = math.floor(claim)
        carry = claim - payout
        ledger.credit(producer, payout)

    for row in rows:
        pot = row.fees + policy.base_block_reward
        ledger.collected += pot
        shared = policy.non_producer_share * pot
        committee_pool = shared * policy.committee_share
        paid = 0
        for ids, pool in ((row.attacher_ids, shared - committee_pool), (row.committee_ids, committee_pool)):
            if ids and pool:
                each = math.floor(pool / len(ids))
                for node in ids:
                    ledger.credit(node, each)
                paid += each * len(ids)
        scaled.append((pot - paid) * row.delta)
        ledger.residual += (pot - paid) - scaled[-1]
        pay(row.producer_id, sum(scaled[-window:], Fraction(0)) / window)
    n = len(rows)
    for j, row in enumerate(rows):
        unclaimed_slices = window - min(window, n - j)
        if unclaimed_slices:
            pay(row.producer_id, scaled[j] * unclaimed_slices / window)
    ledger.residual += carry
    return ledger


def recording_proposal_body(bodies: list):
    """``harness.proposal_body`` that also appends each body it builds to
    ``bodies``.  ``run_simulation`` builds one body per round, the
    block's, so ``bodies[r]`` is round r's block body even after the
    chain has dropped it at finality."""
    build = harness.proposal_body

    def recording(*args, **kwargs):
        body = build(*args, **kwargs)
        bodies.append(body)
        return body

    return recording


def recording_finalize(blocks: list):
    """``harness.finalize`` that also appends each block it makes final to
    ``blocks``.  The chain keeps only the blocks that are not final yet,
    so after a run ``blocks`` followed by ``chain.blocks.values()`` is
    every round's block, in round order."""
    final = harness.finalize

    def recording(*args, **kwargs):
        newly = final(*args, **kwargs)
        blocks.extend(newly)
        return newly

    return recording


def replay_ledger(bodies, injected: int, retry_limit) -> dict:
    """Settled, dropped and remaining counts replayed from the block bodies.

    Each body, in round order, settles its ``tx_list`` and then requeues
    its ``carried_over``, skipping settled and dropped transactions and
    dropping one requeued more than ``retry_limit`` times.  A dropped
    transaction that a later block settles counts as settled.
    """
    settled, dropped, attempts = set(), set(), {}
    for body in bodies:
        settled.update(body.tx_list)
        for txh in body.carried_over:
            if txh in settled or txh in dropped:
                continue
            attempts[txh] = attempts.get(txh, 0) + 1
            if retry_limit is not None and attempts[txh] > retry_limit:
                dropped.add(txh)
    dropped -= settled
    return {
        "total_txs_settled": len(settled),
        "total_txs_dropped": len(dropped),
        "mempool_remaining": injected - len(settled) - len(dropped),
    }
