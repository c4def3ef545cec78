"""Independent oracles and random DAG builders used across the suite.

Everything here recomputes results from first principles (plain BFS,
exhaustive enumeration, recursive hashing) so the production code paths
are checked against genuinely separate implementations.
"""

import hashlib
import random
from itertools import combinations

import pytest

from minagree.dag import Dag, make_vertex
from minagree.errors import UnknownTransaction
from minagree.incentives import check_hard_constraint, delta_score, proposer_reward
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


def in_degree_zero(dag: Dag) -> set:
    """Brute-force tip computation over the active vertex records."""
    referenced = set()
    for vertex in dag.vertices.values():
        referenced.update(vertex.parents)
    return {vid for vid in dag.vertices if vid not in referenced}


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
