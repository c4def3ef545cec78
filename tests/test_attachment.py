"""Tip-selection strategies and vertex payload construction."""

import random
from itertools import combinations

import pytest
from scipy import stats

from helpers import bfs_cover, brute_force_best_pair, grow_random_dag, h32
from minagree.attachment import AttachmentStrategy, build_vertex, select_parents
from minagree.dag import Dag, make_vertex
from minagree.errors import EmptyDag, UnknownParent, UnknownVertex

ALL_KINDS = ("random", "joint_cardinality", "metropolis", "greedy")


def test_strategy_validation():
    with pytest.raises(ValueError):
        AttachmentStrategy("weighted_walk")
    with pytest.raises(ValueError):
        AttachmentStrategy("metropolis", metropolis_threshold=0.0)
    with pytest.raises(ValueError):
        AttachmentStrategy("metropolis", metropolis_max_iters=0)
    assert AttachmentStrategy.from_name("Greedy").kind == "greedy"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_vertex_dag_selects_genesis_twice(kind):
    dag = Dag()
    rng = random.Random(1)
    pair = select_parents(dag, AttachmentStrategy(kind), rng)
    assert pair == (dag.genesis_id, dag.genesis_id)


def test_empty_pool_raises():
    dag = Dag()
    with pytest.raises(EmptyDag):
        select_parents(dag, AttachmentStrategy("random"), random.Random(0), tips=[])


def test_random_draws_without_replacement():
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, ())
    b = make_vertex((g, g), "bob", 1, ())
    dag.attach(a)
    dag.attach(b)
    rng = random.Random(3)
    for _ in range(50):
        p, q = select_parents(dag, AttachmentStrategy("random"), rng)
        assert p != q


def test_joint_cardinality_prefers_disjoint_pair():
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, ())
    b = make_vertex((g, g), "bob", 1, ())
    dag.attach(a)
    dag.attach(b)
    pair = select_parents(dag, AttachmentStrategy("joint_cardinality"), random.Random(0))
    assert set(pair) == {a.vertex_id, b.vertex_id}


def test_joint_cardinality_matches_brute_force_on_random_dags():
    rng = random.Random(77)
    checked = 0
    while checked < 150:
        dag, _ = grow_random_dag(rng, rng.randrange(3, 45))
        tips = dag.tips()
        if len(tips) < 2 or len(tips) > 30:
            continue
        got = select_parents(dag, AttachmentStrategy("joint_cardinality"), random.Random(0))
        assert got == brute_force_best_pair(dag, tips)
        checked += 1


def test_greedy_components_maximal():
    rng = random.Random(13)
    for _ in range(60):
        dag, _ = grow_random_dag(rng, rng.randrange(3, 40))
        tips = dag.tips()
        if len(tips) < 2:
            continue
        first, second = select_parents(dag, AttachmentStrategy("greedy"), random.Random(0))
        cards = {t: dag.cover_cardinality((t,)) for t in tips}
        best = max(cards.values())
        assert cards[first] == best
        assert first == min(t for t in tips if cards[t] == best)
        rest_best = max(v for t, v in cards.items() if t != first)
        assert cards[second] == rest_best
        assert second == min(t for t, v in cards.items() if t != first and v == rest_best)


def test_greedy_example_ranking():
    # three tips with single-tip cardinalities 5, 4, 2 -> picks the top two
    dag = Dag()
    prev = dag.genesis_id
    for i in range(4):
        v = make_vertex((prev, prev), "chain", i + 1, ())
        dag.attach(v)
        prev = v.vertex_id
    p = prev  # cardinality 5
    mid = make_vertex((dag.genesis_id, dag.genesis_id), "m1", 1, ())
    dag.attach(mid)
    mid2 = make_vertex((mid.vertex_id, mid.vertex_id), "m2", 2, ())
    dag.attach(mid2)
    q = make_vertex((mid2.vertex_id, mid2.vertex_id), "m3", 3, ())
    dag.attach(q)  # cardinality 4
    r = make_vertex((dag.genesis_id, dag.genesis_id), "r", 1, ())
    dag.attach(r)  # cardinality 2
    pair = select_parents(dag, AttachmentStrategy("greedy"), random.Random(0))
    assert pair == (p, q.vertex_id)


def _pools_with_markers(rng, count):
    """Pools mixing active tips with boundary markers of pruned vertices."""
    while count:
        dag, ids = grow_random_dag(rng, rng.randrange(6, 40))
        dag.prune_finalized(dag.cover_set(rng.sample(ids[1:], rng.randrange(1, 3))))
        markers = sorted(dag.boundary)
        pool = dag.tips() + rng.sample(markers, rng.randrange(1, min(len(markers), 4) + 1))
        if len(pool) < 2 or len(pool) > 24:
            continue
        rng.shuffle(pool)
        yield dag, pool
        count -= 1


def test_greedy_matches_brute_force_on_pools_with_markers():
    for dag, pool in _pools_with_markers(random.Random(31), 80):
        ranked = sorted(pool, key=lambda t: (-len(bfs_cover(dag, (t,))), t))
        got = select_parents(dag, AttachmentStrategy("greedy"), random.Random(0), tips=pool)
        assert got == (ranked[0], ranked[1])


def test_joint_cardinality_matches_brute_force_on_pools_with_markers():
    for dag, pool in _pools_with_markers(random.Random(32), 80):
        best = min(combinations(sorted(pool), 2), key=lambda ab: (-len(bfs_cover(dag, ab)), ab))
        got = select_parents(dag, AttachmentStrategy("joint_cardinality"), random.Random(0), tips=pool)
        assert got == best


@pytest.mark.parametrize("kind", ("joint_cardinality", "greedy"))
def test_cover_strategies_reject_unknown_tip(kind):
    dag, _ = grow_random_dag(random.Random(6), 10)
    pool = dag.tips() + [h32("ghost")]
    with pytest.raises(UnknownVertex):
        select_parents(dag, AttachmentStrategy(kind), random.Random(0), tips=pool)


def test_metropolis_uses_fallback_when_threshold_unreachable():
    dag, _ = grow_random_dag(random.Random(4), 20)
    strategy = AttachmentStrategy("metropolis", metropolis_threshold=1.0, metropolis_max_iters=3)
    pair = select_parents(dag, strategy, random.Random(9))
    tips = set(dag.tips())
    assert pair[0] in tips and pair[1] in tips


def test_metropolis_low_threshold_matches_random_distribution():
    # with an immediately satisfied threshold the first uniform draw is kept,
    # so pair frequencies must match the random strategy's (chi-squared)
    dag, _ = grow_random_dag(random.Random(21), 12)
    tips = dag.tips()
    assert len(tips) >= 3
    strategy = AttachmentStrategy("metropolis", metropolis_threshold=1e-9)
    draws = 10_000
    counts_m: dict = {}
    counts_r: dict = {}
    rng_m, rng_r = random.Random(500), random.Random(501)
    for _ in range(draws):
        pm = tuple(sorted(select_parents(dag, strategy, rng_m)))
        pr = tuple(sorted(select_parents(dag, AttachmentStrategy("random"), rng_r)))
        counts_m[pm] = counts_m.get(pm, 0) + 1
        counts_r[pr] = counts_r.get(pr, 0) + 1
    pairs = sorted(set(counts_m) | set(counts_r))
    observed = [counts_m.get(p, 0) for p in pairs]
    expected = [counts_r.get(p, 0) for p in pairs]
    scale = sum(observed) / sum(expected)
    result = stats.chisquare(observed, [e * scale for e in expected])
    assert result.pvalue > 0.01


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_selection_deterministic_for_fixed_seed(kind):
    dag, _ = grow_random_dag(random.Random(11), 25)
    a = select_parents(dag, AttachmentStrategy(kind), random.Random(123))
    b = select_parents(dag, AttachmentStrategy(kind), random.Random(123))
    assert a == b


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_selection_never_returns_stale_tip(kind):
    dag = Dag()
    g = dag.genesis_id
    old = make_vertex((g, g), "old", 0, ())
    dag.attach(old)
    fresh1 = make_vertex((g, g), "f1", 20, ())
    fresh2 = make_vertex((g, g), "f2", 20, ())
    dag.attach(fresh1)
    dag.attach(fresh2)
    dag.discard_stale_tips(current_round=20, max_age=10)
    rng = random.Random(0)
    for _ in range(25):
        pair = select_parents(dag, AttachmentStrategy(kind), rng)
        assert old.vertex_id not in pair


def test_build_vertex_filters_covered_transactions():
    t1, t2 = h32("t1"), h32("t2")
    mempool = [t1, t2]
    dag = Dag()
    g = dag.genesis_id
    assert build_vertex(dag, "alice", mempool, (g, g), 1).tx_hashes == (t1, t2)

    holder = make_vertex((g, g), "bob", 1, (t1,))
    dag.attach(holder)
    v = build_vertex(dag, "alice", mempool, (holder.vertex_id, holder.vertex_id), 2)
    assert v.tx_hashes == (t2,)

    full = make_vertex((holder.vertex_id, holder.vertex_id), "carol", 2, (t2,))
    dag.attach(full)
    empty = build_vertex(dag, "alice", mempool, (full.vertex_id, full.vertex_id), 3)
    assert empty.tx_hashes == ()


def test_build_vertex_payload_matches_bfs_filter_on_random_dags():
    rng = random.Random(71)
    for trial in range(40):
        dag, ids = grow_random_dag(rng, rng.randrange(2, 30), txs_per_vertex=3)
        if trial % 2:
            # parents may then be boundary markers, which cover nothing
            dag.prune_finalized(dag.cover_set((rng.choice(ids),)))
        listed = [txh for vertex in dag.vertices.values() for txh in vertex.tx_hashes]
        fresh = [h32(f"fresh-{trial}-{k}") for k in range(5)]
        mempool = rng.sample(listed, min(len(listed), 20)) + fresh
        rng.shuffle(mempool)
        parents = (rng.choice(ids), rng.choice(ids))
        covered = {txh for vid in bfs_cover(dag, parents) for txh in dag.vertices[vid].tx_hashes}
        vertex = build_vertex(dag, "alice", mempool, parents, len(ids))
        assert vertex.tx_hashes == tuple(txh for txh in mempool if txh not in covered)
        dag.attach(vertex)


def test_build_vertex_unknown_parent():
    dag = Dag()
    with pytest.raises(UnknownParent):
        build_vertex(dag, "alice", [], (h32("ghost"), dag.genesis_id), 1)
