"""Tip-selection strategies and vertex payload construction."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bfs_cover, brute_force_best_pair, grow_random_dag, h32
from minagree.attachment import AttachmentStrategy, PoolView, RoundPool, _random_pair, build_vertex, select_parents
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
        tips = dag.eligible_tips()
        if len(tips) < 2 or len(tips) > 30:
            continue
        got = select_parents(dag, AttachmentStrategy("joint_cardinality"), random.Random(0))
        assert got == brute_force_best_pair(dag, tips)
        checked += 1


def test_greedy_components_maximal():
    rng = random.Random(13)
    for _ in range(60):
        dag, _ = grow_random_dag(rng, rng.randrange(3, 40))
        tips = dag.eligible_tips()
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
        pool = dag.eligible_tips() + rng.sample(markers, rng.randrange(1, min(len(markers), 4) + 1))
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


def test_joint_cardinality_matches_brute_force_on_nested_pools():
    # Pools drawn from every active vertex and boundary marker hold
    # ancestors beside their descendants, so covers nest and many unions
    # tie, as in the attachment pools of a live run.
    rng = random.Random(41)
    checked = 0
    while checked < 2000:
        dag, ids = grow_random_dag(rng, rng.randrange(2, 80))
        if rng.random() < 0.5:
            dag.prune_finalized(rng.sample(ids[1:], rng.randrange(1, 3)))
        members = sorted(dag.vertices) + sorted(dag.boundary)
        if len(members) < 2:
            continue
        pool = rng.sample(members, rng.randrange(2, min(len(members), 50) + 1))
        got = select_parents(dag, AttachmentStrategy("joint_cardinality"), random.Random(0), tips=pool)
        assert got == brute_force_best_pair(dag, pool)
        checked += 1


@pytest.mark.parametrize("kind", ("joint_cardinality", "greedy"))
def test_cover_strategies_reject_unknown_tip(kind):
    dag, _ = grow_random_dag(random.Random(6), 10)
    pool = dag.eligible_tips() + [h32("ghost")]
    with pytest.raises(UnknownVertex):
        select_parents(dag, AttachmentStrategy(kind), random.Random(0), tips=pool)


def test_metropolis_uses_fallback_when_threshold_unreachable():
    dag, _ = grow_random_dag(random.Random(4), 20)
    strategy = AttachmentStrategy("metropolis", metropolis_threshold=1.0, metropolis_max_iters=3)
    pair = select_parents(dag, strategy, random.Random(9))
    tips = set(dag.eligible_tips())
    assert pair[0] in tips and pair[1] in tips


def test_metropolis_low_threshold_matches_random_distribution():
    # with an immediately satisfied threshold the first uniform draw is kept,
    # so on one seed metropolis draws exactly the random strategy's pairs
    dag, _ = grow_random_dag(random.Random(21), 12)
    assert len(dag.eligible_tips()) >= 3
    strategy = AttachmentStrategy("metropolis", metropolis_threshold=1e-9)
    rng_m, rng_r = random.Random(500), random.Random(500)
    for _ in range(10_000):
        assert select_parents(dag, strategy, rng_m) == select_parents(dag, AttachmentStrategy("random"), rng_r)
    assert rng_m.getstate() == rng_r.getstate()


def randrange_pair(pool, rng):
    """The draw rule that _random_pair reproduces."""
    first = pool[rng.randrange(len(pool))]
    second = first
    while second == first:
        second = pool[rng.randrange(len(pool))]
    return first, second


PAIR_POOL_SIZES = sorted({*range(2, 71), *(2**e + d for e in range(2, 17) for d in (-1, 0, 1))})


@pytest.mark.parametrize("seed", [0, 7, 2020])
def test_random_pair_draws_the_randrange_stream(seed):
    for n in PAIR_POOL_SIZES:
        pool = range(n)
        fast, slow = random.Random(seed * 100_003 + n), random.Random(seed * 100_003 + n)
        for _ in range(20):
            assert _random_pair(pool, fast) == randrange_pair(pool, slow)
        assert fast.getstate() == slow.getstate()


def metropolis_checking_every_draw(dag, strategy, rng, pool):
    """select_parents' metropolis branch with every draw checked, the
    reference for its reachability skip.  Returns the pair and whether it
    passed the threshold."""
    needed = strategy.metropolis_threshold * dag.active_count
    for _ in range(strategy.metropolis_max_iters):
        pair = randrange_pair(pool, rng)
        if dag.cover_cardinality(pair) >= needed:
            return pair, True
    return randrange_pair(pool, rng), False


def star_dag(n_leaves: int) -> Dag:
    dag = Dag()
    g = dag.genesis_id
    for k in range(n_leaves):
        dag.attach(make_vertex((g, g), f"leaf-{k}", 1, ()))
    return dag


@pytest.mark.parametrize(
    "dag, skipped",
    [(star_dag(30), True), (grow_random_dag(random.Random(5), 20)[0], False)],
    ids=["no_pair_reaches_threshold", "some_pair_accepted"],
)
def test_metropolis_matches_a_loop_checking_every_draw(dag, skipped):
    strategy = AttachmentStrategy("metropolis")
    assert (2 * dag.max_cover < strategy.metropolis_threshold * dag.active_count) == skipped
    pool = dag.eligible_tips()
    accepted = 0
    for seed in range(40):
        fast, slow = random.Random(seed), random.Random(seed)
        expected, passed = metropolis_checking_every_draw(dag, strategy, slow, pool)
        assert select_parents(dag, strategy, fast, tips=pool) == expected
        assert fast.getstate() == slow.getstate()
        accepted += passed
    assert (accepted == 0) == skipped


@st.composite
def round_views(draw):
    """One attach phase: a random DAG, pruned at times so that markers
    exist, a base pool, vertices published on top of it, and one
    attacher's view, which sees some of them.  Returns the dag, the view
    and the plain pool the view stands for: the base, then the seen
    vertices in publish order, both without the parents of the seen
    vertices."""
    rng = draw(st.randoms(use_true_random=False))
    dag, ids = grow_random_dag(rng, draw(st.integers(1, 30)))
    if len(ids) > 2 and draw(st.booleans()):
        dag.prune_finalized(rng.sample(ids[1:], draw(st.integers(1, 2))))
    members = sorted(dag.vertices) + sorted(dag.boundary)
    base = sorted(rng.sample(members, draw(st.integers(1, min(len(members), 20)))))
    pool = RoundPool(dag, base)
    n_published = draw(st.integers(0, 12))
    # publishes before the first ranked read; the rest insert into the ranking
    ranked_after = draw(st.integers(0, n_published))
    published = []
    for k in range(n_published):
        if k == ranked_after:
            pool.ranking()
        parents = (rng.choice(base + published), rng.choice(base + published))
        vertex = make_vertex(parents, f"slot-{k}", len(ids) + 1, ())
        dag.attach(vertex)
        pool.publish(vertex.vertex_id)
        published.append(vertex.vertex_id)
    seen_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    adds = [vid for vid in published if rng.random() < seen_share]
    removed = {parent for vid in adds for parent in dag.vertices[vid].parents}
    plain = [t for t in base if t not in removed] + [v for v in adds if v not in removed]
    return dag, PoolView(pool, removed, adds), plain


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(round_views(), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 0.25, 0.5, 1.0]))
def test_round_view_selects_as_its_plain_pool(case, seed, threshold):
    dag, view, plain = case
    assert len(view) == len(plain) >= 1

    metropolis = AttachmentStrategy("metropolis", metropolis_threshold=threshold, metropolis_max_iters=4)
    strategies = [AttachmentStrategy(kind) for kind in ("greedy", "joint_cardinality", "random")] + [metropolis]
    greedy, joint, uniform, _ = strategies
    if len(plain) == 1:
        for strategy in strategies:
            assert select_parents(dag, strategy, random.Random(0), tips=view) == (plain[0], plain[0])
        return
    ranked = sorted(plain, key=lambda t: (-len(bfs_cover(dag, (t,))), t))
    assert select_parents(dag, greedy, random.Random(0), tips=view) == (ranked[0], ranked[1])
    assert select_parents(dag, joint, random.Random(0), tips=view) == brute_force_best_pair(dag, plain)

    fast, slow = random.Random(seed), random.Random(seed)
    assert select_parents(dag, uniform, fast, tips=view) == randrange_pair(plain, slow)
    assert fast.getstate() == slow.getstate()
    expected, _ = metropolis_checking_every_draw(dag, metropolis, slow, plain)
    assert select_parents(dag, metropolis, fast, tips=view) == expected
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_selection_deterministic_for_fixed_seed(kind):
    dag, _ = grow_random_dag(random.Random(11), 25)
    a = select_parents(dag, AttachmentStrategy(kind), random.Random(123))
    b = select_parents(dag, AttachmentStrategy(kind), random.Random(123))
    assert a == b


def test_build_vertex_filters_covered_transactions():
    t1, t2 = h32("t1"), h32("t2")
    mempool = [t1, t2]
    dag = Dag()
    g = dag.genesis_id
    assert build_vertex(dag, "alice", dag.pending(mempool), (g, g), 1).tx_hashes == (t1, t2)

    holder = make_vertex((g, g), "bob", 1, (t1,))
    dag.attach(holder)
    v = build_vertex(dag, "alice", dag.pending(mempool), (holder.vertex_id, holder.vertex_id), 2)
    assert v.tx_hashes == (t2,)

    full = make_vertex((holder.vertex_id, holder.vertex_id), "carol", 2, (t2,))
    dag.attach(full)
    empty = build_vertex(dag, "alice", dag.pending(mempool), (full.vertex_id, full.vertex_id), 3)
    assert empty.tx_hashes == ()


def _random_dag_and_mempool(rng, trial):
    """A random DAG, pruned on odd trials, and a shuffled mempool of
    hashes it lists and fresh ones."""
    dag, ids = grow_random_dag(rng, rng.randrange(2, 30), txs_per_vertex=3)
    if trial % 2:
        # parents may then be boundary markers, which cover nothing
        dag.prune_finalized(dag.cover_set((rng.choice(ids),)))
    listed = [txh for vertex in dag.vertices.values() for txh in vertex.tx_hashes]
    fresh = [h32(f"fresh-{trial}-{k}") for k in range(5)]
    mempool = rng.sample(listed, min(len(listed), 20)) + fresh
    rng.shuffle(mempool)
    return dag, ids, mempool


def _bfs_payload(dag, mempool, parents):
    covered = {txh for vid in bfs_cover(dag, parents) for txh in dag.vertices[vid].tx_hashes}
    return tuple(txh for txh in mempool if txh not in covered)


def test_build_vertex_payload_matches_bfs_filter_on_random_dags():
    rng = random.Random(71)
    for trial in range(40):
        dag, ids, mempool = _random_dag_and_mempool(rng, trial)
        parents = (rng.choice(ids), rng.choice(ids))
        vertex = build_vertex(dag, "alice", dag.pending(mempool), parents, len(ids))
        assert vertex.tx_hashes == _bfs_payload(dag, mempool, parents)
        dag.attach(vertex)


def _assert_runs_maximal_and_uniform(dag, pending):
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


def test_attachers_sharing_one_pending_match_bfs_filter_on_random_dags():
    rng = random.Random(72)
    for trial in range(40):
        dag, ids, mempool = _random_dag_and_mempool(rng, trial)
        pending = dag.pending(mempool)
        assert pending.hashes == tuple(mempool)
        # active vertices, boundary markers, then this snapshot's own attachers
        pool = list(ids)
        for k in range(8):
            _assert_runs_maximal_and_uniform(dag, pending)
            parents = (rng.choice(pool), rng.choice(pool))
            vertex = build_vertex(dag, f"attacher-{k}", pending, parents, len(ids))
            assert vertex.tx_hashes == _bfs_payload(dag, mempool, parents)
            pool.append(dag.attach(vertex))
        _assert_runs_maximal_and_uniform(dag, pending)


def test_build_vertex_unknown_parent():
    dag = Dag()
    with pytest.raises(UnknownParent):
        build_vertex(dag, "alice", dag.pending([]), (h32("ghost"), dag.genesis_id), 1)
