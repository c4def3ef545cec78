"""DAG structure: attachment rules, tips, cover sets, pruning, ordering."""

import random

import pytest

from helpers import bfs_cover, grow_random_dag, h32, in_degree_zero
from minagree.dag import Dag, Transaction, genesis_vertex, make_vertex
from minagree.errors import (
    CycleViolation,
    DuplicateCoverage,
    NotDownwardClosed,
    UnknownParent,
    UnknownTransaction,
    UnknownVertex,
)


def build_diamond(tx_a=(), tx_b=(), tx_c=()):
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, tuple(tx_a))
    b = make_vertex((g, g), "bob", 1, tuple(tx_b))
    c = make_vertex((a.vertex_id, b.vertex_id), "carol", 2, tuple(tx_c))
    dag.attach(a)
    dag.attach(b)
    dag.attach(c)
    return dag, a.vertex_id, b.vertex_id, c.vertex_id


def test_transaction_validation():
    Transaction(h32("t"), 0)
    with pytest.raises(ValueError):
        Transaction(b"short", 1)
    with pytest.raises(ValueError):
        Transaction(h32("t"), -1)


def test_genesis_is_only_tip():
    dag = Dag()
    assert dag.tips() == [dag.genesis_id]
    assert dag.cover_set((dag.genesis_id,)) == {dag.genesis_id}
    assert dag.cover_cardinality((dag.genesis_id,)) == 1


def test_first_attachment_becomes_sole_tip():
    dag = Dag()
    v = make_vertex((dag.genesis_id, dag.genesis_id), "alice", 0, (h32("t1"),))
    vid = dag.attach(v)
    assert vid == v.vertex_id
    assert dag.tips() == [vid]


def test_diamond_tips_and_cover():
    dag, a, b, c = build_diamond()
    assert dag.tips() == [c]
    assert dag.cover_set((c,)) == {c, a, b, dag.genesis_id}
    assert dag.cover_cardinality((c,)) == 4
    assert dag.cover_set((a, b)) == {a, b, dag.genesis_id}
    assert dag.cover_cardinality((a, b)) == 3


def test_attach_unknown_parent():
    dag = Dag()
    orphan = make_vertex((h32("nowhere"), dag.genesis_id), "alice", 1, ())
    with pytest.raises(UnknownParent):
        dag.attach(orphan)


def test_attach_round_ordering_violation():
    dag = Dag()
    v = make_vertex((dag.genesis_id, dag.genesis_id), "alice", 3, ())
    dag.attach(v)
    older = make_vertex((v.vertex_id, v.vertex_id), "bob", 2, ())
    with pytest.raises(CycleViolation):
        dag.attach(older)


def test_attach_duplicate_coverage():
    t1 = h32("t1")
    dag = Dag()
    a = make_vertex((dag.genesis_id, dag.genesis_id), "alice", 1, (t1,))
    dag.attach(a)
    dup = make_vertex((a.vertex_id, a.vertex_id), "bob", 2, (t1,))
    with pytest.raises(DuplicateCoverage):
        dag.attach(dup)


@pytest.mark.parametrize("case", ["listed_twice", "covered_by_parent"])
def test_rejected_vertex_leaves_the_dag_unchanged(case):
    t1, t2 = h32("t1"), h32("t2")
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, (t1,))
    dag.attach(a)
    tips, active = set(dag.tip_set), dag.active_count
    listed = (t2, h32("t3"), t2) if case == "listed_twice" else (t2, t1)
    bad = make_vertex((a.vertex_id, a.vertex_id), "bob", 2, listed)
    with pytest.raises(DuplicateCoverage):
        dag.attach(bad)
    assert dag.tip_set == tips
    assert dag.active_count == active
    assert bad.vertex_id not in dag.vertices
    with pytest.raises(UnknownTransaction):
        dag.vertices_containing(t2)
    assert dag.vertices_containing(t1) == [a.vertex_id]


def test_sibling_branches_may_repeat_a_transaction():
    t1 = h32("t1")
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, (t1,))
    b = make_vertex((g, g), "bob", 1, (t1,))
    dag.attach(a)
    dag.attach(b)
    assert sorted(dag.vertices_containing(t1)) == sorted([a.vertex_id, b.vertex_id])


def test_cover_unknown_root():
    dag = Dag()
    with pytest.raises(UnknownVertex):
        dag.cover_set((h32("nope"),))


def test_stale_tip_flagging_and_boundaries():
    dag, a, b, c = build_diamond()
    d = make_vertex((dag.genesis_id, dag.genesis_id), "dave", 0, ())
    dag.attach(d)
    assert dag.discard_stale_tips(current_round=11, max_age=10) == 1
    assert dag.tips() == sorted([c, d.vertex_id])
    assert dag.eligible_tips() == [c]
    # boundary case: age exactly max_age stays eligible
    dag2 = Dag()
    v = make_vertex((dag2.genesis_id, dag2.genesis_id), "alice", 1, ())
    dag2.attach(v)
    assert dag2.discard_stale_tips(current_round=11, max_age=10) == 0


def test_discard_all_fresh_tips_is_noop():
    dag, *_ = build_diamond()
    assert dag.discard_stale_tips(current_round=2, max_age=10) == 0


def test_prune_finalized_full_cover():
    dag, a, b, c = build_diamond()
    dag.prune_finalized(dag.cover_set((c,)))
    assert dag.active_count == 0
    assert dag.tips() == []
    assert set(dag.boundary) == {a, b, c, dag.genesis_id}


def test_prune_leaves_boundary_markers():
    dag, a, b, c = build_diamond()
    d = make_vertex((c, c), "dave", 3, ())
    dag.attach(d)
    dag.prune_finalized(dag.cover_set((c,)))
    assert set(dag.vertices) == {d.vertex_id}
    assert dag.cover_cardinality((d.vertex_id,)) == 1
    assert dag.cover_set((d.vertex_id,)) == {d.vertex_id}
    # attaching to a pruned marker still works
    e = make_vertex((c, c), "erin", 4, ())
    dag.attach(e)
    assert dag.cover_cardinality((e.vertex_id,)) == 1


def test_prune_rejects_non_downward_closed():
    dag, a, b, c = build_diamond()
    with pytest.raises(NotDownwardClosed):
        dag.prune_finalized({a})


def test_prune_rejects_unknown():
    dag, *_ = build_diamond()
    with pytest.raises(UnknownVertex):
        dag.prune_finalized({h32("ghost")})


def test_ordered_transactions_single_vertex_keeps_listed_order():
    t1, t2 = h32("t1"), h32("t2")
    dag = Dag()
    v = make_vertex((dag.genesis_id, dag.genesis_id), "alice", 1, (t1, t2))
    dag.attach(v)
    assert dag.ordered_transactions((v.vertex_id,)) == [t1, t2]


def test_ordered_transactions_diamond_tie_break():
    t1, t2, t3 = h32("t1"), h32("t2"), h32("t3")
    dag, a, b, c = build_diamond(tx_a=(t1,), tx_b=(t2,), tx_c=(t3,))
    first, second = (t1, t2) if a < b else (t2, t1)
    assert dag.ordered_transactions((c,)) == [first, second, t3]


def test_ordered_transactions_deduplicates_sibling_repeats():
    t1 = h32("t1")
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, (t1,))
    b = make_vertex((g, g), "bob", 1, (t1,))
    dag.attach(a)
    dag.attach(b)
    c = make_vertex((a.vertex_id, b.vertex_id), "carol", 2, ())
    dag.attach(c)
    assert dag.ordered_transactions((c.vertex_id,)) == [t1]


def test_unknown_transaction_lookup():
    dag = Dag()
    with pytest.raises(UnknownTransaction):
        dag.vertices_containing(h32("absent"))


def test_unreachable_transactions_under_stale_tips():
    t_live, t_stranded = h32("live"), h32("stranded")
    dag = Dag()
    g = dag.genesis_id
    live = make_vertex((g, g), "alice", 12, (t_live,))
    stranded = make_vertex((g, g), "bob", 0, (t_stranded,))
    dag.attach(live)
    dag.attach(stranded)
    dag.discard_stale_tips(current_round=12, max_age=10)
    assert dag.unreachable_transactions() == [t_stranded]


def test_cover_matches_bfs_oracle_on_random_dags():
    rng = random.Random(2024)
    for _ in range(60):
        dag, ids = grow_random_dag(rng, rng.randrange(1, 40))
        for _ in range(5):
            roots = rng.sample(ids, rng.randrange(1, min(4, len(ids)) + 1))
            expected = bfs_cover(dag, roots)
            assert dag.cover_set(roots) == expected
            assert dag.cover_cardinality(roots) == len(expected)


def test_tips_match_in_degree_oracle_on_random_dags():
    rng = random.Random(99)
    for _ in range(40):
        dag, _ = grow_random_dag(rng, rng.randrange(1, 50))
        assert set(dag.tips()) == in_degree_zero(dag)


def test_cover_monotone_under_extra_roots():
    rng = random.Random(5)
    dag, ids = grow_random_dag(rng, 30)
    for _ in range(50):
        roots = rng.sample(ids, 2)
        extra = rng.choice(ids)
        assert dag.cover_cardinality(roots) <= dag.cover_cardinality(roots + [extra])


def test_cover_oracle_survives_pruning():
    rng = random.Random(31)
    for _ in range(25):
        dag, ids = grow_random_dag(rng, 30)
        tip = rng.choice(dag.tips())
        dag.prune_finalized(dag.cover_set((tip,)))
        for _ in range(3):
            alive = list(dag.vertices)
            if not alive:
                break
            roots = rng.sample(alive, min(2, len(alive)))
            assert dag.cover_set(roots) == bfs_cover(dag, roots)
        assert set(dag.tips()) == in_degree_zero(dag)


def test_own_bit_matches_bfs_oracle_as_grown_and_after_pruning():
    rng = random.Random(77)
    for _ in range(20):
        dag, _ = grow_random_dag(rng, rng.randrange(1, 30))
        for pruned in (False, True):
            if pruned:
                dag.prune_finalized(dag.cover_set((rng.choice(list(dag.vertices)),)))
            active = list(dag.vertices)
            bits = [dag.own_bit(u) for u in active]
            assert all(bit.bit_count() == 1 for bit in bits)
            assert len(set(bits)) == len(bits)
            for v in active:
                mask = dag.cover_mask([v])
                reach = bfs_cover(dag, [v])
                for u, bit in zip(active, bits):
                    assert bool(mask & bit) == (u in reach)
        assert dag.boundary
        assert all(dag.own_bit(marker) is None for marker in dag.boundary)


def test_ordered_transactions_is_permutation_and_repeatable():
    rng = random.Random(8)
    dag, ids = grow_random_dag(rng, 25, txs_per_vertex=2)
    tips = dag.tips()
    order = dag.ordered_transactions(tips)
    expected = set()
    for vid in dag.cover_set(tips):
        expected.update(dag.vertices[vid].tx_hashes)
    assert set(order) == expected
    assert len(order) == len(expected)
    assert order == dag.ordered_transactions(tips)


def test_vertex_identity_is_content_addressed():
    g = genesis_vertex()
    a = make_vertex((g.vertex_id, h32("x")), "alice", 1, (h32("t"),))
    b = make_vertex((h32("x"), g.vertex_id), "alice", 1, (h32("t"),))
    assert a.vertex_id == b.vertex_id  # parent order is canonicalized
    c = make_vertex((g.vertex_id, h32("x")), "alice", 2, (h32("t"),))
    assert c.vertex_id != a.vertex_id
