"""DAG structure: attachment rules, tips, cover sets, pruning, ordering."""

import random
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from helpers import (
    assert_runs_maximal_and_uniform,
    bfs_cover,
    bfs_payload,
    grow_random_dag,
    h32,
    in_degree_zero,
    per_hash_runs,
    raises_exactly,
    reference_order,
)
from minagree.dag import Dag, Vertex, _sha256, genesis_vertex, make_vertex
from minagree.errors import (
    CycleViolation,
    DuplicateCoverage,
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


def test_make_vertex_rejects_non_32_byte_tx():
    g = Dag().genesis_id
    make_vertex((g, g), "alice", 1, (h32("t"),))
    for bad in (b"short", h32("t") + b"\x00", b""):
        with pytest.raises(ValueError):
            make_vertex((g, g), "alice", 1, (h32("t"), bad))


def test_genesis_is_only_tip():
    dag = Dag()
    assert dag.eligible_tips() == [dag.genesis_id]
    assert dag.cover_set((dag.genesis_id,)) == {dag.genesis_id}
    assert dag.cover_cardinality((dag.genesis_id,)) == 1


def test_first_attachment_becomes_sole_tip():
    dag = Dag()
    v = make_vertex((dag.genesis_id, dag.genesis_id), "alice", 0, (h32("t1"),))
    vid = dag.attach(v)
    assert vid == v.vertex_id
    assert dag.eligible_tips() == [vid]


def test_diamond_tips_and_cover():
    dag, a, b, c = build_diamond()
    assert dag.eligible_tips() == [c]
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


def test_sibling_branches_may_repeat_a_transaction():
    t1 = h32("t1")
    dag = Dag()
    g = dag.genesis_id
    a = make_vertex((g, g), "alice", 1, (t1,))
    b = make_vertex((g, g), "bob", 1, (t1,))
    dag.attach(a)
    dag.attach(b)
    assert dag.listing_mask(t1) == dag.own_bit(a.vertex_id) | dag.own_bit(b.vertex_id)


def test_cover_unknown_root():
    dag = Dag()
    with pytest.raises(UnknownVertex):
        dag.cover_set((h32("nope"),))


GENESIS_ID = genesis_vertex().vertex_id
ALICE = make_vertex((GENESIS_ID, GENESIS_ID), "alice", 1, ())


def _dag_with(vertex):
    dag = Dag()
    dag.attach(vertex)
    return dag


T1, T2, T5, T6 = (h32(f"t{k}") for k in (1, 2, 5, 6))
LISTED = (T1, T2, T5, T6)


def _attach_leaves_dag_unchanged(listed):
    """Attach a vertex listing ``listed`` to alice (who lists T1) and to
    the genesis, beside bob (who lists T2); the attach must fail and
    leave ``listing_mask``, ``pending``, the tips, the active count and
    the vertices as before, ``listing_mask`` raising
    :class:`UnknownTransaction` for each hash still unlisted."""
    dag = Dag()
    g = dag.genesis_id
    alice = make_vertex((g, g), "alice", 1, (T1,))
    dag.attach(alice)
    dag.attach(make_vertex((g, g), "bob", 1, (T2,)))

    def answers():
        listed_masks = {t: dag.listing_mask(t) for t in LISTED if dag.is_listed(t)}
        return listed_masks, dag.pending(LISTED), set(dag.tip_set), dag.active_count, list(dag.vertices)

    before = answers()
    try:
        dag.attach(make_vertex((alice.vertex_id, g), "carol", 2, listed))
    finally:
        assert answers() == before
        for t in LISTED:
            if not dag.is_listed(t):
                with pytest.raises(UnknownTransaction):
                    dag.listing_mask(t)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Vertex((GENESIS_ID,), "a", 1, ()), ValueError, "a non-genesis vertex has exactly two parents"),
        (lambda: Vertex((), "a", -1, ()), ValueError, "round must be non-negative"),
        (lambda: Vertex((b"short", GENESIS_ID), "a", 1, ()), ValueError, "parent references must be 32-byte hashes"),
        (
            lambda: Vertex((GENESIS_ID, GENESIS_ID), "a", 1, (T1, b"short")),
            ValueError,
            "transaction references must be 32-byte hashes",
        ),
        # a plain tuple is checked hash by hash; a snapshot's payload once
        (
            lambda: make_vertex((GENESIS_ID, GENESIS_ID), "a", 1, (T1, T2[:31])),
            ValueError,
            "transaction references must be 32-byte hashes",
        ),
        (
            lambda: Dag().uncovered_hashes(Dag().pending((T1, T2[:31])), 0),
            ValueError,
            "transaction references must be 32-byte hashes",
        ),
        (lambda: _dag_with(ALICE).attach(ALICE), ValueError, f"vertex {ALICE.vertex_id.hex()} already attached"),
        (lambda: Dag().attach(Vertex((), "a", 0, ())), UnknownParent, "only the genesis vertex may have zero parents"),
        (
            lambda: Dag().discard_stale_tips(current_round=11, max_age=10),
            NotImplementedError,
            "stale tips are no longer flagged; every tip is eligible",
        ),
        # T2 (bob's) and T5 get carol's bit before the check reaches T1
        (
            lambda: _attach_leaves_dag_unchanged((T2, T5, T1)),
            DuplicateCoverage,
            f"transaction {T1.hex()} already covered",
        ),
        # carol lists alice's listing whole
        (
            lambda: _attach_leaves_dag_unchanged((T1,)),
            DuplicateCoverage,
            f"transaction {T1.hex()} already covered",
        ),
        # bob's listing, then alice's, each whole; only alice's is covered
        (
            lambda: _attach_leaves_dag_unchanged((T2, T1)),
            DuplicateCoverage,
            f"transaction {T1.hex()} already covered",
        ),
        # bob's listing twice, whole each time, is still a repeat
        (
            lambda: _attach_leaves_dag_unchanged((T2, T2)),
            DuplicateCoverage,
            f"transaction {T2.hex()} listed twice",
        ),
        (
            lambda: _attach_leaves_dag_unchanged((T2, T5, T2)),
            DuplicateCoverage,
            f"transaction {T2.hex()} listed twice",
        ),
        # a list of unlisted hashes only, one run, that repeats one
        (
            lambda: _attach_leaves_dag_unchanged((T5, T6, T5)),
            DuplicateCoverage,
            f"transaction {T5.hex()} listed twice",
        ),
        # a repeat outranks a covered hash listed before it, and the first
        # repeat is named, not the first hash that repeats
        (
            lambda: _attach_leaves_dag_unchanged((T1, T5, T6, T6, T5)),
            DuplicateCoverage,
            f"transaction {T6.hex()} listed twice",
        ),
    ],
    ids=[
        "parent_count", "negative_round", "short_parent", "short_tx_hash", "31_byte_tx_hash",
        "31_byte_payload_hash", "reattach", "zero_parents",
        "discard_stale_tips",
        "covered", "covered_whole_listing", "covered_second_whole_listing", "whole_listing_twice",
        "listed_twice", "unlisted_listed_twice", "covered_and_listed_twice",
    ],
)
def test_dag_validation_errors(call, error, message):
    raises_exactly(call, error, message)


def test_uncovered_hashes_shares_one_payload_per_run_selection():
    # alice, bob and carol each list one hash of the snapshot, so each of
    # its three runs is taken or not on its own and a memo key that
    # ignored any one run would hand two selections one payload
    dag = Dag()
    g = dag.genesis_id
    listers = [
        dag.attach(make_vertex((g, g), name, 1, (txh,))) for name, txh in zip(("alice", "bob", "carol"), LISTED)
    ]
    mempool = LISTED[:3]
    pending = dag.pending(mempool)
    assert len(pending.runs) == 3
    payloads = {}
    for k in range(4):
        for roots in combinations(listers, k):
            payload = dag.uncovered_hashes(pending, dag.cover_mask(roots))
            assert payload == bfs_payload(dag, mempool, roots)
            assert dag.uncovered_hashes(pending, dag.cover_mask(roots)) is payload
            payloads[roots] = payload
    assert len({id(payload) for payload in payloads.values()}) == 8
    fresh = dag.pending(mempool)
    for roots, payload in payloads.items():
        again = dag.uncovered_hashes(fresh, dag.cover_mask(roots))
        assert again == payload and again is not payload


def test_pending_equality_ignores_its_payloads():
    dag = Dag()
    used, fresh = dag.pending(LISTED), dag.pending(LISTED)
    assert dag.uncovered_hashes(used, 0) == LISTED
    assert used._payloads and not fresh._payloads
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def test_prune_finalized_full_cover():
    dag, a, b, c = build_diamond()
    dag.prune_finalized(dag.cover_set((c,)))
    assert dag.active_count == 0
    assert dag.eligible_tips() == []
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


def test_prune_takes_the_cover_of_its_roots():
    dag, a, b, c = build_diamond()
    dag.prune_finalized({a})
    assert set(dag.vertices) == {b, c}
    assert set(dag.boundary) == {a, dag.genesis_id}
    assert dag.cover_set((c,)) == {b, c}


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
        dag.listing_mask(h32("absent"))


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
        assert set(dag.eligible_tips()) == in_degree_zero(dag)


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
        tip = rng.choice(dag.eligible_tips())
        dag.prune_finalized(dag.cover_set((tip,)))
        for _ in range(3):
            alive = list(dag.vertices)
            if not alive:
                break
            roots = rng.sample(alive, min(2, len(alive)))
            assert dag.cover_set(roots) == bfs_cover(dag, roots)
        assert set(dag.eligible_tips()) == in_degree_zero(dag)


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
    tips = dag.eligible_tips()
    order = dag.ordered_transactions(tips)
    expected = set()
    for vid in dag.cover_set(tips):
        expected.update(dag.vertices[vid].tx_hashes)
    assert set(order) == expected
    assert len(order) == len(expected)
    assert order == dag.ordered_transactions(tips)


def test_ordered_transactions_matches_reference_order():
    # siblings re-list hashes that their parents' covers miss: fresh
    # picks, another vertex's list object itself, exact copies and
    # permuted copies of it; some DAGs are pruned, some down to their
    # boundary markers
    rng = random.Random(13)
    pool = [h32(f"order-tx-{k}") for k in range(10)]
    for _ in range(80):
        dag = Dag()
        for k in range(rng.randrange(1, 25)):
            if dag.vertices and rng.random() < 0.15:
                dag.prune_finalized([rng.choice(sorted(dag.vertices))])
            known = sorted(dag.vertices) or sorted(dag.boundary)
            parents = (rng.choice(known), rng.choice(known))
            covered = {txh for vid in bfs_cover(dag, parents) for txh in dag.vertices[vid].tx_hashes}
            lists = [v.tx_hashes for v in dag.vertices.values() if v.tx_hashes and covered.isdisjoint(v.tx_hashes)]
            how = rng.choice(["fresh", "shared", "copy", "permuted"])
            if how == "fresh" or not lists:
                free = [txh for txh in pool if txh not in covered]
                txs = tuple(rng.sample(free, min(len(free), rng.randrange(4))))
            elif how == "shared":
                txs = rng.choice(lists)
            else:
                txs = list(rng.choice(lists))
                if how == "permuted":
                    rng.shuffle(txs)
                txs = tuple(txs)
            dag.attach(make_vertex(parents, f"v{k}", k + 1, txs))
            active = sorted(dag.vertices)
            roots = rng.sample(active, rng.randrange(1, min(3, len(active)) + 1))
            assert dag.ordered_transactions(roots) == reference_order(dag, roots)


def test_vertex_identity_is_content_addressed():
    g = genesis_vertex()
    a = make_vertex((g.vertex_id, h32("x")), "alice", 1, (h32("t"),))
    b = make_vertex((h32("x"), g.vertex_id), "alice", 1, (h32("t"),))
    assert a.vertex_id == b.vertex_id  # parent order is canonicalized
    c = make_vertex((g.vertex_id, h32("x")), "alice", 2, (h32("t"),))
    assert c.vertex_id != a.vertex_id


@pytest.mark.parametrize("n_txs", [0, 1, 1000])
@pytest.mark.parametrize("parents", [(), (h32("p2"), h32("p1"))], ids=["genesis_like", "two_parents"])
def test_vertex_id_is_hash_of_documented_encoding(n_txs, parents):
    # b"vertex", the parent count byte, the parents ascending, the round
    # (8 bytes), the attacher's utf-8 length (4 bytes) and bytes, the list
    # length (4 bytes) and the hashes in listed order, all big-endian
    txs = tuple(h32(f"encoded-{k}") for k in range(n_txs))
    name = "nöde-7".encode("utf-8")
    vertex = Vertex(parents=parents, attacher_id="nöde-7", round=9, tx_hashes=txs)
    # a snapshot's shared payload brings its own encoding along
    dag = Dag()
    payload = dag.uncovered_hashes(dag.pending(txs), 0)
    shared = Vertex(parents=parents, attacher_id="nöde-7", round=9, tx_hashes=payload)
    assert shared.tx_hashes is payload and payload is not txs
    assert shared.vertex_id == vertex.vertex_id
    encoding = [
        b"vertex",
        bytes([len(parents)]),
        *sorted(parents),
        (9).to_bytes(8, "big"),
        len(name).to_bytes(4, "big"),
        name,
        n_txs.to_bytes(4, "big"),
        *txs,
    ]
    assert vertex.vertex_id == _sha256(*encoding)


class DagMachine(RuleBasedStateMachine):
    """Random attach / prune sequences against brute force.

    The machine keeps its own model of every id ever attached (with its
    round), so tips, covers, the transaction order, the listing masks and
    the pending runs are all recomputed from the raw vertex records after
    every step.  Besides fresh lists, vertices re-list an active vertex's
    whole list, a strict slice of it, or its hashes out of listed order,
    so attaches meet whole listings, parts of listings, and runs that
    hold a listing's hashes without being it.  Long lists set machine
    transactions inside stretches of filler hashes, and the pending runs
    are checked over a list with long unlisted stretches too.
    """

    TXS = [h32(f"machine-tx-{k}") for k in range(8)]
    # listed only in long stretches, so that Dag._runs meets long runs
    # of unlisted hashes with listed hashes after them
    FILLER = [h32(f"machine-filler-{k}") for k in range(48)]
    PENDING = FILLER[:24] + TXS[:4] + FILLER[24:] + TXS[4:]

    def __init__(self):
        super().__init__()
        self.dag = Dag()
        self.rounds = {self.dag.genesis_id: 0}  # active and pruned ids alike

    @rule(data=st.data(), lag=st.integers(0, 2), txs=st.lists(st.sampled_from(TXS), max_size=3, unique=True))
    def attach(self, data, lag, txs):
        self._attach(data, lag, txs)

    @precondition(lambda self: any(vertex.tx_hashes for vertex in self.dag.vertices.values()))
    @rule(data=st.data(), lag=st.integers(0, 2))
    def relist_whole(self, data, lag):
        listers = [vertex for vertex in self.dag.vertices.values() if vertex.tx_hashes]
        self._attach(data, lag, data.draw(st.sampled_from(listers)).tx_hashes)

    @precondition(lambda self: any(len(vertex.tx_hashes) > 1 for vertex in self.dag.vertices.values()))
    @rule(data=st.data(), lag=st.integers(0, 2))
    def relist_slice(self, data, lag):
        listers = [vertex for vertex in self.dag.vertices.values() if len(vertex.tx_hashes) > 1]
        txs = data.draw(st.sampled_from(listers)).tx_hashes
        size = data.draw(st.integers(1, len(txs) - 1))
        start = data.draw(st.integers(0, len(txs) - size))
        self._attach(data, lag, txs[start:start + size])

    @precondition(lambda self: any(len(vertex.tx_hashes) > 1 for vertex in self.dag.vertices.values()))
    @rule(data=st.data(), lag=st.integers(0, 2), repeat=st.booleans())
    def relist_out_of_order(self, data, lag, repeat):
        # permuted, or with one hash replaced by another of the list
        listers = [vertex for vertex in self.dag.vertices.values() if len(vertex.tx_hashes) > 1]
        txs = data.draw(st.permutations(data.draw(st.sampled_from(listers)).tx_hashes))
        if repeat:
            src, dst = data.draw(st.lists(st.integers(0, len(txs) - 1), min_size=2, max_size=2, unique=True))
            txs[dst] = txs[src]
        self._attach(data, lag, txs)

    @rule(data=st.data(), lag=st.integers(0, 2), txs=st.lists(st.sampled_from(TXS), max_size=3, unique=True))
    def attach_long(self, data, lag, txs):
        # machine txs inside a stretch of filler hashes
        start = data.draw(st.integers(0, len(self.FILLER)))
        stretch = self.FILLER[start:start + data.draw(st.integers(0, len(self.FILLER) - start))]
        cut = data.draw(st.integers(0, len(stretch)))
        self._attach(data, lag, stretch[:cut] + txs + stretch[cut:])

    def _attach(self, data, lag, txs):
        known = list(self.rounds)
        parents = (data.draw(st.sampled_from(known)), data.draw(st.sampled_from(known)))
        vertex = make_vertex(parents, f"v{len(known)}", max(self.rounds[p] for p in parents) + lag, tuple(txs))
        covered = {txh for vid in bfs_cover(self.dag, parents) for txh in self.dag.vertices[vid].tx_hashes}
        if covered & set(txs) or len(set(txs)) < len(txs):
            with pytest.raises(DuplicateCoverage):
                self.dag.attach(vertex)
            return
        self.dag.attach(vertex)
        self.rounds[vertex.vertex_id] = vertex.round

    @precondition(lambda self: self.dag.vertices)
    @rule(data=st.data())
    def prune_finalized(self, data):
        roots = data.draw(st.lists(st.sampled_from(list(self.dag.vertices)), min_size=1, max_size=2))
        finalized = bfs_cover(self.dag, roots)
        survivors = self.dag.vertices.keys() - finalized
        self.dag.prune_finalized(roots)
        assert self.dag.vertices.keys() == survivors

    @invariant()
    def matches_brute_force(self):
        dag = self.dag
        assert dag.boundary.keys() == self.rounds.keys() - dag.vertices.keys()
        tips = in_degree_zero(dag)
        assert dag.eligible_tips() == sorted(tips)
        cover_sizes = [0]
        for vid in dag.vertices:
            cover = bfs_cover(dag, (vid,))
            assert dag.cover_set((vid,)) == cover
            cover_sizes.append(len(cover))
        assert dag.max_cover == max(cover_sizes)
        assert dag.cover_cardinality(tips) == len(dag.vertices)

        listed = {txh for vertex in dag.vertices.values() for txh in vertex.tx_hashes}
        order = dag.ordered_transactions(tips)
        assert order == reference_order(dag, tips)
        assert len(order) == len(set(order)) and set(order) == listed
        # topological: each tx sits after every tx of some lister's ancestors
        pos = {txh: i for i, txh in enumerate(order)}
        for txh in order:
            assert any(
                all(pos[u] < pos[txh] for a in bfs_cover(dag, (w,)) - {w} for u in dag.vertices[a].tx_hashes)
                for w, vertex in dag.vertices.items()
                if txh in vertex.tx_hashes
            )

    @invariant()
    def tip_snapshot_matches_brute_force(self):
        # every active vertex lies under some tip, which lets the honest
        # censorship coverage be read as a count, and a read after any
        # write sees the tips' current masks
        dag = self.dag
        covers = [bfs_cover(dag, (tip,)) for tip in in_degree_zero(dag)]
        assert set().union(*covers) == dag.vertices.keys()
        masks = [sum(dag.own_bit(vid) for vid in cover) for cover in covers]
        assert sorted(dag.tip_cover_masks()) == sorted(masks)

    @invariant()
    def listing_index_matches_brute_force(self):
        dag = self.dag
        for txh in self.TXS + self.FILLER:
            mask = 0
            for vid, vertex in dag.vertices.items():
                if txh in vertex.tx_hashes:
                    mask |= dag.own_bit(vid)
            assert dag.is_listed(txh) == bool(mask)
            if mask:
                assert dag.listing_mask(txh) == mask
            else:
                with pytest.raises(UnknownTransaction):
                    dag.listing_mask(txh)
        assert_runs_maximal_and_uniform(dag, dag.pending(self.TXS))
        assert_runs_maximal_and_uniform(dag, dag.pending(self.PENDING))
        for hashes in [tuple(self.PENDING)] + [vertex.tx_hashes for vertex in dag.vertices.values()]:
            assert dag._runs(hashes) == per_hash_runs(dag, hashes)


DagMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None, derandomize=True, database=None
)
TestDagMachine = DagMachine.TestCase
