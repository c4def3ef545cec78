"""Beacon, roles, Merkle commitments, proposals, notarization, finality."""

import random
from pathlib import Path

import pytest

from helpers import (
    bfs_cover,
    brute_force_min_cover,
    grow_random_dag,
    h32,
    raises_exactly,
    reference_greedy_cover,
    reference_merkle,
)
from minagree.dag import Dag, _sha256, make_vertex
from minagree.errors import (
    EmptyDag,
    ForkDetected,
    InsufficientStakers,
    NoProposals,
    NoQuorum,
    UncoverableTargets,
)
from minagree.rounds import (
    ZERO_HASH,
    ChainState,
    NotarizedBlock,
    Proposal,
    ProposalBody,
    assemble_block,
    compute_block_hash,
    draw_roles,
    finalize,
    greedy_min_cover,
    make_proposal,
    merkle_root,
    next_seed,
    notarize_round,
    proposal_body,
)

FIXTURES = Path(__file__).parent / "fixtures"


# --- beacon ---

def test_next_seed_deterministic_and_sensitive():
    s = h32("seed")
    assert next_seed(s, 5) == next_seed(s, 5)
    assert next_seed(s, 5) != next_seed(s, 6)


def test_next_seed_no_collisions_over_many_rounds():
    seen = set()
    s = ZERO_HASH
    for r in range(10_000):
        s = next_seed(s, r)
        seen.add(s)
    assert len(seen) == 10_000


def test_next_seed_golden_fixture():
    golden = (FIXTURES / "next_seed.txt").read_text().split()
    s = ZERO_HASH
    for round_no, expected in enumerate(golden, start=1):
        s = next_seed(s, round_no)
        assert s.hex() == expected


# --- merkle ---

def test_merkle_empty_and_single():
    assert merkle_root([]) == b"\x00" * 32
    leaf = h32("leaf")
    assert merkle_root([leaf]) == leaf


def test_merkle_golden_fixture():
    golden = (FIXTURES / "merkle_root.txt").read_text().split()
    leaves = [h32(bytes([i])) for i in range(4)]
    assert merkle_root([]).hex() == golden[0]
    assert merkle_root(leaves[:1]).hex() == golden[1]
    assert merkle_root(leaves[:3]).hex() == golden[2]
    assert merkle_root(leaves[:4]).hex() == golden[3]


def test_merkle_matches_reference_implementation():
    rng = random.Random(6)
    for n in range(0, 40):
        leaves = [h32(f"leaf-{n}-{i}-{rng.random()}") for i in range(n)]
        assert merkle_root(leaves) == reference_merkle(leaves)


# --- roles ---

def test_draw_roles_all_stakers_attach():
    stakers = [f"n{i}" for i in range(6)]
    ctx = draw_roles(h32("s"), stakers, n_attachers=6, committee_size=3)
    assert sorted(ctx.attachers) == sorted(stakers)


def test_draw_roles_ranking_is_permutation():
    stakers = [f"n{i}" for i in range(9)]
    for r in range(200):
        ctx = draw_roles(next_seed(ZERO_HASH, r), stakers, 3, 3)
        assert sorted(ctx.proposer_ranking) == sorted(stakers)
        assert len(set(ctx.attachers)) == 3
        assert len(set(ctx.committee)) == 3


def test_draw_roles_rank_zero_uniform():
    stakers = [f"n{i}" for i in range(10)]
    counts = {node: 0 for node in stakers}
    s = ZERO_HASH
    for r in range(10_000):
        s = next_seed(s, r)
        counts[draw_roles(s, stakers, 1, 1).proposer_ranking[0]] += 1
    for node, count in counts.items():
        assert 850 <= count <= 1150, (node, count)


@pytest.mark.parametrize(
    "stakers",
    [
        [f"node-{i:05d}" for i in range(64)],
        ["zoë", "ñandú", "日本", "n1", "n1", "", "😀", "naïve"],
    ],
    ids=["ascii", "non_ascii_and_repeats"],
)
def test_draw_roles_matches_reference_sort(stakers):
    # each role sorts the registry by _sha256(seed, domain, utf-8 name)
    for r in range(20):
        seed = next_seed(ZERO_HASH, r)

        def ranked(domain):
            return tuple(sorted(stakers, key=lambda node: _sha256(seed, domain, node.encode("utf-8"))))

        ctx = draw_roles(seed, stakers, 3, 4, round_no=r)
        assert ctx.proposer_ranking == ranked(b"propose")
        assert ctx.attachers == ranked(b"attach")[:3]
        assert ctx.committee == ranked(b"notarize")[:4]


def test_draw_roles_insufficient_stakers():
    with pytest.raises(InsufficientStakers):
        draw_roles(h32("s"), ["a"], n_attachers=2, committee_size=1)
    with pytest.raises(InsufficientStakers):
        draw_roles(h32("s"), [], n_attachers=0, committee_size=0)
    five = [f"n{i}" for i in range(5)]
    for n_attachers, committee_size in ((-1, -2), (-1, 1), (1, -2)):
        with pytest.raises(ValueError):
            draw_roles(h32("s"), five, n_attachers=n_attachers, committee_size=committee_size)


# --- greedy cover ---

def test_greedy_cover_single_tip_suffices():
    dag = Dag()
    prev = dag.genesis_id
    ids = []
    for i in range(4):
        v = make_vertex((prev, prev), "chain", i, ())
        dag.attach(v)
        ids.append(v.vertex_id)
        prev = v.vertex_id
    assert greedy_min_cover(dag, ids) == [prev]


def test_greedy_cover_disjoint_chains_need_both_tips():
    dag = Dag()
    g = dag.genesis_id
    a1 = make_vertex((g, g), "a1", 1, ())
    b1 = make_vertex((g, g), "b1", 1, ())
    dag.attach(a1)
    dag.attach(b1)
    a2 = make_vertex((a1.vertex_id, a1.vertex_id), "a2", 2, ())
    b2 = make_vertex((b1.vertex_id, b1.vertex_id), "b2", 2, ())
    dag.attach(a2)
    dag.attach(b2)
    chosen = greedy_min_cover(dag, [a1.vertex_id, b1.vertex_id])
    assert sorted(chosen) == sorted([a2.vertex_id, b2.vertex_id])


def test_greedy_cover_uncoverable_targets():
    dag = Dag()
    with pytest.raises(UncoverableTargets):
        greedy_min_cover(dag, [h32("ghost")])
    v = make_vertex((dag.genesis_id, dag.genesis_id), "a", 1, ())
    w = make_vertex((dag.genesis_id, dag.genesis_id), "b", 1, ())
    dag.attach(v)
    dag.attach(w)
    with pytest.raises(UncoverableTargets):
        greedy_min_cover(dag, [w.vertex_id], pool=[v.vertex_id])


def test_greedy_cover_always_covers_and_near_optimal():
    import math

    rng = random.Random(44)
    bound = 1 + math.log(20)
    for _ in range(60):
        dag, ids = grow_random_dag(rng, rng.randrange(4, 20))
        targets = rng.sample(ids, rng.randrange(1, len(ids)))
        targets = [t for t in targets if t in dag.vertices]
        if not targets:
            continue
        chosen = greedy_min_cover(dag, targets)
        assert set(targets) <= dag.cover_set(chosen)
        optimum = brute_force_min_cover(dag, targets, dag.eligible_tips())
        assert len(chosen) <= optimum * bound


def test_greedy_cover_matches_reference_tie_order():
    rng = random.Random(45)
    for _ in range(60):
        dag, ids = grow_random_dag(rng, rng.randrange(4, 30))
        active = [v for v in ids if v in dag.vertices]
        targets = rng.sample(active, rng.randrange(1, len(active) + 1))
        assert greedy_min_cover(dag, targets) == reference_greedy_cover(dag, targets, dag.eligible_tips())


# --- proposals ---

def _simple_ctx(stakers=4, round_no=1):
    names = [f"n{i}" for i in range(stakers)]
    return draw_roles(next_seed(ZERO_HASH, round_no), names, stakers, stakers, round_no=round_no)


def test_make_proposal_full_coverage_single_tip():
    dag = Dag()
    prev = dag.genesis_id
    for i in range(5):
        v = make_vertex((prev, prev), "chain", i, (h32(f"t{i}"),))
        dag.attach(v)
        prev = v.vertex_id
    ctx = _simple_ctx()
    p = make_proposal(ctx, ctx.proposer_ranking[0], ZERO_HASH, proposal_body(dag))
    assert p.body.tip_set == (prev,)
    assert dag.cover_set(p.body.tip_set) == set(dag.vertices)
    assert p.body.merkle_root == merkle_root(dag.ordered_transactions(p.body.tip_set))


def test_make_proposal_empty_policy():
    dag = Dag()
    ctx = _simple_ctx()
    p = make_proposal(ctx, ctx.proposer_ranking[0], ZERO_HASH, proposal_body(dag, ()))
    assert p.body.tip_set == ()
    assert p.body.merkle_root == b"\x00" * 32


def test_make_proposal_censoring_avoids_target_coverage():
    t_bad = h32("censored")
    dag = Dag()
    g = dag.genesis_id
    bad = make_vertex((g, g), "bad", 1, (t_bad,))
    dag.attach(bad)
    on_top = make_vertex((bad.vertex_id, bad.vertex_id), "heir", 2, ())
    dag.attach(on_top)
    clean = make_vertex((g, g), "clean", 1, (h32("ok"),))
    dag.attach(clean)
    ctx = _simple_ctx()
    honest = make_proposal(ctx, ctx.proposer_ranking[0], ZERO_HASH, proposal_body(dag))
    censoring = make_proposal(ctx, ctx.proposer_ranking[0], ZERO_HASH, proposal_body(dag, censor_tx=t_bad))
    covered = dag.cover_set(censoring.body.tip_set)
    assert bad.vertex_id not in covered
    assert on_top.vertex_id not in covered
    assert len(covered) < len(dag.cover_set(honest.body.tip_set))


def _pruned_empty_dag():
    dag = Dag()
    dag.prune_finalized([dag.genesis_id])
    return dag


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: next_seed(b"short", 1), ValueError, "seed must be 32 bytes"),
        (
            lambda: draw_roles(next_seed(ZERO_HASH, 1), ["a", "b"], 1, 3),
            InsufficientStakers,
            "committee of 3 requested from 2 stakers",
        ),
        (lambda: proposal_body(_pruned_empty_dag()), EmptyDag, "cannot propose over an empty DAG"),
        (
            lambda: make_proposal(_simple_ctx(), "nobody", ZERO_HASH, ProposalBody((), (), (), ZERO_HASH)),
            ValueError,
            "'nobody' is not in this round's ranking",
        ),
        (
            lambda: notarize_round([_proposal("n1", 0), _proposal("n1", 1)], _simple_ctx()),
            ValueError,
            "each proposer may submit at most one proposal",
        ),
    ],
    ids=["seed_length", "committee_size", "empty_dag", "unranked_proposer", "duplicate_proposer"],
)
def test_rounds_validation_errors(call, error, message):
    raises_exactly(call, error, message)


def test_proposal_respects_block_cap_in_merkle():
    dag = Dag()
    txs = tuple(h32(f"t{i}") for i in range(5))
    v = make_vertex((dag.genesis_id, dag.genesis_id), "a", 1, txs)
    dag.attach(v)
    ctx = _simple_ctx()
    p = make_proposal(ctx, ctx.proposer_ranking[0], ZERO_HASH, proposal_body(dag, max_block_txs=3))
    assert p.body.merkle_root == merkle_root(list(txs[:3]))


def _random_coverage(rng, dag, mode):
    if mode == "targets":
        coverable = sorted(dag.cover_set(dag.eligible_tips()))
        return {"targets": rng.sample(coverable, rng.randrange(len(coverable) + 1))}
    if mode == "censor":
        listed = [txh for vertex in dag.vertices.values() for txh in vertex.tx_hashes]
        return {"censor_tx": rng.choice(listed)}
    if mode == "empty":
        return {"targets": ()}
    return {}


@pytest.mark.parametrize("mode", ["max_coverage", "targets", "censor", "empty"])
def test_shared_body_proposals_equal_independent_proposals(mode):
    rng = random.Random(f"shared-body-{mode}")
    for trial in range(25):
        dag, _ = grow_random_dag(rng, rng.randrange(2, 25), txs_per_vertex=2)
        coverage = _random_coverage(rng, dag, mode)
        cap = rng.choice([None, 0, 1, 5])
        ctx = _simple_ctx(stakers=5, round_no=trial)
        prev = h32(f"prev-{trial}")
        body = proposal_body(dag, **coverage, max_block_txs=cap)
        order = tuple(dag.ordered_transactions(body.tip_set))
        assert body.tx_list + body.carried_over == order
        assert body.tx_list == (order if cap is None else order[:cap])
        assert body.merkle_root == merkle_root(body.tx_list)
        for proposer in ctx.proposer_ranking[:3]:
            shared = make_proposal(ctx, proposer, prev, body)
            alone = make_proposal(ctx, proposer, prev, proposal_body(dag, **coverage, max_block_txs=cap))
            assert shared.proposer_id == alone.proposer_id == proposer
            assert shared.body.tip_set == alone.body.tip_set
            assert shared.body.merkle_root == alone.body.merkle_root
            assert shared.rank_index == alone.rank_index
            assert shared.prev_block_hash == alone.prev_block_hash == prev
            assert shared == alone
            assembled = assemble_block(dag.ordered_transactions(alone.body.tip_set), cap)
            assert assembled == (body.tx_list, body.carried_over)


def _dag_in_state(rng, state):
    dag, _ = grow_random_dag(rng, rng.randrange(2, 25), txs_per_vertex=2)
    if state == "pruned":
        tips = dag.eligible_tips()
        # keep at least one tip's cover active, so the DAG stays non-empty
        dag.prune_finalized(bfs_cover(dag, rng.sample(tips, rng.randrange(len(tips)))))
    return dag


@pytest.mark.parametrize("state", ["grown", "pruned"])
@pytest.mark.parametrize("kind", ["max_coverage", "targets", "censor", "empty"])
def test_proposal_body_tip_set_matches_reference_greedy(kind, state):
    rng = random.Random(f"reference-body-{kind}-{state}")
    for _ in range(25):
        dag = _dag_in_state(rng, state)
        pool = dag.eligible_tips()
        if kind == "targets":
            coverable = sorted(bfs_cover(dag, pool))
            targets = rng.sample(coverable, rng.randrange(len(coverable) + 1))
            coverage = {"targets": targets}
        elif kind == "censor":
            listed = sorted({txh for vertex in dag.vertices.values() for txh in vertex.tx_hashes})
            if not listed:
                continue
            censored = rng.choice(listed)
            pool = [
                tip for tip in pool
                if not any(censored in dag.vertices[v].tx_hashes for v in bfs_cover(dag, (tip,)))
            ]
            targets = bfs_cover(dag, pool) - {dag.genesis_id}
            coverage = {"censor_tx": censored}
        elif kind == "empty":
            targets = ()
            coverage = {"targets": ()}
        else:
            targets = bfs_cover(dag, pool) - {dag.genesis_id}
            coverage = {}
        expected = tuple(sorted(reference_greedy_cover(dag, targets, pool)))
        assert proposal_body(dag, **coverage).tip_set == expected
        for cap in (None, 0, 3):
            assert proposal_body(dag, (), max_block_txs=cap) == ProposalBody((), (), (), ZERO_HASH)


# --- notarization ---

def _proposal(proposer, rank, tips=(), prev=ZERO_HASH, root=ZERO_HASH):
    return Proposal(
        proposer_id=proposer,
        rank_index=rank,
        prev_block_hash=prev,
        body=ProposalBody(tip_set=tuple(tips), tx_list=(), carried_over=(), merkle_root=root),
    )


def test_notarize_rank_mode_lowest_rank_wins():
    ctx = _simple_ctx()
    block = notarize_round([_proposal("a", 3), _proposal("b", 0)], ctx)
    assert block.proposal.proposer_id == "b"
    assert block.block_hash == compute_block_hash(ZERO_HASH, ZERO_HASH, ctx.round)
    assert set(block.notarization_signers) == set(ctx.committee)


def test_notarize_single_proposal():
    ctx = _simple_ctx()
    block = notarize_round([_proposal("solo", 2)], ctx)
    assert block.proposal.proposer_id == "solo"


def test_notarize_requires_proposals_and_quorum():
    ctx = _simple_ctx()
    with pytest.raises(NoProposals):
        notarize_round([], ctx)
    with pytest.raises(NoQuorum):
        notarize_round([_proposal("a", 0)], ctx, honest_signers=ctx.committee[:2])
    with pytest.raises(NoQuorum):
        notarize_round([_proposal("a", 0)], ctx, honest_signers=[ctx.committee[0]] * 3)
    with pytest.raises(ValueError):
        notarize_round([_proposal("a", 0)], ctx, honest_signers=["outsider"] * 3)


# --- finality ---

def _chain_with_blocks(n):
    chain = ChainState()
    prev = ZERO_HASH
    for r in range(n):
        proposal = _proposal("p", 0, prev=prev, root=h32(f"m{r}"))
        block = NotarizedBlock(
            round=r,
            proposal=proposal,
            notarization_signers=("a", "b", "c"),
            block_hash=compute_block_hash(prev, proposal.body.merkle_root, r),
        )
        chain.add(block)
        prev = block.block_hash
    return chain


def test_finalize_lag_two():
    chain = _chain_with_blocks(3)
    block0 = chain.blocks[0]
    newly = finalize(chain, current_round=2)
    assert newly == [block0]  # handed over with its body
    assert chain.finalized_height == 0
    assert sorted(chain.blocks) == [1, 2]
    assert chain.finalized_hash == block0.block_hash
    assert finalize(chain, 2) == []  # idempotent


def test_finalize_nothing_before_round_two():
    chain = _chain_with_blocks(2)
    assert finalize(chain, current_round=1) == []
    assert chain.finalized_height == -1


def _add_again(round_no, final_to):
    """Finalize a three-block chain up to ``final_to``, then notarize a
    second block in ``round_no``."""
    chain = _chain_with_blocks(3)
    finalize(chain, current_round=final_to + 2)
    chain.add(
        NotarizedBlock(
            round=round_no,
            proposal=_proposal("q", 1),
            notarization_signers=("a",),
            block_hash=h32("other"),
        )
    )


def _finalize_broken_link():
    chain = _chain_with_blocks(3)
    chain.add(
        NotarizedBlock(
            round=3,
            proposal=_proposal("p", 0, prev=h32("wrong")),
            notarization_signers=("a", "b", "c"),
            block_hash=h32("b3"),
        )
    )
    finalize(chain, current_round=5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _add_again(2, final_to=-1), "two notarized blocks in round 2"),
        (lambda: _add_again(1, final_to=1), "two notarized blocks in round 1"),
        (lambda: _add_again(0, final_to=1), "two notarized blocks in round 0"),
        (_finalize_broken_link, "chain linkage broken at round 3"),
    ],
    ids=["duplicate_round", "final_round", "below_final_round", "broken_linkage"],
)
def test_fork_detected(call, message):
    raises_exactly(call, ForkDetected, message)


# --- assembly ---

def test_assemble_block_no_cap():
    dag = Dag()
    txs = tuple(h32(f"t{i}") for i in range(5))
    v = make_vertex((dag.genesis_id, dag.genesis_id), "a", 1, txs)
    dag.attach(v)
    tx_list, carried = assemble_block(dag.ordered_transactions((v.vertex_id,)))
    assert tx_list == txs
    assert carried == ()


def test_assemble_block_cap_carries_remainder():
    dag = Dag()
    txs = tuple(h32(f"t{i}") for i in range(5))
    v = make_vertex((dag.genesis_id, dag.genesis_id), "a", 1, txs)
    dag.attach(v)
    tx_list, carried = assemble_block(dag.ordered_transactions((v.vertex_id,)), max_block_txs=3)
    assert tx_list == txs[:3]
    assert carried == txs[3:]


def test_assemble_block_empty_tip_set():
    dag = Dag()
    assert assemble_block(dag.ordered_transactions(())) == ((), ())
