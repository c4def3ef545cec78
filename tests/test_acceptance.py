"""Acceptance suite: one test per release criterion, printed pass by pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The DAG-construction grid (criterion 1) dominates the runtime at a
few minutes; everything else finishes in seconds.
"""

import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from helpers import (
    bfs_cover,
    brute_force_min_cover,
    grow_random_dag,
    h32,
    reference_merkle,
)
from minagree.attachment import AttachmentStrategy
from minagree.dag import Dag, make_vertex
from minagree.harness import (
    SimConfig,
    bandwidth_estimate,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)
from minagree.incentives import (
    RewardPolicy,
    RoundEconomics,
    collusion_profit,
    delta_score,
    distribute_rewards,
    kth_price_clearing,
    proposer_reward,
)
from minagree.rounds import ZERO_HASH, compute_block_hash, greedy_min_cover, merkle_root, next_seed

FIXTURES = Path(__file__).parent / "fixtures"

GRID_SEED = 7
GRID_BLOCKS = 100
# allowed mean proposal-size bands per (strategy, attacher count)
GRID_BANDS = {
    ("random", 10): (1, 4),
    ("joint_cardinality", 10): (1, 4),
    ("metropolis", 10): (1, 4),
    ("greedy", 10): (1, 4),
    ("random", 100): (10, 22),
    ("metropolis", 100): (10, 22),
    ("greedy", 100): (14, 28),
    ("joint_cardinality", 100): (17, 34),
    ("random", 1000): (100, 200),
    ("metropolis", 1000): (100, 200),
    ("greedy", 1000): (145, 290),
    ("joint_cardinality", 1000): (215, 430),
}

# the exact cell means, recorded at seed 7 and 100 blocks
GRID_MEANS = {
    ("random", 10): 1.15,
    ("joint_cardinality", 10): 1.33,
    ("metropolis", 10): 1.11,
    ("greedy", 10): 1.38,
    ("random", 100): 12.72,
    ("joint_cardinality", 100): 28.65,
    ("metropolis", 100): 12.9,
    ("greedy", 100): 27.58,
    ("random", 1000): 131.72,
    ("joint_cardinality", 1000): 283.3,
    ("metropolis", 1000): 131.3,
    ("greedy", 1000): 267.06,
}


@pytest.fixture(scope="module")
def grid_cells():
    return table1_experiment(
        ["random", "joint_cardinality", "metropolis", "greedy"],
        [10, 100, 1000],
        n_blocks=GRID_BLOCKS,
        seed=GRID_SEED,
    )


@pytest.mark.slow
def test_criterion_1_dag_construction_grid(grid_cells):
    means = {(c.strategy, c.n_vertices): c.mean_proposal_size for c in grid_cells}
    for key, (lo, hi) in GRID_BANDS.items():
        assert lo <= means[key] <= hi, f"{key}: mean {means[key]:.2f} outside [{lo}, {hi}]"
    assert means == GRID_MEANS
    for n in (100, 1000):
        jc = means[("joint_cardinality", n)]
        greedy = means[("greedy", n)]
        spread = max(means[("random", n)], means[("metropolis", n)])
        assert jc > greedy > spread, (
            f"ordering violated at n={n}: jc={jc:.2f} greedy={greedy:.2f} "
            f"random/metropolis={spread:.2f}"
        )
    summary = ", ".join(
        f"{s[:2]}@{n}={means[(s, n)]:.1f}" for (s, n) in sorted(means)
    )
    print(f"PASS criterion 1: proposal-size grid pinned, within bands and ordered ({summary})")


def test_criterion_2_bandwidth_formulas_exact():
    assert bandwidth_estimate(1000, 10, 100) == (332900, 60000)
    assert bandwidth_estimate(1, 1, 1) == (161, 6)
    print("PASS criterion 2: wire-cost formulas exact at both reference points")


def test_criterion_3_cover_oracle_equivalence():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(1000):
        dag, ids = grow_random_dag(rng, rng.randrange(1, 64))
        for _ in range(3):
            roots = rng.sample(ids, rng.randrange(1, min(5, len(ids)) + 1))
            expected = bfs_cover(dag, roots)
            if dag.cover_set(roots) != expected:
                mismatches += 1
            if dag.cover_cardinality(roots) != len(expected):
                mismatches += 1
    assert mismatches == 0
    print("PASS criterion 3: cover cache equals BFS oracle on 1000 random DAGs")


def test_criterion_4_greedy_cover_quality():
    rng = random.Random(4321)
    bound = 1 + math.log(20)
    checked = 0
    while checked < 200:
        dag, ids = grow_random_dag(rng, rng.randrange(2, 20))
        targets = [t for t in rng.sample(ids, rng.randrange(1, len(ids))) if t in dag.vertices]
        if not targets:
            continue
        chosen = greedy_min_cover(dag, targets)
        assert set(targets) <= dag.cover_set(chosen)
        optimum = brute_force_min_cover(dag, targets, dag.eligible_tips())
        assert len(chosen) <= optimum * bound
        checked += 1
    print("PASS criterion 4: greedy cover complete and within (1+ln 20) of optimum, 200 DAGs")


def test_criterion_5_determinism_and_hash_stability():
    config = SimConfig(
        seed=7, n_stakers=8, n_attachers=4, committee_size=3, n_proposers=2, n_blocks=12
    )
    first = run_simulation(config)
    second = run_simulation(config)
    assert json.dumps(first.to_dict()).encode() == json.dumps(second.to_dict()).encode()
    hashes = [first.chain.blocks[r].block_hash.hex() for r in range(12)]
    golden = (FIXTURES / "block_hashes.txt").read_text().split()
    assert hashes == golden  # platform-independent derivation from the seed
    print("PASS criterion 5: byte-identical reports and frozen block-hash sequence")


def test_criterion_6_finality_safety_and_liveness():
    config = SimConfig(
        seed=11, n_stakers=4, n_attachers=2, committee_size=3, n_proposers=1,
        n_blocks=1000, mempool_rate=1,
    )
    report = run_simulation(config)
    chain = report.chain
    assert len(chain.blocks) == 1000
    assert chain.finalized_height == 997  # exactly 998 finalized blocks
    prev = None
    for r in range(1000):
        block = chain.blocks[r]
        if prev is not None:
            assert block.proposal.prev_block_hash == prev.block_hash
        assert block.block_hash == compute_block_hash(
            block.proposal.prev_block_hash, block.proposal.body.merkle_root, r
        )
        prev = block
    print("PASS criterion 6: 1000 honest rounds, 998 finalized at lag 2, chain linked")


def test_criterion_7_incentive_suite():
    rng = random.Random(77)
    for _ in range(10_000):
        n = rng.randrange(1, 10_000)
        k = rng.randrange(0, n + 1)
        assert 0 <= delta_score(k, n) <= 1

    policy = RewardPolicy(non_producer_share=Fraction(1, 5))
    assert proposer_reward(100, 10, Fraction(0), policy) == 0
    last = Fraction(-1)
    for k in range(0, 51):
        value = proposer_reward(100, 10, Fraction(k, 50), policy)
        assert value >= last
        last = value

    for f, eps in product(range(10), repeat=2):
        if eps <= f:
            assert collusion_profit(f, eps, 0) == 0
    for k in range(100):
        f = 1 + (k % 17)
        eps = Fraction(k % (f + 1))
        x = Fraction(k, 100)
        assert collusion_profit(f, eps, x) == x * (f - eps)

    pots = [random.Random(5).randrange(0, 300) for _ in range(100)]
    rows = [
        RoundEconomics(r, pots[r], f"p{r % 7}", ("a1", "a2", "a3"), ("c1",), Fraction(1))
        for r in range(100)
    ]
    for window in (1, 2, 10):
        w_policy = RewardPolicy(decouple_window=window, non_producer_share=Fraction(1, 4))
        ledger = distribute_rewards(rows, w_policy)
        assert ledger.conserves()
        assert ledger.total_credited() + ledger.residual == sum(pots)

    hashes = [h32(f"b{i}") for i in range(5)]
    grid = range(1, 11)

    def utility(values, bids, bidder, capacity):
        included, price = kth_price_clearing(list(zip(hashes, bids)), capacity)
        return values[bidder] - price if hashes[bidder] in included else 0

    cap_rng = random.Random(0)
    for values in product(grid, repeat=5):
        capacity = cap_rng.choice((1, 2, 3, 4))
        bidder = cap_rng.randrange(5)
        truthful = utility(values, values, bidder, capacity)
        for deviation in grid:
            bids = list(values)
            bids[bidder] = deviation
            assert utility(values, bids, bidder, capacity) <= truthful
    print(
        "PASS criterion 7: delta range, reward monotonicity, collusion formula, "
        "conservation (Q=1,2,10), kth-price truthfulness"
    )


def test_criterion_8_censorship_monotonicity():
    config = SimConfig(
        seed=3, n_stakers=4, n_attachers=2, committee_size=3,
        reward_policy=RewardPolicy(hard_alpha=Fraction(1)),
    )
    rows = censorship_experiment(config, range(9))
    assert [r.depth for r in rows] == list(range(9))
    costs = [r.soft_cost for r in rows]
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    assert costs[0] > 0
    assert all(not r.hard_feasible for r in rows if r.depth >= 1)
    print("PASS criterion 8: censorship cost non-decreasing over depths 0..8, "
          "alpha=1 infeasible beyond depth 0")


def test_criterion_9_merkle_and_beacon_fixtures():
    golden_seeds = (FIXTURES / "next_seed.txt").read_text().split()
    s = ZERO_HASH
    for round_no, expected in enumerate(golden_seeds, start=1):
        s = next_seed(s, round_no)
        assert s.hex() == expected

    golden_roots = (FIXTURES / "merkle_root.txt").read_text().split()
    leaves = [h32(bytes([i])) for i in range(4)]
    cases = [[], leaves[:1], leaves[:3], leaves[:4]]
    for case, expected in zip(cases, golden_roots):
        assert merkle_root(case).hex() == expected
        assert reference_merkle(case).hex() == expected
    print("PASS criterion 9: beacon and Merkle golden vectors reproduced")
