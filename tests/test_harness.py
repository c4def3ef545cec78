"""End-to-end simulation runs: determinism, accounting, finality, knobs."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from minagree.attachment import AttachmentStrategy
from minagree.errors import ConfigInvalid
from minagree.harness import (
    CensorshipRow,
    DelayModel,
    SimConfig,
    bandwidth_estimate,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)
from minagree.incentives import RewardPolicy
from minagree.rounds import compute_block_hash

FIXTURES = Path(__file__).parent / "fixtures"


def small_config(**kwargs):
    base = dict(
        seed=42,
        n_stakers=6,
        n_attachers=3,
        committee_size=3,
        n_proposers=2,
        strategy=AttachmentStrategy("random"),
        n_blocks=12,
        mempool_rate=4,
    )
    base.update(kwargs)
    return SimConfig(**base)


def test_trivial_single_actor_run():
    config = SimConfig(
        seed=7, n_stakers=2, n_attachers=1, committee_size=1, n_proposers=1, n_blocks=5
    )
    report = run_simulation(config)
    assert len(report.rows) == 5
    assert len(report.chain.blocks) == 5
    assert report.aggregates["finalized_height"] == 2  # lag two: 3 blocks final
    assert all(row.delta == 1 for row in report.rows)


def test_reports_are_byte_identical_across_runs():
    config = small_config()
    first = json.dumps(run_simulation(config).to_dict()).encode()
    second = json.dumps(run_simulation(config).to_dict()).encode()
    assert first == second


def test_different_seeds_differ():
    a = run_simulation(small_config(seed=1)).to_dict()
    b = run_simulation(small_config(seed=2)).to_dict()
    assert a != b


def test_zero_mempool_rate_still_advances_chain():
    report = run_simulation(small_config(mempool_rate=0, n_blocks=8))
    assert len(report.chain.blocks) == 8
    assert all(row.fees == 0 for row in report.rows)
    assert all(block.tx_list == () for block in report.chain.blocks.values())
    assert report.aggregates["finalized_height"] == 5


def test_transaction_accounting_identity():
    report = run_simulation(small_config(n_blocks=30, mempool_rate=5))
    agg = report.aggregates
    assert agg["total_txs_injected"] == (
        agg["total_txs_settled"] + agg["total_txs_dropped"] + agg["mempool_remaining"]
    )
    assert agg["total_txs_dropped"] == 0  # no cap, nothing carried


def test_fee_totals_match_settled_rows():
    report = run_simulation(small_config(n_blocks=20))
    assert report.aggregates["total_fees_collected"] == sum(r.fees for r in report.rows)


def test_finality_audit_lag_exactly_two():
    report = run_simulation(small_config(n_blocks=40))
    chain = report.chain
    assert chain.finalized_height == 37
    prev = None
    for r in range(40):
        block = chain.blocks[r]
        if prev is not None:
            assert block.proposal.prev_block_hash == prev.block_hash
        assert block.block_hash == compute_block_hash(
            block.proposal.prev_block_hash, block.proposal.merkle_root, r
        )
        prev = block


def test_block_cap_carries_and_requeues():
    report = run_simulation(
        small_config(n_blocks=25, mempool_rate=6, max_block_txs=3)
    )
    assert any(row.carried_over > 0 for row in report.rows)
    agg = report.aggregates
    assert agg["total_txs_dropped"] == 0  # unlimited retries by default
    assert agg["total_txs_injected"] == (
        agg["total_txs_settled"] + agg["mempool_remaining"]
    )


def test_carryover_retry_limit_drops_transactions():
    report = run_simulation(
        small_config(n_blocks=30, mempool_rate=8, max_block_txs=2, carryover_retry_limit=0)
    )
    agg = report.aggregates
    assert agg["total_txs_dropped"] > 0
    assert agg["total_txs_injected"] == (
        agg["total_txs_settled"] + agg["total_txs_dropped"] + agg["mempool_remaining"]
    )


def test_rewards_flow_to_roles():
    policy = RewardPolicy(non_producer_share=Fraction(1, 4))
    report = run_simulation(small_config(n_blocks=20, reward_policy=policy))
    balances = report.aggregates["balances"]
    assert sum(balances.values()) > 0
    total = report.aggregates["total_fees_collected"]
    residual = Fraction(report.aggregates["reward_residual"])
    assert sum(balances.values()) + residual == total


@pytest.mark.parametrize("kind", ["random", "joint_cardinality", "metropolis", "greedy"])
def test_each_strategy_completes(kind):
    report = run_simulation(small_config(strategy=AttachmentStrategy(kind), n_blocks=10))
    assert len(report.rows) == 10


def test_delay_model_parsing():
    assert DelayModel.parse("none") == DelayModel()
    assert DelayModel.parse("fixed:2") == DelayModel("fixed", 2)
    assert DelayModel.parse("uniform:3") == DelayModel("uniform", 3)
    with pytest.raises(ConfigInvalid):
        DelayModel.parse("sometimes")
    with pytest.raises(ConfigInvalid):
        DelayModel.parse("fixed:0")


def test_delay_models_run_and_change_outcomes():
    base = run_simulation(small_config(n_blocks=15)).to_dict()
    fixed = run_simulation(small_config(n_blocks=15, delay_model=DelayModel("fixed", 1)))
    uniform = run_simulation(small_config(n_blocks=15, delay_model=DelayModel("uniform", 2)))
    assert len(fixed.rows) == len(uniform.rows) == 15
    assert fixed.to_dict() != base


def test_strict_synchrony_via_fixed_delay():
    # fixed:1 hides vertices for a whole round, so every attacher of a
    # round works from the previous round's frontier only
    report = run_simulation(
        small_config(n_blocks=10, n_attachers=3, delay_model=DelayModel("fixed", 1))
    )
    assert len(report.chain.blocks) == 10


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        small_config(n_attachers=10).validate()  # exceeds stakers
    with pytest.raises(ConfigInvalid):
        small_config(n_blocks=0).validate()
    with pytest.raises(ConfigInvalid):
        small_config(mempool_rate=-1).validate()
    with pytest.raises(ConfigInvalid):
        small_config(visibility_horizon=-0.5).validate()


def test_visibility_horizon_zero_gives_full_knowledge():
    # with no gossip lag each attacher sees everything, so the DAG
    # braids into a near-chain and proposals stay tiny
    report = run_simulation(small_config(n_blocks=15, n_attachers=3, visibility_horizon=0.0))
    warm = [r.proposal_size for r in report.rows[5:]]
    assert max(warm) <= 2


def test_trivial_run_matches_golden_fixture():
    config = SimConfig(
        seed=7, n_stakers=2, n_attachers=1, committee_size=1, n_proposers=1, n_blocks=5
    )
    got = json.dumps(run_simulation(config).to_dict(), indent=2) + "\n"
    golden = (FIXTURES / "trivial_run.json").read_text()
    assert got == golden


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 1e308])
def test_validate_rejects_non_finite_horizon(horizon):
    with pytest.raises(ConfigInvalid, match="visibility_horizon must be finite"):
        SimConfig(visibility_horizon=horizon).validate()


def test_bandwidth_estimates_exact():
    assert bandwidth_estimate(1000, 10, 100) == (332900, 60000)
    assert bandwidth_estimate(1, 1, 1) == (161, 6)
    assert bandwidth_estimate(0, 7, 0) == (0, 0)
    with pytest.raises(ConfigInvalid):
        bandwidth_estimate(-1, 1, 1)


def test_table1_experiment_shape_and_determinism():
    cells = table1_experiment(["random", "greedy"], [10], n_blocks=15, seed=3)
    assert [(c.strategy, c.n_vertices) for c in cells] == [("random", 10), ("greedy", 10)]
    again = table1_experiment(["random", "greedy"], [10], n_blocks=15, seed=3)
    assert cells == again
    assert all(c.n_blocks == 15 and c.seed == 3 for c in cells)


def test_censorship_experiment_rows_sorted_and_monotone():
    config = small_config()
    rows = censorship_experiment(config, [4, 0, 2, 0])
    assert [r.depth for r in rows] == [0, 2, 4]
    assert rows[0].soft_cost > 0
    assert rows[0].soft_cost < rows[1].soft_cost < rows[2].soft_cost
    assert all(isinstance(r, CensorshipRow) for r in rows)


def test_censorship_experiment_hard_alpha_one_infeasible():
    config = small_config(reward_policy=RewardPolicy(hard_alpha=Fraction(1)))
    rows = censorship_experiment(config, range(6))
    assert all(not r.hard_feasible for r in rows if r.depth >= 1)


def test_censorship_experiment_rejects_bad_depths():
    with pytest.raises(ConfigInvalid):
        censorship_experiment(small_config(), [])
    with pytest.raises(ConfigInvalid):
        censorship_experiment(small_config(), [-1, 2])
