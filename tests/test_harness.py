"""End-to-end simulation runs: determinism, accounting, finality, knobs."""

import hashlib
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
    for row in report.rows:
        block = report.chain.blocks[row.round]
        assert len(block.tx_list) <= 3 and len(block.carried_over) == row.carried_over
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


# SHA-256 of json.dumps(report.to_dict()) for 30-block runs of the default
# population with three proposers and a retry limit of 2, keyed by
# strategy and then (delay model, block cap, visibility horizon); the
# delayed and capped runs reach the cross-round arrival and carry-over paths
REPORT_DIGESTS = {
    "random": {
        ("none", None, 0): "3d6ef3a08aa445f768f556bec72e35165a3ba9914876a6583040afbe8e1e01e5",
        ("none", None, 1): "54be9b38eadc828a036246ca85161cf9c1583b3c9761bf6cd13410cbbf135202",
        ("none", None, 2.5): "e1bb158f1d7cb8667cea8966dcd050f771f38a811fdba760bd64db1d56a1f834",
        ("none", 5, 0): "5964a8b5b0c8d9cf75a41cea82976fd35c86245c51e064595c24e71eacdf9eb3",
        ("none", 5, 1): "04e8ce58cf1ced33a90baf9701914d90bc1b7d5b455b130267e4cbf103252354",
        ("none", 5, 2.5): "4cd406619925510bea6e1155433fbed9b78fa5d7f17e4699a2d3c283b6f0960b",
        ("fixed:2", None, 0): "68402ead1deb3cb9e0a5abdd35f5e71e7f007c011ca2f57fbc6b81717b5a5387",
        ("fixed:2", None, 1): "8836430a9d14a26de357709712ef4c0b2009fb83663148c1790e6c3b5612e985",
        ("fixed:2", None, 2.5): "836b1c01bdfb467849d689af4e679f9d27091b08af314bce8dbf230edb773c2b",
        ("fixed:2", 5, 0): "36fb613ab50a387e5741e9839daeb76d4ef87b773e1a4343a9f8067cb1de9e68",
        ("fixed:2", 5, 1): "108286b46964821aa6f676c76dcae571138b821241ce94791b7945b409644b5e",
        ("fixed:2", 5, 2.5): "f081f9f3622a56e2fc514c22795d06300ba556e0f84ad7f0d5dbc31144ea8071",
        ("uniform:3", None, 0): "a7aaa5508e8bda103907e3d5ab6636b39667705871da2f414a896d89aa994b98",
        ("uniform:3", None, 1): "2b8717a3300839ba8b939d97b9cf400c3f9f1a7de51916280005a33c7e32cbdb",
        ("uniform:3", None, 2.5): "ed33eb5fa6aff6a9b12140a2c58ecbecf0f51d53552c9be8bcdb7afe64c5547b",
        ("uniform:3", 5, 0): "12a784b09758b3fabf9f5f449801021c1d1d0c1fbc2031c78d9d9dc50a659de0",
        ("uniform:3", 5, 1): "af55ff1bf6a97a531aa3a19095212fc83ce193100863dd608796f041cd17ef49",
        ("uniform:3", 5, 2.5): "6476921fd76a9d2468785879cc35d8f4fe040f71b2f779b2b9acf6f045ca6076",
    },
    "joint_cardinality": {
        ("none", None, 0): "4fd28ec0a8049f018fd9e88f40b7709aaec468bb7dfca91f2f65cf772479a960",
        ("none", None, 1): "ed1815e11c62a34b129478ba95630f20f9e932b1bb4289abce7a27ec05b89a1e",
        ("none", None, 2.5): "3639791642a8f9422fe4c391a41fe5736fcaad072c7ec1b1df8de46ea505b622",
        ("none", 5, 0): "1df304ed359edda0128626c4258e18d43b432e8d4366cba97eeb81edd63e367a",
        ("none", 5, 1): "85f2c761cb71273393664069dc9a737114df3e732195fbffc6d509eee314b55f",
        ("none", 5, 2.5): "1d25c482636e8425ff67c7a12ec27406cf2cfb11af451087ddcb231640000eca",
        ("fixed:2", None, 0): "ab1adbee5003294f40ba3c7486f245d7d18f2f6195b895a1b99fe590223dbaab",
        ("fixed:2", None, 1): "a7987c15d5f2d2d73640e7e0d51ed294f8e7e8c40a7199d14b3878a176854bcd",
        ("fixed:2", None, 2.5): "2efd84000b7b2879c27f0b8a64e93ada30e3fbe8410b653f3c48cb0c230d0bab",
        ("fixed:2", 5, 0): "bbfe3ed6e4efff648206e93f5f4089af924ec24b52ea4f06f7d15f7f0ad2e178",
        ("fixed:2", 5, 1): "446c5cb6f847134d83cebfc6410128dd4e37227429019b7682f9440615578c64",
        ("fixed:2", 5, 2.5): "c6d49aa294d780a901dfa3112bb70e2252e6fe80b0af85149bc96165779a8622",
        ("uniform:3", None, 0): "ead57ab38cf5f3d59a8ddd7dcc743d2b5234af57d33aef5f013df09afc65f00d",
        ("uniform:3", None, 1): "3acd34485e9af3c40a80e1b7a038d4b1ff19655bf8548d3c06e3a2075ed7b23c",
        ("uniform:3", None, 2.5): "21cd3e28763f7c6b1e84b23e630cf6dc3eba0b70e73e1b236a6d9fcdb274a89b",
        ("uniform:3", 5, 0): "17dee610b4435f535e313e4d423821b77293ecfa5bd1b45f2609d5128f6d97d4",
        ("uniform:3", 5, 1): "f778f245f10d2b2ce1d737f3deff4da4573f8dd1eee28bcb8841267c87ab0c3d",
        ("uniform:3", 5, 2.5): "772e27e901d6e9006ec11379928afc6039653ef3c0208478fc8261f04632510d",
    },
    "metropolis": {
        ("none", None, 0): "a5aafc2d937fda44f4f11d738c0502939b59e8d31689927f11f617d6b6dc9507",
        ("none", None, 1): "582d1807b0d23efd71a2158ab40915c5479c1fd38553cd35c5f0ff31137d326a",
        ("none", None, 2.5): "62c151ac6391a3be840f24e5db5f87a7744f0d01962e3d3a2d1967a8a77cf70a",
        ("none", 5, 0): "77f9f7f57d766184b5d4f21c51f8a520e84578a5306ecc95130440208f54b09e",
        ("none", 5, 1): "c7775b1e8096c6ee439502e2739d8de5b9b661c50b961b09ab49c072dfe6d32f",
        ("none", 5, 2.5): "85ca1d2d720d3c5b7754d455186914e47f64b64d19446a9ccf3a69186b862b22",
        ("fixed:2", None, 0): "fe44251d427a16a628e033f3a1f3b8e176a3a2ec1fc5bcf0c358af1040d61993",
        ("fixed:2", None, 1): "ed992b5ebcdb5b6df60e72895d778807931a2ec6b82ff4ceb5d03b980fbff0a8",
        ("fixed:2", None, 2.5): "32cb73fd58f26797fe709caf67b0f3ab93fb3504232daf8c4aab09749cc5ec66",
        ("fixed:2", 5, 0): "049b73bd8da6285d2350488f1ff2ecefbe9d637053b02509d5a60da6c35b97be",
        ("fixed:2", 5, 1): "fd06f32a6d047fe440195cc6f958a611a7d79f5b37e586cd65a59c789f891fe5",
        ("fixed:2", 5, 2.5): "36ecbab210820d2773bb3d9508d8398efeafcf2a74013206ec0680493c841540",
        ("uniform:3", None, 0): "c823ea5868bdf30ab279bd53243bc0cea776097171d31e8e6cba28f579ba0d10",
        ("uniform:3", None, 1): "9137f75d3914f1e53c9558c20ef66167a0507a0928ef939fd21ba611769030da",
        ("uniform:3", None, 2.5): "d26fe01bc5bd6fab5914ff1975508921fdf8c0e5ef39397ef246412eb1a19c5d",
        ("uniform:3", 5, 0): "69b6b9efd82f8a70dd16e18d5b218c1b55d3c9fdde0b76a87f5def3740353bb5",
        ("uniform:3", 5, 1): "9a298373e13f56ca9924fc85345df7e05cebcd6ed5c25aad0cecc9db692a6ea6",
        ("uniform:3", 5, 2.5): "844750f7e5fce3275a4eef2b6fdd5fcd40994d9b3468b75a62bc4e6d75e563ee",
    },
    "greedy": {
        ("none", None, 0): "d4b63ecc21a8f9ceb2cd714f98e84099b63eb28c2e4fc20d8c1a3ec9f2849402",
        ("none", None, 1): "1227b2f97cd8989d9aaeabd2140b40fb4282401219473eb53f596f658b8b264c",
        ("none", None, 2.5): "557053b3dace87d441e1d8f8c9fa18d942e5aa51ba3eab2053d3404ff99f1a1b",
        ("none", 5, 0): "4896cf743f05585687e583b7a3064626a5122b30f5ef698e00e36e434cc579cc",
        ("none", 5, 1): "fae7a8d44703bcef6179e4199ea50f0d27d4f6d9bc07a6efe10d259570480f43",
        ("none", 5, 2.5): "3c562b2c89c7e0a2b81d0ef89410d6e85d3ab2475706b73595f23433942b463f",
        ("fixed:2", None, 0): "981839fa8bc13380cf54bf72565b80df1427760a385b2919eac59bc2c3994e02",
        ("fixed:2", None, 1): "3caabe6492e5470ed813e9c4d47cf93cdf1efe6d7a1f3b4d1d7f326e29f88d49",
        ("fixed:2", None, 2.5): "b366ea288be2cc354dd01453290e7ed15a6421a385e15c80223f5b08a06c4e2e",
        ("fixed:2", 5, 0): "cab2b0b222a79a7d3dce4586314f3c96356d4f476820d87c98b770c345e679eb",
        ("fixed:2", 5, 1): "d8a7337fd964728860a802175f971e30a0e5326163093ca054cf1b8a0e9d6e0d",
        ("fixed:2", 5, 2.5): "e0897084d492f90ab384d4cd14e78d74fc4eb61e0b38be60ec3f62d638ff72cc",
        ("uniform:3", None, 0): "79864c28333fd2006e71beb4dcce0790f872fad05722358b5d74e59e6f5a63eb",
        ("uniform:3", None, 1): "aa4b244aa0b8d3d38eced5b1ec8c6ddc130e55805aed13896edee7996d2100d9",
        ("uniform:3", None, 2.5): "bc16d0093889ade4825ec348402d1e1f116f41681a3027571d4b3666bcda78be",
        ("uniform:3", 5, 0): "0f793bdcb91815940453a70421e1b97de7ba308c3d8257c455f1d9813556e53f",
        ("uniform:3", 5, 1): "9f91e1e5e111a35baaaada91aefca51cb8fce15d0c0c5082decfb8eb8f38c286",
        ("uniform:3", 5, 2.5): "44a984ed1b5d863f8900752eddec8bb128ecd5ee5b1fba87a82f9b3d88d56741",
    },

}


@pytest.mark.parametrize("kind", sorted(REPORT_DIGESTS))
def test_report_digests_are_pinned(kind):
    got = {}
    for delay, cap, horizon in REPORT_DIGESTS[kind]:
        config = SimConfig(
            n_proposers=3,
            carryover_retry_limit=2,
            strategy=AttachmentStrategy(kind),
            delay_model=DelayModel.parse(delay),
            max_block_txs=cap,
            visibility_horizon=horizon,
            n_blocks=30,
        )
        report = json.dumps(run_simulation(config).to_dict()).encode()
        got[(delay, cap, horizon)] = hashlib.sha256(report).hexdigest()
    assert got == REPORT_DIGESTS[kind]


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
