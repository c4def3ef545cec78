"""End-to-end simulation runs: determinism, accounting, finality, knobs."""

import dataclasses
import hashlib
import json
import math
import os
import random
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import raises_exactly, recording_finalize, recording_proposal_body, replay_ledger
from minagree import harness
from minagree.attachment import STRATEGY_NAMES, AttachmentStrategy
from minagree.dag import Dag, _be8, _sha256
from minagree.errors import ConfigInvalid, SimulatorError
from minagree.harness import (
    FEE_CAP,
    FEE_GEOMETRIC_P,
    CensorshipRow,
    DelayModel,
    SimConfig,
    _geometric_fees,
    _Run,
    bandwidth_estimate,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)
from minagree.incentives import RewardPolicy
from minagree.rounds import compute_block_hash, merkle_root

FIXTURES = Path(__file__).parent / "fixtures"


def reference_fee(rng: random.Random) -> int:
    """One geometric fee, drawn one ``rng.random()`` at a time."""
    fee = 1
    while fee < FEE_CAP and rng.random() >= FEE_GEOMETRIC_P:
        fee += 1
    return fee


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


def test_trivial_single_actor_run(monkeypatch):
    config = SimConfig(
        seed=7, n_stakers=2, n_attachers=1, committee_size=1, n_proposers=1, n_blocks=5
    )
    final = []
    monkeypatch.setattr(harness, "finalize", recording_finalize(final))
    report = run_simulation(config)
    assert len(report.rows) == 5
    assert [block.round for block in final + list(report.chain.blocks.values())] == list(range(5))
    assert report.aggregates["finalized_height"] == 2  # lag two: 3 blocks final


def test_reports_are_byte_identical_across_runs():
    config = small_config()
    first = json.dumps(run_simulation(config).to_dict()).encode()
    second = json.dumps(run_simulation(config).to_dict()).encode()
    assert first == second


def test_different_seeds_differ():
    a = run_simulation(small_config(seed=1)).to_dict()
    b = run_simulation(small_config(seed=2)).to_dict()
    assert a != b


def test_zero_mempool_rate_still_advances_chain(monkeypatch):
    final = []
    monkeypatch.setattr(harness, "finalize", recording_finalize(final))
    report = run_simulation(small_config(mempool_rate=0, n_blocks=8))
    blocks = final + list(report.chain.blocks.values())
    assert [block.round for block in blocks] == list(range(8))
    assert all(row.fees == 0 for row in report.rows)
    assert all(block.proposal.body.tx_list == () for block in blocks)
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


def test_finality_audit_lag_exactly_two(monkeypatch):
    final = []
    monkeypatch.setattr(harness, "finalize", recording_finalize(final))
    chain = run_simulation(small_config(n_blocks=40)).chain
    assert chain.finalized_height == 37
    blocks = final + list(chain.blocks.values())
    assert [block.round for block in blocks] == list(range(40))
    prev = None
    for r, block in enumerate(blocks):
        proposal = block.proposal
        if prev is not None:
            assert proposal.prev_block_hash == prev.block_hash
        assert block.block_hash == compute_block_hash(proposal.prev_block_hash, proposal.body.merkle_root, r)
        prev = block


def test_chain_keeps_only_unfinalized_blocks(monkeypatch):
    bodies, final = [], []
    monkeypatch.setattr(harness, "proposal_body", recording_proposal_body(bodies))
    monkeypatch.setattr(harness, "finalize", recording_finalize(final))
    config = small_config(n_blocks=30, mempool_rate=6, max_block_txs=3, carryover_retry_limit=1)
    chain = run_simulation(config).chain
    assert sorted(chain.blocks) == list(range(chain.finalized_height + 1, config.n_blocks)) == [28, 29]
    assert chain.finalized_hash == final[-1].block_hash
    blocks = final + list(chain.blocks.values())
    assert len(bodies) == len(blocks) == config.n_blocks
    for r, (block, body) in enumerate(zip(blocks, bodies)):
        assert block.round == r
        assert block.proposal.body is body
        assert body.merkle_root == merkle_root(body.tx_list)
    assert any(body.tx_list for body in bodies)


@pytest.mark.parametrize("delay", ["none", "fixed:2"])
def test_every_unsettled_fee_is_queued_or_listed(delay):
    # a dropped transaction can settle only through a copy that an active
    # vertex lists; once none does, its fee is retired
    config = SimConfig(
        seed=7, mempool_rate=50, max_block_txs=40, carryover_retry_limit=1, n_blocks=60,
        delay_model=DelayModel.parse(delay),
    )
    run = _Run(config)
    for r in range(config.n_blocks):
        run.round(r)
        assert all(txh in run.mempool or run.dag.is_listed(txh) for txh in run.fees)
    assert run.retired > 0


@pytest.mark.parametrize("seed", [0, 9])
def test_geometric_fees_match_one_draw_at_a_time(seed):
    rng, reference = random.Random(seed), random.Random(seed)
    fees = _geometric_fees(rng, 20_000)
    assert fees == [reference_fee(reference) for _ in range(20_000)]
    assert rng.getstate() == reference.getstate()
    assert FEE_CAP in fees  # the cap ends a fee without its last draw


@pytest.mark.parametrize("rate", [0, 1, 37])
def test_inject_matches_per_hash_reference(rate):
    # the n-th injected transaction is _sha256(b"tx", seed, _be8(n)); its
    # fee is the next geometric draw, and nothing else draws in between
    run = _Run(small_config(mempool_rate=rate))
    rng = random.Random()
    fees, mempool = {}, {}
    for r in (0, 1, 5):
        run.seed = hashlib.sha256(b"beacon %d" % r).digest()
        rng.setstate(run.rng.getstate())
        for n in range(r * rate + 1, (r + 1) * rate + 1):
            txh = _sha256(b"tx", run.seed, _be8(n))
            fees[txh] = reference_fee(rng)
            mempool[txh] = 0
        run.inject(r)
        assert list(run.fees.items()) == list(fees.items())
        assert list(run.mempool.items()) == list(mempool.items())
        assert run.rng.getstate() == rng.getstate()


@pytest.mark.parametrize("delay", ["none", "fixed:2"])
def test_long_run_bit_width_stays_bounded(delay):
    # a prune shifts the masks down to the lowest surviving bit and leaves
    # the bits of later pruned vertices as holes; they must not pile up
    config = SimConfig(seed=7, n_blocks=300, delay_model=DelayModel.parse(delay))
    run = _Run(config)
    for r in range(config.n_blocks):
        run.round(r)
        assert all(run.dag.own_bit(vid).bit_length() <= 2 * config.n_attachers for vid in run.dag.vertices)


def _traced_peak(n_blocks: int) -> int:
    config = SimConfig(seed=7, mempool_rate=50, max_block_txs=40, carryover_retry_limit=1, n_blocks=n_blocks)
    tracemalloc.start()
    try:
        run_simulation(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_run_peak_memory_grows_little():
    # traced allocations do not depend on host load; what still grows with
    # the run is the DAG's boundary markers, the frontier, the reward
    # history and the rows
    assert _traced_peak(400) - _traced_peak(100) <= 650_000


def test_block_cap_carries_and_requeues(monkeypatch):
    bodies = []
    monkeypatch.setattr(harness, "proposal_body", recording_proposal_body(bodies))
    report = run_simulation(
        small_config(n_blocks=25, mempool_rate=6, max_block_txs=3)
    )
    assert any(row.carried_over > 0 for row in report.rows)
    for row, body in zip(report.rows, bodies, strict=True):
        assert len(body.tx_list) <= 3 and len(body.carried_over) == row.carried_over
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


def _checked_prune(rounds_seen: list):
    """Dag.prune_finalized that then asserts that every active vertex
    belongs to the round of this prune, the n-th prune being round n."""
    prune = Dag.prune_finalized

    def checked_prune(dag, roots):
        prune(dag, roots)
        r = len(rounds_seen)
        rounds_seen.append(r)
        assert all(vertex.round == r for vertex in dag.vertices.values())

    return checked_prune


@pytest.mark.parametrize("cap", [None, 5], ids=["uncapped", "cap5"])
@pytest.mark.parametrize("delay", ["none", "fixed:2", "uniform:3"])
@pytest.mark.parametrize("kind", ["random", "joint_cardinality", "metropolis", "greedy"])
def test_no_tip_outlives_its_round(monkeypatch, kind, delay, cap):
    # every vertex of round r-1 is a target of round r and is pruned with
    # its block, so no vertex, tips included, outlives the round after its
    # own; run_simulation takes each round's targets from this invariant
    rounds_seen = []
    monkeypatch.setattr(Dag, "prune_finalized", _checked_prune(rounds_seen))
    config = SimConfig(
        strategy=AttachmentStrategy(kind),
        delay_model=DelayModel.parse(delay),
        max_block_txs=cap,
        n_blocks=20,
    )
    run_simulation(config)
    assert rounds_seen == list(range(config.n_blocks))


@st.composite
def small_configs(draw):
    n_stakers = draw(st.integers(1, 8))
    shares = st.fractions(min_value=0, max_value=1, max_denominator=12)
    return SimConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        n_stakers=n_stakers,
        n_attachers=draw(st.integers(1, n_stakers)),
        committee_size=draw(st.integers(1, n_stakers)),
        n_proposers=draw(st.integers(1, 3)),
        strategy=AttachmentStrategy(draw(st.sampled_from(STRATEGY_NAMES))),
        n_blocks=draw(st.integers(1, 12)),
        mempool_rate=draw(st.integers(0, 12)),
        delay_model=DelayModel.parse(draw(st.sampled_from(["none", "fixed:1", "fixed:3", "uniform:2"]))),
        reward_policy=RewardPolicy(
            base_block_reward=draw(st.integers(0, 20)),
            non_producer_share=draw(shares),
            decouple_window=draw(st.integers(1, 5)),
            committee_share=draw(shares),
        ),
        max_block_txs=draw(st.none() | st.integers(0, 8)),
        visibility_horizon=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        carryover_retry_limit=draw(st.none() | st.integers(0, 3)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_configs())
# a zero retry limit under a tight cap drops transactions that sibling copies settle later
@example(SimConfig(seed=7, max_block_txs=2, carryover_retry_limit=0, n_blocks=20))
def test_run_simulation_invariants(config):
    # patched in the body: a function-scoped monkeypatch would span examples
    prune, build, final_at = Dag.prune_finalized, harness.proposal_body, harness.finalize
    rounds_seen, bodies, final = [], [], []
    Dag.prune_finalized = _checked_prune(rounds_seen)
    harness.proposal_body = recording_proposal_body(bodies)
    harness.finalize = recording_finalize(final)
    try:
        report = run_simulation(config)
    finally:
        Dag.prune_finalized, harness.proposal_body, harness.finalize = prune, build, final_at

    agg = report.aggregates
    blocks = final + list(report.chain.blocks.values())
    assert [block.round for block in blocks] == list(range(config.n_blocks))
    assert rounds_seen == list(range(config.n_blocks))
    assert len(bodies) == config.n_blocks
    assert agg["total_txs_injected"] == config.mempool_rate * config.n_blocks
    # replayed from the block bodies: a transaction listed by several blocks settles once
    replayed = replay_ledger(bodies, agg["total_txs_injected"], config.carryover_retry_limit)
    assert {key: agg[key] for key in replayed} == replayed
    if config.max_block_txs is not None:
        assert all(len(body.tx_list) <= config.max_block_txs for body in bodies)
    for block, body in zip(blocks, bodies):
        proposal = block.proposal
        assert proposal.body is body
        assert merkle_root(body.tx_list) == body.merkle_root
        assert block.block_hash == compute_block_hash(proposal.prev_block_hash, body.merkle_root, block.round)
    paid = sum(agg["balances"].values()) + Fraction(agg["reward_residual"])
    base = config.reward_policy.base_block_reward
    assert paid == agg["total_fees_collected"] + base * config.n_blocks
    assert agg["finalized_height"] == max(config.n_blocks - 3, -1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_configs())
@example(SimConfig(seed=7, max_block_txs=2, carryover_retry_limit=0, n_blocks=20))
def test_dropped_set_is_unsettled_minus_queued(config):
    # retire reads the dropped set in place of the difference of the fee
    # and mempool keys, so the two must agree after every round
    run = _Run(config)
    for r in range(config.n_blocks):
        run.round(r)
        assert run.dropped == run.fees.keys() - run.mempool.keys()


def test_delay_model_parsing():
    assert DelayModel.parse("none") == DelayModel()
    assert DelayModel.parse("fixed:2") == DelayModel("fixed", 2)
    assert DelayModel.parse("uniform:3") == DelayModel("uniform", 3)


def test_delay_models_run_and_change_outcomes():
    base = run_simulation(small_config(n_blocks=15)).to_dict()
    fixed = run_simulation(small_config(n_blocks=15, delay_model=DelayModel("fixed", 1)))
    uniform = run_simulation(small_config(n_blocks=15, delay_model=DelayModel("uniform", 2)))
    assert len(fixed.rows) == len(uniform.rows) == 15
    assert fixed.to_dict() != base


def test_strict_synchrony_via_fixed_delay(monkeypatch):
    # fixed:1 hides vertices for a whole round, so every attacher of a
    # round works from the previous round's frontier only
    final = []
    monkeypatch.setattr(harness, "finalize", recording_finalize(final))
    report = run_simulation(
        small_config(n_blocks=10, n_attachers=3, delay_model=DelayModel("fixed", 1))
    )
    assert [block.round for block in final + list(report.chain.blocks.values())] == list(range(10))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DelayModel("sometimes"), "unknown delay model 'sometimes'"),
        (lambda: DelayModel("none", 2), "delay model 'none' takes no round count"),
        (
            lambda: DelayModel.parse("sometimes"),
            "expected 'none', 'fixed:<rounds>' or 'uniform:<rounds>', got 'sometimes'",
        ),
        (lambda: DelayModel.parse("fixed:0"), "delay model 'fixed' needs rounds >= 1"),
        (lambda: small_config(n_attachers=10), "n_attachers cannot exceed n_stakers"),
        (lambda: small_config(n_blocks=0), "n_blocks must be >= 1, got 0"),
        (lambda: small_config(mempool_rate=-1), "mempool_rate must be >= 0"),
        (lambda: small_config(visibility_horizon=-0.5), "visibility_horizon must be >= 0"),
        (lambda: dataclasses.replace(SimConfig(), n_stakers=0), "n_stakers must be >= 1, got 0"),
        (
            lambda: SimConfig(n_stakers=4, n_attachers=4, committee_size=5),
            "committee_size cannot exceed n_stakers",
        ),
        (lambda: SimConfig(max_block_txs=-1), "max_block_txs must be >= 0 when set"),
        (lambda: SimConfig(carryover_retry_limit=-1), "carryover_retry_limit must be >= 0 when set"),
    ],
    ids=[
        "unknown_delay_kind", "none_with_rounds", "parse_unknown_form", "parse_fixed_zero",
        "n_attachers", "n_blocks", "mempool_rate", "negative_horizon", "n_stakers",
        "committee_size", "max_block_txs", "carryover_retry_limit",
    ],
)
def test_harness_validation_errors(call, message):
    raises_exactly(call, ConfigInvalid, message)


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
# delayed and capped runs reach the cross-round arrival and carry-over paths.
# At 8 attachers horizon 0 never draws and horizons 1 and 2.5 always draw
# for each earlier vertex of the round; only horizon 0.5 (4 slots) mixes
# vertices seen for certain with vertices that take a visibility draw
REPORT_DIGESTS = {
    "random": {
        ("none", None, 0): "a3e84eb9e12b59dcd78181ab3aa42b2fa28379133132c6cb27a6646bc948759a",
        ("none", None, 0.5): "7652240d4d869df9a092118ba8bbd66c250a33a349e2b123bd0bf94f3e347981",
        ("none", None, 1): "61845ccd09d281c85d82326938cba2fe24d640d4d578c3b5d4662c704810703d",
        ("none", None, 2.5): "4553d7bcfd9d16f966aa0a47804156782fd8198ec202ea2015d9e2e1e2da9e4c",
        ("none", 5, 0): "89e51154eaf86d33d8e8fcf9f589b53b7a46d79a5c2ae6b503752399083886dc",
        ("none", 5, 0.5): "5e1bf5db1f194650a08d003928c8dfed436a5e063f0898bc7c1217ed35fd4fd3",
        ("none", 5, 1): "db35fffcc4c3a364e9b5c716ce7e21954d663a3f60a4d013f105cfa68e915276",
        ("none", 5, 2.5): "d2c4c2acc8029927a9b61ae4519cd527c51a8f070ea5d178b4ff1c290714d07f",
        ("fixed:2", None, 0): "16a92e160a87be70d16d60382c0770697ae9ea355ed2e0dcee60b3dcce406c25",
        ("fixed:2", None, 0.5): "e29f0c49f7b8cb29a6428027351497610a91780f1a221d4c722ca2f575f410c5",
        ("fixed:2", None, 1): "0c568e2cf5c81f123a8ecf7b231fc0ab7ff986dedb1711a200faafd64a93735e",
        ("fixed:2", None, 2.5): "cba97c74bd1374aae2f1cd9712546242591e465d1d3cb779ddf794166e99d704",
        ("fixed:2", 5, 0): "083ec8f3818305aa95e9e47186d753d59ff82d85ffe37192dfc5647158b7a9c6",
        ("fixed:2", 5, 0.5): "0a45c11123a2a4ae586f088925b805a110b36fcb911a7180ead0d046b59f2f19",
        ("fixed:2", 5, 1): "64a1c99fccb75e46de7c306865e221cbf9952b9ac7c50734ea62f6ae5bc826ff",
        ("fixed:2", 5, 2.5): "cd2baabbb43024c47df8d42a116da247b02af200c14fd7d286ef0f9061e2f2c3",
        ("uniform:3", None, 0): "fa591048d26036a57617f41e6f5b53892e6465460cc868d6d7c251ad40ff18e7",
        ("uniform:3", None, 0.5): "38f8e92bf619f7141fb1a7927bb29d18659952055cc79373d8351a60bf6debcb",
        ("uniform:3", None, 1): "5edbdcbf6d1930a90dd2be3556ab00a5c4e1430c05157076d714a4622a39681a",
        ("uniform:3", None, 2.5): "65fc23665eabb21eeeae14dd9577f7cb2bd88f4c7b33d6a7bbc98f1109b979e0",
        ("uniform:3", 5, 0): "e42fc2d67ea193cfa591c64f23c735511c70b65a2e485c4a6bbdf37b5ca65937",
        ("uniform:3", 5, 0.5): "87155495c1f57e77602d1bb64c592be0427afa53bcefc302045c4d5c3d225210",
        ("uniform:3", 5, 1): "44b22ba9449e9b46a29c697835b0781259e8d68088a95af66f0fd7c7a617b307",
        ("uniform:3", 5, 2.5): "6adcdf61ae59a1137ee48d463d133c821477a4d92795defcb49e2e3fe37d63e6",
    },
    "joint_cardinality": {
        ("none", None, 0): "3d67a7a476b674874ab1a83799c8a56512b8ebf69f86db0ae2cd711d3559da06",
        ("none", None, 0.5): "1031164c0e1e3a72ce880a3288fe0d2056de28461c951f192c0d6d555582a1ae",
        ("none", None, 1): "be0a15ecce419bde4be033b1f518d6c6c173494d5efbbafed2ee111c7e0fc1de",
        ("none", None, 2.5): "48286c05885e098701ca31c3ed0edd44ff8263a4ed18215fca3c4510e11d0781",
        ("none", 5, 0): "1f5884f871d9d95e1a66a2c6d1bd54db20c85783160e46568df07a038ab22ef8",
        ("none", 5, 0.5): "a92483bf77fa27e5cf46f0d6ad97a42520f57fd859efbfe4434b4c4a37fc2ae3",
        ("none", 5, 1): "bdc0fd633e53a1776cbbe15ff5735ee9810c57b60a4bd629eb42f30b6d2becb2",
        ("none", 5, 2.5): "b48201d2f2237b02bc3a717cdb46f469b07d869b41908c0a9b59e4886183b774",
        ("fixed:2", None, 0): "eb47a2d4aa6b86110e3c2a34827fc059413dfab3ad333392f3fa23e25228294d",
        ("fixed:2", None, 0.5): "8f956dc9146d3948531e07921ad55ccb62d8b3f04d35a099ff13ca25e219e4b7",
        ("fixed:2", None, 1): "3653a0ea254e67df2c5de0c28a88fb3a2d2f28aa2c3a1fa4727b00b74b790ce0",
        ("fixed:2", None, 2.5): "559b773546ebeb3990bc4a79a2745060f8e5a6a8d138423dd5320b7bcbedfb19",
        ("fixed:2", 5, 0): "9b31278fee929b737bc414b02f0495a450df6238073e145962e1b96444b612ae",
        ("fixed:2", 5, 0.5): "16e66eff163d56f61bd5ccc8a6827ad5e734d701a7032c8f52ead2708191f667",
        ("fixed:2", 5, 1): "6faf1a02f2adf4c7b661df7e90a47457f310a9f0abd56e1360bbc45b222dbd79",
        ("fixed:2", 5, 2.5): "abddf15313e3c5591102664c56463cbedd86fbc18c05504a8f41cf6aea2be97c",
        ("uniform:3", None, 0): "acef89fb3a3f31dfa9c677c923064b7a0145fce5c75e35f4742cc149ea53e077",
        ("uniform:3", None, 0.5): "4faca8753c59177bbb79690f033672570fedc9770cb3f44454a036d5f67bb322",
        ("uniform:3", None, 1): "a1875cec300af09abda741dcde35a1ece81ac0d4cb84b246a610c333939ac460",
        ("uniform:3", None, 2.5): "87d083da3c76d77d998022fa3ca9c80fa53de780143bbffc38b93713a7060a78",
        ("uniform:3", 5, 0): "3bc71d7c8dd90caeea85b27cdcfbadb972fc3f4199a16dffa57c8eb55c25b7d1",
        ("uniform:3", 5, 0.5): "fda7605e26523397280e6e594afdffc6c0b843e2bfc1931a342ca99a52be36d1",
        ("uniform:3", 5, 1): "5454284ac02d2f8ab5f2bd5cc7ea71058b35dddf9896eb1ce0e2a6fb9069512f",
        ("uniform:3", 5, 2.5): "1fa59f401128f3a49052f2ce6420afba48f01bbfeed48f17637f4b5b61b568f8",
    },
    "metropolis": {
        ("none", None, 0): "8e581f846b561c483cba79109e8492d14a9ed1b7448820ff2142a90d08bc7033",
        ("none", None, 0.5): "410082783989e3e42b79c765e3477e69933af0b10c05512939f3cf8a5ec0b6d9",
        ("none", None, 1): "8d54e8d328f06b7e9e8bf049ec622ecf47d81499e7dbda292a1b3485145dc5f8",
        ("none", None, 2.5): "768ddc3e8cc279975f13d2e6917b06ed9132c1d1882e4971eb7a494a0e59c616",
        ("none", 5, 0): "91aad75c1e572a34edc1f7fee8916f2e55d674356b4ad860164cc5c3449c8df2",
        ("none", 5, 0.5): "a0064fd7f2c4edb98fed44117b0f0fad721f322de04e8188e2277d13bd5b3e46",
        ("none", 5, 1): "a516dc70afb55da559da04f13b27b74693538fc4b41b9d8a13dfd11e1e6df8f2",
        ("none", 5, 2.5): "1fbbd5172969e5ede1a077c09a5d4e8150a3ff608b986319a82c94a6f102bc5f",
        ("fixed:2", None, 0): "000f48ed73979922ea71b967f8ea28a870dd3826cf36df372d163174590a84d8",
        ("fixed:2", None, 0.5): "ac76a8a236a7af92bb8cbb3a913307db34528c73445a6659781c77a2d4cd6799",
        ("fixed:2", None, 1): "75d10f057aa3bf4520a2f8a840f2f6afecb93c23144c0f71e10e798291c70cbe",
        ("fixed:2", None, 2.5): "9d0ad78a2109561341626cb2b060c633583abe2858d1bd786e2904ddbb5365ba",
        ("fixed:2", 5, 0): "9cdd1f383cc8b02aff3ac264f02f9657f01bd3f88d646da9c83569a2ef4c63cd",
        ("fixed:2", 5, 0.5): "3c25a75caae6990e095d76e4a4d1388d44845f189b1a8393508ccd35db5472bd",
        ("fixed:2", 5, 1): "87c703a720e49cdc03d7f2b2db6c0e00d085c4be3752611a6fe288331ff060b0",
        ("fixed:2", 5, 2.5): "37f3abd61bdd47086add5a1e8216a40b8fa6829c03cbe66bd5fac024254163f2",
        ("uniform:3", None, 0): "0636f52a07e479ac700de15be44de76828f80cc26dc044547fe2ea9b0f848757",
        ("uniform:3", None, 0.5): "3aff8698dbf99aea8ebdc0cf0f6184ed66e81b678f03c8fffc6fefb0407173d1",
        ("uniform:3", None, 1): "e01403c934eb7eff343678337a81c7aaadb5e36ebec5ccb4bf760d56261033f5",
        ("uniform:3", None, 2.5): "1606e26aee76b15380c2e6d625399c4c019f9d966dc16b536b228ee0cbc8e71c",
        ("uniform:3", 5, 0): "4ce2ffd72d09b5142af5660c3a80db6328223a3cb51c709b932e265016612299",
        ("uniform:3", 5, 0.5): "4b9c8523762bee7f8bd7a56621ec3ce856234669f677517e9f7a0b9b72a27dc4",
        ("uniform:3", 5, 1): "c18ee9d5a32d89d7051e948da9096b9bfb9b27dcf10e564944ce425b12db3049",
        ("uniform:3", 5, 2.5): "c06eb49f385a7600cffe725a65e87b70667fecc5fac6da1a2cda334fbc9fd37a",
    },
    "greedy": {
        ("none", None, 0): "312cf7a49f3537f441028f0bac7ffecbfac169d0417633930f810111bc716074",
        ("none", None, 0.5): "2b06f0b3ddc18d282f70dd0c916bbfa5d40d6da0b5965724b35950a16222f453",
        ("none", None, 1): "fad79935899835b08aba9368e98302dd21ce080f54b7bc0cd8a9f5db15d46f09",
        ("none", None, 2.5): "ebd20c7eb367622d12fa94c43beb0ab48226c1840847fb44e928b8c5c8504196",
        ("none", 5, 0): "e24b0c8eca692b5fe22c32945533be1be6047ebf4c411e55655e090bdf5e5063",
        ("none", 5, 0.5): "ddbb77b9bcfac6a4a198887bf1c3bec4e3744324953f6c747875103c319b210c",
        ("none", 5, 1): "c4b32382daff54032b9c2a9cf986136b68718151d9dd89297d71264cea146ce6",
        ("none", 5, 2.5): "dc35426dc1befc51d6aa1a0103d76767acc70ad92df673421650ed92e7b4afd2",
        ("fixed:2", None, 0): "f789ca18686d002ec4294428397efc6dad76a87aa427deb8aec199550874c2b3",
        ("fixed:2", None, 0.5): "70f0c919c8ff930c2eeedca2fe8bf6479202a84d3b690bd507ce0c37237dd3e3",
        ("fixed:2", None, 1): "39ef84f81ad61632f702da6f6311d86a0184a756637c7389559219b176a77ad8",
        ("fixed:2", None, 2.5): "b68cbc24d5a0788f5d853c325e36a39f1e3a7e51923d4fda06b55eed986a4075",
        ("fixed:2", 5, 0): "75c008eb26e41807efb9a678acab3dd728e9e4ff2e2ae3e1a2067f044362437f",
        ("fixed:2", 5, 0.5): "eb89589a60303934d7dd8afeac83a8dd1048ad41080de06c6f8d97337349fe96",
        ("fixed:2", 5, 1): "0b357694fddbcfc959ad7116f661a596785ef46bc60b54d518ac1ff5ee9078dd",
        ("fixed:2", 5, 2.5): "b1277eb5872b97a9ba0f58bd616f78e468a54903a639c922a65b44d1a56d7f2a",
        ("uniform:3", None, 0): "41d1ae708c7835691c591ef1c5ba9b20b6a6385fe124097ed14aceb7731d649b",
        ("uniform:3", None, 0.5): "aabba31a5dd465f9a0839272c375def80b269f903033fc14512e8acd7c63c421",
        ("uniform:3", None, 1): "316417e772f6a3beccc9364e27f2518af1332fe839ef76774af92e2ff70d56dd",
        ("uniform:3", None, 2.5): "1c851f33b70aba066be33b56fda21fad592749e1b1208364eed60fab7f8adfae",
        ("uniform:3", 5, 0): "0fa378ec0085f2c51d52f7be1980a00526277f58b0bb0cfb80f7f20e1567c843",
        ("uniform:3", 5, 0.5): "679a1e7e5a156514e0c0a6bd2797e1f7ed4948337d26a13d625e94ad220609fb",
        ("uniform:3", 5, 1): "a0e77289ca627e3d4f18e83b4897f4838ef4b605ec4deb542399638b922cdb4c",
        ("uniform:3", 5, 2.5): "83447ade1642aa11ed206fbe4070f70a6967cdaefbe43d4a95793481d4eb9787",
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
        SimConfig(visibility_horizon=horizon)


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


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_cells_give_the_serial_rows_in_row_order(monkeypatch):
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    sizes, rows = [1, 5, 40], {}
    for workers in (2, 1):
        monkeypatch.setattr(harness, "_cell_workers", lambda workers=workers: workers)
        rows[workers] = [
            [c.to_dict() for c in table1_experiment(STRATEGY_NAMES, sizes, n_blocks=6, visibility_horizon=h)]
            for h in (0.5, 1)
        ]
        _no_children_left()
        # 2 horizons x 4 strategies x 3 sizes, one child each, then none
        assert len(forks) == 24
    assert rows[2] == rows[1]
    for grid in rows[2]:
        assert [(c["strategy"], c["n_vertices"]) for c in grid] == [(s, n) for s in STRATEGY_NAMES for n in sizes]


@pytest.mark.parametrize("workers", [2, 1])
def test_a_failing_cell_raises_its_own_error(monkeypatch, workers):
    real_run = harness.run_simulation

    def failing_run(config):
        if config.n_attachers == 1:
            raise SimulatorError(f"no cell of {config.n_attachers} attacher")
        return real_run(config)

    monkeypatch.setattr(harness, "run_simulation", failing_run)
    monkeypatch.setattr(harness, "_cell_workers", lambda: workers)
    # the cells of 120 run first, so one may still run when the cell of 1 fails
    raises_exactly(
        lambda: table1_experiment(["random", "greedy"], [1, 120], n_blocks=6),
        SimulatorError,
        "no cell of 1 attacher",
    )
    _no_children_left()


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        (dict(sizes=[5, 0]), ConfigInvalid, "sizes must be in [1, 2**64), got 0"),
        (dict(sizes=[5], visibility_horizon=-0.5), ConfigInvalid, "visibility_horizon must be >= 0"),
        # finite for the cell of 1 attacher, not for the cell of 10
        (dict(sizes=[1, 10], visibility_horizon=1e308), ConfigInvalid, "visibility_horizon must be finite"),
        (
            dict(sizes=[5], strategies=["random", "psychic"]),
            ValueError,
            "unknown strategy 'psychic'; expected one of random, joint_cardinality, metropolis, greedy",
        ),
    ],
    ids=["size_zero", "negative_horizon", "horizon_overflows_late", "unknown_strategy"],
)
def test_bad_table1_input_raises_before_any_fork(monkeypatch, kwargs, error, message):
    def no_fork():
        raise AssertionError("forked before every cell was checked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(harness, "_cell_workers", lambda: 2)
    kwargs.setdefault("strategies", ["random", "greedy"])
    raises_exactly(lambda: table1_experiment(n_blocks=4, **kwargs), error, message)
    _no_children_left()


def test_cells_reap_only_their_own_children(monkeypatch):
    monkeypatch.setattr(harness, "_cell_workers", lambda: 2)
    pid = os.fork()
    if pid == 0:
        os._exit(7)
    try:
        cells = table1_experiment(["random", "greedy"], [5, 40], n_blocks=4)
    finally:
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 7
    assert len(cells) == 4
    _no_children_left()


def test_a_live_thread_forces_serial_cells():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert harness._cell_workers() == 1
    finally:
        release.set()
        thread.join(timeout=5)
    assert not thread.is_alive()


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


@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("max_depth", [8, 109])
@pytest.mark.parametrize(
    "policy",
    [
        RewardPolicy(),
        RewardPolicy(base_block_reward=5, non_producer_share=Fraction(1, 3), hard_alpha=Fraction(2, 3)),
    ],
    ids=["default", "shared"],
)
def test_censorship_experiment_matches_comb_closed_form(seed, max_depth, policy):
    # the comb has L spine levels and L - 1 side tips, 2L - 1 attachable
    # vertices; censoring depth d forfeits the target, the 2d spine and
    # side vertices above it
    config = small_config(seed=seed, reward_policy=policy)
    levels = max_depth + 2
    rng = random.Random(seed)
    pot = sum(reference_fee(rng) for _ in range(levels)) + policy.base_block_reward
    n_vertices = 2 * levels - 1
    rows = censorship_experiment(config, range(max_depth + 1))
    assert [r.depth for r in rows] == list(range(max_depth + 1))
    for r in rows:
        lost = 2 * r.depth + 1
        assert r.soft_cost == (1 - policy.non_producer_share) * pot * Fraction(lost, n_vertices)
        assert r.hard_feasible == (n_vertices - lost >= math.ceil(policy.hard_alpha * n_vertices))


def test_censorship_experiment_rejects_bad_depths():
    with pytest.raises(ConfigInvalid):
        censorship_experiment(small_config(), [])
    with pytest.raises(ConfigInvalid):
        censorship_experiment(small_config(), [-1, 2])
