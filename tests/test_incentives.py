"""Reward arithmetic, auctions, collusion and censorship pricing."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bfs_censoring_pool,
    bfs_cover,
    grow_random_dag,
    h32,
    raises_exactly,
    set_cover_censorship_cost,
    whole_history_rewards,
)
from minagree import harness
from minagree.attachment import AttachmentStrategy
from minagree.dag import Dag, make_vertex
from minagree.errors import InvalidCounts, InvalidFraction, UnknownTransaction
from minagree.incentives import (
    RewardPolicy,
    RewardWindow,
    RoundEconomics,
    censorship_cost,
    check_hard_constraint,
    collusion_profit,
    delta_score,
    distribute_rewards,
    kth_price_clearing,
    proposer_reward,
)
from minagree.rounds import censoring_tip_pool


# --- coverage ratio ---

def test_delta_score_examples():
    assert delta_score(100, 100) == 1
    assert delta_score(0, 100) == 0
    assert delta_score(308, 1000) == Fraction(308, 1000)


def test_delta_score_validation():
    with pytest.raises(InvalidCounts):
        delta_score(5, 0)
    with pytest.raises(InvalidCounts):
        delta_score(-1, 10)
    with pytest.raises(InvalidCounts):
        delta_score(11, 10)


def test_delta_score_range_randomized():
    rng = random.Random(1)
    for _ in range(10_000):
        n = rng.randrange(1, 5000)
        k = rng.randrange(0, n + 1)
        assert 0 <= delta_score(k, n) <= 1


# --- hard constraint ---

def test_hard_constraint_boundary():
    assert check_hard_constraint(80, 100, Fraction(4, 5)) is True
    assert check_hard_constraint(79, 100, Fraction(4, 5)) is False


def test_hard_constraint_alpha_one_requires_full_coverage():
    for n in (1, 7, 100):
        assert check_hard_constraint(n, n, Fraction(1)) is True
        if n > 1:
            assert check_hard_constraint(n - 1, n, Fraction(1)) is False


ALPHAS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1)]


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_hard_constraint_integer_rule_matches_ceiling(alpha):
    for n_vertices in range(1, 13):
        for n in range(n_vertices + 1):
            assert check_hard_constraint(n, n_vertices, alpha) is (n >= math.ceil(alpha * n_vertices))


# --- producer reward ---

def test_proposer_reward_examples():
    keep_all = RewardPolicy(non_producer_share=Fraction(0))
    assert proposer_reward(100, 0, Fraction(1), keep_all) == 100
    assert proposer_reward(100, 0, Fraction(0), keep_all) == 0
    shared = RewardPolicy(non_producer_share=Fraction(2, 5))
    assert proposer_reward(100, 0, Fraction(1, 2), shared) == 30


def test_proposer_reward_monotone_in_delta():
    policy = RewardPolicy(non_producer_share=Fraction(1, 4))
    last = Fraction(-1)
    for k in range(0, 21):
        value = proposer_reward(37, 13, Fraction(k, 20), policy)
        assert value >= last
        last = value


# --- windowed distribution ---

def _history(pots, producers=None, deltas=None):
    rows = []
    for r, pot in enumerate(pots):
        rows.append(
            RoundEconomics(
                round=r,
                fees=pot,
                producer_id=(producers[r] if producers else f"p{r}"),
                attacher_ids=("att-a", "att-b"),
                committee_ids=("c-a",),
                delta=(deltas[r] if deltas else Fraction(1)),
            )
        )
    return rows


def test_window_one_matches_per_round_reward():
    policy = RewardPolicy(decouple_window=1)
    ledger = distribute_rewards(_history([100, 40, 7]), policy)
    assert ledger.balances == {"p0": 100, "p1": 40, "p2": 7}
    assert ledger.conserves()


def test_window_two_averages_trailing_pots():
    policy = RewardPolicy(decouple_window=2)
    ledger = distribute_rewards(_history([100, 0]), policy)
    assert ledger.balances == {"p0": 50, "p1": 50}
    assert ledger.conserves()
    # a window longer than the run: p0 claims 100/4 and p1 160/4, then
    # pot 0 returns 2 of its 4 slices and pot 1 returns 3
    ledger = distribute_rewards(_history([100, 60]), RewardPolicy(decouple_window=4))
    assert ledger.balances == {"p0": 75, "p1": 85}
    assert ledger.conserves()


def test_distribution_conserves_exactly_across_windows():
    rng = random.Random(9)
    pots = [rng.randrange(0, 500) for _ in range(100)]
    producers = [f"p{rng.randrange(5)}" for _ in range(100)]
    for window in (1, 2, 10):
        policy = RewardPolicy(
            decouple_window=window,
            non_producer_share=Fraction(1, 4),
            committee_share=Fraction(1, 5),
        )
        ledger = distribute_rewards(_history(pots, producers), policy)
        assert distribute_rewards(_history(pots, producers), policy) == ledger
        assert ledger.conserves()
        assert ledger.collected == ledger.total_credited() + ledger.residual == sum(pots)


@st.composite
def reward_runs(draw):
    """A policy and a run of rows in round order; windows up to 12 are
    often longer than the run, and role sets may be empty."""
    policy = RewardPolicy(
        base_block_reward=draw(st.integers(0, 50)),
        non_producer_share=Fraction(draw(st.integers(0, 6)), 6),
        committee_share=Fraction(draw(st.integers(0, 3)), 3),
        decouple_window=draw(st.integers(1, 12)),
    )
    nodes = st.sampled_from(["n0", "n1", "n2", "n3"])
    rows = []
    for r in range(draw(st.integers(0, 16))):
        denominator = draw(st.integers(1, 7))
        rows.append(
            RoundEconomics(
                round=r,
                fees=draw(st.integers(0, 500)),
                producer_id=draw(nodes),
                attacher_ids=tuple(draw(st.lists(nodes, max_size=3))),
                committee_ids=tuple(draw(st.lists(nodes, max_size=2))),
                delta=Fraction(draw(st.integers(0, denominator)), denominator),
            )
        )
    return policy, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run=reward_runs(), data=st.data())
def test_reward_window_folds_the_whole_history(run, data):
    policy, rows = run
    rewards = RewardWindow(policy)
    for row in rows:
        rewards.add(row)
        assert len(rewards.pots) <= policy.decouple_window
    ledger = rewards.close()
    shuffled = data.draw(st.permutations(rows))
    assert ledger == distribute_rewards(shuffled, policy) == whole_history_rewards(rows, policy)
    assert ledger.conserves()
    assert ledger.collected == sum(row.fees + policy.base_block_reward for row in rows)
    closed = copy.deepcopy(ledger)
    assert rewards.close() == closed  # a second close credits nothing


def test_distribution_with_full_delta_pays_out_everything():
    # honest runs (delta = 1, integer-divisible shares) leave nothing behind
    policy = RewardPolicy(decouple_window=2, non_producer_share=Fraction(1, 2))
    ledger = distribute_rewards(_history([100, 60]), policy)
    assert ledger.total_credited() == 160
    assert ledger.residual == 0
    # attachers split the shared half equally each round
    assert ledger.balances["att-a"] == ledger.balances["att-b"] == (25 + 15)


def test_distribution_withholds_coverage_penalty():
    policy = RewardPolicy(decouple_window=1)
    deltas = [Fraction(1, 2)]
    ledger = distribute_rewards(_history([100], deltas=deltas), policy)
    assert ledger.balances == {"p0": 50}
    assert ledger.residual == 50
    assert ledger.conserves()


def test_base_reward_enters_the_pot():
    policy = RewardPolicy(base_block_reward=10)
    ledger = distribute_rewards(_history([5]), policy)
    assert ledger.balances == {"p0": 15}
    assert ledger.collected == 15


# --- kth price auction ---

def _bids(fees):
    return [(h32(f"bid{i}"), fee) for i, fee in enumerate(fees)]


def test_kth_price_basic():
    bids = _bids([10, 8, 5, 3])
    included, price = kth_price_clearing(bids, capacity=2)
    assert price == 5
    fees = dict(bids)
    assert sorted(fees[tx] for tx in included) == [8, 10]


def test_kth_price_reserve_when_undersubscribed():
    bids = _bids([10])
    included, price = kth_price_clearing(bids, capacity=2, reserve=1)
    assert [dict(bids)[tx] for tx in included] == [10]
    assert price == 1


def test_kth_price_no_included_below_price_no_excluded_above():
    rng = random.Random(12)
    for _ in range(300):
        fees = [rng.randrange(0, 30) for _ in range(rng.randrange(1, 12))]
        bids = _bids(fees)
        capacity = rng.randrange(1, 8)
        included, price = kth_price_clearing(bids, capacity)
        fee_of = dict(bids)
        excluded = [tx for tx, _ in bids if tx not in set(included)]
        if len(bids) > capacity:
            assert all(fee_of[tx] >= price for tx in included)
        assert all(fee_of[tx] <= price for tx in excluded)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    fees=st.lists(st.integers(0, 12), max_size=8),
    capacity=st.integers(1, 6),
    reserve=st.integers(0, 12),
    bidder=st.integers(0, 7),
)
@example(fees=[3], capacity=2, reserve=5, bidder=0)
@example(fees=[10, 9, 1], capacity=2, reserve=5, bidder=2)
def test_kth_price_clears_at_or_above_reserve_and_stays_truthful(fees, capacity, reserve, bidder):
    # fees double as the bidders' true values; the narrow range makes ties common
    hashes = [h32(f"b{i}") for i in range(len(fees))]

    def clear(bids):
        return kth_price_clearing(list(zip(hashes, bids)), capacity, reserve)

    included, price = clear(fees)
    fee_of = dict(zip(hashes, fees))
    assert price >= reserve
    assert all(fee_of[tx] >= price for tx in included)
    assert len(included) == min(capacity, sum(fee >= reserve for fee in fees))
    if not fees:
        return
    bidder %= len(fees)

    def utility(bids):
        won, paid = clear(bids)
        return fees[bidder] - paid if hashes[bidder] in won else 0

    truthful = utility(fees)
    for deviation in range(14):
        bids = list(fees)
        bids[bidder] = deviation
        assert utility(bids) <= truthful


# --- collusion ---

def test_collusion_profit_formula():
    assert collusion_profit(10, Fraction(1, 10), Fraction(1, 2)) == Fraction(99, 20)
    for f, eps in ((10, 0), (7, 3), (100, Fraction(1, 2))):
        assert collusion_profit(f, eps, 0) == 0


def test_collusion_profit_monotone_in_share_and_nonnegative():
    grid = [Fraction(k, 100) for k in range(0, 101)]
    last = Fraction(-1)
    for x in grid:
        profit = collusion_profit(10, 1, x)
        assert profit >= max(last, 0)
        last = profit
    for f in range(1, 20):
        for eps in range(0, f + 1):
            assert collusion_profit(f, eps, Fraction(1, 3)) >= 0


# --- censorship pricing ---

def _comb(levels, fee=10):
    """Spine of `levels` vertices (one tx each) with one side tip per level."""
    dag = Dag()
    txs = []
    prev = dag.genesis_id
    for level in range(1, levels + 1):
        tx = h32(f"spine-tx-{level}")
        spine = make_vertex((prev, prev), f"s{level}", level, (tx,))
        dag.attach(spine)
        if level >= 2:
            dag.attach(make_vertex((prev, prev), f"side{level}", level, ()))
        txs.append(tx)
        prev = spine.vertex_id
    return dag, txs


def test_censorship_cost_fresh_tip_is_marginal():
    dag, txs = _comb(10)
    n_vertices = dag.active_count - 1
    cost, feasible = censorship_cost(dag, txs[-1], n_vertices, 100, RewardPolicy())
    assert feasible is True
    assert cost == Fraction(100, n_vertices)  # exactly one vertex forgone


def test_censorship_cost_deep_target_forfeits_almost_everything():
    dag, txs = _comb(10)
    cost, _ = censorship_cost(dag, txs[0], dag.active_count - 1, 100, RewardPolicy())
    assert cost == 100  # no allowed tip covers anything


def test_censorship_cost_monotone_in_depth():
    dag, txs = _comb(12)
    last = Fraction(-1)
    for tx in reversed(txs):  # deepest last
        cost, _ = censorship_cost(dag, tx, dag.active_count - 1, 77, RewardPolicy())
        assert cost >= last
        last = cost


def test_censorship_hard_mode_alpha_one_infeasible_with_descendants():
    dag, txs = _comb(6)
    policy = RewardPolicy(hard_alpha=Fraction(1))
    _, feasible = censorship_cost(dag, txs[2], dag.active_count - 1, 10, policy)
    assert feasible is False


def _listed_transactions(dag):
    return sorted({txh for vertex in dag.vertices.values() for txh in vertex.tx_hashes})


def _assert_matches_set_cover_oracle(dag, rng):
    round_fees = rng.randrange(1, 500)
    policy = RewardPolicy(
        base_block_reward=rng.randrange(0, 50),
        non_producer_share=Fraction(rng.randrange(0, 4), 4),
        hard_alpha=Fraction(rng.randrange(0, 5), 4),
    )
    for tx in _listed_transactions(dag):
        args = (dag, tx, dag.active_count, round_fees, policy)
        assert censorship_cost(*args) == set_cover_censorship_cost(*args)


def test_censorship_cost_matches_set_cover_oracle():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(2, 40)
        dag, ids = grow_random_dag(rng, n, txs_per_vertex=rng.randrange(0, 3))
        _assert_matches_set_cover_oracle(dag, rng)

        # a cover set is downward closed; pruning it drops genesis too
        roots = rng.sample(ids[1:], rng.randrange(1, 3))
        finalized = dag.cover_set(roots)
        if len(finalized) < dag.active_count:
            dag.prune_finalized(finalized)
            if _listed_transactions(dag):
                _assert_matches_set_cover_oracle(dag, rng)


PROPERTY_TXS = [h32(f"property-tx-{k}") for k in range(6)]


@st.composite
def censorship_dags(draw):
    """A random DAG whose sibling branches may list the same transaction,
    optionally with a cover pruned."""
    dag = Dag()
    ids = [dag.genesis_id]
    for k in range(draw(st.integers(1, 20))):
        parents = tuple(ids[draw(st.integers(0, len(ids) - 1))] for _ in range(2))
        covered = {txh for vid in bfs_cover(dag, parents) for txh in dag.vertices[vid].tx_hashes}
        txs = draw(st.lists(st.sampled_from(PROPERTY_TXS), max_size=2, unique=True))
        vertex = make_vertex(parents, f"p{k}", k + 1, tuple(t for t in txs if t not in covered))
        dag.attach(vertex)
        ids.append(vertex.vertex_id)
    if draw(st.booleans()):
        dag.prune_finalized(draw(st.lists(st.sampled_from(ids[1:]), min_size=1, max_size=2)))
    return dag


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    dag=censorship_dags(),
    slack=st.integers(0, 3),
    round_fees=st.integers(0, 500),
    base_reward=st.integers(0, 50),
    share=st.integers(0, 4),
    alpha=st.integers(0, 4),
)
def test_censorship_cost_and_pool_match_oracles_on_random_dags(dag, slack, round_fees, base_reward, share, alpha):
    policy = RewardPolicy(
        base_block_reward=base_reward,
        non_producer_share=Fraction(share, 4),
        hard_alpha=Fraction(alpha, 4),
    )
    n_vertices = dag.active_count + slack
    for tx in _listed_transactions(dag):
        assert censoring_tip_pool(dag, tx) == bfs_censoring_pool(dag, tx)
        args = (dag, tx, n_vertices, round_fees, policy)
        assert censorship_cost(*args) == set_cover_censorship_cost(*args)


def test_censorship_cost_reads_fresh_tip_masks_after_each_write():
    """A price read after an attach or a prune sees the tips and masks
    that the write left, not the snapshot of the earlier price."""
    dag, _ = grow_random_dag(random.Random(25), 30, txs_per_vertex=1)
    policy = RewardPolicy(non_producer_share=Fraction(1, 4), hard_alpha=Fraction(1, 2))
    # a deep target: the fewest tips, but some, may censor it
    pools = {tx: bfs_censoring_pool(dag, tx) for tx in _listed_transactions(dag)}
    target = min((tx for tx in pools if pools[tx]), key=lambda tx: len(pools[tx]))

    def price():
        args = (dag, target, dag.active_count, 100, policy)
        assert censorship_cost(*args) == set_cover_censorship_cost(*args)

    price()
    # joins two tips that the censoring proposal may take, so it covers one more vertex
    pool = pools[target]
    dag.attach(make_vertex((pool[0], pool[-1]), "late", 31, ()))
    price()
    # pool[0]'s cover misses every vertex that lists the target, which
    # stays listed
    dag.prune_finalized((pool[0],))
    price()


def test_censorship_experiment_rows_equal_separate_calls(monkeypatch):
    calls = []

    def recording_cost(*args, **kwargs):
        calls.append(args)
        return censorship_cost(*args, **kwargs)

    monkeypatch.setattr(harness, "censorship_cost", recording_cost)
    config = harness.SimConfig(
        seed=5, n_stakers=4, n_attachers=2, committee_size=3,
        strategy=AttachmentStrategy("random"),
        reward_policy=RewardPolicy(hard_alpha=Fraction(9, 10)),
    )
    rows = harness.censorship_experiment(config, range(8))
    assert len(calls) == len(rows)
    for row, args in zip(rows, calls):
        assert (row.soft_cost, row.hard_feasible) == censorship_cost(*args)
    assert {row.hard_feasible for row in rows} == {True, False}


def test_censorship_unknown_transaction():
    dag, _ = _comb(3)
    with pytest.raises(UnknownTransaction):
        censorship_cost(dag, h32("ghost"), 5, 10, RewardPolicy())


def test_censorship_unknown_once_every_lister_is_pruned():
    dag, txs = _comb(4)
    lister = next(vid for vid, vertex in dag.vertices.items() if txs[0] in vertex.tx_hashes)
    dag.prune_finalized((lister,))
    assert txs[0] not in _listed_transactions(dag)
    with pytest.raises(UnknownTransaction):
        censorship_cost(dag, txs[0], dag.active_count, 10, RewardPolicy())


@pytest.mark.parametrize("target", [0, -1], ids=["deepest", "freshest"])
def test_censorship_cost_rejects_vertex_counts_below_coverage(target):
    dag, txs = _comb(5)
    n_honest = dag.active_count - 1  # every tip is eligible; genesis is not counted
    with pytest.raises(InvalidCounts):
        censorship_cost(dag, txs[target], 0, 10, RewardPolicy())
    # either target leaves the censoring coverage at most n_honest - 1, so
    # only the honest coverage is out of range
    with pytest.raises(InvalidCounts):
        censorship_cost(dag, txs[target], n_honest - 1, 10, RewardPolicy())
    censorship_cost(dag, txs[target], n_honest, 10, RewardPolicy())


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RewardPolicy(base_block_reward=-1), InvalidFraction, "base_block_reward must be non-negative"),
        (lambda: RewardPolicy(committee_share=Fraction(3, 2)), InvalidFraction, "committee_share must be in [0, 1]"),
        (lambda: RewardPolicy(committee_share=Fraction(-1, 2)), InvalidFraction, "committee_share must be in [0, 1]"),
        (lambda: check_hard_constraint(1, 2, Fraction(3, 2)), InvalidFraction, "alpha must be in [0, 1]"),
        (lambda: proposer_reward(10, 0, Fraction(3, 2), RewardPolicy()), InvalidCounts, "delta must be in [0, 1]"),
        (
            lambda: distribute_rewards([RoundEconomics(4, 10, "p", (), (), Fraction(2))], RewardPolicy()),
            InvalidCounts,
            "delta out of range in round 4",
        ),
        (lambda: kth_price_clearing([(h32("t"), 5)], 0), ValueError, "capacity must be >= 1"),
        (
            lambda: RewardPolicy(non_producer_share=Fraction(3, 2)),
            InvalidFraction,
            "non_producer_share must be in [0, 1]",
        ),
        (lambda: RewardPolicy(decouple_window=0), InvalidFraction, "decouple_window must be >= 1"),
        (lambda: RewardPolicy(hard_alpha=Fraction(-1, 2)), InvalidFraction, "hard_alpha must be in [0, 1]"),
        (lambda: collusion_profit(10, 11, Fraction(1, 2)), InvalidFraction, "epsilon must be in [0, fee_f]"),
        (lambda: collusion_profit(10, 1, 2), InvalidFraction, "x must be in [0, 1]"),
        (
            lambda: collusion_profit(10, 0.5, Fraction(1, 2)),
            InvalidFraction,
            "0.5 is a float; pass int or Fraction for exact accounting",
        ),
    ],
    ids=[
        "negative_base_reward",
        "committee_share_above_one",
        "committee_share_below_zero",
        "alpha",
        "proposer_delta",
        "row_delta",
        "capacity",
        "non_producer_share",
        "decouple_window",
        "hard_alpha",
        "collusion_epsilon",
        "collusion_x",
        "collusion_float",
    ],
)
def test_incentives_validation_errors(call, error, message):
    raises_exactly(call, error, message)
