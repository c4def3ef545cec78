"""Reward, pricing and censorship-cost computations.

Token amounts are exact integers in the smallest unit; coverage ratios
and shares are exact rationals.  Every distribution rounds down to
integer payouts and accounts for the remainder explicitly, so the ledger
conserves value bit-exactly over arbitrarily long runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .dag import Dag
from .errors import InvalidCounts, InvalidFraction
from .rounds import censoring_tip_pool


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidFraction(
            f"{value!r} is a float; pass int or Fraction for exact accounting"
        )
    return Fraction(value)


@dataclass(frozen=True)
class RewardPolicy:
    """Economic knobs for one simulation.

    ``non_producer_share`` is the fraction of each round's pot paid to
    roles other than the block producer; the producer keeps the
    complement, scaled by its coverage ratio.  ``decouple_window`` is the
    number of rounds producer pots are averaged over (1 = classic
    per-block rewards).
    """

    base_block_reward: int = 0
    non_producer_share: Fraction = Fraction(0)
    decouple_window: int = 1
    hard_alpha: Fraction = Fraction(1, 2)
    committee_share: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "non_producer_share", _as_fraction(self.non_producer_share))
        object.__setattr__(self, "hard_alpha", _as_fraction(self.hard_alpha))
        object.__setattr__(self, "committee_share", _as_fraction(self.committee_share))
        if self.base_block_reward < 0:
            raise InvalidFraction("base_block_reward must be non-negative")
        if not 0 <= self.non_producer_share <= 1:
            raise InvalidFraction("non_producer_share must be in [0, 1]")
        if self.decouple_window < 1:
            raise InvalidFraction("decouple_window must be >= 1")
        if not 0 <= self.hard_alpha <= 1:
            raise InvalidFraction("hard_alpha must be in [0, 1]")
        if not 0 <= self.committee_share <= 1:
            raise InvalidFraction("committee_share must be in [0, 1]")


@dataclass
class LedgerAccounts:
    """Integer balances plus the undistributed remainder.

    ``residual`` holds value that is collected but not paid out: coverage
    penalties (when a producer's ratio is below one) and sub-token
    rounding dust.  ``balances + residual`` always equals the sum of
    ``fee_pool_per_round`` exactly.
    """

    balances: dict[str, int] = field(default_factory=dict)
    fee_pool_per_round: list[int] = field(default_factory=list)
    residual: Fraction = Fraction(0)

    def credit(self, node_id: str, amount: int) -> None:
        self.balances[node_id] = self.balances.get(node_id, 0) + amount

    def total_credited(self) -> int:
        return sum(self.balances.values())

    def conserves(self) -> bool:
        return self.total_credited() + self.residual == sum(self.fee_pool_per_round)


@dataclass(frozen=True)
class RoundEconomics:
    """One round's inputs to reward distribution."""

    round: int
    fees: int
    producer_id: str
    attacher_ids: tuple[str, ...]
    committee_ids: tuple[str, ...]
    delta: Fraction


@dataclass(frozen=True)
class RoundParams:
    """Economic context for a single-round what-if evaluation."""

    n_vertices: int
    round_fees: int


def delta_score(n_descendants: int, n_vertices: int) -> Fraction:
    """Coverage ratio of a proposal: descendants over attachable vertices."""
    if n_vertices < 1:
        raise InvalidCounts("n_vertices must be >= 1")
    if not 0 <= n_descendants <= n_vertices:
        raise InvalidCounts(
            f"n_descendants must be within [0, {n_vertices}], got {n_descendants}"
        )
    return Fraction(n_descendants, n_vertices)


def check_hard_constraint(n_descendants: int, n_vertices: int, alpha) -> bool:
    """Validity predicate: coverage must reach a minimum percentage."""
    delta_score(n_descendants, n_vertices)  # range validation
    alpha = _as_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise InvalidFraction("alpha must be in [0, 1]")
    return n_descendants >= math.ceil(alpha * n_vertices)


def proposer_reward(round_fees: int, base_reward: int, delta, policy: RewardPolicy) -> Fraction:
    """Producer-side accrual for one round before window averaging.

    The producer keeps the non-shared fraction of the pot, scaled by its
    coverage ratio, so an empty proposal earns nothing.
    """
    delta = _as_fraction(delta)
    if not 0 <= delta <= 1:
        raise InvalidCounts("delta must be in [0, 1]")
    pot = round_fees + base_reward
    return (1 - policy.non_producer_share) * pot * delta


def distribute_rewards(
    ledger: LedgerAccounts,
    history,
    policy: RewardPolicy,
    current_round: int,
) -> LedgerAccounts:
    """Credit a full run's rewards into the ledger, conserving exactly.

    Per round: the shared slice of the pot is split equally among that
    round's attachers (and committee, when configured); the producer side
    is scaled by the round's coverage ratio and then averaged over the
    trailing ``decouple_window`` rounds before accrual.  Window slices
    that would fall past the end of the run are settled back to the round
    that earned them, and all rounding remainders stay in the ledger's
    residual, so credits plus residual equal collected value exactly.

    Call once over a complete history; repeated calls would double-pay.
    """
    rows = sorted(
        (row for row in history if row.round <= current_round),
        key=lambda row: row.round,
    )
    window = policy.decouple_window
    producer_pots: list[Fraction] = []
    producers: list[str] = []
    carry = Fraction(0)

    for row in rows:
        pot = row.fees + policy.base_block_reward
        ledger.fee_pool_per_round.append(pot)

        shared = policy.non_producer_share * pot
        committee_pool = shared * policy.committee_share
        attacher_pool = shared - committee_pool
        paid_roles = 0
        if row.attacher_ids and attacher_pool:
            per_attacher = math.floor(attacher_pool / len(row.attacher_ids))
            for node in row.attacher_ids:
                ledger.credit(node, per_attacher)
            paid_roles += per_attacher * len(row.attacher_ids)
        if row.committee_ids and committee_pool:
            per_member = math.floor(committee_pool / len(row.committee_ids))
            for node in row.committee_ids:
                ledger.credit(node, per_member)
            paid_roles += per_member * len(row.committee_ids)

        producer_side = pot - paid_roles  # role rounding dust accrues to the producer
        delta = _as_fraction(row.delta)
        if not 0 <= delta <= 1:
            raise InvalidCounts(f"delta out of range in round {row.round}")
        scaled = producer_side * delta
        ledger.residual += producer_side - scaled  # coverage penalty is withheld
        producer_pots.append(scaled)
        producers.append(row.producer_id)

        start = max(0, len(producer_pots) - window)
        claim = sum(producer_pots[start:], Fraction(0)) / window + carry
        payout = math.floor(claim)
        carry = claim - payout
        ledger.credit(row.producer_id, payout)

    # End-of-run settlement: slices that later rounds would have drawn
    # return to the round that earned them.
    n = len(producer_pots)
    for j, pot_j in enumerate(producer_pots):
        unclaimed_slices = window - min(window, n - j)
        if unclaimed_slices:
            claim = pot_j * unclaimed_slices / window + carry
            payout = math.floor(claim)
            carry = claim - payout
            ledger.credit(producers[j], payout)
    ledger.residual += carry
    return ledger


def kth_price_clearing(bids, capacity: int, reserve: int = 0):
    """Uniform-price auction: winners pay the first excluded bid.

    ``bids`` is an iterable of ``(tx_hash, fee)``.  The top ``capacity``
    bids win (fee descending, ties by ascending hash); everyone included
    pays the (capacity+1)-th highest fee, or the reserve when demand does
    not exceed capacity.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    ordered = sorted(bids, key=lambda bid: (-bid[1], bid[0]))
    included = [tx for tx, _fee in ordered[:capacity]]
    if len(ordered) > capacity:
        clearing_price = ordered[capacity][1]
    else:
        clearing_price = reserve
    return included, clearing_price


def collusion_profit(fee_f, epsilon, x) -> Fraction:
    """Producer's gain from a third-channel side payment.

    A sender who would pay fee ``f`` instead pays the producer directly
    and submits the transaction with minimal fee ``epsilon``; the
    producer nets ``x * (f - epsilon)`` versus honest processing.
    """
    fee_f = _as_fraction(fee_f)
    epsilon = _as_fraction(epsilon)
    x = _as_fraction(x)
    if not 0 <= x <= 1:
        raise InvalidFraction("x must be in [0, 1]")
    if not 0 <= epsilon <= fee_f:
        raise InvalidFraction("epsilon must be in [0, fee_f]")
    return x * (fee_f - epsilon)


def _coverage_excluding_genesis(dag: Dag, pool) -> int:
    genesis_bit = dag.own_bit(dag.genesis_id) or 0
    return (dag.cover_mask(pool) & ~genesis_bit).bit_count()


def censorship_cost(
    dag: Dag,
    target_tx: bytes,
    ctx: RoundParams,
    policy: RewardPolicy,
    mode: str = "soft",
) -> tuple[Fraction, bool]:
    """Reward forgone by the best proposal that excludes one transaction.

    The censoring proposal covers everything reachable from the eligible
    tips whose cover avoids every vertex that lists ``target_tx``; the
    honest one covers everything reachable from all eligible tips.  The
    price depends only on each proposal's coverage, which is its pool's
    reachable set (genesis excluded), so no set cover is built for it.
    Soft mode returns the reward gap versus honest maximal coverage
    (always feasible); hard mode additionally reports whether the
    censoring proposal clears the minimum-coverage constraint.
    """
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown censorship mode {mode!r}")
    dag.vertices_containing(target_tx)  # raises UnknownTransaction if absent

    n_honest = _coverage_excluding_genesis(dag, dag.eligible_tips())
    n_censor = _coverage_excluding_genesis(dag, censoring_tip_pool(dag, target_tx))

    delta_honest = delta_score(n_honest, ctx.n_vertices)
    delta_censor = delta_score(n_censor, ctx.n_vertices)
    honest_reward = proposer_reward(ctx.round_fees, policy.base_block_reward, delta_honest, policy)
    censor_reward = proposer_reward(ctx.round_fees, policy.base_block_reward, delta_censor, policy)
    cost = honest_reward - censor_reward

    if mode == "soft":
        return cost, True
    return cost, check_hard_constraint(n_censor, ctx.n_vertices, policy.hard_alpha)
