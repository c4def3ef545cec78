"""Reward, pricing and censorship-cost computations.

Token amounts are exact integers in the smallest unit; coverage ratios
and shares are exact rationals.  A run's rewards are credited round by
round into one ledger; every payout rounds down and the remainder is
accounted for explicitly, so the ledger conserves value bit-exactly
over arbitrarily long runs.  The censorship price of one transaction
is the reward gap to honest maximal coverage for a round of given
vertex count and fees, reported together with the censoring
proposal's hard-constraint feasibility.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .dag import Dag
from .errors import InvalidCounts, InvalidFraction


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
    rounding dust.  ``balances + residual`` always equals ``collected``,
    the sum of every round's pot, exactly.
    """

    balances: dict[str, int] = field(default_factory=dict)
    collected: int = 0
    residual: Fraction = Fraction(0)

    def credit(self, node_id: str, amount: int) -> None:
        self.balances[node_id] = self.balances.get(node_id, 0) + amount

    def total_credited(self) -> int:
        return sum(self.balances.values())

    def conserves(self) -> bool:
        return self.total_credited() + self.residual == self.collected


@dataclass(frozen=True)
class RoundEconomics:
    """One round's inputs to reward distribution."""

    round: int
    fees: int
    producer_id: str
    attacher_ids: tuple[str, ...]
    committee_ids: tuple[str, ...]
    delta: Fraction


def _check_counts(n_descendants: int, n_vertices: int) -> None:
    if n_vertices < 1:
        raise InvalidCounts("n_vertices must be >= 1")
    if not 0 <= n_descendants <= n_vertices:
        raise InvalidCounts(
            f"n_descendants must be within [0, {n_vertices}], got {n_descendants}"
        )


def delta_score(n_descendants: int, n_vertices: int) -> Fraction:
    """Coverage ratio of a proposal: descendants over attachable vertices."""
    _check_counts(n_descendants, n_vertices)
    return Fraction(n_descendants, n_vertices)


def _clears(n_descendants: int, n_vertices: int, alpha: Fraction) -> bool:
    """``n_descendants >= ceil(alpha * n_vertices)`` in integers: the
    count is whole, so it reaches the ceiling exactly when it reaches
    ``alpha * n_vertices``."""
    return n_descendants * alpha.denominator >= alpha.numerator * n_vertices


def check_hard_constraint(n_descendants: int, n_vertices: int, alpha) -> bool:
    """Validity predicate: coverage must reach a minimum percentage."""
    _check_counts(n_descendants, n_vertices)
    alpha = _as_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise InvalidFraction("alpha must be in [0, 1]")
    return _clears(n_descendants, n_vertices, alpha)


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


class RewardWindow:
    """A run's reward ledger, credited as each round ends.

    :meth:`add` splits the shared slice of a round's pot equally among its
    attachers (and committee, when configured) and pays the producer the
    mean of the last ``decouple_window`` coverage-scaled producer pots,
    the only pots kept.  :meth:`close` pays the slices that later rounds
    would have drawn back to the producers who earned them.  Payouts round
    down, and every remainder stays in the ledger's residual.
    """

    def __init__(self, policy: RewardPolicy) -> None:
        self.policy = policy
        self.ledger = LedgerAccounts()
        self.carry = Fraction(0)
        # a deque never holds more than sys.maxsize items, and its maxlen
        # must fit a C ssize_t, so a larger window keeps every pot all the same
        self.pots: deque[tuple[Fraction, str]] = deque(
            maxlen=min(policy.decouple_window, sys.maxsize)
        )  # (scaled pot, producer)

    def _pay(self, producer: str, claim: Fraction) -> None:
        payout, self.carry = divmod(claim + self.carry, 1)  # floor, and carry the rest
        self.ledger.credit(producer, payout)

    def add(self, row: RoundEconomics) -> None:
        delta = _as_fraction(row.delta)
        if not 0 <= delta <= 1:
            raise InvalidCounts(f"delta out of range in round {row.round}")
        policy, ledger = self.policy, self.ledger
        pot = row.fees + policy.base_block_reward
        ledger.collected += pot

        shared = policy.non_producer_share * pot
        committee_pool = shared * policy.committee_share
        paid_roles = 0
        for ids, pool in ((row.attacher_ids, shared - committee_pool), (row.committee_ids, committee_pool)):
            if ids and pool:
                each = math.floor(pool / len(ids))
                for node in ids:
                    ledger.credit(node, each)
                paid_roles += each * len(ids)

        producer_side = pot - paid_roles  # role rounding dust accrues to the producer
        scaled = producer_side * delta
        ledger.residual += producer_side - scaled  # coverage penalty is withheld
        self.pots.append((scaled, row.producer_id))
        self._pay(row.producer_id, sum(held for held, _ in self.pots) / policy.decouple_window)

    def close(self) -> LedgerAccounts:
        window = self.policy.decouple_window
        # the k-th of n pots, oldest first, has window - (n - k) slices unclaimed
        for unclaimed_slices, (scaled, producer) in enumerate(self.pots, window - len(self.pots)):
            if unclaimed_slices:
                self._pay(producer, scaled * unclaimed_slices / window)
        self.pots.clear()
        self.ledger.residual += self.carry
        self.carry = Fraction(0)
        return self.ledger


def distribute_rewards(history, policy: RewardPolicy) -> LedgerAccounts:
    """A fresh ledger crediting a full run's rows, in round order, through one :class:`RewardWindow`."""
    rewards = RewardWindow(policy)
    for row in sorted(history, key=lambda row: row.round):
        rewards.add(row)
    return rewards.close()


def kth_price_clearing(bids, capacity: int, reserve: int = 0):
    """Uniform-price auction: winners pay the first excluded bid.

    ``bids`` is an iterable of ``(tx_hash, fee)``.  Bids below the
    reserve are dropped; of the rest, the top ``capacity`` win (fee
    descending, ties by ascending hash) and everyone included pays the
    (capacity+1)-th highest remaining fee, or the reserve when the
    remaining demand does not exceed capacity.  No winner pays more than
    its bid, and the price never falls below the reserve.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    ordered = sorted((bid for bid in bids if bid[1] >= reserve), key=lambda bid: (-bid[1], bid[0]))
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


def censorship_cost(
    dag: Dag,
    target_tx: bytes,
    n_vertices: int,
    round_fees: int,
    policy: RewardPolicy,
) -> tuple[Fraction, bool]:
    """Reward forgone by the best proposal that excludes one transaction.

    The censoring proposal covers everything reachable from the eligible
    tips whose cover avoids every vertex that lists ``target_tx``; the
    honest one covers everything reachable from all eligible tips.  The
    price depends only on each proposal's coverage, which is its pool's
    reachable set (genesis excluded), so no set cover is built for it.
    Every active vertex lies under some tip, so the honest coverage is
    the active count less genesis.  The censoring one is one pass over
    :meth:`~Dag.tip_cover_masks`, the DAG's snapshot of the tips' masks,
    ORing those that miss the target's :meth:`~Dag.listing_mask`; the
    snapshot is built once after each write to the DAG, so the prices
    read between two writes share it.  Both are scored against
    ``n_vertices`` attachable vertices and a pot of ``round_fees``.
    Returns the reward gap versus honest maximal coverage,
    ``(1 - non_producer_share) * pot * (n_honest - n_censor) / n_vertices``,
    as one exact Fraction, and whether the censoring proposal clears the
    minimum-coverage constraint.  A transaction no active vertex lists
    raises :class:`UnknownTransaction`, and an ``n_vertices`` below 1 or
    below the honest coverage raises :class:`InvalidCounts`.
    """
    forbidden = dag.listing_mask(target_tx)
    censor = 0
    for mask in dag.tip_cover_masks():
        if not mask & forbidden:
            censor |= mask
    genesis = dag.own_bit(dag.genesis_id) or 0
    n_honest = dag.active_count - (genesis != 0)
    n_censor = (censor & ~genesis).bit_count()

    _check_counts(n_honest, n_vertices)  # n_censor <= n_honest
    feasible = _clears(n_censor, n_vertices, policy.hard_alpha)
    share = policy.non_producer_share
    pot = round_fees + policy.base_block_reward
    gap = Fraction(
        (share.denominator - share.numerator) * pot * (n_honest - n_censor),
        share.denominator * n_vertices,
    )
    return gap, feasible
