"""Round protocol: beacon, role election, proposals, notarization, finality.

Each round a hash-chain beacon value deterministically ranks the staker
registry into proposers, draws the attacher set and the notarization
committee.  At the end of the round the highest-ranked proposers publish
tip sets; the committee notarizes one winner, which becomes final two
rounds later.  Real threshold cryptography is out of scope: the beacon is
a seeded hash chain, and proposals and vertices carry no signatures.

The engine advances one round at a time on a single logical timeline.
Honest proposers of a round share one view of the DAG and cover the same
targets, so they publish the same content.  :func:`proposal_body`
builds it from a tip pool (eligible tips, or those avoiding a censored
transaction) and the targets: the tip set, its canonical transaction
order split at the block cap by :func:`assemble_block`, and the Merkle
root of the block's part.  A :class:`Proposal` is that body stamped with
one ranked proposer's identity and rank, and the notarized block holds
the winning proposal, so its content is read from
``block.proposal.body`` alone.  Once the block is final, the chain keeps
only its hash, which the next final block must link to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .dag import HASH_BYTES, Dag, _be8, _sha256
from .errors import (
    EmptyDag,
    ForkDetected,
    InsufficientStakers,
    NoProposals,
    NoQuorum,
    UncoverableTargets,
)

ZERO_HASH = b"\x00" * HASH_BYTES
FINALITY_LAG = 2


def next_seed(prev_seed: bytes, round_no: int) -> bytes:
    """Advance the beacon: hash of the previous value and the round number."""
    if len(prev_seed) != HASH_BYTES:
        raise ValueError(f"seed must be {HASH_BYTES} bytes")
    return _sha256(prev_seed, _be8(round_no))


def merkle_root(tx_hashes) -> bytes:
    """Binary Merkle root over the leaves in the given order.

    An odd level duplicates its last node; a single leaf is its own root;
    the empty list maps to 32 zero bytes.
    """
    level = list(tx_hashes)
    if not level:
        return ZERO_HASH
    sha256 = hashlib.sha256
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        pairs = iter(level)
        level = [sha256(left + right).digest() for left, right in zip(pairs, pairs)]
    return level[0]


def compute_block_hash(prev_block_hash: bytes, root: bytes, round_no: int) -> bytes:
    return _sha256(prev_block_hash, root, _be8(round_no))


@dataclass(frozen=True)
class RoundContext:
    """Per-round role assignment derived from the beacon value."""

    round: int
    attachers: tuple[str, ...]
    proposer_ranking: tuple[str, ...]
    committee: tuple[str, ...]


def draw_roles(
    seed: bytes,
    stakers,
    n_attachers: int,
    committee_size: int,
    round_no: int = 0,
) -> RoundContext:
    """Rank stakers and draw the attacher set and committee for a round.

    Each role uses an independent, domain-separated sort key over the
    beacon value, so one identity's proposer rank says nothing about its
    attacher or committee membership.  Every identity carries equal
    weight.
    """
    if n_attachers < 0 or committee_size < 0:
        raise ValueError("role counts must be non-negative")
    registry = list(stakers)
    if not registry:
        raise InsufficientStakers("empty staker registry")
    if n_attachers > len(registry):
        raise InsufficientStakers(
            f"{n_attachers} attachers requested from {len(registry)} stakers"
        )
    if committee_size > len(registry):
        raise InsufficientStakers(
            f"committee of {committee_size} requested from {len(registry)} stakers"
        )

    def ranked(domain: bytes) -> list[str]:
        # each identity's key is _sha256(seed, domain, name), in one call
        prefix = seed + domain
        return sorted(registry, key=lambda node: hashlib.sha256(prefix + node.encode("utf-8")).digest())

    ranking = tuple(ranked(b"propose"))
    attachers = tuple(ranked(b"attach")[:n_attachers])
    committee = tuple(ranked(b"notarize")[:committee_size])
    return RoundContext(
        round=round_no,
        attachers=attachers,
        proposer_ranking=ranking,
        committee=committee,
    )


def greedy_min_cover(dag: Dag, targets, pool=None) -> list[bytes]:
    """Smallest-effort tip set covering all target vertices.

    Classic greedy set cover: repeatedly take the candidate tip covering
    the most still-uncovered targets (ties by ascending id).  ``pool``
    restricts the candidate tips; it defaults to all eligible tips.
    """
    tips = list(pool) if pool is not None else dag.eligible_tips()
    uncovered = 0
    for vid in sorted(set(targets)):
        bit = dag.own_bit(vid)
        if bit is None:
            raise UncoverableTargets(f"target {vid.hex()} is not active")
        uncovered |= bit
    chosen: list[bytes] = []
    candidates = sorted(dict(zip(tips, dag.tip_masks(tips))).items())
    while uncovered:
        gains = [(mask & uncovered).bit_count() for _, mask in candidates]
        best_gain = max(gains, default=0)
        if not best_gain:
            raise UncoverableTargets(
                f"{uncovered.bit_count()} target(s) not coverable by the candidate tips"
            )
        tip, mask = candidates.pop(gains.index(best_gain))
        chosen.append(tip)
        uncovered &= ~mask
    return chosen


def censoring_tip_pool(dag: Dag, tx_hash: bytes) -> list[bytes]:
    """Eligible tips whose cover avoids every vertex listing ``tx_hash``,
    ascending by id: those whose cover mask shares no bit with the
    transaction's :meth:`~Dag.listing_mask`."""
    forbidden = dag.listing_mask(tx_hash)
    tips = dag.eligible_tips()
    return [t for t, mask in zip(tips, dag.tip_masks(tips)) if not mask & forbidden]


def assemble_block(
    order, max_block_txs: int | None = None
) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Split a canonical transaction order at the block cap.

    Returns ``(tx_list, carried_over)``: the transactions the block
    holds and the remainder to re-queue for later rounds.
    """
    if max_block_txs is None:
        return tuple(order), ()
    return tuple(order[:max_block_txs]), tuple(order[max_block_txs:])


@dataclass(frozen=True)
class ProposalBody:
    """The proposer-independent part of a proposal.

    ``tx_list`` is the canonical transaction order of the tip set cut at
    the block cap and ``carried_over`` the remainder; ``merkle_root``
    commits to ``tx_list``.
    """

    tip_set: tuple[bytes, ...]
    tx_list: tuple[bytes, ...]
    carried_over: tuple[bytes, ...]
    merkle_root: bytes


@dataclass(frozen=True)
class Proposal:
    proposer_id: str
    rank_index: int
    prev_block_hash: bytes
    body: ProposalBody


def proposal_body(
    dag: Dag,
    targets=None,
    censor_tx: bytes | None = None,
    max_block_txs: int | None = None,
) -> ProposalBody:
    """Choose a tip set and commit to its transactions.

    The candidate tips are the eligible ones, or with ``censor_tx`` only
    those whose cover avoids every vertex listing that transaction.  The
    tip set covers ``targets``, by default everything the candidates
    reach: no arguments give honest maximal coverage and ``targets=()``
    covers nothing.
    """
    if dag.active_count == 0:
        raise EmptyDag("cannot propose over an empty DAG")
    if censor_tx is None:
        pool = dag.eligible_tips()
    else:
        pool = censoring_tip_pool(dag, censor_tx)
    if targets is None:
        targets = dag.cover_set(pool) - {dag.genesis_id}
    tips = greedy_min_cover(dag, targets, pool=pool)
    tx_list, carried_over = assemble_block(dag.ordered_transactions(tips), max_block_txs)
    return ProposalBody(
        tip_set=tuple(sorted(tips)),
        tx_list=tx_list,
        carried_over=carried_over,
        merkle_root=merkle_root(tx_list),
    )


def make_proposal(
    ctx: RoundContext,
    proposer_id: str,
    prev_block_hash: bytes,
    body: ProposalBody,
) -> Proposal:
    """One ranked proposer's copy of the round's proposal body."""
    if proposer_id not in ctx.proposer_ranking:
        raise ValueError(f"{proposer_id!r} is not in this round's ranking")
    return Proposal(
        proposer_id=proposer_id,
        rank_index=ctx.proposer_ranking.index(proposer_id),
        prev_block_hash=prev_block_hash,
        body=body,
    )


@dataclass(frozen=True)
class NotarizedBlock:
    round: int
    proposal: Proposal
    notarization_signers: tuple[str, ...]
    block_hash: bytes


def notarize_round(proposals, ctx: RoundContext, honest_signers=None) -> NotarizedBlock:
    """Select the round winner and record the committee notarization.

    The winner is the proposal of the best (lowest) proposer rank.  The
    simulation is honest-majority: every honest committee member signs
    the single winner, and quorum counts distinct members only.
    """
    proposals = list(proposals)
    if not proposals:
        raise NoProposals("no proposals to notarize")
    seen_proposers = [p.proposer_id for p in proposals]
    if len(set(seen_proposers)) != len(seen_proposers):
        raise ValueError("each proposer may submit at most one proposal")

    signers = ctx.committee if honest_signers is None else tuple(dict.fromkeys(honest_signers))
    if not set(signers) <= set(ctx.committee):
        raise ValueError("only committee members may sign the notarization")
    if len(signers) * 2 <= len(ctx.committee):
        raise NoQuorum(
            f"{len(signers)} honest signer(s) cannot reach a majority of {len(ctx.committee)}"
        )

    winner = min(proposals, key=lambda p: p.rank_index)
    return NotarizedBlock(
        round=ctx.round,
        proposal=winner,
        notarization_signers=signers,
        block_hash=compute_block_hash(winner.prev_block_hash, winner.body.merkle_root, ctx.round),
    )


@dataclass
class ChainState:
    """The notarized blocks that are not final yet, and the newest final block.

    ``blocks`` holds the notarized blocks above ``finalized_height``;
    :func:`finalize` hands each block over as it becomes final and keeps
    only its hash, ``finalized_hash`` (``None`` before any block is
    final), so a long run keeps nothing per round.
    """

    blocks: dict[int, NotarizedBlock] = field(default_factory=dict)
    finalized_height: int = -1
    finalized_hash: bytes | None = None

    def add(self, block: NotarizedBlock) -> None:
        if block.round <= self.finalized_height or block.round in self.blocks:
            raise ForkDetected(f"two notarized blocks in round {block.round}")
        self.blocks[block.round] = block


def finalize(chain: ChainState, current_round: int) -> list[NotarizedBlock]:
    """Finalize every notarized ancestor at least two rounds deep.

    Returns the newly finalized blocks, oldest first, and drops them from
    ``chain.blocks``, keeping the last one's hash.  Idempotent; a linkage
    break (a block whose previous-hash does not match the last final
    block's hash) halts the simulation.
    """
    newly: list[NotarizedBlock] = []
    blocks = chain.blocks
    r = chain.finalized_height + 1
    while r <= current_round - FINALITY_LAG and r in blocks:
        block = blocks[r]
        if chain.finalized_hash is not None and block.proposal.prev_block_hash != chain.finalized_hash:
            raise ForkDetected(f"chain linkage broken at round {r}")
        newly.append(blocks.pop(r))
        chain.finalized_height = r
        chain.finalized_hash = block.block_hash
        r += 1
    return newly
