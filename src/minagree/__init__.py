"""Deterministic simulator for a DAG-plus-chain consensus protocol.

Transactions enter a collaboratively built DAG; beacon-elected roles
attach vertices, propose tip sets, notarize one winner per round and
finalize it two rounds later.  The package also prices the protocol's
incentive mechanisms: coverage-scaled rewards, windowed reward
decoupling, uniform-price fee auctions and the cost of censoring a
transaction.
"""

from .attachment import AttachmentStrategy, build_vertex, select_parents
from .dag import Dag, Transaction, Vertex, genesis_vertex, make_vertex
from .harness import (
    DelayModel,
    SimConfig,
    SimulationReport,
    bandwidth_estimate,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)
from .incentives import (
    LedgerAccounts,
    RewardPolicy,
    RoundEconomics,
    RoundParams,
    censorship_cost,
    check_hard_constraint,
    collusion_profit,
    delta_score,
    distribute_rewards,
    kth_price_clearing,
    proposer_reward,
)
from .rounds import (
    ChainState,
    NotarizedBlock,
    Proposal,
    ProposalBody,
    RoundContext,
    assemble_block,
    draw_roles,
    finalize,
    greedy_min_cover,
    make_proposal,
    merkle_root,
    next_seed,
    notarize_round,
    proposal_body,
)

__version__ = "0.1.0"

__all__ = [
    "AttachmentStrategy",
    "ChainState",
    "Dag",
    "DelayModel",
    "LedgerAccounts",
    "NotarizedBlock",
    "Proposal",
    "ProposalBody",
    "RewardPolicy",
    "RoundContext",
    "RoundEconomics",
    "RoundParams",
    "SimConfig",
    "SimulationReport",
    "Transaction",
    "Vertex",
    "assemble_block",
    "bandwidth_estimate",
    "build_vertex",
    "censorship_cost",
    "censorship_experiment",
    "check_hard_constraint",
    "collusion_profit",
    "delta_score",
    "distribute_rewards",
    "draw_roles",
    "finalize",
    "genesis_vertex",
    "greedy_min_cover",
    "kth_price_clearing",
    "make_proposal",
    "make_vertex",
    "merkle_root",
    "next_seed",
    "notarize_round",
    "proposal_body",
    "proposer_reward",
    "run_simulation",
    "select_parents",
    "table1_experiment",
]
