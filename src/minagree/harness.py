"""Deterministic round orchestration and the desk-scale experiments.

One simulation executes a fixed number of block rounds on a single
logical timeline.  After the beacon advance and role draw, each round
runs five phases: inject (mempool), attach (one vertex per attacher),
propose (the top-ranked proposer's body, notarization, finality two
rounds back), settle (fees, then pruning) and requeue (the carry-over,
retiring the dropped transactions among it that can no longer settle).
Attach takes one ``Dag.pending`` snapshot of the mempool and cuts every
attacher's payload from its runs of equally listed hashes; the runs
stay exact because only vertices built from that snapshot attach until
the phase ends.  Likewise it keeps one ``RoundPool`` of candidate tips,
which gives each candidate one bit, and each attacher selects from a
``PoolView`` of it: one member mask, the base pool and the vertices the
attacher sees, without the parents of those it sees.
The block's content is recorded once, in the winning proposal's body:
settle reads its transaction list and tip set, requeue its carry-over.
A transaction is its 32-byte hash: the run keeps the fee of each hash
that can still settle, and the mempool maps each queued hash to its
requeue count, so queued ⊆ unsettled; a counter adds up the settled
ones.  Requeue drops a hash from the mempool but keeps its fee while an
active vertex lists it, and forgets the fee of each carried hash that is
neither queued nor listed any more.
The chain keeps a block until it is final, and then only the hash of
the newest final block.
Everything derives from the configured seed and no wall clock or OS
entropy enters, so identical configs give byte-identical reports.

The Table-1 grid runs each cell in a forked child, as many at once as
the process's affinity mask holds cores, the largest cells first.  A
cell's result depends only on its config, so the rows are those of a
serial run, in the same order; the cells run serially in this process
on one core, where ``os.fork`` is missing, or while another thread is
alive.

Attachment visibility model: attachers take their one slot per round in
a seeded random order.  A vertex placed in slot j reaches the attacher
in slot i with an independent per-link gossip delay uniform over the
visibility horizon (default: one full round of slots), so each attacher
works against its own partial snapshot of the round.  Everything from
earlier rounds is public, unless the cross-round delay model holds a
vertex back for whole rounds.  The horizon and delay knobs exist for
sensitivity runs around these defaults.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
import statistics
import threading
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

from .attachment import AttachmentStrategy, PoolView, RoundPool, build_vertex, select_parents
from .dag import (
    COMPACT_TX_BYTES,
    HASH_BYTES,
    VERTEX_OVERHEAD_BYTES,
    Dag,
    _be8,
    _sha256,
    make_vertex,
)
from .errors import ConfigInvalid
from .incentives import (
    RewardPolicy,
    RoundEconomics,
    censorship_cost,
    distribute_rewards,
)
from .rounds import (
    ZERO_HASH,
    ChainState,
    NotarizedBlock,
    ProposalBody,
    RoundContext,
    draw_roles,
    finalize,
    make_proposal,
    next_seed,
    notarize_round,
    proposal_body,
)

FEE_GEOMETRIC_P = 0.125
FEE_CAP = 64


def _geometric_fees(rng: random.Random, count: int) -> list[int]:
    """``count`` seeded geometric fees in whole token units (mean 1/p,
    capped), drawn one after another from ``rng``: each fee takes one
    draw per unit above 1, and one more unless it reaches the cap."""
    draw = rng.random
    fees = []
    for _ in range(count):
        fee = 1
        while fee < FEE_CAP and draw() >= FEE_GEOMETRIC_P:
            fee += 1
        fees.append(fee)
    return fees


@dataclass(frozen=True)
class DelayModel:
    """Extra whole-round visibility delay applied per vertex.

    ``none`` keeps only the intra-round gossip model; ``fixed`` hides
    each vertex for exactly ``rounds`` full rounds (1 = strictly
    synchronous rounds); ``uniform`` draws the delay uniformly from
    0..rounds per vertex.
    """

    kind: str = "none"
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "fixed", "uniform"):
            raise ConfigInvalid(f"unknown delay model {self.kind!r}")
        if self.kind == "none" and self.rounds:
            raise ConfigInvalid("delay model 'none' takes no round count")
        if self.kind != "none" and self.rounds < 1:
            raise ConfigInvalid(f"delay model {self.kind!r} needs rounds >= 1")

    def draw(self, rng: random.Random) -> int:
        if self.kind == "fixed":
            return self.rounds
        if self.kind == "uniform":
            return rng.randint(0, self.rounds)
        return 0

    def label(self) -> str:
        return self.kind if self.kind == "none" else f"{self.kind}:{self.rounds}"

    @classmethod
    def parse(cls, text: str) -> "DelayModel":
        text = text.strip().lower()
        if text == "none":
            return cls()
        kind, sep, count = text.partition(":")
        if not sep:
            raise ConfigInvalid(f"expected 'none', 'fixed:<rounds>' or 'uniform:<rounds>', got {text!r}")
        try:
            return cls(kind=kind, rounds=int(count))
        except ValueError as exc:
            raise ConfigInvalid(f"bad delay round count in {text!r}") from exc


@dataclass(frozen=True)
class SimConfig:
    """One simulation's settings, checked when built; the CLI's config
    keys and defaults are derived from these fields."""

    seed: int = 7
    n_stakers: int = 16
    n_attachers: int = 8
    committee_size: int = 5
    n_proposers: int = 3
    strategy: AttachmentStrategy = AttachmentStrategy("random")
    n_blocks: int = 100
    mempool_rate: int = 8
    delay_model: DelayModel = DelayModel()
    reward_policy: RewardPolicy = RewardPolicy()
    max_block_txs: int | None = None
    visibility_horizon: float = 1.0
    carryover_retry_limit: int | None = None

    def __post_init__(self) -> None:
        counts = {
            "n_stakers": self.n_stakers,
            "n_attachers": self.n_attachers,
            "committee_size": self.committee_size,
            "n_proposers": self.n_proposers,
            "n_blocks": self.n_blocks,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigInvalid(f"{name} must be >= 1, got {value}")
        if self.mempool_rate < 0:
            raise ConfigInvalid("mempool_rate must be >= 0")
        if self.n_attachers > self.n_stakers:
            raise ConfigInvalid("n_attachers cannot exceed n_stakers")
        if self.committee_size > self.n_stakers:
            raise ConfigInvalid("committee_size cannot exceed n_stakers")
        if self.max_block_txs is not None and self.max_block_txs < 0:
            raise ConfigInvalid("max_block_txs must be >= 0 when set")
        if self.visibility_horizon < 0:
            raise ConfigInvalid("visibility_horizon must be >= 0")
        # run_simulation rounds horizon x attachers to a slot count
        if not math.isfinite(self.visibility_horizon * self.n_attachers):
            raise ConfigInvalid("visibility_horizon must be finite")
        if self.carryover_retry_limit is not None and self.carryover_retry_limit < 0:
            raise ConfigInvalid("carryover_retry_limit must be >= 0 when set")
        if not 0 <= self.seed < 2**64:
            raise ConfigInvalid(f"seed must be in [0, 2**64), got {self.seed}")

    def to_dict(self) -> dict:
        return _plain(self)


def _plain(value):
    """JSON form of a config value: a nested policy becomes an object of
    its fields in declaration order, a Fraction its exact string and a
    DelayModel its label."""
    if isinstance(value, DelayModel):
        return value.label()
    if isinstance(value, Fraction):
        return str(value)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


class _ReportRow:
    """Report rows serialize as their fields in order, Fractions as floats."""

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = float(value) if isinstance(value, Fraction) else value
        return out


@dataclass(frozen=True)
class RoundRecord(_ReportRow):
    round: int
    proposal_size: int
    fees: int
    coverage: int
    carried_over: int


@dataclass
class SimulationReport:
    config: dict
    rows: list[RoundRecord]
    aggregates: dict
    chain: ChainState | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "rows": [row.to_dict() for row in self.rows],
            "aggregates": self.aggregates,
        }


class _Run:
    """The state one simulation carries across rounds; :meth:`round` runs one round's phases."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.dag = Dag()
        self.chain = ChainState()
        self.rng = random.Random(config.seed)
        self.stakers = tuple(f"node-{i:05d}" for i in range(config.n_stakers))
        self.seed = ZERO_HASH
        self.prev_hash = ZERO_HASH
        # queued ⊆ unsettled: a dropped tx keeps its fee while an active
        # vertex lists it, since a sibling copy may still settle it
        self.fees: dict[bytes, int] = {}  # unsettled tx -> fee
        self.mempool: dict[bytes, int] = {}  # queued tx -> times requeued
        self.settled = 0  # txs whose fee a block collected
        # publicly unreferenced vertices, active or already settled
        self.frontier = {self.dag.genesis_id}
        self.arrivals: dict[int, list[tuple[bytes, tuple[bytes, ...]]]] = {}
        self.rows: list[RoundRecord] = []
        self.history: list[RoundEconomics] = []
        self.horizon = max(1, round(config.visibility_horizon * config.n_attachers))

    def round(self, r: int) -> None:
        self.seed = next_seed(self.seed, r)
        ctx = draw_roles(self.seed, self.stakers, self.config.n_attachers, self.config.committee_size, r)
        self.inject(r)
        # the previous prune left only last round's vertices, and at first the genesis, active
        targets = [vid for vid in self.dag.vertices if vid != self.dag.genesis_id]
        self.attach(ctx)
        block = self.propose(ctx, targets)
        body = block.proposal.body
        fees = self.settle(body)
        self.requeue(body)
        self.rows.append(
            RoundRecord(
                round=r,
                proposal_size=len(body.tip_set),
                fees=fees,
                coverage=len(targets),
                carried_over=len(body.carried_over),
            )
        )
        self.history.append(
            RoundEconomics(
                round=r,
                fees=fees,
                producer_id=block.proposal.proposer_id,
                attacher_ids=ctx.attachers,
                committee_ids=ctx.committee,
                # greedy_min_cover either covers every target or raises, so
                # the honest coverage ratio is exactly one
                delta=Fraction(1),
            )
        )

    def inject(self, r: int) -> None:
        """Queue the round's transactions: the n-th injected one has the
        id ``_sha256(b"tx", seed, _be8(n))``, counting from 1."""
        rate = self.config.mempool_rate
        sha256, prefix, first = hashlib.sha256, b"tx" + self.seed, r * rate + 1
        ids = [sha256(prefix + n.to_bytes(8, "big")).digest() for n in range(first, first + rate)]
        self.fees.update(zip(ids, _geometric_fees(self.rng, rate)))
        self.mempool.update(dict.fromkeys(ids, 0))

    def attach(self, ctx: RoundContext) -> None:
        """Deliver due arrivals, then attach one vertex per attacher in shuffled slot order."""
        dag, rng, arrivals, horizon = self.dag, self.rng, self.arrivals, self.horizon
        strategy, delay_model, r = self.config.strategy, self.config.delay_model, ctx.round
        # a vertex becomes public the round after its own, or once its
        # cross-round delay has elapsed
        for vid, parents in arrivals.pop(r, ()):
            self.frontier.add(vid)
            self.frontier.difference_update(parents)
        base_pool = sorted(v for v in dag.vertices if v in self.frontier)
        if not base_pool:
            base_pool = sorted(self.frontier)  # settled frontier keeps the chain alive
        pool = RoundPool(dag, base_pool)
        base_bits = (1 << len(base_pool)) - 1
        pending = dag.pending(self.mempool)
        order = list(ctx.attachers)
        rng.shuffle(order)
        # this round's undelayed vertices, gossiped to the later slots, as
        # (slot, bit, parent bits)
        published: list[tuple[int, int, int]] = []
        for i, attacher in enumerate(order):
            seen = removed = 0
            for slot, bit, parent_bits in published:
                age = i - slot
                if age >= horizon or rng.random() < age / horizon:
                    seen |= bit
                    removed |= parent_bits
            parents = select_parents(dag, strategy, rng, tips=PoolView(pool, (base_bits | seen) & ~removed))
            vertex = build_vertex(dag, attacher, pending, parents, r)
            dag.attach(vertex)
            delay = delay_model.draw(rng)
            if delay == 0:
                published.append((i, *pool.publish(vertex.vertex_id)))
            arrivals.setdefault(r + max(delay, 1), []).append((vertex.vertex_id, vertex.parents))

    def propose(self, ctx: RoundContext, targets: list[bytes]) -> NotarizedBlock:
        """Notarize and chain one block over the targets.

        Honest proposers share one body and rank notarization takes the
        top-ranked one, so only that proposal is built.
        """
        body = proposal_body(self.dag, targets, max_block_txs=self.config.max_block_txs)
        proposal = make_proposal(ctx, ctx.proposer_ranking[0], self.prev_hash, body)
        block = notarize_round([proposal], ctx)
        self.chain.add(block)
        finalize(self.chain, ctx.round)
        self.prev_hash = block.block_hash
        return block

    def settle(self, body: ProposalBody) -> int:
        """Settle the block's transactions and prune its cover; returns its fees."""
        fees, mempool = self.fees, self.mempool
        total = 0
        for txh in body.tx_list:
            fee = fees.pop(txh, None)
            if fee is None:
                continue  # an earlier block settled a sibling copy
            mempool.pop(txh, None)
            total += fee
            self.settled += 1
        self.dag.prune_finalized(body.tip_set)
        return total

    def requeue(self, body: ProposalBody) -> None:
        """Requeue the carry-over, dropping a hash requeued more than the
        retry limit allows, and forget the fee of every carried hash that
        is not queued and that no active vertex lists: attachers list only
        queued hashes, so it can never settle.

        Only :meth:`Dag.prune_finalized` unlists a hash, and settle prunes
        the cover whose order the body split into ``tx_list`` and
        ``carried_over``, so a dropped hash that loses its last lister
        either settles in this block or is carried over by it.
        """
        limit, mempool, fees = self.config.carryover_retry_limit, self.mempool, self.fees
        listed = self.dag.is_listed
        for txh in body.carried_over:
            attempts = mempool.get(txh)
            if attempts is not None:
                attempts += 1
                if limit is None or attempts <= limit:
                    mempool[txh] = attempts  # stays queued for new vertices
                    continue
                del mempool[txh]
            # dropped now or earlier, unless a sibling copy settled it
            if txh in fees and not listed(txh):
                del fees[txh]

    def report(self) -> SimulationReport:
        ledger = distribute_rewards(self.history, self.config.reward_policy)
        sizes = [row.proposal_size for row in self.rows]
        injected = self.config.mempool_rate * len(self.rows)
        aggregates = {
            "mean_proposal_size": float(statistics.fmean(sizes)),
            "stddev_proposal_size": float(statistics.pstdev(sizes)),
            "finalized_height": self.chain.finalized_height,
            "total_fees_collected": sum(row.fees for row in self.rows),
            "total_txs_injected": injected,
            "total_txs_settled": self.settled,
            "total_txs_dropped": injected - self.settled - len(self.mempool),
            "mempool_remaining": len(self.mempool),
            "active_vertices": self.dag.active_count,
            "balances": {node: bal for node, bal in sorted(ledger.balances.items()) if bal},
            "reward_residual": str(ledger.residual),
            "final_block_hash": self.prev_hash.hex(),
        }
        return SimulationReport(
            config=self.config.to_dict(),
            rows=self.rows,
            aggregates=aggregates,
            chain=self.chain,
        )


def run_simulation(config: SimConfig) -> SimulationReport:
    """Execute the configured number of rounds and report per-round metrics.

    Each round's winning proposal covers every still-active vertex
    appended in the previous round; its cover is pruned as soon as the
    block is assembled, so consecutive blocks never overlap and no
    vertex outlives the round after its own.
    """
    run = _Run(config)
    for r in range(config.n_blocks):
        run.round(r)
    return run.report()


def bandwidth_estimate(n_tps: int, t_block: int, n_vertices: int) -> tuple[int, int]:
    """Bytes moved per round by the DAG versus a compact block.

    The DAG carries each 32-byte transaction hash once plus a fixed
    per-vertex overhead (signature and two parent links); the compact
    block carries a 6-byte short hash per transaction.
    """
    if n_tps < 0 or t_block < 0 or n_vertices < 0:
        raise ConfigInvalid("bandwidth inputs must be non-negative")
    n_txs = n_tps * t_block
    dag_bytes = HASH_BYTES * n_txs + VERTEX_OVERHEAD_BYTES * n_vertices
    compact_bytes = COMPACT_TX_BYTES * n_txs
    return dag_bytes, compact_bytes


@dataclass(frozen=True)
class Table1Cell(_ReportRow):
    strategy: str
    n_vertices: int
    mean_proposal_size: float
    stddev: float
    n_blocks: int
    seed: int


def table1_experiment(
    strategies,
    sizes,
    n_blocks: int = SimConfig.n_blocks,
    seed: int = SimConfig.seed,
    visibility_horizon: float = SimConfig.visibility_horizon,
) -> list[Table1Cell]:
    """Mean winning-proposal size per (strategy, attacher count) cell.

    Every cell runs the full round pipeline with zero cross-round delay
    and an empty mempool (proposal sizes do not depend on transaction
    load), on a seed derived independently per cell.  Every cell's
    config is built, and so checked, before any cell runs.  The cells
    then run in forked children, as many at once as this process has
    cores (see :func:`_run_cells`); the rows come back strategy-major,
    in the order of ``strategies`` and ``sizes``, whatever order the
    children finish in.
    """
    if not 0 <= seed < 2**64:
        raise ConfigInvalid(f"seed must be in [0, 2**64), got {seed}")
    for n_vertices in sizes:
        if not 1 <= n_vertices < 2**64:
            raise ConfigInvalid(f"sizes must be in [1, 2**64), got {n_vertices}")
    configs = []
    for strategy in strategies:
        if not isinstance(strategy, AttachmentStrategy):
            strategy = AttachmentStrategy.from_name(strategy)
        for n_vertices in sizes:
            cell_seed = int.from_bytes(
                _sha256(b"cell", _be8(seed), strategy.kind.encode("utf-8"), _be8(n_vertices))[:8],
                "big",
            )
            configs.append(
                SimConfig(
                    seed=cell_seed,
                    n_stakers=n_vertices,
                    n_attachers=n_vertices,
                    committee_size=1,
                    n_proposers=1,
                    strategy=strategy,
                    n_blocks=n_blocks,
                    mempool_rate=0,
                    visibility_horizon=visibility_horizon,
                )
            )
    return [
        Table1Cell(
            strategy=config.strategy.kind,
            n_vertices=config.n_attachers,
            mean_proposal_size=mean,
            stddev=stddev,
            n_blocks=n_blocks,
            seed=seed,
        )
        for config, (mean, stddev) in zip(configs, _run_cells(configs))
    ]


def _cell(config: SimConfig) -> tuple[float, float]:
    """One Table-1 cell: the mean and standard deviation of its proposal sizes."""
    aggregates = run_simulation(config).aggregates
    return aggregates["mean_proposal_size"], aggregates["stddev_proposal_size"]


def _cell_workers() -> int:
    """How many cells may run at once: the cores in this process's
    affinity mask, or 1 where forking is missing or unsafe (another
    thread is alive, whose locks a child would inherit held)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _run_cells(configs: list[SimConfig]) -> list[tuple[float, float]]:
    """``_cell`` of every config, in order, with up to ``_cell_workers()``
    forked children at a time, the largest cells first.

    Each child sends its marshalled result down a pipe of its own and
    exits at once.  The parent waits on those pipes and reaps only its
    own children's pids, so a caller's other children are left alone.
    A cell whose child fails runs again in this process, so that its
    exception surfaces here; a child still running when the call ends,
    by return or by exception, is killed and reaped.
    """
    workers = min(_cell_workers(), len(configs))
    if workers <= 1:
        return [_cell(config) for config in configs]
    # imported here: the serial path needs neither, and a process that
    # never forks cells should not carry their memory
    import select
    import signal

    results: list = [None] * len(configs)
    todo = sorted(range(len(configs)), key=lambda i: configs[i].n_attachers, reverse=True)  # ties in row order
    running: dict[int, tuple[int, int]] = {}  # read end -> (cell index, child pid)
    try:
        while todo or running:
            while todo and len(running) < workers:
                index = todo.pop(0)
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:  # the child: run one cell, report, and leave without cleanup
                    code = 1
                    try:
                        os.write(write_end, marshal.dumps(_cell(configs[index])))
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write_end)
                running[read_end] = (index, pid)
            ready, _, _ = select.select(list(running), [], [])
            for read_end in ready:
                index, pid = running[read_end]
                payload = os.read(read_end, 64)  # the child's one short write arrives whole; b"" if it failed
                _, status = os.waitpid(pid, 0)
                del running[read_end]
                os.close(read_end)
                if os.waitstatus_to_exitcode(status) == 0:
                    results[index] = marshal.loads(payload)
                else:
                    results[index] = _cell(configs[index])
    finally:
        for read_end, (_, pid) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
    return results


@dataclass(frozen=True)
class CensorshipRow(_ReportRow):
    depth: int
    soft_cost: Fraction
    hard_feasible: bool


def censorship_experiment(config: SimConfig, target_depths) -> list[CensorshipRow]:
    """Censorship cost as a function of target depth.

    Grows a comb-shaped DAG (a spine with one side tip per level, so
    excluding a spine vertex forfeits exactly its continuation), plants
    one fee-bearing transaction per spine vertex and prices the best
    censoring proposal against honest maximal coverage at every
    requested depth.  Depth 0 is the spine tip itself.
    """
    depths = sorted(set(int(d) for d in target_depths))
    if not depths or depths[0] < 0:
        raise ConfigInvalid("target depths must be non-negative")
    levels = depths[-1] + 2
    # one fee per planted transaction; nothing else draws from the rng
    total_fees = sum(_geometric_fees(random.Random(config.seed), levels))

    dag = Dag()
    spine_txs: list[bytes] = []
    prev = dag.genesis_id
    for level in range(1, levels + 1):
        txh = _sha256(b"censorship-tx", _be8(config.seed), _be8(level))
        spine = make_vertex((prev, prev), f"spine-{level:04d}", level, (txh,))
        dag.attach(spine)
        if level >= 2:
            side = make_vertex((prev, prev), f"side-{level:04d}", level, ())
            dag.attach(side)
        spine_txs.append(txh)
        prev = spine.vertex_id

    n_vertices = dag.active_count - 1  # genesis is not attachable work
    out = []
    for depth in depths:
        target = spine_txs[levels - 1 - depth]
        cost, feasible = censorship_cost(dag, target, n_vertices, total_fees, config.reward_policy)
        out.append(CensorshipRow(depth=depth, soft_cost=cost, hard_feasible=feasible))
    return out
