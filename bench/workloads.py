"""The benchmark workloads: inputs made from a seed, one pass of public
``minagree.harness`` calls, and the checks every operation must pass.

A pass is one closed-loop batch experiment in one process and one
thread.  A seed stands for ``INPUTS_PER_SEED`` inputs, and the benchmark
cycles through them pass after pass, so a run depends far less on the
seed than the time of any one input does.  Every repetition of an
operation must produce the same bytes.  An operation is one Table-1
cell, one simulation or one priced censorship depth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from minagree import harness
from minagree.attachment import AttachmentStrategy
from minagree.incentives import RewardPolicy

DEFAULT_SEED = 7
INPUTS_PER_SEED = 4
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


@dataclass
class Op:
    """The checked outcome of one operation."""

    key: str
    canonical: bytes  # full output; repetitions must match it byte for byte
    problems: list[str] = field(default_factory=list)
    settled: int = 0


@dataclass
class Pass:
    """The operations of one pass over one input.

    ``fingerprint`` is compared with the value recorded for this input
    at the default seed.
    """

    key: str
    ops: list[Op]
    fingerprint: str


def input_seeds(seed: int) -> list[int]:
    """The seeds of the inputs one benchmark seed stands for."""
    return [seed * INPUTS_PER_SEED + i for i in range(INPUTS_PER_SEED)]


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj)).hexdigest()[:16]


@dataclass(frozen=True)
class Table1Workload:
    """One ``table1_experiment`` call: a cell per strategy at one size."""

    name: str
    strategies: tuple[str, ...]
    n_vertices: int
    n_blocks: int
    work_unit = "rounds"

    @property
    def ops_per_pass(self) -> int:
        return len(self.strategies)

    @property
    def work_per_pass(self) -> int:
        return len(self.strategies) * self.n_blocks

    def prepare(self, seed: int) -> list:
        strategies = [AttachmentStrategy.from_name(s) for s in self.strategies]
        return [lambda s=s: self._run(strategies, s) for s in input_seeds(seed)]

    def _run(self, strategies, seed: int) -> Pass:
        ops, means = [], []
        for cell in harness.table1_experiment(strategies, [self.n_vertices], n_blocks=self.n_blocks, seed=seed):
            op = Op(key=f"{cell.strategy}@{cell.n_vertices}", canonical=_canonical(cell.to_dict()))
            # round 0 proposes nothing; later proposals cover at least one tip
            if not 0 < cell.mean_proposal_size <= cell.n_vertices:
                op.problems.append(f"{op.key}: mean proposal size {cell.mean_proposal_size} out of range")
            if cell.stddev < 0 or cell.n_blocks != self.n_blocks:
                op.problems.append(f"{op.key}: malformed cell {cell.to_dict()}")
            ops.append(op)
            means.append(f"{op.key}={cell.mean_proposal_size!r}")
        return Pass(key=str(seed), ops=ops, fingerprint=" ".join(means))


@dataclass(frozen=True)
class SimulateWorkload:
    """One transaction-loaded ``run_simulation`` with the full reward ledger."""

    name: str
    n_blocks: int
    mempool_rate: int = 400
    max_block_txs: int = 360
    work_unit = "rounds"
    ops_per_pass = 1

    @property
    def work_per_pass(self) -> int:
        return self.n_blocks

    def prepare(self, seed: int) -> list:
        return [lambda c=self._config(s): self._run(c) for s in input_seeds(seed)]

    def _config(self, seed: int):
        return harness.SimConfig(
            seed=seed,
            n_stakers=64,
            n_attachers=16,
            committee_size=5,
            n_proposers=3,
            strategy=AttachmentStrategy("random"),
            n_blocks=self.n_blocks,
            mempool_rate=self.mempool_rate,
            max_block_txs=self.max_block_txs,
            carryover_retry_limit=3,
            reward_policy=RewardPolicy(
                base_block_reward=1000,
                non_producer_share=Fraction(1, 4),
                committee_share=Fraction(1, 2),
                decouple_window=8,
            ),
        )

    def _run(self, config) -> Pass:
        report = harness.run_simulation(config)
        agg = report.aggregates
        op = Op(
            key=f"simulate@{self.n_blocks}",
            canonical=_canonical(report.to_dict()),
            settled=agg["total_txs_settled"],
        )
        paid = sum(agg["balances"].values()) + Fraction(agg["reward_residual"])
        collected = agg["total_fees_collected"] + config.reward_policy.base_block_reward * self.n_blocks
        if paid != collected:
            op.problems.append(f"ledger leaks: paid {paid} != collected {collected}")
        accounted = agg["total_txs_settled"] + agg["total_txs_dropped"] + agg["mempool_remaining"]
        if accounted != agg["total_txs_injected"]:
            op.problems.append(f"tx accounting: {accounted} != injected {agg['total_txs_injected']}")
        if len(report.rows) != self.n_blocks:
            op.problems.append(f"{len(report.rows)} rounds reported, expected {self.n_blocks}")
        ledger = {
            key: agg[key]
            for key in ("total_txs_settled", "total_txs_dropped", "mempool_remaining", "balances")
        }
        return Pass(key=str(config.seed), ops=[op], fingerprint=f"{agg['final_block_hash']}:{_digest(ledger)}")


@dataclass(frozen=True)
class CensorWorkload:
    """``censorship_experiment`` over depths 0..max_depth."""

    name: str
    max_depth: int
    work_unit = "depths"

    @property
    def ops_per_pass(self) -> int:
        return self.max_depth + 1

    @property
    def work_per_pass(self) -> int:
        return self.max_depth + 1

    def prepare(self, seed: int) -> list:
        # the CLI's default population; the sweep reads only the seed and
        # the reward policy
        configs = [
            harness.SimConfig(seed=s, n_stakers=16, n_attachers=8, committee_size=5)
            for s in input_seeds(seed)
        ]
        return [lambda c=c: self._run(c) for c in configs]

    def _run(self, config) -> Pass:
        rows = harness.censorship_experiment(config, range(self.max_depth + 1))
        ops = []
        previous = Fraction(0)
        for depth, row in enumerate(rows):
            values = [row.depth, str(row.soft_cost), row.hard_feasible]
            op = Op(key=f"depth={depth}", canonical=_canonical(values))
            if row.depth != depth:
                op.problems.append(f"row {depth} reports depth {row.depth}")
            # excluding a deeper transaction forfeits at least as much
            if row.soft_cost <= 0 or row.soft_cost < previous:
                op.problems.append(f"depth {depth}: soft cost {row.soft_cost} after {previous}")
            previous = row.soft_cost
            ops.append(op)
        rows_digest = _digest([[str(row.soft_cost), row.hard_feasible] for row in rows])
        return Pass(key=str(config.seed), ops=ops, fingerprint=rows_digest)


WORKLOADS = {
    w.name: w
    for w in (
        Table1Workload("table1_select", ("joint_cardinality", "greedy", "metropolis"), 250, 4),
        SimulateWorkload("simulate_txload", n_blocks=40),
        CensorWorkload("censor_sweep", max_depth=109),
    )
}


class Checker:
    """Counts failed operations across repeated passes.

    An operation fails when an invariant does not hold or when its
    output differs from the first repetition of the same operation on
    the same input.  For a registered workload at the default seed,
    every operation of a pass fails when the pass's fingerprint differs
    from the recorded one.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.first: dict[tuple[str, str], bytes] = {}
        self.recorded: dict[str, str] | None = None
        if seed == DEFAULT_SEED and WORKLOADS.get(workload.name) == workload:
            recorded = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
            self.recorded = recorded[workload.name]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, done: Pass) -> None:
        if len(done.ops) != self.workload.ops_per_pass:
            self.fail(f"input {done.key}: {len(done.ops)} operations in a pass")
            return
        if self.recorded is not None and self.recorded.get(done.key) != done.fingerprint:
            self.fail(f"input {done.key}: fingerprint {done.fingerprint} != recorded {self.recorded.get(done.key)}")
            return
        for op in done.ops:
            problems = list(op.problems)
            if self.first.setdefault((done.key, op.key), op.canonical) != op.canonical:
                problems.append(f"input {done.key}, {op.key}: output differs from its first repetition")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        """Fail every operation of one pass."""
        self.attempted += self.workload.ops_per_pass
        self.failed += self.workload.ops_per_pass
        self.problems.append(problem)
