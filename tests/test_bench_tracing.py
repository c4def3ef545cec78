"""The benchmark's tracer still fits the package's call signatures.

``bench/tracing.py`` rebinds public functions by name and its hooks read
arguments by position or keyword; an API change that leaves a wrapped
name unbound, or moves an argument a hook reads, fails here too.
"""

import importlib.util
import json
from pathlib import Path

from helpers import recording_finalize
import minagree
from minagree import attachment, dag, harness, incentives, rounds
from minagree.harness import (
    SimConfig,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("minagree_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    owners = (minagree, harness, attachment, dag, dag.Dag, rounds, incentives)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_counts_a_tiny_run_of_each_experiment_and_uninstalls(monkeypatch):
    tracing = _load_tracing()
    config = SimConfig(n_blocks=6, mempool_rate=6, max_block_txs=4, n_proposers=3)
    plain = run_simulation(config)
    final = []
    monkeypatch.setattr(harness, "finalize", recording_finalize(final))
    # the tracer counts calls in this process, so the cells must not run in children
    monkeypatch.setattr(harness, "_cell_workers", lambda: 1)
    before = _bindings()

    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        report = run_simulation(config)
        blocks = final + list(report.chain.blocks.values())
        cells = table1_experiment(["greedy", "joint_cardinality"], [6], n_blocks=3)
        rows = censorship_experiment(SimConfig(), [0, 1, 2])
    finally:
        tracer.uninstall(undo)
    tracer.fold()
    assert _bindings() == before

    assert json.dumps(report.to_dict()) == json.dumps(plain.to_dict())
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.LAYER_UNITS)

    # two Table-1 cells of 3 rounds with 6 attachers each
    attaches = config.n_blocks * config.n_attachers + 2 * 3 * 6
    assert metrics["attachment.select_parents.calls"] == attaches
    assert metrics["attachment.select_parents.pool_mean"] > 0
    assert 0 < metrics["attachment.build_vertex.listed_ratio"] <= 1
    # the comb of censorship_experiment: a spine vertex per level, a side
    # vertex from level 2, over depths 0..2 (four levels)
    assert metrics["dag.attach.calls"] == attaches + 4 + 3
    assert metrics["rounds.assemble_block.carried"] == sum(row.carried_over for row in report.rows)
    assert metrics["rounds.assemble_block.carried"] > 0
    assert [block.round for block in blocks] == list(range(config.n_blocks))
    assert metrics["rounds.merkle_root.leaves"] == sum(len(block.proposal.body.tx_list) for block in blocks)
    picks = sum(row.proposal_size for row in report.rows) + sum(cell.mean_proposal_size * 3 for cell in cells)
    assert metrics["rounds.greedy_min_cover.picks"] == picks
    assert metrics["rounds.greedy_min_cover.candidates_mean"] > 0
    assert metrics["incentives.censorship_cost.calls"] == len(rows) == 3
    assert metrics["harness.round_ms.p50"] > 0
