"""Experiment reports pinned by value: one SHA-256 literal per corpus.

Each corpus runs the CLI over a fixed grid and hashes the concatenated
stdout (and any ``-o`` file), so a change anywhere between the config
and the emitter that alters a single byte fails here.  The bad-input
corpus hashes each exit code and stderr instead, with the temporary
directory written as a fixed token.  Re-recording a literal is a
deliberate change to a report and needs a stated reason.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from minagree.cli import run_cli

TABLE1_CORPUS = [
    ["table1", "--format", "json", "--strategies", "all", "--sizes", "6,30", "--blocks", "20",
     "--seed", str(seed), "--horizon", str(horizon)]
    for seed, horizon in product((7, 11), (0.5, 1.0))
]

# sizes where the joint-cardinality pair search sees pools of dozens of tips
TABLE1_WIDE_CORPUS = [
    ["table1", "--format", "json", "--strategies", "all", "--sizes", "120,250", "--blocks", "4",
     "--seed", str(seed), "--horizon", str(horizon)]
    for seed, horizon in product((7, 11), (0.3, 1.0))
]

CENSORSHIP_CORPUS = [
    ["censorship", "--format", "json", "--depths", "0-39", "--set", f"seed={seed}",
     "--set", f"hard_alpha={alpha}"]
    for seed, alpha in product((3, 9), ("1/2", "9/10"))
]

# ledgers under a base reward split between producer, attachers and committee
SIMULATE_REWARDS_CORPUS = [
    ["simulate", "--format", "json", "--set", "n_blocks=24", "--set", "base_block_reward=50",
     "--set", "non_producer_share=1/4", "--set", "committee_share=1/2",
     "--set", f"decouple_window={window}", "--set", f"delay_model={delay}",
     "--set", f"max_block_txs={cap}", "--set", f"carryover_retry_limit={retries}"]
    for window, delay, cap, retries in product((3, 8), ("none", "fixed:2", "uniform:3"),
                                               ("none", "3"), ("none", "1"))
]

# long retry-limited runs: dropped transactions give up their fees hundreds
# of rounds into a run, with and without cross-round delay
SIMULATE_LONG_CORPUS = [
    ["simulate", "--format", "json", "--set", "n_blocks=300", "--set", "mempool_rate=50",
     "--set", "max_block_txs=40", "--set", "carryover_retry_limit=1", "--set", f"delay_model={delay}"]
    for delay in ("none", "fixed:2")
]

# one CSV invocation per command, and the bandwidth -o file in both formats
CSV_CORPUS = [
    ["simulate", "--set", "n_blocks=6", "--set", "seed=11", "--set", "strategy=greedy"],
    ["table1", "--blocks", "3", "--sizes", "4,8", "--strategies", "all"],
    ["censorship", "--depths", "0-6", "--set", "base_block_reward=10"],
    ["bandwidth", "--tps", "1000", "--t-block", "10", "--n-vertices", "100", "-o", "{tmp}/bw.csv"],
    ["bandwidth", "--tps", "7", "--t-block", "3", "--n-vertices", "5", "--format", "json",
     "-o", "{tmp}/bw.json"],
]

PINS = {
    "table1": (TABLE1_CORPUS, "1550d20199a6bc46be67c99a758e2e26b64fa45dadf1bba003df50758214e784"),
    "table1_wide": (TABLE1_WIDE_CORPUS, "fbeca084e183ad5e9a7775442cba658ed9745c22a4a3d20fd6384b6369321db6"),
    "censorship": (CENSORSHIP_CORPUS, "0818e3b1615c6a43ffbf05fba5ac0822d799d1a2a2adfcb4f8c0f15ca5afb863"),
    "simulate_rewards": (SIMULATE_REWARDS_CORPUS, "fc2912a571e1f4a80084b5c010454db95e56b377652a7391e6ddbd13fc3f99f4"),
    "simulate_long": (SIMULATE_LONG_CORPUS, "757e7654697045f98adba0971fc68d21044a8eca26ca0ff64fa7d772783bfc75"),
    "csv": (CSV_CORPUS, "4d53f507a089b5281e852d16fddf6995c30a9af4786f088b3b5bb97c5337c924"),
}


@pytest.mark.parametrize("group", sorted(PINS))
def test_report_corpus_is_pinned(capsys, tmp_path, group):
    corpus, expected = PINS[group]
    digest = hashlib.sha256()
    for argv in corpus:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert run_cli(argv) == 0
        digest.update(capsys.readouterr().out.encode())
        if "-o" in argv:
            digest.update(Path(argv[argv.index("-o") + 1]).read_bytes())
    assert digest.hexdigest() == expected


# one invocation per kind of bad input; each exits 2 and prints nothing on stdout
BAD_INPUT_CORPUS = [
    # unknown keys
    ["simulate", "--set", "warp_speed=9"],
    ["simulate", "--config", "{tmp}/unknown.json"],
    ["simulate", "--set", "just-a-flag"],
    # bad values
    ["simulate", "--set", "seed=abc"],
    ["simulate", "--set", "strategy=warp"],
    ["simulate", "--set", "non_producer_share=1/0"],
    ["simulate", "--set", "delay_model=fixed:x"],
    ["simulate", "--set", "n_blocks=0"],
    ["simulate", "--set", "n_attachers=20"],
    ["simulate", "--set", "visibility_horizon=nan"],
    ["simulate", "--config", "{tmp}/bad_value.json"],
    ["bandwidth", "--tps=-1", "--t-block", "1", "--n-vertices", "1"],
    ["censorship", "--set", "hard_alpha=1/0"],
    ["censorship", "--set", "non_producer_share=3/2"],
    ["censorship", "--config", "{tmp}/censorship_bad_value.json"],
    # unreadable configs
    ["simulate", "--config", "{tmp}/missing.json"],
    ["simulate", "--config", "{tmp}/directory.json"],
    ["simulate", "--config", "{tmp}/not_utf8.json"],
    ["simulate", "--config", "{tmp}/not_json.json"],
    ["censorship", "--config", "{tmp}/not_object.json"],
    # unwritable -o
    ["simulate", "--set", "n_blocks=2", "-o", "{tmp}/missing/out.csv"],
    ["table1", "--sizes", "4", "--blocks", "2", "-o", "{tmp}/missing/out.csv"],
    ["bandwidth", "--tps", "1", "--t-block", "1", "--n-vertices", "1", "-o", "{tmp}/missing/out.csv"],
    ["censorship", "--depths", "0-1", "--format", "json", "-o", "{tmp}/directory.json"],
    # bad sizes, strategies and depths
    ["table1", "--sizes", ","],
    ["table1", "--sizes", "4,x"],
    ["table1", "--sizes", "0", "--blocks", "2"],
    ["table1", "--sizes", str(2**64), "--blocks", "2"],
    ["table1", "--strategies", "psychic"],
    ["table1", "--strategies", ","],
    ["censorship", "--depths", "0,5-2"],
    ["censorship", "--depths", "x"],
    ["censorship", "--depths", ","],
    ["censorship", "--depths=-1"],
    # out-of-range seeds
    ["simulate", "--set", "seed=-1", "--set", "n_blocks=2"],
    ["table1", "--seed", str(2**64), "--sizes", "4", "--blocks", "2"],
    ["censorship", "--set", f"seed={2**64}"],
    # keys censorship does not read
    ["censorship", "--set", "n_blocks=5", "--set", "strategy=greedy"],
    ["censorship", "--config", "{tmp}/censorship.json"],
]

BAD_INPUT_FILES = {
    "unknown.json": json.dumps({"seed": 1, "warp": 1}).encode(),
    "bad_value.json": json.dumps({"n_blocks": 2.5}).encode(),
    "not_utf8.json": b'\xff\xfe{"seed": 1}',
    "not_json.json": b'{"seed": 1',
    "not_object.json": b"[1, 2]",
    "censorship.json": json.dumps({"seed": 3, "mempool_rate": 4}).encode(),
    "censorship_bad_value.json": json.dumps({"seed": "x"}).encode(),
}

BAD_INPUT_PIN = "0842189af82fe78ce8ded76e51b2f6eeeb83f9f9c4cde2f220380e326dcede1f"


def test_bad_input_stderr_is_pinned(capsys, tmp_path):
    (tmp_path / "directory.json").mkdir()
    for name, data in BAD_INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    digest = hashlib.sha256()
    for argv in BAD_INPUT_CORPUS:
        code = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        transcript = f"{code}\n{captured.out}{captured.err}"
        digest.update(transcript.replace(str(tmp_path), "{tmp}").encode())
    assert digest.hexdigest() == BAD_INPUT_PIN
