"""Experiment reports pinned by value: one SHA-256 literal per corpus.

Each corpus runs the CLI over a fixed grid and hashes the concatenated
stdout, so a change anywhere between the config and the JSON emitter
that alters a single byte fails here.  Re-recording a literal is a
deliberate change to a report and needs a stated reason.
"""

import hashlib
from itertools import product

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

PINS = {
    "table1": (TABLE1_CORPUS, "1550d20199a6bc46be67c99a758e2e26b64fa45dadf1bba003df50758214e784"),
    "table1_wide": (TABLE1_WIDE_CORPUS, "fbeca084e183ad5e9a7775442cba658ed9745c22a4a3d20fd6384b6369321db6"),
    "censorship": (CENSORSHIP_CORPUS, "0818e3b1615c6a43ffbf05fba5ac0822d799d1a2a2adfcb4f8c0f15ca5afb863"),
}


@pytest.mark.parametrize("group", sorted(PINS))
def test_report_corpus_is_pinned(capsys, group):
    corpus, expected = PINS[group]
    digest = hashlib.sha256()
    for argv in corpus:
        assert run_cli(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == expected
