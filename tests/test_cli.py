"""Command-line surface: flags, config files, emitters, exit codes."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import minagree
from minagree.attachment import AttachmentStrategy
from minagree.cli import CENSORSHIP_KEYS, CONFIG_KEYS, build_sim_config, run_cli
from minagree.errors import ConfigInvalid
from minagree.harness import DelayModel, SimConfig
from minagree.incentives import RewardPolicy


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_entry_point(*argv, stdin=None):
    """Run ``python -m minagree.cli`` on the package under test."""
    paths = [str(Path(minagree.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", "minagree.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, check=False,
    )


def test_entry_point_runs_the_readme_bandwidth_example():
    done = run_entry_point("bandwidth", "--tps", "1000", "--t-block", "10", "--n-vertices", "100")
    assert (done.returncode, done.stdout, done.stderr) == (0, "dag_bytes=332900 compact_bytes=60000\n", "")


def test_entry_point_exits_2_on_bad_input():
    done = run_entry_point("table1", "--sizes", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "minagree: configuration error: sizes must be in [1, 2**64), got 0\n"


def test_bandwidth_prints_formula_values(capsys):
    code, out, _ = run(capsys, "bandwidth", "--tps", "1000", "--t-block", "10", "--n-vertices", "100")
    assert code == 0
    assert "dag_bytes=332900 compact_bytes=60000" in out


def test_bandwidth_file_output_json(tmp_path, capsys):
    out_file = tmp_path / "bw.json"
    code, _, _ = run(
        capsys, "bandwidth", "--tps", "1", "--t-block", "1", "--n-vertices", "1",
        "--format", "json", "-o", str(out_file),
    )
    assert code == 0
    assert json.loads(out_file.read_text()) == {"dag_bytes": 161, "compact_bytes": 6}


def test_simulate_missing_config_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--config", "missing.cfg")
    assert code == 2
    assert "missing.cfg" in err


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    cfg = tmp_path / "c.json"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b'\xff\xfe{"seed": 1}')
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert str(cfg) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--set", "n_blocks=2"), ("bandwidth", "--tps", "1", "--t-block", "1", "--n-vertices", "1")],
    ids=["simulate", "bandwidth"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.csv"
    code, _, err = run(capsys, *argv, "-o", str(target))
    assert code == 2
    assert str(target) in err
    assert "Traceback" not in err


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "simulate", "--bogus")[0] == 2


def test_unknown_override_key_rejected(capsys):
    code, _, err = run(capsys, "simulate", "--set", "warp_speed=9")
    assert code == 2
    assert "warp_speed" in err


def test_unknown_config_file_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "n_stakers": 4, "n_attachers": 2,
                               "committee_size": 3, "warp": 1}))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "warp" in err


def test_simulate_csv_shape(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, _, _ = run(
        capsys, "simulate",
        "--set", "n_blocks=6", "--set", "n_stakers=4", "--set", "n_attachers=2",
        "--set", "committee_size=3", "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(out_file.read_text().splitlines()))
    assert rows[0] == ["round", "proposal_size", "fees", "coverage", "carried_over"]
    assert len(rows) == 7
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(6)]


def test_simulate_json_csv_value_parity(tmp_path, capsys):
    args = ["simulate", "--set", "n_blocks=5", "--set", "n_stakers=4",
            "--set", "n_attachers=2", "--set", "committee_size=3", "--set", "seed=11"]
    json_file = tmp_path / "r.json"
    csv_file = tmp_path / "r.csv"
    assert run(capsys, *args, "--format", "json", "-o", str(json_file))[0] == 0
    assert run(capsys, *args, "--format", "csv", "-o", str(csv_file))[0] == 0
    payload = json.loads(json_file.read_text())
    csv_rows = list(csv.DictReader(io.StringIO(csv_file.read_text())))
    assert len(csv_rows) == len(payload["rows"])
    for json_row, csv_row in zip(payload["rows"], csv_rows):
        for key in ("round", "proposal_size", "fees", "coverage", "carried_over"):
            assert json_row[key] == int(csv_row[key])


def test_table1_grid_row_count(tmp_path, capsys):
    out_file = tmp_path / "t1.csv"
    code, _, _ = run(
        capsys, "table1", "--blocks", "5", "--sizes", "4,8",
        "--strategies", "all", "--seed", "7", "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(out_file.read_text().splitlines()))
    assert rows[0] == ["strategy", "n_vertices", "mean_proposal_size", "stddev", "n_blocks", "seed"]
    assert len(rows) == 1 + 8  # 4 strategies x 2 sizes
    assert all(row[5] == "7" for row in rows[1:])


def test_table1_json_matches_csv_values(tmp_path, capsys):
    args = ["table1", "--blocks", "4", "--sizes", "4", "--strategies", "random,greedy", "--seed", "3"]
    json_file = tmp_path / "t.json"
    csv_file = tmp_path / "t.csv"
    assert run(capsys, *args, "--format", "json", "-o", str(json_file))[0] == 0
    assert run(capsys, *args, "--format", "csv", "-o", str(csv_file))[0] == 0
    payload = json.loads(json_file.read_text())
    csv_rows = list(csv.DictReader(io.StringIO(csv_file.read_text())))
    for json_row, csv_row in zip(payload["rows"], csv_rows):
        assert json_row["strategy"] == csv_row["strategy"]
        assert json_row["n_vertices"] == int(csv_row["n_vertices"])
        assert json_row["mean_proposal_size"] == float(csv_row["mean_proposal_size"])
        assert json_row["stddev"] == float(csv_row["stddev"])


def test_table1_rejects_unknown_strategy(capsys):
    code, _, err = run(capsys, "table1", "--strategies", "psychic")
    assert code == 2
    assert "psychic" in err


def test_censorship_csv(tmp_path, capsys):
    out_file = tmp_path / "c.csv"
    code, _, _ = run(
        capsys, "censorship", "--depths", "0-3",
        "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(out_file.read_text().splitlines()))
    assert rows[0] == ["depth", "soft_cost", "hard_feasible"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    costs = [float(r[1]) for r in rows[1:]]
    assert costs == sorted(costs)
    assert set(r[2] for r in rows[1:]) <= {"true", "false"}


IGNORED_BY_CENSORSHIP = [key for key in CONFIG_KEYS if key not in CENSORSHIP_KEYS]


@pytest.mark.parametrize("key", IGNORED_BY_CENSORSHIP)
def test_censorship_rejects_keys_it_does_not_read(tmp_path, capsys, key):
    # the default value is valid, so only the key itself can be at fault
    policy, name, _ = CONFIG_KEYS[key]
    owner = getattr(SimConfig(), policy) if policy else SimConfig()
    text = _cli_text(getattr(owner, name))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 3, key: text}))
    for source in (["--set", f"{key}={text}"], ["--config", str(cfg)]):
        code, out, err = run(capsys, "censorship", "--depths", "0-1", *source)
        assert (code, out) == (2, "")
        assert f"censorship does not read {key!r}" in err


def test_censorship_accepts_the_keys_it_reads(capsys):
    argv = ["censorship", "--depths", "0-2"]
    for key, text in zip(CENSORSHIP_KEYS, ["3", "10", "1/4", "2/3"], strict=True):
        argv += ["--set", f"{key}={text}"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 3


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_censorship_reads_its_config_from_a_pipe(tmp_path):
    # the file is read once, so a config that can only be read once works
    text = json.dumps({"seed": 3, "base_block_reward": 10, "hard_alpha": "2/3"})
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    argv = ("censorship", "--depths", "0-4", "--config")
    piped = run_entry_point(*argv, "/dev/stdin", stdin=text)
    from_file = run_entry_point(*argv, str(cfg))
    assert (piped.returncode, piped.stderr) == (0, "")
    assert len(piped.stdout.splitlines()) == 1 + 5
    assert piped.stdout == from_file.stdout


def test_censorship_rejects_reversed_depth_range(capsys):
    code, out, err = run(capsys, "censorship", "--depths", "0,5-2")
    assert code == 2
    assert out == ""
    assert "5-2" in err


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "n_stakers": 8,
        "n_attachers": 4,
        "committee_size": 3,
        "strategy": "greedy",
        "delay_model": "uniform:2",
        "non_producer_share": "1/4",
        "max_block_txs": 10,
    }))
    config = build_sim_config(str(cfg), ["n_blocks=9", "max_block_txs=none"])
    assert config.seed == 5
    assert config.strategy.kind == "greedy"
    assert config.n_blocks == 9
    assert config.max_block_txs is None
    assert config.delay_model.label() == "uniform:2"
    assert str(config.reward_policy.non_producer_share) == "1/4"


def test_config_rejects_bad_values(tmp_path, capsys):
    with pytest.raises(ConfigInvalid):
        build_sim_config(None, ["seed=abc"])
    with pytest.raises(ConfigInvalid):
        build_sim_config(None, ["strategy=warp"])
    with pytest.raises(ConfigInvalid):
        build_sim_config(None, ["just-a-flag"])
    cfg = tmp_path / "c.json"
    for key in ("non_producer_share", "hard_alpha"):
        cfg.write_text(json.dumps({key: "1/0"}))
        sources = (["--set", f"{key}=1/0"], ["--config", str(cfg)])
        for command, source in product(("simulate", "censorship"), sources):
            code, out, err = run(capsys, command, *source)
            assert (code, out) == (2, "")
            assert f"bad value for {key!r}: '1/0'" in err


def test_simulation_error_exits_1(capsys, monkeypatch):
    import minagree.cli as cli_module
    from minagree.errors import ForkDetected

    def boom(config):
        raise ForkDetected("two blocks in round 3")

    monkeypatch.setattr(cli_module, "run_simulation", boom)
    code, _, err = run(capsys, "simulate", "--set", "n_stakers=4",
                       "--set", "n_attachers=2", "--set", "committee_size=3")
    assert code == 1
    assert "two blocks" in err


DEFAULT_CONFIG_DICT = {
    "seed": 7,
    "n_stakers": 16,
    "n_attachers": 8,
    "committee_size": 5,
    "n_proposers": 3,
    "strategy": {"kind": "random", "metropolis_threshold": 0.5, "metropolis_max_iters": 32},
    "n_blocks": 100,
    "mempool_rate": 8,
    "delay_model": "none",
    "reward_policy": {
        "base_block_reward": 0,
        "non_producer_share": "0",
        "decouple_window": 1,
        "hard_alpha": "1/2",
        "committee_share": "0",
    },
    "max_block_txs": None,
    "visibility_horizon": 1.0,
    "carryover_retry_limit": None,
}


def test_cli_defaults_are_pinned():
    config = build_sim_config(None, [])
    assert config == SimConfig(
        seed=7,
        n_stakers=16,
        n_attachers=8,
        committee_size=5,
        n_proposers=3,
        strategy=AttachmentStrategy("random", metropolis_threshold=0.5, metropolis_max_iters=32),
        n_blocks=100,
        mempool_rate=8,
        delay_model=DelayModel("none"),
        reward_policy=RewardPolicy(
            base_block_reward=0,
            non_producer_share=Fraction(0),
            decouple_window=1,
            hard_alpha=Fraction(1, 2),
            committee_share=Fraction(0),
        ),
        max_block_txs=None,
        visibility_horizon=1.0,
        carryover_retry_limit=None,
    )
    assert config == SimConfig()
    # key order is part of the report format
    assert json.dumps(config.to_dict()) == json.dumps(DEFAULT_CONFIG_DICT)


# (key, --set text, path to the field, expected field value); one per config key
OVERRIDES = [
    ("seed", "11", ("seed",), 11),
    ("n_stakers", "20", ("n_stakers",), 20),
    ("n_attachers", "4", ("n_attachers",), 4),
    ("committee_size", "3", ("committee_size",), 3),
    ("n_proposers", "2", ("n_proposers",), 2),
    ("strategy", "greedy", ("strategy", "kind"), "greedy"),
    ("metropolis_threshold", "0.25", ("strategy", "metropolis_threshold"), 0.25),
    ("metropolis_max_iters", "8", ("strategy", "metropolis_max_iters"), 8),
    ("n_blocks", "9", ("n_blocks",), 9),
    ("mempool_rate", "0", ("mempool_rate",), 0),
    ("delay_model", "fixed:2", ("delay_model",), DelayModel("fixed", 2)),
    ("base_block_reward", "50", ("reward_policy", "base_block_reward"), 50),
    ("non_producer_share", "1/4", ("reward_policy", "non_producer_share"), Fraction(1, 4)),
    ("decouple_window", "3", ("reward_policy", "decouple_window"), 3),
    ("hard_alpha", "2/3", ("reward_policy", "hard_alpha"), Fraction(2, 3)),
    ("committee_share", "1/10", ("reward_policy", "committee_share"), Fraction(1, 10)),
    ("max_block_txs", "12", ("max_block_txs",), 12),
    ("visibility_horizon", "0.5", ("visibility_horizon",), 0.5),
    ("carryover_retry_limit", "3", ("carryover_retry_limit",), 3),
]


def _leaves(payload, prefix=()):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,), value


@pytest.mark.parametrize("key,text,path,expected", OVERRIDES, ids=[o[0] for o in OVERRIDES])
def test_each_override_key_lands_on_its_field(key, text, path, expected):
    config = build_sim_config(None, [f"{key}={text}"])
    value = config
    for name in path:
        value = getattr(value, name)
    assert value == expected
    assert type(value) is type(expected)
    default = dict(_leaves(DEFAULT_CONFIG_DICT))
    changed = [leaf for leaf, got in _leaves(config.to_dict()) if got != default[leaf]]
    assert changed == [path]


def test_config_keys_are_the_fields_in_declaration_order():
    assert list(CONFIG_KEYS) == [key for key, *_ in OVERRIDES]


@pytest.mark.parametrize(
    "argv,header",
    [
        (["simulate", "--set", "n_blocks=2"],
         "round,proposal_size,fees,coverage,carried_over"),
        (["table1", "--blocks", "2", "--sizes", "4", "--strategies", "random"],
         "strategy,n_vertices,mean_proposal_size,stddev,n_blocks,seed"),
        (["censorship", "--depths", "0-1"], "depth,soft_cost,hard_feasible"),
    ],
    ids=["simulate", "table1", "censorship"],
)
def test_csv_headers_are_pinned(capsys, argv, header):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == header


def test_censorship_csv_writes_lowercase_bools(capsys):
    args = ["censorship", "--depths", "0-6"]
    code, csv_out, _ = run(capsys, *args)
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    flags = [row["hard_feasible"] for row in json.loads(json_out)["rows"]]
    assert set(flags) == {True, False}
    assert [row["hard_feasible"] for row in csv.DictReader(io.StringIO(csv_out))] == [
        "true" if flag else "false" for flag in flags
    ]


@pytest.mark.parametrize("value", [2.7, True, False], ids=["fraction", "true", "false"])
def test_integer_keys_reject_bools_and_fractional_numbers(tmp_path, capsys, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_blocks": value}))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "bad value for 'n_blocks'" in err


@pytest.mark.parametrize("key", ["metropolis_threshold", "visibility_horizon"])
@pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
def test_float_keys_reject_bools(tmp_path, capsys, key, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"bad value for {key!r}" in err


@pytest.mark.parametrize("key", ["metropolis_threshold", "visibility_horizon"])
def test_float_keys_reject_ints_too_large_for_a_double(tmp_path, capsys, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"{key}": 1{"0" * 400}}}')
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"bad value for {key!r}" in err


def test_float_keys_accept_numbers(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"metropolis_threshold": 1, "visibility_horizon": 0.5}))
    config = build_sim_config(str(cfg), ["metropolis_threshold=0.25"])
    assert (config.strategy.metropolis_threshold, config.visibility_horizon) == (0.25, 0.5)
    assert build_sim_config(str(cfg), []).strategy.metropolis_threshold == 1.0


def test_integer_keys_accept_integers(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_blocks": 4, "max_block_txs": 2.0, "seed": "9"}))
    config = build_sim_config(str(cfg), ["n_stakers=3", "n_attachers=2", "committee_size=3"])
    assert (config.n_blocks, config.max_block_txs, config.seed) == (4, 2, 9)
    assert build_sim_config(None, ["n_blocks=3"]).n_blocks == 3
    with pytest.raises(ConfigInvalid, match="bad value for 'max_block_txs'"):
        build_sim_config(None, ["max_block_txs=1.5"])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", "visibility_horizon=nan"],
        ["simulate", "--set", "visibility_horizon=inf"],
        ["table1", "--horizon", "nan", "--sizes", "4", "--blocks", "2"],
        ["table1", "--horizon", "inf", "--sizes", "4", "--blocks", "2"],
    ],
    ids=["simulate-nan", "simulate-inf", "table1-nan", "table1-inf"],
)
def test_non_finite_horizon_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "visibility_horizon must be finite" in err


# seeds are hashed as 8 big-endian bytes, so each command takes 0 <= seed < 2**64
SEED_ARGV = {
    "simulate": lambda seed: ["simulate", "--set", f"seed={seed}", "--set", "n_blocks=2"],
    "table1": lambda seed: ["table1", "--seed", str(seed), "--sizes", "4", "--blocks", "2"],
    "censorship": lambda seed: ["censorship", "--set", f"seed={seed}", "--depths", "0-1"],
}


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
@pytest.mark.parametrize("command", sorted(SEED_ARGV))
def test_out_of_range_seed_exits_2(capsys, command, seed):
    code, out, err = run(capsys, *SEED_ARGV[command](seed))
    assert (code, out) == (2, "")
    assert "seed must be in [0, 2**64)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(SEED_ARGV))
def test_largest_seed_runs(capsys, command):
    code, out, err = run(capsys, *SEED_ARGV[command](2**64 - 1))
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize(
    "window, digest",
    [
        (2**63, "d98f4845adc3eec262588da3e0139d6c6b51742b2dbdb446afef583577fab18f"),
        (10**23, "186bfb271a311309414d71975652e70ac76d380df7a55b5dd13dca7b8915f0b4"),
    ],
    ids=["2**63", "10**23"],
)
def test_reward_window_past_ssize_t_runs(capsys, window, digest):
    # a window too large for a deque's maxlen keeps every pot, as a list of
    # all the producer pots did; the digests are of reports made that way
    code, out, err = run(capsys, "simulate", "--set", "n_blocks=3", "--set", f"decouple_window={window}",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table1_rejects_empty_sizes(capsys):
    code, out, err = run(capsys, "table1", "--sizes", ",")
    assert (code, out) == (2, "")
    assert "empty sizes list" in err


@pytest.mark.parametrize("sizes, bad", [("-5", -5), ("4,-1", -1), (str(2**64), 2**64)])
def test_table1_rejects_sizes_below_one(capsys, sizes, bad):
    code, out, err = run(capsys, "table1", f"--sizes={sizes}", "--blocks", "2", "--strategies", "random")
    assert (code, out) == (2, "")
    assert f"sizes must be in [1, 2**64), got {bad}" in err
    assert "Traceback" not in err


def _cli_text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, DelayModel):
        return value.label()
    return str(value)


def test_readme_documents_every_config_key_and_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.M))
    defaults = SimConfig()
    derived = {}
    for key, (policy, name, _) in CONFIG_KEYS.items():
        owner = getattr(defaults, policy) if policy else defaults
        derived[key] = _cli_text(getattr(owner, name))
    assert documented == derived
