"""Command-line surface: flags, config files, emitters, exit codes."""

import csv
import io
import json

import pytest

from minagree.cli import build_sim_config, run_cli
from minagree.errors import ConfigInvalid


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert rows[0] == ["round", "proposal_size", "delta", "fees", "coverage", "carried_over"]
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
        assert json_row["delta"] == float(csv_row["delta"])


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
        "--set", "n_stakers=4", "--set", "n_attachers=2", "--set", "committee_size=3",
        "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(out_file.read_text().splitlines()))
    assert rows[0] == ["depth", "soft_cost", "hard_feasible"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    costs = [float(r[1]) for r in rows[1:]]
    assert costs == sorted(costs)
    assert set(r[2] for r in rows[1:]) <= {"true", "false"}


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


def test_config_rejects_bad_values():
    with pytest.raises(ConfigInvalid):
        build_sim_config(None, ["seed=abc"])
    with pytest.raises(ConfigInvalid):
        build_sim_config(None, ["strategy=warp"])
    with pytest.raises(ConfigInvalid):
        build_sim_config(None, ["just-a-flag"])


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
