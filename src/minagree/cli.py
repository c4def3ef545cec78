"""Command-line entry point: config parsing, dispatch and report emission.

Subcommands mirror the harness operations: ``simulate`` runs one
configuration, ``table1`` sweeps the DAG-construction grid,
``bandwidth`` evaluates the wire-cost formulas and ``censorship``
prices transaction exclusion by depth.  Reports are emitted as CSV or
JSON with stable column order, suitable for plotting as-is.

Exit codes: 0 success, 2 configuration or flag errors, 1 simulation
failures.  The environment variable ``MINAGREE_LOG`` (error, info or
debug) controls diagnostic verbosity on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from fractions import Fraction

from .attachment import STRATEGY_NAMES, AttachmentStrategy
from .errors import ConfigInvalid, SimulatorError
from .harness import (
    DelayModel,
    SimConfig,
    bandwidth_estimate,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)
from .incentives import RewardPolicy

log = logging.getLogger("minagree")

_INT_KEYS = (
    "seed",
    "n_stakers",
    "n_attachers",
    "committee_size",
    "n_proposers",
    "n_blocks",
    "tip_discard_age",
    "mempool_rate",
    "metropolis_max_iters",
    "base_block_reward",
    "decouple_window",
)
_FLOAT_KEYS = ("visibility_horizon", "metropolis_threshold")
_FRACTION_KEYS = ("non_producer_share", "hard_alpha", "competitive_lambda", "committee_share")
_OPTIONAL_INT_KEYS = ("max_block_txs", "carryover_retry_limit")
_STRING_KEYS = ("strategy", "delay_model")
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _FRACTION_KEYS + _OPTIONAL_INT_KEYS + _STRING_KEYS

_DEFAULTS = {
    "seed": 7,
    "n_stakers": 16,
    "n_attachers": 8,
    "committee_size": 5,
    "n_proposers": 3,
    "n_blocks": 100,
    "tip_discard_age": 10,
    "mempool_rate": 8,
    "metropolis_max_iters": 32,
    "base_block_reward": 0,
    "decouple_window": 1,
    "visibility_horizon": 1.0,
    "metropolis_threshold": 0.5,
    "non_producer_share": "0",
    "hard_alpha": "1/2",
    "competitive_lambda": "1/2",
    "committee_share": "0",
    "max_block_txs": None,
    "carryover_retry_limit": None,
    "strategy": "random",
    "delay_model": "none",
}


def _coerce(key: str, value) -> object:
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _FRACTION_KEYS:
            return Fraction(str(value))
        if key in _OPTIONAL_INT_KEYS:
            if value is None or (isinstance(value, str) and value.lower() in ("none", "null", "")):
                return None
            return int(value)
        if key in _STRING_KEYS:
            return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad value for {key!r}: {value!r}") from exc
    raise ConfigInvalid(f"unknown config key {key!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"config file {path} must hold a flat JSON object")
    return data


def build_sim_config(config_path: str | None, overrides) -> SimConfig:
    """Merge defaults, the config file and key=value overrides.

    Unknown keys are rejected rather than ignored.
    """
    merged = dict(_DEFAULTS)
    if config_path:
        for key, value in _load_config_file(config_path).items():
            if key not in _ALL_KEYS:
                raise ConfigInvalid(f"unknown config key {key!r} in {config_path}")
            merged[key] = value
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigInvalid(f"override {item!r} is not of the form key=value")
        if key not in _ALL_KEYS:
            raise ConfigInvalid(f"unknown override key {key!r}")
        merged[key] = value
    values = {key: _coerce(key, merged[key]) for key in _ALL_KEYS}

    strategy_name = values["strategy"]
    if strategy_name not in STRATEGY_NAMES:
        raise ConfigInvalid(
            f"unknown strategy {strategy_name!r}; expected one of {', '.join(STRATEGY_NAMES)}"
        )
    try:
        strategy = AttachmentStrategy(
            kind=strategy_name,
            metropolis_threshold=values["metropolis_threshold"],
            metropolis_max_iters=values["metropolis_max_iters"],
        )
        policy = RewardPolicy(
            base_block_reward=values["base_block_reward"],
            non_producer_share=values["non_producer_share"],
            decouple_window=values["decouple_window"],
            hard_alpha=values["hard_alpha"],
            competitive_lambda=values["competitive_lambda"],
            committee_share=values["committee_share"],
        )
        config = SimConfig(
            seed=values["seed"],
            n_stakers=values["n_stakers"],
            n_attachers=values["n_attachers"],
            committee_size=values["committee_size"],
            n_proposers=values["n_proposers"],
            strategy=strategy,
            n_blocks=values["n_blocks"],
            tip_discard_age=values["tip_discard_age"],
            mempool_rate=values["mempool_rate"],
            delay_model=DelayModel.parse(values["delay_model"]),
            reward_policy=policy,
            max_block_txs=values["max_block_txs"],
            visibility_horizon=values["visibility_horizon"],
            carryover_retry_limit=values["carryover_retry_limit"],
        )
    except (ValueError, SimulatorError) as exc:
        raise ConfigInvalid(str(exc)) from exc
    config.validate()
    return config


def _write_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _csv_bool(value: bool) -> str:
    return "true" if value else "false"


def render_simulation(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    columns = ("round", "proposal_size", "delta", "fees", "coverage", "carried_over")
    rows = [
        (r.round, r.proposal_size, float(r.delta), r.fees, r.coverage, r.carried_over)
        for r in report.rows
    ]
    return _write_csv(columns, rows)


def render_table1(cells, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "config": {"n_cells": len(cells)},
            "rows": [cell.to_dict() for cell in cells],
            "aggregates": {},
        }
        return json.dumps(payload, indent=2) + "\n"
    columns = ("strategy", "n_vertices", "mean_proposal_size", "stddev", "n_blocks", "seed")
    rows = [
        (c.strategy, c.n_vertices, c.mean_proposal_size, c.stddev, c.n_blocks, c.seed)
        for c in cells
    ]
    return _write_csv(columns, rows)


def render_bandwidth(dag_bytes: int, compact_bytes: int, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"dag_bytes": dag_bytes, "compact_bytes": compact_bytes}, indent=2) + "\n"
    return _write_csv(("dag_bytes", "compact_bytes"), [(dag_bytes, compact_bytes)])


def render_censorship(rows, fmt: str) -> str:
    if fmt == "json":
        payload = {"rows": [row.to_dict() for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    columns = ("depth", "soft_cost", "hard_feasible")
    return _write_csv(columns, [(r.depth, float(r.soft_cost), _csv_bool(r.hard_feasible)) for r in rows])


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", output_path)
    else:
        sys.stdout.write(text)


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigInvalid(f"bad sizes list {text!r}") from exc


def _parse_strategies(text: str) -> list[str]:
    if text.strip().lower() == "all":
        return list(STRATEGY_NAMES)
    names = [part.strip().lower() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in STRATEGY_NAMES:
            raise ConfigInvalid(f"unknown strategy {name!r}")
    if not names:
        raise ConfigInvalid("empty strategy list")
    return names


def _parse_depths(text: str) -> list[int]:
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part:
                lo, hi = (int(end) for end in part.split("-", 1))
                if lo > hi:
                    raise ConfigInvalid(f"reversed depth range {part!r} in {text!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError as exc:
        raise ConfigInvalid(f"bad depth list {text!r}") from exc
    if not out:
        raise ConfigInvalid("empty depth list")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minagree",
        description="Deterministic DAG-plus-chain consensus simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sim = sub.add_parser("simulate", help="run one simulation")
    p_sim.add_argument("--config", default=None, help="flat JSON config file")
    p_sim.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    common(p_sim)

    p_t1 = sub.add_parser("table1", help="DAG construction proposal-size grid")
    p_t1.add_argument("--blocks", type=int, default=100)
    p_t1.add_argument("--sizes", default="10,100,1000")
    p_t1.add_argument("--strategies", default="all")
    p_t1.add_argument("--seed", type=int, default=7)
    p_t1.add_argument("--horizon", type=float, default=1.0, help="visibility horizon in rounds")
    common(p_t1)

    p_bw = sub.add_parser("bandwidth", help="wire-cost formulas")
    p_bw.add_argument("--tps", type=int, required=True)
    p_bw.add_argument("--t-block", type=int, required=True)
    p_bw.add_argument("--n-vertices", type=int, required=True)
    common(p_bw)

    p_cen = sub.add_parser("censorship", help="censorship cost by target depth")
    p_cen.add_argument("--config", default=None, help="flat JSON config file")
    p_cen.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
    p_cen.add_argument("--depths", default="0-8")
    common(p_cen)
    return parser


def run_cli(argv=None) -> int:
    level = os.environ.get("MINAGREE_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        ),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "simulate":
            config = build_sim_config(args.config, args.overrides)
            log.info("simulate: %d rounds, strategy %s", config.n_blocks, config.strategy.kind)
            report = run_simulation(config)
            _emit(render_simulation(report, args.format), args.output)
        elif args.command == "table1":
            strategies = _parse_strategies(args.strategies)
            sizes = _parse_sizes(args.sizes)
            log.info("table1: %s x %s over %d blocks", strategies, sizes, args.blocks)
            cells = table1_experiment(
                strategies, sizes, n_blocks=args.blocks, seed=args.seed,
                visibility_horizon=args.horizon,
            )
            _emit(render_table1(cells, args.format), args.output)
        elif args.command == "bandwidth":
            dag_bytes, compact_bytes = bandwidth_estimate(args.tps, args.t_block, args.n_vertices)
            print(f"dag_bytes={dag_bytes} compact_bytes={compact_bytes}")
            if args.output:
                _emit(render_bandwidth(dag_bytes, compact_bytes, args.format), args.output)
        elif args.command == "censorship":
            config = build_sim_config(args.config, args.overrides)
            rows = censorship_experiment(config, _parse_depths(args.depths))
            _emit(render_censorship(rows, args.format), args.output)
    except ConfigInvalid as exc:
        print(f"minagree: configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulatorError as exc:
        print(f"minagree: simulation failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
