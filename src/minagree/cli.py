"""Command-line entry point: config parsing, dispatch and report emission.

Subcommands mirror the harness operations: ``simulate`` runs one
configuration, ``table1`` sweeps the DAG-construction grid,
``bandwidth`` evaluates the wire-cost formulas and ``censorship``
prices transaction exclusion by depth.  Reports are emitted as CSV or
JSON with stable column order, suitable for plotting as-is.

Exit codes: 0 success, 2 configuration or flag errors, 1 simulation
failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, replace
from fractions import Fraction
from typing import get_type_hints

from .attachment import STRATEGY_NAMES
from .errors import ConfigInvalid, SimulatorError
from .harness import (
    DelayModel,
    SimConfig,
    bandwidth_estimate,
    censorship_experiment,
    run_simulation,
    table1_experiment,
)


def _as_int(value) -> int:
    # int() would truncate 2.7 and read a JSON true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _as_float(value) -> float:
    # float() would read a JSON true as 1.0
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _as_optional_int(value) -> int | None:
    if value is None or (isinstance(value, str) and value.lower() in ("none", "null", "")):
        return None
    return _as_int(value)


# how a config value (JSON or --set text) is read, by field annotation
_COERCERS = {
    int: _as_int,
    float: _as_float,
    Fraction: lambda value: Fraction(str(value)),
    int | None: _as_optional_int,
    str: str,
    DelayModel: lambda value: DelayModel.parse(str(value)),
}


def _config_keys() -> dict:
    """Flat config key -> (policy field or None, field name, coercer).

    Every ``SimConfig`` field is a key, except that a nested policy
    (``strategy``, ``reward_policy``) contributes its own fields instead;
    a policy's ``kind`` goes by the policy's name.
    """
    keys = {}
    hints = get_type_hints(SimConfig)
    for f in fields(SimConfig):
        hint = hints[f.name]
        if hint in _COERCERS:
            keys[f.name] = (None, f.name, _COERCERS[hint])
            continue
        sub_hints = get_type_hints(hint)
        for sub in fields(hint):
            key = f.name if sub.name == "kind" else sub.name
            keys[key] = (f.name, sub.name, _COERCERS[sub_hints[sub.name]])
    return keys


CONFIG_KEYS = _config_keys()
# the keys censorship_experiment reads: the seed plants the fees, the
# reward keys set the price
CENSORSHIP_KEYS = ("seed", "base_block_reward", "non_producer_share", "hard_alpha")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"config file {path} must hold a flat JSON object")
    return data


def _read_settings(config_path: str | None, overrides) -> dict:
    """Raw value of each key the config file, then the key=value
    overrides, set.  Unknown keys are rejected rather than ignored."""
    settings = {}
    if config_path:
        for key, value in _load_config_file(config_path).items():
            if key not in CONFIG_KEYS:
                raise ConfigInvalid(f"unknown config key {key!r} in {config_path}")
            settings[key] = value
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigInvalid(f"override {item!r} is not of the form key=value")
        if key not in CONFIG_KEYS:
            raise ConfigInvalid(f"unknown override key {key!r}")
        settings[key] = value
    return settings


def _sim_config(settings: dict) -> SimConfig:
    """Apply the raw settings of :func:`_read_settings` to ``SimConfig()``."""
    top: dict = {}
    nested: dict = {}
    for key, (policy, name, coerce) in CONFIG_KEYS.items():
        if key not in settings:
            continue
        try:
            value = coerce(settings[key])
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigInvalid(f"bad value for {key!r}: {settings[key]!r}") from exc
        if policy:
            nested.setdefault(policy, {})[name] = value
        else:
            top[name] = value

    defaults = SimConfig()
    try:
        for policy, changes in nested.items():
            top[policy] = replace(getattr(defaults, policy), **changes)
        return replace(defaults, **top)
    except (ValueError, SimulatorError) as exc:
        raise ConfigInvalid(str(exc)) from exc


def build_sim_config(config_path: str | None, overrides) -> SimConfig:
    """Apply the config file, then key=value overrides, to ``SimConfig()``."""
    return _sim_config(_read_settings(config_path, overrides))


def _emit(args, payload: dict, rows: list[dict]) -> None:
    """Write a report to ``args.output``, or stdout: ``payload`` as JSON, or
    ``rows`` as CSV under the first row's keys with bools as true/false."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([("true" if v else "false") if isinstance(v, bool) else v for v in row.values()])
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigInvalid(f"cannot write output file {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigInvalid(f"bad sizes list {text!r}") from exc
    if not sizes:
        raise ConfigInvalid("empty sizes list")
    return sizes


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

    def config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="report format; bandwidth always prints key=value on stdout and formats only the -o file",
        )

    p_sim = sub.add_parser("simulate", help="run one simulation")
    config_flags(p_sim)
    common(p_sim)

    p_t1 = sub.add_parser("table1", help="DAG construction proposal-size grid")
    p_t1.add_argument("--blocks", type=int, default=SimConfig.n_blocks)
    p_t1.add_argument("--sizes", default="10,100,1000")
    p_t1.add_argument("--strategies", default="all")
    p_t1.add_argument("--seed", type=int, default=SimConfig.seed)
    p_t1.add_argument(
        "--horizon", type=float, default=SimConfig.visibility_horizon, help="visibility horizon in rounds"
    )
    common(p_t1)

    p_bw = sub.add_parser("bandwidth", help="wire-cost formulas")
    p_bw.add_argument("--tps", type=int, required=True)
    p_bw.add_argument("--t-block", type=int, required=True)
    p_bw.add_argument("--n-vertices", type=int, required=True)
    common(p_bw)

    p_cen = sub.add_parser("censorship", help="censorship cost by target depth")
    config_flags(p_cen)
    p_cen.add_argument("--depths", default="0-8")
    common(p_cen)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "simulate":
            report = run_simulation(build_sim_config(args.config, args.overrides)).to_dict()
            _emit(args, report, report["rows"])
        elif args.command == "table1":
            strategies = _parse_strategies(args.strategies)
            sizes = _parse_sizes(args.sizes)
            cells = table1_experiment(
                strategies, sizes, n_blocks=args.blocks, seed=args.seed,
                visibility_horizon=args.horizon,
            )
            rows = [cell.to_dict() for cell in cells]
            _emit(args, {"config": {"n_cells": len(rows)}, "rows": rows, "aggregates": {}}, rows)
        elif args.command == "bandwidth":
            dag_bytes, compact_bytes = bandwidth_estimate(args.tps, args.t_block, args.n_vertices)
            if args.output:
                row = {"dag_bytes": dag_bytes, "compact_bytes": compact_bytes}
                _emit(args, row, [row])
            print(f"dag_bytes={dag_bytes} compact_bytes={compact_bytes}")
        elif args.command == "censorship":
            settings = _read_settings(args.config, args.overrides)
            ignored = [key for key in settings if key not in CENSORSHIP_KEYS]
            if ignored:
                raise ConfigInvalid(
                    f"censorship does not read {', '.join(map(repr, ignored))}; "
                    f"it reads only {', '.join(CENSORSHIP_KEYS)}"
                )
            config = _sim_config(settings)
            rows = [row.to_dict() for row in censorship_experiment(config, _parse_depths(args.depths))]
            _emit(args, {"rows": rows}, rows)
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
