"""The minagree benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src`` in child
processes, so set-up is timed from outside the interpreter.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run.  Every operation is
checked (see ``workloads.py``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result and
the environment it was measured in are also written to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json`` and, for a
traced run, the spans of one pass to ``.bench_out/spans-...jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 10


class BenchError(Exception):
    pass


def start_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run ``worker.py`` to completion; return its set-up seconds and result."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["ready"] - started, result


def environment(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    try:
        loadavg = Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "seed": seed,
        "loadavg": loadavg,
    }


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, dict]:
    """The contract's end-to-end metrics, and the named extras printed beside them.

    ``wall_ref`` is the time of one sweep over the seed's inputs in units
    of the reference routine (``reference.py``): each pass's time over
    the time of the reference call right after it, the median of these
    ratios per input, summed over the inputs.  The host's speed drifts
    by 20 to 40 % over tens of seconds and moves a pass and the
    reference beside it alike, while a change to minagree moves the pass
    only.  Summing over the inputs evens out their sizes.  The same
    sweep in host seconds, ``wall_s``, is printed beside it.
    """
    ratios = [[p / r for p, r in zip(ps, rs)] for ps, rs in zip(raw["wall_s"], raw["reference_s"])]
    wall = sum(median(times) for times in raw["wall_s"])
    rate = raw["work_per_pass"] * len(raw["wall_s"]) / wall
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_ref": (sum(median(r) for r in ratios), "ref"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    extras = {
        "wall_s": (wall, "s"),
        "wall_s.fastest": (sum(min(times) for times in raw["wall_s"]), "s"),
        "wall_s.slowest": (sum(max(times) for times in raw["wall_s"]), "s"),
        "reference_s": (median(t for times in raw["reference_s"] for t in times), "s"),
        "inputs": (len(raw["wall_s"]), "count"),
        "passes": (sum(len(times) for times in raw["wall_s"]), "count"),
        f"{raw['work_unit']}_per_s": (rate, "1/s"),
        "fail_ratio": (raw["failed"] / raw["attempted"], "ratio"),
        "ops_total": (raw["attempted"], "count"),
    }
    if raw["settled_per_sweep"]:
        extras["txs_settled_per_s"] = (raw["settled_per_sweep"] / wall, "1/s")
    return metrics, extras


def per_layer(raw: dict) -> dict:
    """The traced run's layer metrics plus the tracing overhead.

    Layer times are means per traced pass, so they add up to
    ``trace.wall_s``, the mean traced pass.  The overhead is the median
    ratio of each traced pass to the untraced pass just before it on
    the same input, which cancels the host's slow speed swings.
    """
    traced = [t for times in raw["traced_wall_s"] for t in times]
    plain = [t for times in raw["wall_s"] for t in times]
    pairs = [t / p for ts, ps in zip(raw["traced_wall_s"], raw["wall_s"]) for t, p in zip(ts, ps)]
    return {
        **{name: tuple(pair) for name, pair in raw["layers"].items()},
        "trace.wall_s": (fmean(traced), "s"),
        "trace.untraced_wall_s": (fmean(plain), "s"),
        "trace.overhead_ratio": (median(pairs), "ratio"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """Run the worker and, untraced, the set-up probes; return raw, metrics, extras.

    Half the probes run before the worker and half after it, so set-up
    is sampled at two moments of the host's load.
    """
    deadline = time.monotonic() + TIME_LIMIT_S
    common = [workload, str(seed), str(seconds), str(int(trace))]

    def probe(count: int) -> list[float]:
        return [start_worker([*common, "--probe"], deadline)[0] for _ in range(count)]

    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        _, raw = start_worker([*common, "--spans", str(spans)], deadline)
    else:
        probe(1)  # warms the bytecode cache
        setups = probe(SETUP_PROBES // 2)
        setup, raw = start_worker(common, deadline)
        setups += [setup, *probe(SETUP_PROBES - SETUP_PROBES // 2)]
    if not all(raw["wall_s"]) or (trace and not all(raw["traced_wall_s"])):
        raise BenchError("an input completed no pass:\n" + "\n".join(raw["problems"]))
    if trace:
        return raw, per_layer(raw), {}
    metrics, extras = end_to_end(raw, setups)
    return raw, metrics, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="minagree benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not (ROOT / "src" / "minagree" / "__init__.py").is_file():
        print(f"bench: no minagree source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    try:
        raw, metrics, extras = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in raw["problems"]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "environment": env, **result,
              "extras": {k: v for k, (v, _) in extras.items()}, "problems": raw["problems"]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
