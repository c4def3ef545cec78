"""Child process of the benchmark: set up one workload and measure it.

``run.py`` starts it as ``python3 -I bench/worker.py WORKLOAD SEED
SECONDS TRACE`` and reads the one JSON line it prints.  With
``--probe`` it stops once the package is imported and the inputs are
built, so the parent can time set-up from outside the interpreter.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    # -I keeps the environment's paths out; use the checkout's source only
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).parent)]

from reference import reference  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402


def measure(workload, runs: list, seed: int, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """Check a warm-up pass of every input, then cycle through ``runs`` for ``seconds``.

    Every input is timed at least once, and the pass times are kept per
    input.  Every pass is checked.  Without ``trace`` each pass is
    followed by a timed call of the reference routine, and its time is
    kept beside the pass's.  With ``trace`` each untraced pass is
    followed by a traced pass over the same input, whose output must
    equal the untraced output byte for byte; the spans of the first
    traced pass are written to ``spans_path``.
    """
    checker = Checker(workload, seed)
    tracer = Tracer() if trace else None
    plain: list[list[float]] = [[] for _ in runs]
    traced: list[list[float]] = [[] for _ in runs]
    refs: list[list[float]] = [[] for _ in runs]
    settled: list[int | None] = [None for _ in runs]

    def one_pass(index: int, times: list[float]) -> None:
        gc.collect()  # start every pass from the same heap; collection inside it still counts
        start = time.perf_counter()
        try:
            done = runs[index]()
        except Exception:  # a raising pass fails all its operations
            checker.fail(traceback.format_exc(limit=4))
            return
        times.append(time.perf_counter() - start)
        checker.check(done)
        settled[index] = sum(op.settled for op in done.ops)

    def time_reference(times: list[float]) -> None:
        gc.collect()
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)

    for index in range(len(runs)):
        one_pass(index, [])
    # the reference routine's own heap must not count as the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        time_reference([])
    deadline = time.perf_counter() + seconds
    for count in itertools.count(1):
        index = (count - 1) % len(runs)
        one_pass(index, plain[index])
        if tracer is None:
            time_reference(refs[index])
        else:
            undo = tracer.install()
            try:
                one_pass(index, traced[index])
            finally:
                Tracer.uninstall(undo)
            spans = tracer.fold()
            if spans_path is not None and tracer.passes == 1:
                _write_spans(spans_path, spans)
        if count >= len(runs) and time.perf_counter() >= deadline:
            break

    return {
        "work_unit": workload.work_unit,
        "work_per_pass": workload.work_per_pass,
        "wall_s": plain,
        "traced_wall_s": traced,
        "reference_s": refs,
        "settled_per_sweep": sum(n or 0 for n in settled),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "layers": {name: (value, LAYER_UNITS[name]) for name, value in tracer.metrics().items()} if trace else {},
    }


def _write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent}))
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    runs = workload.prepare(args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.probe:
        result.update(measure(workload, runs, args.seed, args.seconds, bool(args.trace), args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
