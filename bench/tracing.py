"""Per-layer spans around minagree's public calls, installed from outside.

``Tracer.install()`` rebinds module attributes and ``Dag`` methods to
timing wrappers and ``Tracer.uninstall()`` puts the originals back; no
file of the package changes.  A function imported
by name into another module (``from .rounds import greedy_min_cover``)
is rebound in every module that holds it, so calls between layers are
seen too.

Each span records its name, start, end and the index of the span open
around it, taken from a stack kept by the wrappers.  A span's self time
is its duration minus its children's.  Spans stay in memory until
``fold()`` adds them to the totals at the end of a pass.

The per-vertex queries (``cover_mask``, ``cover_cardinality``,
``transaction_in_mask``) run inside ``select_parents`` and
``build_vertex`` once per candidate; they are left unwrapped, because
a span each would cost more than the query, so their time counts to
their caller.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import quantiles

import minagree
from minagree import attachment, dag, harness, incentives, rounds
from minagree.attachment import STRATEGY_NAMES

_OWNERS = (minagree, harness, attachment, dag, dag.Dag, rounds, incentives)

_SELF_TIMES = {
    **{f"attachment.select_parents.{kind}.s": f"attachment.select_parents.{kind}" for kind in STRATEGY_NAMES},
    **{
        f"{span}.s": span
        for span in (
            "attachment.build_vertex",
            "dag.attach",
            "dag.cover_set",
            "dag.prune_finalized",
            "dag.discard_stale_tips",
            "dag.ordered_transactions",
            "rounds.greedy_min_cover",
            "rounds.make_proposal",
            "rounds.merkle_root",
            "rounds.assemble_block",
            "rounds.draw_roles",
            "rounds.notarize_round",
            "rounds.finalize",
            "incentives.censorship_cost",
            "incentives.distribute_rewards",
        )
    },
    "harness.self_s": "harness.run_simulation",
    "harness.censorship_experiment.self_s": "harness.censorship_experiment",
}
_PER_PASS_COUNTS = {
    "attachment.select_parents.calls": "select_parents.calls",
    "dag.attach.calls": "attach.calls",
    "dag.prune_finalized.vertices": "prune.vertices",
    "dag.discard_stale_tips.flagged": "discard.flagged",
    "rounds.greedy_min_cover.picks": "greedy_min_cover.picks",
    "rounds.merkle_root.leaves": "merkle_root.leaves",
    "rounds.assemble_block.carried": "assemble_block.carried",
    "incentives.censorship_cost.calls": "censorship_cost.calls",
}
_MEANS_OVER_CALLS = {
    "attachment.select_parents.pool_mean": ("select_parents.pool", "select_parents.calls"),
    "attachment.build_vertex.listed_ratio": ("build_vertex.listed", "build_vertex.scanned"),
    "rounds.greedy_min_cover.candidates_mean": ("greedy_min_cover.candidates", "greedy_min_cover.calls"),
}


# Every metric ``Tracer.metrics`` reports, with its unit.  Times are
# self seconds per pass; counts are per pass; means are over calls.
LAYER_UNITS = {
    **{metric: "s" for metric in _SELF_TIMES},
    **{metric: "count" for metric in _PER_PASS_COUNTS},
    **{metric: "ratio" if metric.endswith("_ratio") else "count" for metric in _MEANS_OVER_CALLS},
    "dag.active_mean": "count",
    "harness.round_ms.p50": "ms",
    "harness.round_ms.p90": "ms",
}


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans, counts and gauges of one traced run, summed over its passes."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active: list[int] = []  # dag.active_count just before each prune
        self.round_ms: list[float] = []
        self._marks: list[float] = []
        self._pruning_from = 0
        self.passes = 0

    def _span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may derive the label from the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrappers(self) -> dict:
        """Map each traced function to its wrapper."""
        counts = self.counts

        def calls(key: str):
            def after(args, kwargs, result):
                counts[key] += 1
            return after

        def after_select(args, kwargs, result):
            tips = _arg(args, kwargs, 3, "tips")
            counts["select_parents.calls"] += 1
            counts["select_parents.pool"] += len(tips) if tips is not None else len(args[0].eligible_tips())

        def after_build(args, kwargs, vertex):
            counts["build_vertex.listed"] += len(vertex.tx_hashes)
            counts["build_vertex.scanned"] += len(_arg(args, kwargs, 2, "mempool"))

        def before_prune(args, kwargs):
            self._pruning_from = args[0].active_count
            self.active.append(self._pruning_from)

        def after_prune(args, kwargs, result):
            counts["prune.vertices"] += self._pruning_from - args[0].active_count

        def after_discard(args, kwargs, flagged):
            counts["discard.flagged"] += flagged

        def after_cover(args, kwargs, picks):
            pool = _arg(args, kwargs, 2, "pool")
            counts["greedy_min_cover.calls"] += 1
            counts["greedy_min_cover.picks"] += len(picks)
            counts["greedy_min_cover.candidates"] += len(pool) if pool is not None else len(args[0].eligible_tips())

        def after_merkle(args, kwargs, root):
            counts["merkle_root.leaves"] += len(args[0])

        def after_assemble(args, kwargs, assembled):
            counts["assemble_block.carried"] += len(assembled[1])

        def before_run(args, kwargs):
            self._marks = []

        def after_run(args, kwargs, report):
            marks = self._marks
            self.round_ms.extend((b - a) * 1000.0 for a, b in zip(marks, marks[1:]))

        def select_label(args, kwargs) -> str:
            return f"attachment.select_parents.{_arg(args, kwargs, 1, 'strategy').kind}"

        traced = [
            # (function, span name, before hook, after hook)
            (attachment.select_parents, select_label, None, after_select),
            (attachment.build_vertex, "attachment.build_vertex", None, after_build),
            (dag.Dag.attach, "dag.attach", None, calls("attach.calls")),
            (dag.Dag.cover_set, "dag.cover_set", None, None),
            (dag.Dag.prune_finalized, "dag.prune_finalized", before_prune, after_prune),
            (dag.Dag.discard_stale_tips, "dag.discard_stale_tips", None, after_discard),
            (dag.Dag.ordered_transactions, "dag.ordered_transactions", None, None),
            (rounds.greedy_min_cover, "rounds.greedy_min_cover", None, after_cover),
            (rounds.make_proposal, "rounds.make_proposal", None, None),
            (rounds.merkle_root, "rounds.merkle_root", None, after_merkle),
            (rounds.assemble_block, "rounds.assemble_block", None, after_assemble),
            (rounds.draw_roles, "rounds.draw_roles", None, None),
            (rounds.notarize_round, "rounds.notarize_round", None, None),
            (rounds.finalize, "rounds.finalize", None, None),
            (incentives.censorship_cost, "incentives.censorship_cost", None, calls("censorship_cost.calls")),
            (incentives.distribute_rewards, "incentives.distribute_rewards", None, None),
            (harness.run_simulation, "harness.run_simulation", before_run, after_run),
            (harness.censorship_experiment, "harness.censorship_experiment", None, None),
        ]
        wrappers = {fn: self._span(name, fn, before, after) for fn, name, before, after in traced}

        next_seed = rounds.next_seed

        def mark_round(*args, **kwargs):
            # rounds are timed between beacon advances, without a span
            self._marks.append(time.perf_counter())
            return next_seed(*args, **kwargs)

        wrappers[next_seed] = mark_round
        return wrappers

    def install(self) -> list:
        """Rebind every traced function wherever it is bound; returns the undo list."""
        undo: list = []
        try:
            for fn, wrapper in self._wrappers().items():
                bound = [(owner, attr) for owner in _OWNERS for attr, value in vars(owner).items() if value is fn]
                if not bound:
                    raise RuntimeError(f"{fn.__qualname__} is bound nowhere; the tracer is out of date")
                for owner, attr in bound:
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall(undo)
            raise
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def fold(self) -> list[list]:
        """Add the current pass's self times to the totals; return and clear its spans."""
        spans = list(self.spans)
        self.spans.clear()
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), child in zip(spans, children):
            self.self_s[name] += end - start - child
        self.passes += 1
        return spans

    def metrics(self) -> dict[str, float]:
        """Every metric of ``LAYER_UNITS`` over the passes folded so far."""
        n = max(self.passes, 1)
        s, c = self.self_s, self.counts
        out = {metric: s[span] / n for metric, span in _SELF_TIMES.items()}
        for metric, key in _PER_PASS_COUNTS.items():
            out[metric] = c[key] / n
        for metric, (total, calls) in _MEANS_OVER_CALLS.items():
            out[metric] = _ratio(c[total], c[calls])
        out["dag.active_mean"] = _ratio(sum(self.active), len(self.active))
        if len(self.round_ms) > 1:
            deciles = quantiles(self.round_ms, n=10, method="inclusive")
            out["harness.round_ms.p50"], out["harness.round_ms.p90"] = deciles[4], deciles[8]
        else:
            out["harness.round_ms.p50"] = out["harness.round_ms.p90"] = 0.0
        return out
