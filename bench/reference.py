"""A fixed reference routine, timed between passes to gauge the host's speed.

On a shared host the speed of one core drifts by 20 to 40 % over tens
of seconds, and a run of the benchmark cannot choose its moment.  The
routine below is timed right after every pass of an untraced run, in
the same process, so each pass has a measure of how fast the host was at
that moment.  It calls nothing of minagree: a change to the program
moves the pass times only, while a drift of the host moves both.

It does the kinds of work the workloads do, on a working set of a few
megabytes: it allocates small dicts that hold 1000-bit integer masks,
visits them in a shuffled order and counts the bits of unions of masks.
A tight loop that stays in the first-level cache drifts less than the
workloads do and gauges them worse.
"""

from __future__ import annotations

import random

OBJECTS = 30_000
MASKS = 400


def reference() -> int:
    rng = random.Random(12345)
    masks = [rng.getrandbits(1000) for _ in range(MASKS)]
    objects = [{"id": i, "mask": masks[i % MASKS], "pair": (i, i + 1)} for i in range(OBJECTS)]
    order = list(range(OBJECTS))
    rng.shuffle(order)
    total = 0
    for k in order:
        total += (objects[k]["mask"] | masks[k % (MASKS - 3)]).bit_count()
    return total

