"""Transaction DAG: vertex storage, tips, reachability and pruning.

Every vertex references two earlier vertices; following those references
yields the vertex's "cover set" (itself plus everything reachable in its
past).  Cover sets are the quantity every selection strategy and every
proposal policy maximises, so they are tracked incrementally as bitmasks
over the active vertex population.  The bitmask cache is an optimisation
only: correctness is defined by plain breadth-first traversal of the
parent references, which the test suite checks against.

A Dag instance is single-writer: reads may interleave freely between
writes, but all mutating calls on one instance must be totally ordered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import (
    CycleViolation,
    DuplicateCoverage,
    UnknownParent,
    UnknownTransaction,
    UnknownVertex,
)

HASH_BYTES = 32
SIGNATURE_BYTES = 65
PARENT_COUNT = 2
# Per-vertex wire overhead: one signature plus the two parent links.
VERTEX_OVERHEAD_BYTES = SIGNATURE_BYTES + PARENT_COUNT * HASH_BYTES
COMPACT_TX_BYTES = 6

GENESIS_ATTACHER = "genesis"


def _sha256(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def _be8(value: int) -> bytes:
    return value.to_bytes(8, "big")


def _be4(value: int) -> bytes:
    return value.to_bytes(4, "big")


@dataclass(frozen=True)
class Vertex:
    """An append-only DAG node carrying uncovered transaction hashes.

    The identity is the hash of the canonical encoding (parents in
    ascending order, round, attacher, transaction list), so two vertices
    with identical content share an id regardless of construction order.
    """

    parents: tuple[bytes, ...]
    attacher_id: str
    round: int
    tx_hashes: tuple[bytes, ...]
    vertex_id: bytes = field(init=False)

    def __post_init__(self) -> None:
        if self.parents and len(self.parents) != PARENT_COUNT:
            raise ValueError("a non-genesis vertex has exactly two parents")
        if self.round < 0:
            raise ValueError("round must be non-negative")
        for h in self.parents:
            if len(h) != HASH_BYTES:
                raise ValueError("parent references must be 32-byte hashes")
        for h in self.tx_hashes:
            if len(h) != HASH_BYTES:
                raise ValueError("transaction references must be 32-byte hashes")
        object.__setattr__(self, "vertex_id", self._content_hash())

    def _content_hash(self) -> bytes:
        attacher = self.attacher_id.encode("utf-8")
        return _sha256(
            b"vertex",
            bytes([len(self.parents)]),
            *sorted(self.parents),
            _be8(self.round),
            _be4(len(attacher)),
            attacher,
            _be4(len(self.tx_hashes)),
            *self.tx_hashes,
        )


def make_vertex(
    parents: tuple[bytes, bytes],
    attacher_id: str,
    round_no: int,
    tx_hashes: tuple[bytes, ...] = (),
) -> Vertex:
    """Build a vertex with canonical parent order."""
    return Vertex(
        parents=tuple(sorted(parents)),
        attacher_id=attacher_id,
        round=round_no,
        tx_hashes=tuple(tx_hashes),
    )


def genesis_vertex() -> Vertex:
    return Vertex(
        parents=(),
        attacher_id=GENESIS_ATTACHER,
        round=0,
        tx_hashes=(),
    )


@dataclass(frozen=True)
class Pending:
    """A mempool snapshot: ``hashes`` in arrival order, and ``runs``, the
    maximal ``(start, end)`` slices of it whose entries the same active
    vertices listed when :meth:`Dag.pending` built it.

    A vertex built from the snapshot lists whole runs, so attaching it
    adds its bit to every entry of a run or to none and each run stays
    uniform; a vertex listing part of a run would split it.
    """

    hashes: tuple[bytes, ...]
    runs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.hashes)


class Dag:
    """The active transaction DAG plus boundary markers for pruned history.

    Vertices removed by :meth:`prune_finalized` leave a marker (id and
    round) behind, so surviving vertices keep valid parent references and
    new vertices may still attach to the settled frontier.  Markers count
    as zero everywhere: cover sets, cardinalities and transaction
    orderings see active vertices only.

    ``max_cover`` is the largest cover size among the active vertices.
    """

    def __init__(self) -> None:
        self.vertices: dict[bytes, Vertex] = {}
        self.boundary: dict[bytes, int] = {}
        self.tip_set: set[bytes] = set()
        self._ids: list[bytes] = []
        self._mask: dict[bytes, int] = {}
        self._tx_mask: dict[bytes, int] = {}
        self.max_cover = 0
        genesis = genesis_vertex()
        self.genesis_id = genesis.vertex_id
        self._store(genesis, parents_mask=0)

    # --- internal bookkeeping ---

    def _index_vertex(self, vertex: Vertex, parents_mask: int) -> None:
        """Give the vertex the next dense bit and add it to the masks."""
        vid = vertex.vertex_id
        own = 1 << len(self._ids)
        self._ids.append(vid)
        mask = self._mask[vid] = own | parents_mask
        cover = mask.bit_count()
        if cover > self.max_cover:
            self.max_cover = cover
        tx_mask = self._tx_mask
        get = tx_mask.get
        for txh in vertex.tx_hashes:
            tx_mask[txh] = get(txh, 0) | own

    def _store(self, vertex: Vertex, parents_mask: int) -> None:
        vid = vertex.vertex_id
        self.vertices[vid] = vertex
        self._index_vertex(vertex, parents_mask)
        for parent in vertex.parents:
            self.tip_set.discard(parent)
        self.tip_set.add(vid)

    def _decode_mask(self, mask: int) -> set[bytes]:
        out = set()
        while mask:
            low = mask & -mask
            out.add(self._ids[low.bit_length() - 1])
            mask ^= low
        return out

    # --- queries ---

    @property
    def active_count(self) -> int:
        return len(self.vertices)

    def eligible_tips(self) -> list[bytes]:
        """Active vertices with no in-coming edge, ascending by id."""
        return sorted(self.tip_set)

    def cover_mask(self, roots) -> int:
        """Bitmask form of :meth:`cover_set` (positions into active ids)."""
        mask = 0
        for vid in roots:
            cached = self._mask.get(vid)
            if cached is not None:
                mask |= cached
            elif vid not in self.boundary:
                raise UnknownVertex(f"unknown vertex {vid.hex()}")
        return mask

    def cover_set(self, roots) -> set[bytes]:
        """Each root plus everything reachable through parent references,
        restricted to active vertices."""
        return self._decode_mask(self.cover_mask(roots))

    def cover_cardinality(self, roots) -> int:
        return self.cover_mask(roots).bit_count()

    def tip_masks(self, tips) -> list[int]:
        """:meth:`cover_mask` of each vertex on its own, in the given order.

        Boundary markers give 0; an unknown id raises :class:`UnknownVertex`.
        """
        masks = self._mask
        return [masks[t] if t in masks else self.cover_mask((t,)) for t in tips]

    def listing_mask(self, tx_hash: bytes) -> int:
        """The own bits of the active vertices listing the transaction;
        raises :class:`UnknownTransaction` when none lists it."""
        mask = self._tx_mask.get(tx_hash, 0)
        if not mask:
            raise UnknownTransaction(f"transaction {tx_hash.hex()} not in any active vertex")
        return mask

    def pending(self, tx_hashes) -> Pending:
        """Snapshot ``tx_hashes`` as a :class:`Pending`, split into the
        maximal runs whose entries the same active vertices list."""
        hashes = tuple(tx_hashes)
        get = self._tx_mask.get
        masks = [get(txh, 0) for txh in hashes]
        starts = [k for k in range(len(masks)) if k == 0 or masks[k] != masks[k - 1]]
        return Pending(hashes, tuple(zip(starts, starts[1:] + [len(hashes)])))

    def uncovered_hashes(self, pending: Pending, cover_mask: int) -> tuple[bytes, ...]:
        """The hashes of ``pending`` that no vertex in the bitmask region
        lists, in arrival order.

        Reads one mask per run, so every run must still be uniform: each
        vertex attached since :meth:`pending` built it lists every hash
        of a run or none, as a vertex built from the same snapshot does.
        """
        get = self._tx_mask.get
        hashes = pending.hashes
        out: list[bytes] = []
        for start, end in pending.runs:
            if not get(hashes[start], 0) & cover_mask:
                out += hashes[start:end]
        return tuple(out)

    def own_bit(self, vertex_id: bytes) -> int | None:
        """Single-bit mask for one active vertex, or None if not active.

        Bits are allocated in topological order, so a vertex's own bit is
        the highest bit of its cover mask.
        """
        mask = self._mask.get(vertex_id)
        return None if mask is None else 1 << (mask.bit_length() - 1)

    # --- mutation ---

    def attach(self, vertex: Vertex) -> bytes:
        """Append one vertex; returns its content hash.

        Parents must exist (active or boundary marker), the vertex's round
        may not precede a parent's, and its transaction list must name
        each transaction once and be disjoint from everything its parents
        already cover.
        """
        vid = vertex.vertex_id
        if vid in self.vertices or vid in self.boundary:
            raise ValueError(f"vertex {vid.hex()} already attached")
        if not vertex.parents:
            raise UnknownParent("only the genesis vertex may have zero parents")
        parents_mask = 0
        for parent in vertex.parents:
            if parent in self.vertices:
                parent_round = self.vertices[parent].round
                parents_mask |= self._mask[parent]
            elif parent in self.boundary:
                parent_round = self.boundary[parent]
            else:
                raise UnknownParent(f"unknown parent {parent.hex()}")
            if vertex.round < parent_round:
                raise CycleViolation(
                    f"vertex round {vertex.round} precedes parent round {parent_round}"
                )
        tx_hashes = vertex.tx_hashes
        if len(set(tx_hashes)) != len(tx_hashes):
            seen: set[bytes] = set()
            for txh in tx_hashes:
                if txh in seen:
                    raise DuplicateCoverage(f"transaction {txh.hex()} listed twice")
                seen.add(txh)
        get = self._tx_mask.get
        for txh in tx_hashes:
            if get(txh, 0) & parents_mask:
                raise DuplicateCoverage(f"transaction {txh.hex()} already covered")
        self._store(vertex, parents_mask)
        return vid

    def discard_stale_tips(self, current_round: int, max_age: int) -> int:
        """Always raises: no tip is ever flagged, every tip is eligible.

        The name stays bound only because ``bench/tracing.py`` wraps
        ``Dag.discard_stale_tips``; it goes with that wrap.
        """
        raise NotImplementedError("stale tips are no longer flagged; every tip is eligible")

    def prune_finalized(self, roots) -> None:
        """Drop the cover of ``roots``, leaving a marker for each vertex.

        A cover holds every active parent of its members, so no survivor
        loses an active parent.  The reachability cache is rebuilt over
        the survivors; edges into the pruned region count as zero from
        here on.
        """
        cover = self.cover_set(roots)
        if not cover:
            return
        for vid in cover:
            self.boundary[vid] = self.vertices[vid].round
            del self.vertices[vid]
            self.tip_set.discard(vid)
        # Rebuild the dense bit indices over the survivors.  Insertion
        # order of self.vertices is topological, so one pass suffices.
        self._ids = []
        self._mask = {}
        self._tx_mask = {}
        self.max_cover = 0
        for vertex in self.vertices.values():
            self._index_vertex(vertex, self.cover_mask(vertex.parents))

    def ordered_transactions(self, roots) -> list[bytes]:
        """Canonical transaction order over the cover set of ``roots``.

        Vertices are emitted topologically (past first, ties by ascending
        vertex id); within a vertex the attacher's listed order is kept.
        A transaction duplicated across sibling branches appears once, at
        its first position in this order.
        """
        cover = self.cover_set(roots)
        pending: dict[bytes, int] = {}
        dependants: dict[bytes, list[bytes]] = {}
        ready: list[bytes] = []
        for vid in cover:
            count = 0
            for parent in self.vertices[vid].parents:
                if parent in cover:
                    count += 1
                    dependants.setdefault(parent, []).append(vid)
            pending[vid] = count
            if count == 0:
                heappush(ready, vid)
        out: list[bytes] = []
        emitted = set()
        while ready:
            vid = heappop(ready)
            for txh in self.vertices[vid].tx_hashes:
                if txh not in emitted:
                    emitted.add(txh)
                    out.append(txh)
            for child in dependants.get(vid, ()):
                pending[child] -= 1
                if pending[child] == 0:
                    heappush(ready, child)
        return out
