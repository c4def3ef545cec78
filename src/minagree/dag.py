"""Transaction DAG: vertex storage, tips, reachability and pruning.

Every vertex references two earlier vertices; following those references
yields the vertex's "cover set" (itself plus everything reachable in its
past).  Cover sets are the quantity every selection strategy and every
proposal policy maximises, so they are tracked incrementally as bitmasks
over the active vertex population.  The bitmask cache is an optimisation
only: correctness is defined by plain breadth-first traversal of the
parent references, which the test suite checks against.

Listed transactions are indexed by listing: hashes that the same active
vertices list share one mask of those vertices' bits.  One walk splits a
transaction list into runs drawn from one listing each, and both
attaching a vertex and snapshotting the mempool read a list through it.

A Dag instance is single-writer: reads may interleave freely between
writes, but all mutating calls on one instance must be totally ordered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain

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
            b"".join(self.tx_hashes),
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


class _Listing:
    """Transactions that the same active vertices list: ``mask`` holds
    those vertices' own bits and ``hashes`` the members in listed order."""

    __slots__ = ("mask", "hashes")

    def __init__(self, mask: int, hashes: tuple[bytes, ...]) -> None:
        self.mask = mask
        self.hashes = hashes


# what the listing index gives a hash that no active vertex lists
_UNLISTED = _Listing(0, ())


@dataclass(frozen=True)
class Pending:
    """A mempool snapshot: ``hashes`` in arrival order, and ``runs``, the
    maximal ``(start, end)`` slices of it whose entries had equal listing
    masks (the same active listers) when :meth:`Dag.pending` built it.

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

    Bits are allocated in insertion order, which is topological.  A
    prune clears the pruned bits and shifts every mask down to the
    lowest surviving bit, so the bits of vertices pruned after it stay
    unused holes.

    The listing index maps each listed hash to its :class:`_Listing`,
    shared by every hash the same active vertices list.  Attachers of a
    round list the same runs of one snapshot, so a vertex's list is
    mostly whole listings, and :meth:`_runs` reads each of those in one
    step.

    An instance has a single writer, so :meth:`tip_cover_masks` keeps
    its snapshot of the tips' masks from the first read after a write
    until the next write: ``_store`` and :meth:`prune_finalized`, the
    only places that change ``tip_set`` or a mask, drop it.
    """

    def __init__(self) -> None:
        self.vertices: dict[bytes, Vertex] = {}
        self.boundary: dict[bytes, int] = {}
        self.tip_set: set[bytes] = set()
        self._ids: list[bytes] = []
        self._mask: dict[bytes, int] = {}
        self._listing: dict[bytes, _Listing] = {}
        self._tip_masks: tuple[int, ...] | None = None
        self.max_cover = 0
        genesis = genesis_vertex()
        self.genesis_id = genesis.vertex_id
        self._store(genesis, parents_mask=0)

    # --- internal bookkeeping ---

    def _store(self, vertex: Vertex, parents_mask: int) -> None:
        """Add the vertex with the next bit; the caller adds the bit to
        the masks of its listings."""
        vid = vertex.vertex_id
        self.vertices[vid] = vertex
        mask = self._mask[vid] = 1 << len(self._ids) | parents_mask
        self._ids.append(vid)
        cover = mask.bit_count()
        if cover > self.max_cover:
            self.max_cover = cover
        for parent in vertex.parents:
            self.tip_set.discard(parent)
        self.tip_set.add(vid)
        self._tip_masks = None

    def _runs(self, tx_hashes) -> list[tuple[_Listing, int, int, bool]]:
        """Split ``tx_hashes`` into ``(listing, start, end, whole)`` runs
        of neighbouring hashes drawn from one listing each, ``_UNLISTED``
        for hashes no active vertex lists.

        A run that is a whole listing in its listed order is found with
        one tuple comparison and has ``whole`` set; any other run is
        walked hash by hash.
        """
        get = self._listing.get
        runs = []
        start, n = 0, len(tx_hashes)
        while start < n:
            listing = get(tx_hashes[start], _UNLISTED)
            end = start + len(listing.hashes)
            whole = end > start and tx_hashes[start:end] == listing.hashes
            if not whole:
                end = start + 1
                while end < n and get(tx_hashes[end], _UNLISTED) is listing:
                    end += 1
            runs.append((listing, start, end, whole))
            start = end
        return runs

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

    def tip_cover_masks(self) -> tuple[int, ...]:
        """The cover mask of every tip, in ``tip_set`` order.

        Built on the first read after a write and kept until the next
        write; the union of the masks is every active vertex.
        """
        if self._tip_masks is None:
            masks = self._mask
            self._tip_masks = tuple(masks[t] for t in self.tip_set)
        return self._tip_masks

    def listing_mask(self, tx_hash: bytes) -> int:
        """The own bits of the active vertices listing the transaction, the
        mask of its listing; raises :class:`UnknownTransaction` when none
        lists it."""
        mask = self._listing.get(tx_hash, _UNLISTED).mask
        if not mask:
            raise UnknownTransaction(f"transaction {tx_hash.hex()} not in any active vertex")
        return mask

    def is_listed(self, tx_hash: bytes) -> bool:
        """Whether any active vertex lists the transaction."""
        return tx_hash in self._listing

    def pending(self, tx_hashes) -> Pending:
        """Snapshot ``tx_hashes`` as a :class:`Pending`, split into the
        maximal runs whose entries the same active vertices list."""
        hashes = tuple(tx_hashes)
        runs: list[tuple[int, int]] = []
        last = None
        # neighbouring runs of distinct listings may share a mask
        for listing, start, end, _ in self._runs(hashes):
            if listing.mask == last:
                runs[-1] = (runs[-1][0], end)
            else:
                runs.append((start, end))
                last = listing.mask
        return Pending(hashes, tuple(runs))

    def uncovered_hashes(self, pending: Pending, cover_mask: int) -> tuple[bytes, ...]:
        """The hashes of ``pending`` that no vertex in the bitmask region
        lists, in arrival order.

        Reads the listing mask of each run's first hash, so every run
        must still be uniform: each vertex attached since :meth:`pending`
        built it lists every hash of a run or none, as a vertex built
        from the same snapshot does.
        """
        get = self._listing.get
        hashes = pending.hashes
        out: list[bytes] = []
        for start, end in pending.runs:
            if not get(hashes[start], _UNLISTED).mask & cover_mask:
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
        already cover; the first hash listed twice outranks the first one
        a parent covers.  A rejected vertex leaves the DAG unchanged.

        Each run of the list (see :meth:`_runs`) that is a whole listing
        adds the vertex's bit to it; any other run becomes a listing of
        its own, and a listing that loses some of its hashes keeps the
        rest.
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
        if tx_hashes:
            runs = self._runs(tx_hashes)
            # whole runs of distinct listings cannot repeat a hash
            whole = {listing for listing, _, _, is_whole in runs if is_whole}
            if len(whole) < len(runs) and len(set(tx_hashes)) < len(tx_hashes):
                seen: set[bytes] = set()
                for txh in tx_hashes:
                    if txh in seen:
                        raise DuplicateCoverage(f"transaction {txh.hex()} listed twice")
                    seen.add(txh)
            for listing, start, _, _ in runs:
                if listing.mask & parents_mask:
                    raise DuplicateCoverage(f"transaction {tx_hashes[start].hex()} already covered")
            own = 1 << len(self._ids)
            index = self._listing
            split: dict[_Listing, None] = {}
            for listing, start, end, is_whole in runs:
                if is_whole:
                    listing.mask |= own
                    continue
                run = tx_hashes[start:end]
                new = _Listing(listing.mask | own, run)
                for txh in run:
                    index[txh] = new
                if listing is not _UNLISTED:
                    split[listing] = None
            for listing in split:
                listing.hashes = tuple(txh for txh in listing.hashes if index[txh] is listing)
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

        A cover holds every ancestor of its members, so a survivor's new
        cover is its old mask with the pruned bits cleared.  Each survivor
        mask and each listing mask is shifted down to the lowest surviving
        bit, and the listings no survivor lists leave the index; edges
        into the pruned region count as zero from here on.
        """
        pruned = self.cover_mask(roots)
        if not pruned:
            return
        self._tip_masks = None
        masks = self._mask
        for vid in self._decode_mask(pruned):
            self.boundary[vid] = self.vertices.pop(vid).round
            self.tip_set.discard(vid)
            del masks[vid]
        # insertion order is bit order, so the first survivor has the lowest bit
        first = next(iter(self.vertices), None)
        shift = len(self._ids) if first is None else masks[first].bit_length() - 1
        del self._ids[:shift]
        keep = ~pruned
        for vid, mask in masks.items():
            masks[vid] = (mask & keep) >> shift
        self.max_cover = max((mask.bit_count() for mask in masks.values()), default=0)
        index = self._listing
        for listing in dict.fromkeys(index.values()):
            listing.mask = (listing.mask & keep) >> shift
            if not listing.mask:
                for txh in listing.hashes:
                    del index[txh]

    def ordered_transactions(self, roots) -> list[bytes]:
        """Canonical transaction order over the cover set of ``roots``.

        Vertices are emitted topologically (past first, ties by ascending
        vertex id); within a vertex the attacher's listed order is kept.
        A transaction duplicated across sibling branches appears once, at
        its first position in this order.
        """
        mask = self.cover_mask(roots)
        if not self._listing:
            return []  # no active vertex lists anything
        cover = self._decode_mask(mask)
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
        # each distinct list once, in heap order; a list equal to one
        # already taken adds nothing
        lists: dict[tuple[bytes, ...], None] = {}
        while ready:
            vid = heappop(ready)
            lists[self.vertices[vid].tx_hashes] = None
            for child in dependants.get(vid, ()):
                pending[child] -= 1
                if pending[child] == 0:
                    heappush(ready, child)
        return list(dict.fromkeys(chain.from_iterable(lists)))
