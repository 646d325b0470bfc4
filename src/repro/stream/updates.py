"""The typed update model and stream sources for dynamic workloads.

An :class:`EdgeBatch` is the unit of change: canonicalized, deduplicated
insertion/deletion arrays plus an optional vertex-growth count and a
timestamp.  Everything downstream (the overlay, the maintainers, the
driver, the JSONL wire format) speaks batches, so every source below is
interchangeable:

* :func:`replay_edge_list` — chunked file replay of a (possibly gzipped)
  edge list via :func:`repro.graph.io.iter_edge_list`; insert-only.
* :func:`read_batches_jsonl` / :func:`write_batches_jsonl` — the JSONL
  wire format for recorded update streams (inserts, deletes, growth,
  timestamps).
* :func:`sliding_window_batches` — a window of the ``window`` most recent
  edges sliding over an edge sequence: each batch inserts the next slice
  and deletes the slice that fell out.
* :func:`growth_batches` — temporal preferential attachment (power-law
  growth): each batch appends vertices that attach to existing ones with
  degree-proportional probability, extending
  :func:`repro.graph.generators.barabasi_albert` in time.
* :func:`churn_batches` — marketplace add/drop churn: each batch retires
  a random fraction of the current edges and lists an equal number of
  fresh ones (listings leaving and entering a market).

:data:`SCENARIOS` names the synthetic scenarios for the CLI/benchmarks;
:func:`make_scenario` builds ``(initial_graph, batches)`` pairs from a
name, so the conformance matrix and the perf harness share workloads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.generators import barabasi_albert, gnm_random_graph
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.io import PathLike, iter_edge_list, open_text
from repro.stream.dynamic import decode_keys, encode_edges
from repro.utils.record import Record, iter_jsonl
from repro.utils.rng import SeedLike, make_rng

BATCH_SCHEMA_VERSION = 1


def _canonical_array(edges: Any, label: str) -> np.ndarray:
    """Normalize an edge collection to a deduped canonical ``(k, 2)`` array."""
    array = np.asarray(
        edges if edges is not None else [], dtype=np.int64
    ).reshape(-1, 2)
    if array.size == 0:
        return array
    if array.min() < 0:
        raise ValueError(f"{label} contains a negative vertex id")
    if array.max() >= 1 << 31:
        # The key packing below (and DynamicGraph's) holds two ids per
        # int64; a larger id would silently wrap into a different edge.
        raise ValueError(f"{label} contains a vertex id >= 2^31")
    if (array[:, 0] == array[:, 1]).any():
        raise ValueError(f"{label} contains a self-loop")
    # Key packing/unpacking is owned by repro.stream.dynamic; this only
    # adds the dedup (np.unique on keys sorts and collapses).
    return decode_keys(np.unique(encode_edges(array)))


def _wire_integers(values: Any, label: str) -> Any:
    """Refuse wire numbers an int64 cast would bend: bools, fractions, text."""
    if values is None:
        return None
    for value in np.asarray(values, dtype=object).ravel():
        if isinstance(value, float) and value.is_integer():
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{label} must hold integers, got {value!r}")
    return values


@dataclass(frozen=True, eq=False)
class EdgeBatch(Record):
    """One atomic unit of graph change.

    Attributes
    ----------
    insertions / deletions:
        Canonical ``(k, 2)`` int64 arrays, deduplicated, self-loop-free.
        Deletions apply before insertions.
    new_vertices:
        Vertices appended (as ``n .. n + new_vertices - 1``) before the
        edge edits apply — how growth streams extend the graph.
    timestamp:
        Source-defined event time (replay position, window index, epoch
        number); carried through to per-epoch records.
    """

    insertions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    deletions: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    new_vertices: int = 0
    timestamp: float = 0.0

    family = "EdgeBatch"
    schemas = (BATCH_SCHEMA_VERSION,)
    missing_schema = BATCH_SCHEMA_VERSION

    @classmethod
    def make(
        cls,
        insertions: Any = None,
        deletions: Any = None,
        *,
        new_vertices: int = 0,
        timestamp: float = 0.0,
    ) -> "EdgeBatch":
        """Build a batch from loose edge collections, canonicalizing both."""
        if new_vertices < 0:
            raise ValueError(f"new_vertices must be >= 0, got {new_vertices}")
        return cls(
            insertions=_canonical_array(insertions, "insertions"),
            deletions=_canonical_array(deletions, "deletions"),
            new_vertices=int(new_vertices),
            timestamp=float(timestamp),
        )

    @property
    def size(self) -> int:
        """Total number of requested edge edits."""
        return len(self.insertions) + len(self.deletions)

    def touched_vertices(self) -> np.ndarray:
        """Unique endpoints named by this batch, ascending."""
        return np.unique(
            np.concatenate([self.insertions.ravel(), self.deletions.ravel()])
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the JSONL wire shape)."""
        payload: Dict[str, Any] = {"schema": BATCH_SCHEMA_VERSION}
        if len(self.insertions):
            payload["insert"] = self.insertions.tolist()
        if len(self.deletions):
            payload["delete"] = self.deletions.tolist()
        if self.new_vertices:
            payload["new_vertices"] = self.new_vertices
        if self.timestamp:
            payload["t"] = self.timestamp
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EdgeBatch":
        """Rebuild from :meth:`to_dict` output; rejects unknown schemas.

        Vertex ids and ``new_vertices`` must be JSON integers (an
        integral float such as ``2.0`` is accepted): a boolean or a
        fractional value raises ``ValueError`` rather than being cast.
        """
        cls.payload_schema(payload)
        return cls.make(
            insertions=_wire_integers(payload.get("insert"), "insert"),
            deletions=_wire_integers(payload.get("delete"), "delete"),
            new_vertices=int(
                _wire_integers(payload.get("new_vertices", 0), "new_vertices")
            ),
            timestamp=float(payload.get("t", 0.0)),
        )


# ---------------------------------------------------------------------------
# file replay
# ---------------------------------------------------------------------------


def replay_edge_list(
    path: PathLike, batch_edges: int = 1024
) -> Iterator[EdgeBatch]:
    """Replay a (possibly gzipped) edge-list file as insert-only batches.

    Chunked end to end: no more than ``batch_edges`` edges are held at
    once.  Each batch grows the vertex set to cover its endpoints (and the
    file's ``n`` header), so replay onto an initially empty graph works.
    """
    seen_vertices = 0
    position = 0
    for declared, chunk in iter_edge_list(path, chunk_edges=batch_edges):
        growth = max(declared - seen_vertices, 0)
        if not chunk and not growth:
            continue
        seen_vertices += growth
        yield EdgeBatch.make(
            insertions=chunk, new_vertices=growth, timestamp=float(position)
        )
        position += 1


def write_batches_jsonl(batches: Iterable[EdgeBatch], path: PathLike) -> None:
    """Record a batch stream as one JSON object per line (gzipped if .gz)."""
    with open_text(path, "w") as stream:
        for batch in batches:
            stream.write(batch.to_json() + "\n")


def read_batches_jsonl(path: PathLike) -> Iterator[EdgeBatch]:
    """Stream batches back from :func:`write_batches_jsonl` output.

    Crash-tolerant like the report readers: a truncated final line (a
    recorder killed mid-append) is skipped with a warning, mid-file
    corruption raises with the line number.
    """
    yield from iter_jsonl(
        path, EdgeBatch.from_json, lambda source: open_text(source, "r")
    )


def coalesce_batches(batches: Sequence[EdgeBatch]) -> EdgeBatch:
    """Fold a batch sequence into one equivalent batch (epoch batching).

    The merged batch, applied once, produces exactly the graph the
    sequence produces applied in order — the algebra the serve layer's
    backpressure relies on.  With per-batch semantics "deletions before
    insertions", the last operation touching an edge wins:

    * an edge inserted by a later batch and not deleted afterwards ends
      present, so it lands in the merged insertions;
    * an edge whose last touch is a deletion lands in the merged
      deletions (and is excluded from the insertions).

    ``new_vertices`` sums (vertex ids are append-only, so growing all at
    once before the edits reaches the same id space); the timestamp is
    the last batch's.  Raises on an empty sequence.
    """
    if not batches:
        raise ValueError("cannot coalesce an empty batch sequence")
    inserted: set = set()
    deleted: set = set()
    new_vertices = 0
    for batch in batches:
        del_keys = set(encode_edges(batch.deletions).tolist())
        ins_keys = set(encode_edges(batch.insertions).tolist())
        # Within one batch, deletions apply first.
        inserted -= del_keys
        deleted |= del_keys
        inserted |= ins_keys
        deleted -= ins_keys
        new_vertices += batch.new_vertices
    return EdgeBatch.make(
        insertions=decode_keys(
            np.fromiter(inserted, dtype=np.int64, count=len(inserted))
        ),
        deletions=decode_keys(
            np.fromiter(deleted, dtype=np.int64, count=len(deleted))
        ),
        new_vertices=new_vertices,
        timestamp=batches[-1].timestamp,
    )


# ---------------------------------------------------------------------------
# synthetic sources
# ---------------------------------------------------------------------------


def sliding_window_batches(
    edges: Sequence[Edge], *, window: int, batch_edges: int
) -> Tuple[List[Edge], Iterator[EdgeBatch]]:
    """A sliding window over an edge sequence.

    Returns ``(initial_window, batches)``: the first ``window`` edges form
    the initial graph; each subsequent batch inserts the next
    ``batch_edges`` edges and deletes the ones sliding out, so the live
    graph always holds the ``window`` most recent edges.
    """
    if window <= 0 or batch_edges <= 0:
        raise ValueError("window and batch_edges must be positive")
    if batch_edges > window:
        # A batch larger than the window would delete edges inserted by
        # the same batch (deletions apply first), breaking the invariant.
        raise ValueError(
            f"batch_edges ({batch_edges}) must not exceed window ({window})"
        )
    ordered = [canonical_edge(u, v) for u, v in edges]

    def generate() -> Iterator[EdgeBatch]:
        for start in range(window, len(ordered), batch_edges):
            incoming = ordered[start : start + batch_edges]
            outgoing = ordered[start - window : start - window + len(incoming)]
            yield EdgeBatch.make(
                insertions=incoming,
                deletions=outgoing,
                timestamp=float(start),
            )

    return ordered[:window], generate()


def growth_batches(
    initial: Graph,
    *,
    epochs: int,
    vertices_per_epoch: int,
    attachment: int = 3,
    seed: SeedLike = None,
) -> Iterator[EdgeBatch]:
    """Temporal power-law growth by preferential attachment.

    Continues the Barabási–Albert process from ``initial``: every epoch
    appends ``vertices_per_epoch`` vertices, each attaching to
    ``attachment`` distinct existing vertices with degree-proportional
    probability (the repeated-endpoint trick, as in
    :func:`repro.graph.generators.barabasi_albert`).
    """
    if attachment < 1:
        raise ValueError(f"attachment must be >= 1, got {attachment}")
    if initial.num_vertices <= attachment:
        raise ValueError("initial graph must exceed the attachment count")
    rng = make_rng(seed)
    endpoint_pool: List[int] = []
    for u, v in initial.edges():
        endpoint_pool.extend((u, v))
    if not endpoint_pool:
        endpoint_pool.extend(range(initial.num_vertices))
    if len(set(endpoint_pool)) < attachment:
        # The distinct-target sampling loop below could never terminate.
        raise ValueError(
            f"initial graph has fewer than attachment={attachment} distinct "
            "attachable vertices (edge endpoints)"
        )
    next_vertex = initial.num_vertices
    for epoch in range(epochs):
        insertions: List[Edge] = []
        for _ in range(vertices_per_epoch):
            targets: set = set()
            while len(targets) < attachment:
                targets.add(rng.choice(endpoint_pool))
            for u in targets:
                insertions.append((u, next_vertex))
                endpoint_pool.extend((u, next_vertex))
            next_vertex += 1
        yield EdgeBatch.make(
            insertions=insertions,
            new_vertices=vertices_per_epoch,
            timestamp=float(epoch),
        )


def churn_batches(
    initial: Graph,
    *,
    epochs: int,
    churn_fraction: float,
    seed: SeedLike = None,
) -> Iterator[EdgeBatch]:
    """Marketplace add/drop churn at a fixed edge budget.

    Every epoch retires ``churn_fraction`` of the *current* edges
    (uniformly) and lists an equal number of fresh uniform non-edges, so
    ``n`` and ``m`` stay constant while the structure drifts — the
    steady-state regime the damage-threshold fallback is tuned for.
    """
    if not 0.0 < churn_fraction <= 1.0:
        raise ValueError(
            f"churn_fraction must be in (0, 1], got {churn_fraction}"
        )
    rng = make_rng(seed)
    n = initial.num_vertices
    if n < 2:
        raise ValueError("churn needs at least 2 vertices")
    # Parallel list + set: the list gives O(drop) deterministic sampling
    # with swap-pop removal, the set O(1) membership — no per-epoch sort.
    pool: List[Edge] = initial.edge_list()
    live = set(pool)
    for epoch in range(epochs):
        drop_count = max(1, int(round(churn_fraction * len(pool)))) if pool else 0
        positions = sorted(
            rng.sample(range(len(pool)), min(drop_count, len(pool))),
            reverse=True,
        )
        retired = []
        for position in positions:
            edge = pool[position]
            retired.append(edge)
            live.discard(edge)
            pool[position] = pool[-1]
            pool.pop()
        listed: List[Edge] = []
        while len(listed) < len(retired):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            edge = canonical_edge(u, v)
            if edge not in live:
                live.add(edge)
                pool.append(edge)
                listed.append(edge)
        yield EdgeBatch.make(
            insertions=listed, deletions=retired, timestamp=float(epoch)
        )


# ---------------------------------------------------------------------------
# named scenarios (CLI + benchmarks)
# ---------------------------------------------------------------------------

SCENARIOS = ("churn", "sliding_window", "growth")


def make_scenario(
    name: str,
    *,
    n: int,
    epochs: int,
    churn_fraction: float = 0.01,
    average_degree: int = 8,
    seed: int = 0,
) -> Tuple[Graph, List[EdgeBatch]]:
    """Build ``(initial_graph, batches)`` for a named synthetic scenario.

    ``churn`` starts from ``G(n, m)`` with the requested average degree
    and drifts at ``churn_fraction`` per epoch; ``sliding_window`` slides
    a window of the same size over twice as many edges; ``growth`` starts
    from a power-law core of ``n`` vertices and appends
    ``max(1, round(churn_fraction * n))`` vertices per epoch.
    """
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    m = max(1, min(n * average_degree // 2, n * (n - 1) // 2))
    if name == "churn":
        initial = gnm_random_graph(n, m, seed=seed)
        return initial, list(
            churn_batches(
                initial, epochs=epochs, churn_fraction=churn_fraction, seed=seed + 1
            )
        )
    if name == "sliding_window":
        timeline = gnm_random_graph(n, min(2 * m, n * (n - 1) // 2), seed=seed)
        ordered = timeline.edge_list()
        rng = make_rng(seed + 1)
        rng.shuffle(ordered)
        span = len(ordered) - m
        batch_edges = max(
            1, min(int(round(churn_fraction * m)), span // epochs) if span else 1
        )
        window, stream = sliding_window_batches(
            ordered, window=m, batch_edges=batch_edges
        )
        batches = []
        for batch in stream:
            if len(batches) == epochs:
                break
            batches.append(batch)
        return Graph(n, window), batches
    if name == "growth":
        attachment = max(2, average_degree // 2)
        initial = barabasi_albert(n, attachment, seed=seed)
        per_epoch = max(1, int(round(churn_fraction * n)))
        return initial, list(
            growth_batches(
                initial,
                epochs=epochs,
                vertices_per_epoch=per_epoch,
                attachment=attachment,
                seed=seed + 1,
            )
        )
    raise ValueError(f"unknown scenario {name!r}; known: {SCENARIOS}")
