"""NumPy-backed CSR graph kernels — the vectorized hot-path layer.

Every algorithm in the library bottoms out in the same few primitives:
degree queries, threshold filtering, vertex-subset sampling, induced
subgraphs, neighborhood deletion, and edge counting over a vertex mask.
:class:`CSRGraph` stores the adjacency structure once as two flat arrays
(``indptr``/``indices``, the classic compressed-sparse-row layout) and
exposes each primitive as a vectorized kernel, so the per-phase scans of
the MPC algorithms run at NumPy speed instead of per-element Python.

Design points:

* ``CSRGraph`` is **immutable**.  Algorithms that "delete" vertices (the
  greedy-MIS residual, Luby rounds, survivor sets) carry a boolean *mask*
  and pass it to the kernels — deletion is O(1) bookkeeping and every scan
  stays a flat array pass.  This matches how the residual graphs actually
  evolve: vertices are only ever isolated, never re-wired, so the residual
  edge set is exactly "original edges with both endpoints alive".
* Conversion to/from the set-based :class:`~repro.graph.graph.Graph` is
  lossless; the pure-Python class remains the reference implementation
  the property-test suite cross-checks against.
* Neighbor lists are sorted ascending within each row, which makes
  ``has_edge`` a binary search and lets the edge kernels emit canonical
  ``(u, v), u < v`` output in ascending order for free.

The :class:`GraphView` protocol names the read-only surface shared by
both representations so call sites can stay representation-agnostic.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Collection,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.graph.graph import Edge, Graph

# Sentinel "never frozen / no vertex" value for int64 bookkeeping arrays.
NO_VERTEX = np.iinfo(np.int64).max

# Below this many gathered rows, a per-row slice concatenation beats the
# ragged-gather index arithmetic (see ``neighbors_bulk``); the crossover is
# pinned by the ``remove_closed_neighborhoods_small`` kernel benchmark.
SMALL_GATHER_ROWS = 64

MaskLike = Union[np.ndarray, Iterable[int], None]


@runtime_checkable
class GraphView(Protocol):
    """The read-only surface shared by :class:`Graph` and :class:`CSRGraph`.

    Call sites written against this protocol work with either
    representation; :func:`as_csr` / :func:`as_graph` convert when a
    specific one is required.
    """

    @property
    def num_vertices(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def vertices(self) -> range: ...

    def degree(self, v: int) -> int: ...

    def max_degree(self) -> int: ...

    def has_edge(self, u: int, v: int) -> bool: ...

    def edges(self) -> Iterator[Edge]: ...


class CSRGraph:
    """Immutable undirected simple graph in compressed-sparse-row form.

    ``indptr`` has length ``n + 1``; the neighbors of vertex ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted ascending.  Each
    undirected edge appears twice (once per direction), so
    ``len(indices) == 2 * num_edges``.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_src")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._n = len(indptr) - 1
        self._indptr = indptr
        self._indices = indices
        self._src: Optional[np.ndarray] = None  # lazily built row-id array

    # -- construction -------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph, mask: MaskLike = None) -> "CSRGraph":
        """Lossless conversion from the set-based reference representation.

        With ``mask``, only edges with *both* endpoints inside the mask are
        kept (labels preserved, out-of-mask vertices isolated) — i.e. the
        CSR of the residual graph, built directly from the adjacency sets
        without materializing the full conversion first.  An integer
        ``mask`` lists vertex ids and raises ``ValueError`` on any id
        outside ``[0, n)``.

        Hot-path layout: the neighbor sets are drained by
        :func:`drain_rows` (one C-level pass into a preallocated array, no
        per-element Python objects), and the within-row ascending order is
        restored with one flat sort of ``row * n + neighbor`` keys instead
        of a two-key lexsort.
        """
        n = graph.num_vertices
        adjacency: List = list(map(graph.neighbors_view, range(n)))
        selected = vertex_mask(n, mask)
        if selected is not None:
            keep = set(np.flatnonzero(selected).tolist())
            adjacency = [
                neighbors & keep if selected[v] else set()
                for v, neighbors in enumerate(adjacency)
            ]
        degrees, flat = drain_rows(adjacency)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        if len(flat):
            key = np.repeat(np.arange(n, dtype=np.int64), degrees)
            key *= np.int64(n)
            key += flat
            key.sort()
            indices = key % np.int64(n)
        else:
            indices = np.empty(0, dtype=np.int64)
        return cls(indptr, indices)

    @classmethod
    def from_edge_array(cls, num_vertices: int, edges: np.ndarray) -> "CSRGraph":
        """Build from an ``(m, 2)`` array of distinct undirected edges.

        Self-loops are rejected; duplicate edges (in either orientation)
        are collapsed.
        """
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= num_vertices:
                raise ValueError("edge endpoint out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            canonical = np.unique(lo * np.int64(num_vertices) + hi)
            lo = canonical // num_vertices
            hi = canonical % num_vertices
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        return cls._from_directed(num_vertices, src, dst)

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "CSRGraph":
        """Build from an iterable of ``(u, v)`` pairs."""
        edge_list = list(edges)
        array = (
            np.array(edge_list, dtype=np.int64)
            if edge_list
            else np.empty((0, 2), dtype=np.int64)
        )
        return cls.from_edge_array(num_vertices, array)

    @classmethod
    def _from_directed(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray
    ) -> "CSRGraph":
        """Assemble CSR from directed slot arrays (both directions present)."""
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        counts = np.bincount(src, minlength=num_vertices).astype(np.int64)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst)

    def to_graph(self) -> Graph:
        """Lossless conversion back to the set-based representation."""
        graph = Graph(self._n)
        for u, v in self.edge_array():
            graph.add_edge(int(u), int(v))
        return graph

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array (length ``n + 1``); do not mutate."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """The CSR column array (length ``2m``); do not mutate."""
        return self._indices

    @property
    def src(self) -> np.ndarray:
        """Row id of every directed slot: ``src[k]`` owns ``indices[k]``."""
        if self._src is None:
            self._src = np.repeat(
                np.arange(self._n, dtype=np.int64), np.diff(self._indptr)
            )
        return self._src

    def vertices(self) -> range:
        """The vertex set as a range."""
        return range(self._n)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v``, sorted ascending (a read-only view)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (binary search, rows are sorted)."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < len(row) and row[pos] == v

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in canonical ``(u, v), u < v`` form, ascending."""
        for u, v in self.edge_array():
            yield (int(u), int(v))

    def edge_array(self) -> np.ndarray:
        """All edges as a canonical ``(m, 2)`` array, ascending."""
        forward = self.src < self._indices
        return np.column_stack((self.src[forward], self._indices[forward]))

    def edge_list(self) -> List[Edge]:
        """All edges as a sorted list of tuples."""
        return [(int(u), int(v)) for u, v in self.edge_array()]

    # -- vectorized kernels --------------------------------------------------

    def _as_mask(self, vertices: MaskLike) -> Optional[np.ndarray]:
        """Normalize a mask argument to a boolean array (or None = all)."""
        return vertex_mask(self._n, vertices)

    def degrees(self, mask: MaskLike = None) -> np.ndarray:
        """Degree sequence; with ``mask``, the degree sequence of ``G[mask]``.

        ``degrees(mask)[v]`` counts neighbors of ``v`` inside the mask for
        masked vertices and reads 0 outside it — exactly the per-phase
        residual-degree scan the MPC algorithms need.
        """
        selected = self._as_mask(mask)
        if selected is None:
            return np.diff(self._indptr)
        inside = selected[self.src] & selected[self._indices]
        return np.bincount(self.src[inside], minlength=self._n)

    def max_degree(self, mask: MaskLike = None) -> int:
        """Maximum degree ``Δ`` (restricted to ``mask`` when given)."""
        if self._n == 0:
            return 0
        return int(self.degrees(mask).max())

    def sample_vertices(self, p: float, rng) -> np.ndarray:
        """I.i.d. vertex sample: each vertex kept with probability ``p``.

        ``rng`` is a ``numpy.random.Generator`` or a seed accepted by
        ``numpy.random.default_rng``.  Returns the sampled vertex ids,
        ascending.  This is the vertex-based sampling step of the
        [CŁM+18]-style partitioning (Line (d) of MPC-Simulation).
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return np.flatnonzero(rng.random(self._n) < p)

    def count_edges_within(self, mask: MaskLike) -> int:
        """Number of edges with *both* endpoints inside ``mask``."""
        selected = self._as_mask(mask)
        if selected is None:
            return self.num_edges
        inside = selected[self.src] & selected[self._indices]
        return int(np.count_nonzero(inside)) // 2

    def induced_edges(self, mask: MaskLike) -> np.ndarray:
        """Edges of ``G[mask]`` with original labels, canonical ascending."""
        selected = self._as_mask(mask)
        src = self.src
        forward = src < self._indices
        if selected is not None:
            forward &= selected[src] & selected[self._indices]
        return np.column_stack((src[forward], self._indices[forward]))

    def induced_subgraph(self, mask: MaskLike) -> Tuple["CSRGraph", np.ndarray]:
        """``G[mask]`` relabelled onto ``0..k-1``; returns ``(sub, vertices)``.

        ``vertices[i]`` is the original label of new vertex ``i`` (the
        ``i``-th smallest selected vertex), matching the semantics of
        :meth:`Graph.induced_subgraph`.
        """
        selected = self._as_mask(mask)
        if selected is None:
            selected = np.ones(self._n, dtype=bool)
        keep = np.flatnonzero(selected)
        new_id = np.full(self._n, NO_VERTEX, dtype=np.int64)
        new_id[keep] = np.arange(len(keep), dtype=np.int64)
        inside = selected[self.src] & selected[self._indices]
        sub = CSRGraph._from_directed(
            len(keep), new_id[self.src[inside]], new_id[self._indices[inside]]
        )
        return sub, keep

    def filter_edges(self, mask: MaskLike) -> "CSRGraph":
        """Same vertex set, keeping only edges with both endpoints in ``mask``.

        This is the "residual graph" materializer: vertices outside the
        mask become isolated, labels are preserved.
        """
        selected = self._as_mask(mask)
        if selected is None:
            return self
        inside = selected[self.src] & selected[self._indices]
        src = self.src[inside]
        dst = self._indices[inside]
        counts = np.bincount(src, minlength=self._n).astype(np.int64)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Slot order is preserved, so rows stay sorted.
        return CSRGraph(indptr, dst)

    def neighbors_bulk(self, vertices: Sequence[int]) -> np.ndarray:
        """Concatenated neighbor lists of ``vertices`` (ragged gather)."""
        return gather_rows(self._indices, self._indptr, vertices)

    def remove_closed_neighborhoods(
        self, vertices: Sequence[int], mask: MaskLike = None
    ) -> np.ndarray:
        """Alive-mask after deleting ``vertices`` and all their neighbors.

        Returns a *new* boolean mask (the input mask is not mutated) with
        every listed vertex and each of its *original-graph* neighbors set
        to ``False``.  When the listed vertices form an independent set —
        how the greedy-MIS and Luby hot paths call it — this is exactly
        the result of applying :meth:`Graph.remove_closed_neighborhood`
        sequentially.
        """
        selected = self._as_mask(mask)
        out = (
            np.ones(self._n, dtype=bool) if selected is None else selected.copy()
        )
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.size:
            out[vs] = False
            out[self.neighbors_bulk(vs)] = False
        return out

    def adjacency_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(src, dst)`` directed-slot blocks covering all ``2m`` slots.

        Blocks arrive in slot order (ascending ``src``, rows sorted), so
        concatenating them reproduces ``(self.src, self.indices)`` exactly.
        The in-RAM graph yields one block; the memory-mapped subclass
        (:class:`repro.ooc.MMapCSRGraph`) yields bounded blocks and
        releases the backing pages between them — kernels written against
        this iterator are residency-bounded on out-of-core graphs for
        free.
        """
        yield self.src, self._indices

    def threshold_filter(self, deg_cap: int, mask: MaskLike = None) -> np.ndarray:
        """Boolean mask of vertices whose (residual) degree is ``<= deg_cap``.

        With ``mask``, degrees are counted within the mask and vertices
        outside it are excluded from the result — the "keep the low-degree
        regime" filter of the sparsified finish.
        """
        selected = self._as_mask(mask)
        keep = self.degrees(selected) <= deg_cap
        if selected is not None:
            keep &= selected
        return keep

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - parity with Graph
        raise TypeError("CSRGraph is unhashable (compare by value instead)")

    def __repr__(self) -> str:
        return f"CSRGraph(n={self._n}, m={self.num_edges})"


def gather_rows(
    flat: np.ndarray, indptr: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """Concatenated ``flat`` rows delimited by ``indptr`` (ragged gather).

    The gather behind :meth:`CSRGraph.neighbors_bulk`, shared with callers
    that maintain their own compressed row structures (e.g. the batched
    Pregel kernels' filtered live-view adjacency).  Below
    :data:`SMALL_GATHER_ROWS` gathered rows, per-row slice views are
    concatenated directly — the batch-sized temporaries of the index
    arithmetic dominate at a handful of rows (the n=1k regression in
    BENCH_kernels.json).
    """
    vs = np.asarray(rows, dtype=np.int64)
    if vs.size == 0:
        return np.empty(0, dtype=np.int64)
    if vs.size <= SMALL_GATHER_ROWS:
        return np.concatenate(
            [flat[indptr[v] : indptr[v + 1]] for v in vs.tolist()]
        )
    starts = indptr[vs]
    counts = indptr[vs + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Standard ragged-gather index arithmetic: for each selected row, emit
    # starts[i], starts[i]+1, ..., starts[i]+counts[i]-1.
    row_of_slot = np.repeat(np.arange(len(vs)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return flat[starts[row_of_slot] + offsets]


def vertex_mask(n: int, vertices: MaskLike) -> Optional[np.ndarray]:
    """``vertices`` as a boolean mask over ``range(n)`` (``None`` = all).

    A boolean array must have length ``n``; anything else is read as
    vertex ids, and an id outside ``[0, n)`` raises ``ValueError`` rather
    than wrapping around (``-1``) or escaping as an ``IndexError``.
    """
    if vertices is None:
        return None
    array = np.asarray(vertices)
    if array.dtype == np.bool_:
        if len(array) != n:
            raise ValueError(f"mask length {len(array)} != num_vertices {n}")
        return array
    ids = array.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"mask lists a vertex id outside [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def drain_rows(rows: Iterable[Collection[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, items)`` of ``rows``: row sizes and their concatenation.

    Items keep each row's own iteration order (for a ``set``, its hash
    layout), rows follow one another in ``rows`` order.  The items are
    read by one C-level pass (``itertools.chain`` into ``np.fromiter``)
    into an array preallocated from the row lengths, so no Python int
    object is kept per item.
    """
    rows = rows if isinstance(rows, list) else list(rows)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    items = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum())
    )
    return lengths, items


def edge_ids_in_row_order(csr: CSRGraph, rows: Iterable[Collection[int]]) -> np.ndarray:
    """Positions in ``csr.edge_array()`` of its edges, in ``rows`` order.

    ``rows`` yields the neighbours of vertex ``0, 1, ...`` of the same
    graph, in any order within a row; each edge is taken once, at the row
    of its smaller endpoint.  With the adjacency sets of a
    :class:`~repro.graph.graph.Graph` this is the order of
    ``graph.edges()``, read without a per-edge Python loop: the rows are
    drained by :func:`drain_rows`, like :meth:`CSRGraph.from_graph`.
    """
    n = csr.num_vertices
    degrees, dst = drain_rows(rows)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    forward = src < dst
    edges = csr.edge_array()
    return np.searchsorted(
        edges[:, 0] * np.int64(n) + edges[:, 1],
        src[forward] * np.int64(n) + dst[forward],
    )


def as_csr(graph: Union[Graph, CSRGraph]) -> CSRGraph:
    """``graph`` as a :class:`CSRGraph` (identity when already CSR)."""
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_graph(graph)


def as_graph(graph: Union[Graph, CSRGraph]) -> Graph:
    """``graph`` as a set-based :class:`Graph` (identity when already one)."""
    if isinstance(graph, Graph):
        return graph
    return graph.to_graph()
