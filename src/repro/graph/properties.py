"""Graph-solution validators.

Every algorithm's output is checked against these predicates in the test
suite; they are the ground-truth definitions of the objects the paper
computes (Section 2, Preliminaries).

CSR inputs (:class:`~repro.graph.csr.CSRGraph`, including the
memory-mapped out-of-core subclass) take vectorized chunked paths that
scan adjacency through
:meth:`~repro.graph.csr.CSRGraph.adjacency_chunks` — same predicates,
O(chunk) residency, no per-vertex Python loops.  That is what lets the
n=10M counter-mode solutions be validated at all (see OUT_OF_CORE.md).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Mapping, Optional, Set, Union

import numpy as np

from repro.graph.csr import CSRGraph, vertex_mask
from repro.graph.graph import Edge, Graph, canonical_edge

GraphLike = Union[Graph, CSRGraph]


def _vertex_mask(n: int, vertex_set: Iterable[int]) -> Optional[np.ndarray]:
    """Boolean membership mask over ``range(n)``; ``None`` if an id is not a vertex."""
    if isinstance(vertex_set, np.ndarray):
        ids = vertex_set.astype(np.int64, copy=False)
    else:
        ids = np.fromiter(vertex_set, dtype=np.int64)
    try:
        return vertex_mask(n, ids)
    except ValueError:
        return None


def _all_vertices(graph: Graph, vertex_set: Set[int]) -> bool:
    """Whether every id of ``vertex_set`` is a vertex of ``graph``."""
    n = graph.num_vertices
    return all(0 <= v < n for v in vertex_set)


def is_independent_set(graph: GraphLike, vertex_set: Iterable[int]) -> bool:
    """Whether no two vertices of ``vertex_set`` are adjacent.

    An id outside ``[0, n)`` makes the answer ``False`` on both
    representations: it is not a vertex, so the set is not a vertex set.
    """
    if isinstance(graph, CSRGraph):
        chosen = _vertex_mask(graph.num_vertices, vertex_set)
        if chosen is None:
            return False
        return not any(
            bool(np.any(chosen[src] & chosen[dst]))
            for src, dst in graph.adjacency_chunks()
        )
    chosen = set(vertex_set)
    if not _all_vertices(graph, chosen):
        return False
    for v in chosen:
        if any(u in chosen for u in graph.neighbors_view(v)):
            return False
    return True


def is_maximal_independent_set(
    graph: GraphLike, vertex_set: Iterable[int]
) -> bool:
    """Whether ``vertex_set`` is independent and no vertex can be added."""
    if isinstance(graph, CSRGraph):
        # Single adjacency pass: an edge inside the set refutes
        # independence; otherwise every out-of-set vertex needs a chosen
        # neighbor (isolated unchosen vertices correctly fail).
        chosen = _vertex_mask(graph.num_vertices, vertex_set)
        if chosen is None:
            return False
        covered = np.zeros(graph.num_vertices, dtype=bool)
        for src, dst in graph.adjacency_chunks():
            if np.any(chosen[src] & chosen[dst]):
                return False
            covered[src[chosen[dst]]] = True
        return bool(np.all(chosen | covered))
    chosen = set(vertex_set)
    if not is_independent_set(graph, chosen):
        return False
    for v in graph.vertices():
        if v in chosen:
            continue
        if not any(u in chosen for u in graph.neighbors_view(v)):
            return False
    return True


def is_matching(graph: GraphLike, edges: Iterable[Edge]) -> bool:
    """Whether ``edges`` are graph edges and pairwise vertex-disjoint."""
    if isinstance(graph, CSRGraph):
        return _is_matching_csr(graph, edges)
    used: Set[int] = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            return False
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def _is_matching_csr(graph: CSRGraph, edges: Iterable[Edge]) -> bool:
    """Array form of :func:`is_matching`: one key lookup, one endpoint count.

    A repeated edge (in either orientation) and a self-loop both use a
    vertex twice, so the ``bincount`` check rejects them with every other
    shared endpoint.
    """
    n = graph.num_vertices
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
    if len(ends) == 0:
        return True
    if ends.min() < 0 or ends.max() >= n:
        return False
    if np.bincount(ends.ravel(), minlength=n).max() > 1:
        return False
    return _all_edges_present(
        graph, np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    )


def _all_edges_present(graph: CSRGraph, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether every pair ``(lo[i], hi[i])``, ``lo < hi`` in range, is an edge.

    Membership is decided by sorted-key intersection against the forward
    (``src < dst``) slots of each adjacency chunk — each canonical edge
    appears in exactly one chunk, so one pass marks every resolvable
    query, and the out-of-core graph stays O(chunk) resident.
    """
    n = graph.num_vertices
    query = np.sort(lo * np.int64(n) + hi)
    found = np.zeros(len(query), dtype=bool)
    for src, dst in graph.adjacency_chunks():
        forward = src < dst
        slot_keys = src[forward] * np.int64(n) + dst[forward]
        if len(slot_keys) == 0:
            continue
        pos = np.searchsorted(slot_keys, query)
        hit = pos < len(slot_keys)
        hit[hit] = slot_keys[pos[hit]] == query[hit]
        found |= hit
    return bool(np.all(found))


def is_maximal_matching(graph: Graph, edges: Iterable[Edge]) -> bool:
    """Whether ``edges`` is a matching that no graph edge can extend."""
    matching = [canonical_edge(u, v) for u, v in edges]
    if not is_matching(graph, matching):
        return False
    matched = matching_vertices(matching)
    for u, v in graph.edges():
        if u not in matched and v not in matched:
            return False
    return True


def matching_vertices(edges: Iterable[Edge]) -> Set[int]:
    """The set of endpoints of a set of edges."""
    covered: Set[int] = set()
    for u, v in edges:
        covered.add(u)
        covered.add(v)
    return covered


def is_vertex_cover(graph: GraphLike, vertex_set: Iterable[int]) -> bool:
    """Whether every edge has at least one endpoint in ``vertex_set``."""
    if isinstance(graph, CSRGraph):
        cover = _vertex_mask(graph.num_vertices, vertex_set)
        if cover is None:
            return False
        return not any(
            bool(np.any(~cover[src] & ~cover[dst]))
            for src, dst in graph.adjacency_chunks()
        )
    cover = set(vertex_set)
    if not _all_vertices(graph, cover):
        return False
    return all(u in cover or v in cover for u, v in graph.edges())


def is_valid_fractional_matching(
    graph: GraphLike, weights: Mapping[Edge, float], tolerance: float = 1e-9
) -> bool:
    """Whether edge weights are nonnegative and each vertex's sum is ≤ 1.

    This is the LP-feasibility condition the paper's duality argument
    (Lemma 4.1) rests on; ``tolerance`` absorbs float accumulation.
    """
    if isinstance(graph, CSRGraph):
        return _is_valid_fractional_matching_csr(graph, weights, tolerance)
    loads: Dict[int, float] = {}
    for (u, v), x in weights.items():
        if x < -tolerance:
            return False
        if not graph.has_edge(u, v):
            return False
        loads[u] = loads.get(u, 0.0) + x
        loads[v] = loads.get(v, 0.0) + x
    return all(load <= 1.0 + tolerance for load in loads.values())


def _is_valid_fractional_matching_csr(
    graph: CSRGraph, weights: Mapping[Edge, float], tolerance: float
) -> bool:
    """Array form of the feasibility check, chunked over adjacency."""
    if not weights:
        return True
    n = graph.num_vertices
    count = len(weights)
    eu = np.fromiter((edge[0] for edge in weights), dtype=np.int64, count=count)
    ev = np.fromiter((edge[1] for edge in weights), dtype=np.int64, count=count)
    x = np.fromiter(weights.values(), dtype=np.float64, count=count)
    if bool(np.any(x < -tolerance)):
        return False
    in_range = (eu >= 0) & (eu < n) & (ev >= 0) & (ev < n)
    if not bool(np.all(in_range)):
        return False
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    if bool(np.any(lo == hi)):
        return False  # self-loops are never edges of a simple graph
    if not _all_edges_present(graph, lo, hi):
        return False
    loads = np.bincount(eu, weights=x, minlength=n) + np.bincount(
        ev, weights=x, minlength=n
    )
    return bool(np.all(loads <= 1.0 + tolerance))


def fractional_matching_weight(weights: Mapping[Edge, float]) -> float:
    """Total weight ``sum_e x_e`` of a fractional matching."""
    return sum(weights.values())


def vertex_loads(weights: Mapping[Edge, float]) -> Dict[int, float]:
    """Per-vertex load ``y_v = sum_{e ∋ v} x_e``."""
    loads: Dict[int, float] = {}
    for (u, v), x in weights.items():
        loads[u] = loads.get(u, 0.0) + x
        loads[v] = loads.get(v, 0.0) + x
    return loads
