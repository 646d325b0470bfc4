"""Fractional matching result container.

Both the centralized reference algorithms and the MPC simulation produce a
:class:`FractionalMatching`: an edge-weight vector plus the vertex cover of
frozen vertices.  The container owns the LP-side bookkeeping (vertex loads,
validity, the high-load candidate set fed to the rounding procedure).

The weight vector is stored as three flat arrays — endpoints ``u``, ``v``
and weights ``x`` — in one fixed edge order.  That order is part of the
reproducible behavior: the total weight and the vertex loads are float
sums taken in it, and the Lemma 5.1 rounding scans incident edges in it.
MPC-Simulation on a :class:`~repro.graph.csr.CSRGraph` emits edges in
ascending order; on a set-based :class:`~repro.graph.graph.Graph` it emits
them in ``graph.edges()`` order.  A dict handed to the constructor keeps
its insertion order, and :attr:`FractionalMatching.weights` rebuilds such
a dict on demand.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Set, Tuple

import numpy as np

from repro.graph.graph import Edge


class FractionalMatching:
    """An edge-weight vector ``x`` with its supporting metadata.

    Attributes
    ----------
    graph:
        The graph the weights live on (weights may cover a subset of edges;
        absent edges have weight 0).
    endpoint_u / endpoint_v / x:
        Edge ``i`` is ``(endpoint_u[i], endpoint_v[i])`` with weight
        ``x[i] >= 0``; see the module docstring for the order.
    vertex_cover:
        The frozen-vertex set the algorithm reports as its vertex cover.
    """

    def __init__(
        self,
        graph: Any,
        weights: Mapping[Edge, float],
        vertex_cover: Optional[Set[int]] = None,
    ) -> None:
        edges = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
        x = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
        self._init(graph, edges[:, 0], edges[:, 1], x, vertex_cover)

    @classmethod
    def from_arrays(
        cls,
        graph: Any,
        endpoint_u: np.ndarray,
        endpoint_v: np.ndarray,
        x: np.ndarray,
        vertex_cover: Optional[Set[int]] = None,
    ) -> "FractionalMatching":
        """Wrap flat edge arrays (kept as given, not copied)."""
        matching = cls.__new__(cls)
        matching._init(graph, endpoint_u, endpoint_v, x, vertex_cover)
        return matching

    def _init(self, graph, endpoint_u, endpoint_v, x, vertex_cover) -> None:
        self.graph = graph
        self.endpoint_u = np.asarray(endpoint_u, dtype=np.int64)
        self.endpoint_v = np.asarray(endpoint_v, dtype=np.int64)
        self.x = np.asarray(x, dtype=np.float64)
        self.vertex_cover = set() if vertex_cover is None else vertex_cover

    @property
    def weights(self) -> Dict[Edge, float]:
        """Map from edge to ``x_e``, in the stored edge order (built per read)."""
        return dict(
            zip(
                zip(self.endpoint_u.tolist(), self.endpoint_v.tolist()),
                self.x.tolist(),
            )
        )

    def weight(self) -> float:
        """Total fractional weight ``sum_e x_e``.

        Python's own ``sum`` in the stored order, so the figure is the one
        a sum over :attr:`weights` gives on every interpreter (NumPy's
        pairwise ``np.sum`` differs in the last bits).
        """
        return sum(self.x.tolist())

    def _interleaved_loads(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(endpoints, loads)``: endpoints ``u0, v0, u1, v1, ...`` and the
        per-vertex load array they index.

        ``np.bincount`` accumulates each bin in input order, so every load
        is the same sequence of float additions as a per-edge dict
        accumulation in the stored order.
        """
        ends = np.empty(2 * len(self.x), dtype=np.int64)
        ends[0::2] = self.endpoint_u
        ends[1::2] = self.endpoint_v
        return ends, np.bincount(ends, weights=np.repeat(self.x, 2))

    def vertex_loads(self) -> Dict[int, float]:
        """Per-vertex load ``y_v = sum_{e ∋ v} x_e`` (zero-load omitted).

        Keys appear in first-touch order of the stored edge order.
        """
        ends, loads = self._interleaved_loads()
        touched, first = np.unique(ends, return_index=True)
        touched = touched[np.argsort(first, kind="stable")]
        return dict(zip(touched.tolist(), loads[touched].tolist()))

    def is_valid(self, tolerance: float = 1e-9) -> bool:
        """LP feasibility: nonnegative weights on real edges, loads ≤ 1."""
        if (self.x < -tolerance).any():
            return False
        for u, v in zip(self.endpoint_u.tolist(), self.endpoint_v.tolist()):
            if not self.graph.has_edge(u, v):
                return False
        _, loads = self._interleaved_loads()
        return bool((loads <= 1.0 + tolerance).all())

    def heavy_vertices(self, minimum_load: float) -> Set[int]:
        """Vertices with load at least ``minimum_load``.

        Lemma 4.2 guarantees at least ``|C|/3`` cover vertices reach load
        ``1 - 5ε``; that set is the rounding candidate set ``C~`` of
        Lemma 5.1.  Only vertices touched by a stored edge qualify.
        """
        ends, loads = self._interleaved_loads()
        touched = np.zeros(len(loads), dtype=bool)
        touched[ends] = True
        return set(np.flatnonzero(touched & (loads >= minimum_load)).tolist())

    def restricted_to(self, vertices: Set[int]) -> "FractionalMatching":
        """The sub-fractional-matching on edges inside ``vertices``."""
        chosen = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
        keep = np.isin(self.endpoint_u, chosen) & np.isin(self.endpoint_v, chosen)
        return FractionalMatching.from_arrays(
            self.graph,
            self.endpoint_u[keep],
            self.endpoint_v[keep],
            self.x[keep],
            vertex_cover=self.vertex_cover & vertices,
        )
