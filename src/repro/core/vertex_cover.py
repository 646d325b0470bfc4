"""Minimum vertex cover in O(log log n) MPC rounds — the cover half of
Theorem 1.2.

MPC-Simulation's frozen vertices (plus the heavy-removed ones) already form
a ``(2 + 50ε)``-approximate vertex cover (Lemma 4.2); this module wraps
that output in a dedicated API and verifies coverage before returning —
a cover that misses an edge is a bug, never a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.core.config import MatchingConfig
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.properties import is_vertex_cover
from repro.utils.rng import SeedLike
from repro.utils.trace import Trace


@dataclass
class VertexCoverResult:
    """A verified vertex cover with its cost accounting."""

    cover: Set[int]
    rounds: int
    fractional_weight: float
    total_comm_words: int = 0
    peak_words: int = 0
    # The CSR form of the input the simulation ran on (None if edgeless).
    csr: Optional[CSRGraph] = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Number of cover vertices."""
        return len(self.cover)


def mpc_vertex_cover(
    graph: Graph,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    trace: Optional[Trace] = None,
    executor=None,
    governor=None,
) -> VertexCoverResult:
    """Compute a ``(2+O(ε))``-approximate vertex cover of ``graph``.

    Raises ``RuntimeError`` if the computed set fails to cover the graph —
    by Lemma 4.2 this happens with negligible probability, and silently
    returning a non-cover would poison downstream use.
    """
    config = config or MatchingConfig()
    result = mpc_fractional_matching(
        graph,
        config=config,
        seed=seed,
        trace=trace,
        executor=executor,
        governor=governor,
    )
    cover = set(result.vertex_cover)
    if not is_vertex_cover(graph if result.csr is None else result.csr, cover):
        # The paper's freezing invariant guarantees coverage at termination;
        # reaching this branch means the simulation has a bug.
        raise RuntimeError("MPC-Simulation returned a non-covering vertex set")
    return VertexCoverResult(
        cover=cover,
        rounds=result.rounds,
        fractional_weight=result.weight,
        total_comm_words=result.total_comm_words,
        peak_words=result.peak_words,
        csr=result.csr,
    )


def cover_from_maximal_matching(graph: Graph, matching: Set) -> Set[int]:
    """The classic 2-approximate cover: endpoints of a maximal matching.

    Used as a baseline and by the small-matching path of Section 4.4.5.
    """
    cover: Set[int] = set()
    for u, v in matching:
        cover.add(u)
        cover.add(v)
    return cover
