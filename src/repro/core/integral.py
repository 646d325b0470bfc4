"""Integral (2+ε)-approximate maximum matching — Theorem 1.2.

The proof of Theorem 1.2 iterates algorithm ``A``:

1. run MPC-Simulation on the residual graph to get a fractional matching
   ``x`` and the high-load candidate set ``C~`` (at least a third of the
   cover has load ``≥ 1 - 5ε`` by Lemma 4.2);
2. round ``x`` with Lemma 5.1 to an integral matching ``M_i``;
3. delete the matched vertices and repeat.

Each pass extracts a constant fraction of the residual maximum matching,
so ``O(log 1/ε)`` passes leave at most an ``ε`` fraction behind.  The
paper's worst-case constant (1/150 per pass) would mean hundreds of
iterations; measured extraction is vastly better, so the loop simply runs
until the residual fractional weight is negligible (with a safety cap).
Following Section 4.4.5, a final small-matching cleanup handles the
leftover polylog-size matching via the LMSV11 filtering algorithm.

The loop runs on one :class:`~repro.graph.csr.CSRGraph` of the input and
an alive-vertex mask: deleting the matched vertices clears their mask
bits, and each pass hands ``csr.filter_edges(alive)`` to MPC-Simulation.
The fractional weights stay flat arrays, and the rounding runs on them.

The passes scan the residual's edges in one fixed order.  For a set-based
:class:`~repro.graph.graph.Graph` input it is the edge order of
``graph.copy()``: for every vertex in turn, the neighbours in the layout
of a *copy* of its adjacency set.  A copy can lay a set out differently
from the original (the input's sets may carry removal slots or have grown
through resizes), and removing elements never reorders a set, so the
order is captured once per solve and masked by ``alive`` on every pass.
The total weight, the candidate loads and the rounding's proposal scan
are order-sensitive float sums and draws, so the order is part of the
seeded output.  A CSR input is scanned in ascending edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

import numpy as np

from repro.baselines.filtering import filtering_maximal_matching
from repro.core.config import MatchingConfig
from repro.core.fractional import FractionalMatching
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.rounding import round_fractional_matching
from repro.graph.csr import CSRGraph, as_csr, as_graph, edge_ids_in_row_order
from repro.graph.graph import Edge, Graph
from repro.graph.properties import matching_vertices
from repro.mpc.spec import ClusterSpec
from repro.utils.rng import SeedLike, make_rng
from repro.utils.trace import Trace, maybe_record


@dataclass
class IntegralMatchingResult:
    """Outcome of the iterated matching extraction.

    Attributes
    ----------
    matching:
        The integral matching (a valid matching of the input graph).
    rounds:
        Total measured MPC rounds across all passes.
    passes:
        Number of algorithm-``A`` passes executed.
    per_pass_sizes:
        Matching edges extracted per pass (monitoring the extraction rate).
    cleanup_edges:
        Edges added by the final small-matching cleanup (Section 4.4.5).
    csr:
        The CSR form of the input every pass ran on.
    """

    matching: Set[Edge]
    rounds: int
    passes: int
    per_pass_sizes: List[int] = field(default_factory=list)
    cleanup_edges: int = 0
    total_comm_words: int = 0
    peak_words: int = 0
    csr: Optional[CSRGraph] = field(default=None, repr=False, compare=False)


def mpc_maximum_matching(
    graph: Union[Graph, CSRGraph],
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    max_passes: Optional[int] = None,
    trace: Optional[Trace] = None,
    executor=None,
    governor=None,
) -> IntegralMatchingResult:
    """Compute a ``(2+O(ε))``-approximate integral matching of ``graph``.

    ``executor`` (an optional :class:`repro.dist.DistExecutor`) is handed
    to every per-pass :func:`mpc_fractional_matching` call; rounding and
    cleanup stay driver-side (their sequential RNG order is load-bearing).
    A ``governor`` is likewise handed to every pass — its peak-hold
    estimator persists across passes, so imbalance measured in pass 1
    informs the partition sizing of pass 2.
    """
    config = config or MatchingConfig()
    rng = make_rng(seed)
    if max_passes is None:
        # ln(1/ε) passes at the *measured* extraction rate (>= 1/3 of the
        # residual optimum per pass) leave an ε fraction; the cap is
        # generous so the fixed point, not the cap, ends the loop.
        max_passes = max(8, 4 * int(math.log(1.0 / config.epsilon) + 1))

    csr = as_csr(graph)
    n = csr.num_vertices
    edges = csr.edge_array()
    eu = edges[:, 0]
    ev = edges[:, 1]
    edge_keys = eu * np.int64(n) + ev
    # The residual's scan order (module docstring), as edge ids.
    layout = (
        np.arange(len(eu))
        if isinstance(graph, CSRGraph)
        else edge_ids_in_row_order(
            csr, (set(row) for row in map(graph.neighbors_view, range(n)))
        )
    )
    alive = np.ones(n, dtype=bool)
    matching: Set[Edge] = set()
    rounds = 0
    comm_words = 0
    peak_words = 0
    per_pass: List[int] = []
    empty_streak = 0

    for pass_index in range(max_passes):
        residual = csr.filter_edges(alive)
        fractional = mpc_fractional_matching(
            residual,
            config=config,
            seed=rng.getrandbits(64),
            trace=trace,
            executor=executor,
            governor=governor,
        )
        rounds += fractional.rounds
        comm_words += fractional.total_comm_words
        peak_words = max(peak_words, fractional.peak_words)
        # Re-lay the ascending fractional arrays out in the scan order.
        weighted = fractional.matching
        x = np.zeros(len(eu), dtype=np.float64)
        has_weight = np.zeros(len(eu), dtype=bool)
        ids = np.searchsorted(
            edge_keys, weighted.endpoint_u * np.int64(n) + weighted.endpoint_v
        )
        x[ids] = weighted.x
        has_weight[ids] = True
        scan = layout[has_weight[layout]]
        weights = FractionalMatching.from_arrays(residual, eu[scan], ev[scan], x[scan])
        total_weight = weights.weight()
        candidates = weights.heavy_vertices(1.0 - 5.0 * config.epsilon)
        if total_weight < 1.0 or not candidates:
            break
        extracted = round_fractional_matching(
            residual,
            weights,
            candidates,
            seed=rng.getrandbits(64),
        )
        rounds += 1  # rounding is a single local-decision MPC round
        per_pass.append(len(extracted))
        maybe_record(
            trace,
            "integral_pass",
            pass_index=pass_index,
            extracted=len(extracted),
            fractional_weight=total_weight,
        )
        if not extracted:
            empty_streak += 1
            if empty_streak >= 2:
                break
            continue
        empty_streak = 0
        matching |= extracted
        alive[list(matching_vertices(extracted))] = False

    # Section 4.4.5: the residual optimum is now small; the LMSV11 filtering
    # maximal matching finishes it (maximal => 2-approximate on the residual).
    cleanup = filtering_maximal_matching(
        as_graph(csr.filter_edges(alive)),
        words_per_machine=ClusterSpec.from_graph(
            csr, config.memory_factor
        ).words_per_machine,
        seed=rng.getrandbits(64),
    )
    matching |= cleanup.matching
    rounds += cleanup.rounds

    return IntegralMatchingResult(
        matching=matching,
        rounds=rounds,
        passes=len(per_pass),
        per_pass_sizes=per_pass,
        cleanup_edges=len(cleanup.matching),
        total_comm_words=comm_words,
        peak_words=peak_words,
        csr=csr,
    )
