"""Randomized rounding of fractional matchings — Lemma 5.1.

Given a fractional matching ``x`` and a set ``C~`` of vertices whose load
is at least ``1 - β`` (``β ≤ 1/2``), the rounding procedure:

* every vertex ``v ∈ C~`` independently draws ``X_v``: neighbor ``u`` with
  probability ``x_{uv} / 10``, or the null symbol with the remaining
  probability (≥ 9/10);
* the proposed edges ``H = {{v, X_v}}`` are collected, and an edge is
  *good* when no other edge of ``H`` touches it;
* the good edges — a matching by construction — are the output.

The paper proves via McDiarmid's inequality that the output has size at
least ``|C~| / 50`` with probability ``1 - 2 exp(-|C~|/5000)``; in practice
the constant is far better (the E6 experiment measures it).  Every vertex
decides from its own neighborhood only, so the procedure is a single MPC
round.

The implementation works on the flat edge arrays of a
:class:`~repro.core.fractional.FractionalMatching`: one bulk draw gives
every candidate its roll, and the proposal scan advances all candidates
together, one incident-edge position per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set, Union

import numpy as np

from repro.core.fractional import FractionalMatching
from repro.graph.graph import Edge
from repro.utils.rng import SeedLike, draw_random, make_rng

# The paper's dampening constant: proposals fire with probability x_e / 10.
PROPOSAL_DAMPENING = 10.0

WeightsLike = Union[FractionalMatching, Mapping[Edge, float]]


@dataclass(frozen=True)
class RoundingOutcome:
    """Result of one rounding pass."""

    matching: Set[Edge]
    proposals: int
    collisions: int


def round_fractional_matching(
    graph,
    weights: WeightsLike,
    candidates: Iterable[int],
    seed: SeedLike = None,
) -> Set[Edge]:
    """Round ``weights`` to an integral matching (Lemma 5.1).

    ``candidates`` is the high-load set ``C~``; only its members propose.
    Returns the set of good edges — always a valid matching.
    """
    return round_fractional_matching_detailed(graph, weights, candidates, seed).matching


def round_fractional_matching_detailed(
    graph,
    weights: WeightsLike,
    candidates: Iterable[int],
    seed: SeedLike = None,
) -> RoundingOutcome:
    """As :func:`round_fractional_matching` but with process statistics.

    ``weights`` is a :class:`FractionalMatching` or an edge-to-weight
    mapping; its edge order is the order in which every candidate scans
    its incident edges.  The candidates draw one ``rng.random()`` each, in
    ascending vertex order — also those with no positive incident edge —
    and candidate ``v`` proposes the first incident ``u`` (in edge order)
    whose running sum of ``x_{uv}/10`` exceeds its draw.  The running sums
    are built position by position, so each is the same sequence of float
    additions as a sequential scan.
    """
    rng = make_rng(seed)
    if not isinstance(weights, FractionalMatching):
        weights = FractionalMatching(graph, weights)
    cand = np.unique(np.fromiter(candidates, dtype=np.int64))
    rolls = draw_random(rng, len(cand))
    positive = weights.x > 0.0
    size = len(weights.x)
    # Every positive edge twice, (owner, other) = (u, v) then (v, u), in
    # edge order; keep the rows owned by a candidate and group them by
    # owner, stably, so each group lists its incident edges in edge order.
    owner = np.empty(2 * size, dtype=np.int64)
    other = np.empty(2 * size, dtype=np.int64)
    owner[0::2] = other[1::2] = weights.endpoint_u
    owner[1::2] = other[0::2] = weights.endpoint_v
    share = np.repeat(weights.x / PROPOSAL_DAMPENING, 2)
    keep = np.repeat(positive, 2) & np.isin(owner, cand)
    owner, other, share = owner[keep], other[keep], share[keep]
    grouping = np.argsort(owner, kind="stable")
    owner, other, share = owner[grouping], other[grouping], share[grouping]
    first = np.searchsorted(owner, cand, side="left")
    stop = np.searchsorted(owner, cand, side="right")

    choice = np.full(len(cand), -1, dtype=np.int64)
    cumulative = np.zeros(len(cand), dtype=np.float64)
    undecided = np.flatnonzero(stop > first)
    rank = 0
    while undecided.size:
        row = first[undecided] + rank
        cumulative[undecided] += share[row]
        hit = rolls[undecided] < cumulative[undecided]
        choice[undecided[hit]] = other[row[hit]]
        undecided = undecided[~hit & (row + 1 < stop[undecided])]
        rank += 1

    proposing = choice >= 0
    lo = np.minimum(cand[proposing], choice[proposing]).tolist()
    hi = np.maximum(cand[proposing], choice[proposing]).tolist()
    # Built in candidate order; when u and v proposed the same edge it is
    # counted once.
    proposed: Set[Edge] = set(zip(lo, hi))
    touch: Dict[int, int] = {}
    for edge in proposed:
        for endpoint in edge:
            touch[endpoint] = touch.get(endpoint, 0) + 1
    good: Set[Edge] = {
        edge for edge in proposed if touch[edge[0]] == 1 and touch[edge[1]] == 1
    }
    return RoundingOutcome(
        matching=good,
        proposals=len(proposed),
        collisions=len(proposed) - len(good),
    )
