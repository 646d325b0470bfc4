"""MPC-Simulation — fractional matching and vertex cover in O(log log n)
MPC rounds (Section 4.3, Lemma 4.2).

The algorithm simulates Central-Rand in phases.  While the degree bound
``d`` exceeds a polylog floor, one phase:

* partitions the still-relevant vertices ``V'`` over ``m = √d`` machines
  (vertex-based sampling of [CŁM+18], Line (d));
* has each machine run ``I = Θ(log m)`` iterations of Central-Rand on its
  *induced local subgraph*, estimating each vertex's load as
  ``y~_v = m · (local active weight) + y_old_v`` and freezing vertices whose
  estimate crosses their random threshold ``T_{v,t}`` (Lines (e));
* recomputes true weights from freeze times (Line (g) — possible because
  every active edge grows by the same factor per iteration, so
  ``x_e = w_0 / (1-ε)^{t'}`` with ``t'`` the first endpoint-freeze time);
* removes vertices whose true load exceeded 1 (they join the cover;
  Line (i)) and freezes those in ``[1-2ε, 1]`` (Line (j));
* updates ``d ← d(1-ε)^I`` (Line (f)).

Once ``d`` reaches the floor the remaining iterations of Central-Rand are
simulated directly, one round each (Line (4)).

The machine-local work of Lines (e) and Line (4) has exactly one
implementation: the ``matching.*`` kernels of :mod:`repro.dist.kernels`,
always driven through a :class:`~repro.dist.executor.DistExecutor`.  The
driver here keeps everything else — owner draws, cluster accounting,
Lines (g)-(j) — so the executor only decides where the kernels run.

Hot-path layout: the graph's edge list is materialized **once** into flat
NumPy arrays (via :class:`~repro.graph.csr.CSRGraph`) and every per-phase
edge scan — the frozen-load recomputation ``y_old``, the true-load
aggregation of Line (g), the active-subgraph extraction, and the final
weight readout — is a vectorized pass over those arrays instead of a
Python iteration of the adjacency structure.  Freezing decisions go
through :meth:`ThresholdOracle.crosses`, which only materializes the
(SHA-derived) threshold when the load estimate lands inside the random
band.  Both changes are output-preserving: the RNG consumption order
(machine assignment draws) and every freezing comparison are unchanged.

The surviving set ``V'`` and the frozen set live only in boolean/int64
masks, so the active vertices of a phase are one ``flatnonzero`` in
ascending order.  The sha machine assignment draws one ``randrange`` per
active vertex in that order, in bulk through
:func:`repro.utils.rng.draw_randrange` (the same values and the same
generator state as the scalar calls).  The freeze times are kept in the
``freeze_at`` array and in an append-only log whose order is the
``freeze_iteration`` dict's insertion order.

The fractional weights come back as flat arrays
(:class:`~repro.core.fractional.FractionalMatching`): ascending edge order
for a :class:`~repro.graph.csr.CSRGraph` input, ``graph.edges()`` order
for a set-based :class:`~repro.graph.graph.Graph`.

``config.rng == "counter"`` (the out-of-core fast path) swaps the
per-vertex machine-assignment draws and the threshold oracle onto the
order-free counter generator (:mod:`repro.utils.counter_rng`).  Counter
runs are deterministic per seed but not byte-identical to sha runs; both
modes share every other line of the phase loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

import numpy as np

from repro.core.config import MatchingConfig
from repro.core.fractional import FractionalMatching
from repro.core.thresholds import ThresholdOracle
from repro.dist.executor import DistExecutor
from repro.dist.transport import LocalTransport
from repro.govern.governor import governed_broadcast
from repro.graph.csr import CSRGraph, as_csr, edge_ids_in_row_order
from repro.graph.graph import Graph
from repro.mpc.cluster import Message, MPCCluster
from repro.mpc.spec import ClusterSpec
from repro.mpc.words import edge_words, id_words
from repro.utils import counter_rng
from repro.utils.rng import SeedLike, draw_randrange, make_rng
from repro.utils.trace import Trace, maybe_record

# Cap on the phase count, far above the O(log log n) bound; converts a
# schedule bug into an exception instead of a hang.
_MAX_PHASES = 300

# "Never froze" sentinel for the int64 freeze-time array.  Large enough to
# lose every ``min(..., now)`` while staying far from int64 overflow.
_NEVER = np.int64(2**62)


def _log_rows(vertices: np.ndarray, t: int) -> np.ndarray:
    """``(vertex, t)`` freeze-log rows for vertices that froze together."""
    return np.column_stack((vertices, np.full(len(vertices), t, dtype=np.int64)))


def _edge_weights(
    freeze_at: np.ndarray,
    endpoint_u: np.ndarray,
    endpoint_v: np.ndarray,
    now: int,
    w0: float,
    growth: float,
) -> np.ndarray:
    """Line (g) weights ``x_e = w_0 · growth^{t'}`` for the given edges.

    ``t'`` is the earliest endpoint freeze time, capped at ``now`` — the
    single definition every load/weight readout in this module shares.
    """
    t_prime = np.minimum(
        np.minimum(freeze_at[endpoint_u], freeze_at[endpoint_v]), np.int64(now)
    )
    return w0 * np.power(growth, t_prime)


@dataclass
class MatchingMPCResult:
    """Outcome of MPC-Simulation.

    Attributes
    ----------
    matching:
        Fractional matching on the surviving vertex set ``V'`` together
        with the vertex cover (frozen plus heavy-removed vertices).
    rounds / phases / iterations:
        Measured MPC rounds, phase count, and total Central-Rand iterations
        simulated (compressed + direct).
    freeze_iteration:
        Per-vertex global iteration at which the vertex froze.
    heavy_removed:
        Vertices removed at Line (i) (load exceeded 1); they are in the
        cover but their edges are excluded from the fractional matching.
    max_machine_edges:
        Largest per-machine induced subgraph over all phases (Lemma 4.7's
        ``O(n)`` quantity).
    csr:
        The CSR form of the input the simulation ran on (``None`` for an
        edgeless input, which never builds one).
    """

    matching: FractionalMatching
    rounds: int
    phases: int
    iterations: int
    freeze_iteration: Dict[int, int] = field(default_factory=dict)
    heavy_removed: Set[int] = field(default_factory=set)
    max_machine_edges: int = 0
    machine_edges_per_phase: List[int] = field(default_factory=list)
    direct_iterations: int = 0
    total_comm_words: int = 0
    peak_words: int = 0
    csr: Optional[CSRGraph] = field(default=None, repr=False, compare=False)

    @property
    def vertex_cover(self) -> Set[int]:
        """The reported vertex cover."""
        return self.matching.vertex_cover

    @property
    def weight(self) -> float:
        """Total fractional weight."""
        return self.matching.weight()

    def rounding_candidates(self, epsilon: float) -> Set[int]:
        """The high-load cover subset ``C~`` fed to Lemma 5.1 rounding."""
        return self.matching.heavy_vertices(1.0 - 5.0 * epsilon)


def mpc_fractional_matching(
    graph: Union[Graph, CSRGraph],
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    oracle: Optional[ThresholdOracle] = None,
    trace: Optional[Trace] = None,
    executor=None,
    governor=None,
) -> MatchingMPCResult:
    """Run MPC-Simulation on ``graph``.

    Parameters
    ----------
    config:
        Schedule constants; see :class:`repro.core.config.MatchingConfig`.
    oracle:
        Threshold oracle override — pass the same instance to
        :func:`repro.core.central.run_freezing_process` to couple the two
        processes (used by the Lemma 4.15 concentration experiment).
    executor:
        Optional :class:`repro.dist.DistExecutor` that runs the
        per-machine phase blocks and the direct Central-Rand iterations
        (the ``matching.*`` kernels of :mod:`repro.dist.kernels`, the only
        implementation of both).  ``None`` runs those kernels in process
        on one inline worker that shares the driver's arrays by
        reference.  The executor only picks where the kernels run:
        outputs and round accounting do not depend on it (see
        DISTRIBUTED.md).
    governor:
        Optional :class:`repro.govern.Governor`.  Watches per-phase load
        and intervenes before the word budget is breached: raises the
        phase's machine count when the predicted hottest induced
        subgraph would cross the soft watermark (adaptive
        sparsification — changes the owner draws, so governed-and-
        triggered runs are validated by verify bands, not byte pins),
        wave-splits over-budget scatters, and chunks the per-phase
        freeze broadcasts.  Exact pass-through when it never triggers.
    """
    if executor is None:
        with DistExecutor(LocalTransport(1)) as local:
            return mpc_fractional_matching(
                graph, config, seed, oracle, trace, local, governor
            )
    config = config or MatchingConfig()
    epsilon = config.epsilon
    rng = make_rng(seed)
    n = graph.num_vertices

    if n == 0 or graph.num_edges == 0:
        empty = FractionalMatching(graph=graph, weights={})
        return MatchingMPCResult(
            matching=empty, rounds=0, phases=0, iterations=0
        )

    if oracle is None:
        oracle = ThresholdOracle(
            config.threshold_low,
            config.threshold_high,
            seed=rng.getrandbits(64),
            mode=config.rng,
        )
    growth = 1.0 / (1.0 - epsilon)
    w0 = (1.0 - 2.0 * epsilon) / n

    spec = ClusterSpec.from_graph(graph, config.memory_factor, machines="sqrt")
    cluster = spec.build_cluster(trace=trace)
    if governor is not None:
        governor.bind(cluster)

    counter_mode = config.rng == "counter"
    # The machine-assignment key is drawn once up front so per-phase owner
    # draws are an order-free pure function of (key, phase, vertex).
    owner_key = (
        counter_rng.derive_key(rng.getrandbits(64), "matching-owner")
        if counter_mode
        else 0
    )

    # One-time edge materialization: every per-phase scan below is a flat
    # pass over these canonical (u < v) endpoint arrays.
    csr = as_csr(graph)
    edge_array = csr.edge_array()
    eu = np.ascontiguousarray(edge_array[:, 0])
    ev = np.ascontiguousarray(edge_array[:, 1])

    if governor is not None:
        # Prime the ball-size estimator with the input's degree skew so
        # the first (heaviest) scatter is predicted before any phase has
        # been observed.
        from repro.graph.statistics import load_summary

        governor.estimator.prime(load_summary(csr))

    # The paper's V' as a mask; freeze times as an array plus the
    # ``(vertex, t)`` log in freeze order.
    surviving_mask = np.ones(n, dtype=bool)
    freeze_at = np.full(n, _NEVER, dtype=np.int64)
    freeze_log: List[np.ndarray] = []
    heavy_removed: Set[int] = set()
    d = float(n)
    t = 0
    phases = 0
    floor = config.degree_floor(n)
    machine_edges_per_phase: List[int] = []

    def vertex_loads(now: int) -> np.ndarray:
        """True loads ``y^MPC`` over ``G[V']`` at iteration ``now`` (Line (g))."""
        inside = surviving_mask[eu] & surviving_mask[ev]
        x = _edge_weights(freeze_at, eu[inside], ev[inside], now, w0, growth)
        return np.bincount(
            eu[inside], weights=x, minlength=n
        ) + np.bincount(ev[inside], weights=x, minlength=n)

    while d > floor:
        if phases >= _MAX_PHASES:
            raise RuntimeError("MPC-Simulation exceeded the phase cap")
        active_ids = np.flatnonzero(surviving_mask & (freeze_at == _NEVER))
        active_mask = np.zeros(n, dtype=bool)
        active_mask[active_ids] = True

        # Active subgraph G' and the per-vertex frozen load y_old (Line (b)):
        # one vectorized pass splits the surviving edges into "both active"
        # (shipped to machines) and "touching a frozen endpoint" (their
        # weight is already locked in and accrues to y_old).
        surv_edge = surviving_mask[eu] & surviving_mask[ev]
        both_active = surv_edge & active_mask[eu] & active_mask[ev]
        frozen_touch = surv_edge & ~both_active
        fu = eu[frozen_touch]
        fv = ev[frozen_touch]
        x = _edge_weights(freeze_at, fu, fv, t, w0, growth)
        y_old = np.bincount(fu, weights=x, minlength=n) + np.bincount(
            fv, weights=x, minlength=n
        )
        active_u = eu[both_active]
        active_v = ev[both_active]

        base_machines = max(2, int(math.sqrt(d)))
        num_machines = base_machines
        partition_context = f"matching: phase {phases + 1} partition"
        if governor is not None:
            # Rung 1 (adaptive sparsification): raising the machine count
            # before the owner draws lowers the same-machine co-location
            # probability, shrinking both the hottest induced subgraph
            # (~ edges/k²) and the shipped volume (~ edges/k).  Returns
            # the base count untouched when the prediction fits — the
            # byte-identity case.
            num_machines = governor.plan_partitions(
                base_machines, edge_words(len(active_u)), partition_context
            )

        # Line (d): i.i.d. random vertex partitioning; one exchange ships
        # each induced subgraph (memory validated by the substrate).  The
        # sha draws follow the ascending order of ``active_ids`` and are
        # load-bearing for reproducibility; counter mode evaluates the
        # same partition as a pure function of (owner_key, phase, vertex).
        # Either way part ``i`` is the ascending list of vertices drawn
        # ``i``.  Under governance the draw is retried with a doubled part
        # count when multinomial variance lands one induced subgraph over
        # the soft budget anyway (nothing has shipped yet); the ungoverned
        # path runs the body exactly once.
        while True:
            if counter_mode:
                owner_vals = counter_rng.integers(
                    owner_key, active_ids, phases, num_machines
                )
            else:
                owner_vals = draw_randrange(rng, num_machines, len(active_ids))
            owner_of = np.full(n, -1, dtype=np.int64)
            owner_of[active_ids] = owner_vals
            by_owner = np.argsort(owner_vals, kind="stable")
            sorted_ids = active_ids[by_owner]
            part_counts = np.bincount(owner_vals, minlength=num_machines)
            bounds = np.zeros(num_machines + 1, dtype=np.int64)
            np.cumsum(part_counts, out=bounds[1:])

            # Same-machine active edges, grouped by machine in one sort.
            same = owner_of[active_u] == owner_of[active_v]
            local_u = active_u[same]
            local_v = active_v[same]
            machine_of_edge = owner_of[local_u]
            grouping = np.argsort(machine_of_edge, kind="stable")
            local_u = local_u[grouping]
            local_v = local_v[grouping]
            counts = np.bincount(machine_of_edge, minlength=num_machines)
            boundaries = np.zeros(num_machines + 1, dtype=np.int64)
            np.cumsum(counts, out=boundaries[1:])
            local_edge_counts = [int(c) for c in counts]

            if governor is None:
                break
            worst = edge_words(max(local_edge_counts, default=0))
            if worst <= governor.soft_words:
                break
            grown = governor.grow_partitions(
                base_machines, num_machines, worst, partition_context
            )
            if grown == num_machines:
                break  # ceiling reached; _ship_partitions decides the fate
            num_machines = grown
        iterations = config.iterations_per_phase(num_machines)

        _ship_partitions(cluster, local_edge_counts, phases, governor=governor)
        machine_edges_per_phase.append(max(local_edge_counts, default=0))

        # Lines (e): every machine simulates I iterations locally.  The
        # machine blocks are scattered over the executor's workers and the
        # freeze insertions merged back in machine order.  A block's edges
        # are relabelled to positions within its part.
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[sorted_ids] = np.arange(len(sorted_ids), dtype=np.int64) - (
            bounds[owner_vals[by_owner]]
        )
        block_u = local_of[local_u]
        block_v = local_of[local_v]
        y_sorted = y_old[sorted_ids]
        tasks = [
            (
                sorted_ids[bounds[index] : bounds[index + 1]],
                block_u[boundaries[index] : boundaries[index + 1]],
                block_v[boundaries[index] : boundaries[index + 1]],
                y_sorted[bounds[index] : bounds[index + 1]],
            )
            for index in np.flatnonzero(part_counts).tolist()
        ]
        results = executor.map_tasks(
            "matching.machines",
            tasks,
            shared={
                "oracle": oracle,
                "start": t,
                "iterations": iterations,
                "machines": num_machines,
                "w0": w0,
                "growth": growth,
            },
            phase="compressed-phases",
        )
        if results:
            inserted = np.concatenate(results)
            freeze_at[inserted[:, 0]] = inserted[:, 1]
            freeze_log.append(inserted)
        t += iterations
        d *= (1.0 - epsilon) ** iterations
        phases += 1

        # One broadcast distributes freeze times (Line (g) inputs), one
        # aggregation round recomputes loads and applies Lines (h)-(j).
        # Governed runs chunk the broadcast into sequential sub-batches
        # when id_words(n) exceeds the soft watermark (rung 2).
        governed_broadcast(
            cluster,
            id_words(n),
            f"matching: phase {phases} freezes",
            governor,
        )
        cluster.charge_rounds(1, f"matching: phase {phases} load aggregation")

        loads = vertex_loads(t)
        over_one = np.flatnonzero(surviving_mask & (loads > 1.0))
        surviving_mask[over_one] = False
        heavy_removed.update(over_one.tolist())
        if over_one.size:
            loads = vertex_loads(t)
        newly_frozen = np.flatnonzero(
            surviving_mask
            & (freeze_at == _NEVER)
            & (loads >= 1.0 - 2.0 * epsilon)
        )
        freeze_at[newly_frozen] = t
        freeze_log.append(_log_rows(newly_frozen, t))
        maybe_record(
            trace,
            "matching_phase",
            phase=phases,
            iterations=iterations,
            degree_bound=d,
            machines=num_machines,
            max_machine_edges=max(local_edge_counts, default=0),
            frozen=int(np.count_nonzero(freeze_at != _NEVER)),
            heavy_removed=len(heavy_removed),
        )

    # Line (4): direct simulation of the remaining Central-Rand iterations.
    t_before_direct = t
    t = _direct_central_rand(
        csr=csr,
        eu=eu,
        ev=ev,
        surviving_mask=surviving_mask,
        freeze_at=freeze_at,
        freeze_log=freeze_log,
        oracle=oracle,
        cluster=cluster,
        start_iteration=t,
        w0=w0,
        growth=growth,
        max_iterations=config.max_direct_iterations,
        vertex_loads=vertex_loads,
        executor=executor,
    )

    # Emit the weights in the input's own edge order: ascending for CSR, and
    # graph.edges() order (the adjacency-set layout) for a set-based graph.
    # The order is part of the reproducible behavior — the total weight,
    # the vertex loads and the Lemma 5.1 rounding all scan it.
    order = (
        np.arange(len(eu))
        if isinstance(graph, CSRGraph)
        else edge_ids_in_row_order(csr, map(graph.neighbors_view, range(n)))
    )
    order = order[surviving_mask[eu[order]] & surviving_mask[ev[order]]]
    wu = eu[order]
    wv = ev[order]
    x = _edge_weights(freeze_at, wu, wv, t, w0, growth)
    log = (
        np.concatenate(freeze_log)
        if freeze_log
        else np.empty((0, 2), dtype=np.int64)
    )
    freeze_iteration = dict(zip(log[:, 0].tolist(), log[:, 1].tolist()))
    cover = set(freeze_iteration) | heavy_removed
    matching = FractionalMatching.from_arrays(graph, wu, wv, x, vertex_cover=cover)
    return MatchingMPCResult(
        matching=matching,
        rounds=cluster.rounds,
        phases=phases,
        iterations=t,
        freeze_iteration=freeze_iteration,
        heavy_removed=heavy_removed,
        max_machine_edges=max(machine_edges_per_phase, default=0),
        machine_edges_per_phase=machine_edges_per_phase,
        direct_iterations=t - t_before_direct,
        total_comm_words=cluster.total_comm_words,
        peak_words=max(cluster.peak_words(), cluster.peak_transient_words),
        csr=csr,
    )


def _ship_partitions(
    cluster: MPCCluster,
    local_edge_counts: List[int],
    phase: int,
    governor=None,
) -> None:
    """Deliver each machine its induced active subgraph (one exchange).

    Machine ``i`` receives (and, in the shuffle, forwards) part ``i``'s
    induced edges; the substrate validates both directions against the word
    budget — this is exactly the quantity Lemma 4.7 bounds by ``O(n)``.

    With a governor attached, a scatter whose per-machine volume would
    cross the soft watermark is split into sequential waves (rung 2),
    each within budget — extra rounds instead of an abort.  A *single*
    part too large even alone cannot be waved (the machine must hold its
    whole induced subgraph to iterate Central-Rand on it) and degrades.
    """
    context = f"matching: phase {phase + 1} scatter"
    messages = [
        (index % cluster.num_machines, edge_words(count))
        for index, count in enumerate(local_edge_counts)
    ]
    waves: List[List[tuple]] = [messages]
    if governor is not None:
        soft = governor.soft_words
        if any(words > soft for _, words in messages):
            worst = max(words for _, words in messages)
            governor.degrade(
                f"one induced subgraph of {worst} words exceeds the soft "
                f"budget {soft} even after sparsification",
                context,
            )
        elif governor.policy.allow_chunk:
            waves = _scatter_waves(messages, soft)
            if len(waves) > 1:
                hottest = max(
                    sum(w for d, w in messages if d == dest)
                    for dest in {d for d, _ in messages}
                )
                governor.record_chunk(context, hottest, len(waves))
    total = len(waves)
    for wave_index, wave in enumerate(waves):
        outboxes: Dict[int, List[Message]] = {}
        for destination, words in wave:
            outboxes.setdefault(destination, []).append(
                Message(destination=destination, words=words, payload=None)
            )
        wave_context = (
            context
            if total == 1
            else f"{context} [wave {wave_index + 1}/{total}]"
        )
        cluster.exchange(outboxes, context=wave_context)


def _scatter_waves(messages: List[tuple], soft_words: int) -> List[List[tuple]]:
    """Greedy first-fit wave split of ``(destination, words)`` messages.

    Each wave keeps every destination's inbox (and, in this scatter
    topology, each sender's outbox) within ``soft_words``.  Messages are
    taken in order, so an in-budget scatter comes back as exactly one
    wave with the original message order — the pass-through case.
    """
    waves: List[List[tuple]] = [[]]
    loads: List[Dict[int, int]] = [{}]
    for destination, words in messages:
        placed = False
        for wave, load in zip(waves, loads):
            if load.get(destination, 0) + words <= soft_words:
                wave.append((destination, words))
                load[destination] = load.get(destination, 0) + words
                placed = True
                break
        if not placed:
            waves.append([(destination, words)])
            loads.append({destination: words})
    return [wave for wave in waves if wave]


def _direct_central_rand(
    csr: CSRGraph,
    eu: np.ndarray,
    ev: np.ndarray,
    surviving_mask: np.ndarray,
    freeze_at: np.ndarray,
    freeze_log: List[np.ndarray],
    oracle: ThresholdOracle,
    cluster: MPCCluster,
    start_iteration: int,
    w0: float,
    growth: float,
    max_iterations: int,
    vertex_loads,
    executor,
) -> int:
    """Line (4): simulate Central-Rand directly, one MPC round per iteration.

    Runs on the ``matching.direct_init``/``matching.direct_step`` kernels.
    The vertex range is partitioned contiguously over the workers; each
    worker owns the mutable per-vertex state (active flag, active degree,
    frozen load) for its slice and reads the immutable CSR adjacency from
    the session arrays.  Per iteration the driver broadcasts the previous
    iteration's global freeze list, allreduces the surviving active
    counts, and merges the newly-frozen ids — charging exactly one
    cluster round per executed iteration.  Returns the final global
    iteration counter.

    Why the result does not depend on the worker count:

    * the CSR rows filtered by the initially-active mask are exactly the
      live active-active adjacency (``eu``/``ev`` come from this CSR);
    * all load increments within one iteration equal ``w_t``, and
      ``np.add.at`` performs a per-accumulator sequence of equal-value
      additions — bit-identical floats regardless of order;
    * updates landing on initially-active but since-frozen (or
      zero-removed) cells are never read again;
    * termination and the iteration cap gate on the allreduced count
      *before* any round is charged or any freeze applied.
    """
    t = start_iteration
    n = len(surviving_mask)
    unfrozen = surviving_mask & (freeze_at == _NEVER)
    live_edge = unfrozen[eu] & unfrozen[ev]
    live_degree = np.bincount(eu[live_edge], minlength=n) + np.bincount(
        ev[live_edge], minlength=n
    )
    initially_active = unfrozen & (live_degree > 0)
    if not initially_active.any():
        return t
    active_ids = np.flatnonzero(initially_active)
    active_degree = np.zeros(n, dtype=np.int64)
    active_degree[active_ids] = live_degree[active_ids]
    frozen_load = np.zeros(n, dtype=np.float64)
    loads = vertex_loads(t)
    # Association (deg * w0) * growth**t is part of the pinned floats.
    frozen_load[active_ids] = loads[active_ids] - (
        active_degree[active_ids] * w0
    ) * (growth**t)

    key = executor.open_session(
        "matching-direct", {"indptr": csr.indptr, "indices": csr.indices}
    )
    try:
        payloads = [
            {
                "session": key,
                "lo": lo,
                "hi": hi,
                "active": initially_active,
                "degree": active_degree[lo:hi],
                "load": frozen_load[lo:hi],
                "oracle": oracle,
                "w0": w0,
                "growth": growth,
            }
            for lo, hi in executor.partition(n)
        ]
        counts = executor.scatter_step(
            "matching.direct_init", payloads, phase="direct-simulation"
        )
        total = sum(counts)
        prev = np.empty(0, dtype=np.int64)
        steps = 0
        while total:
            results = executor.broadcast_step(
                "matching.direct_step",
                {"session": key, "t": t, "prev": prev},
                phase="direct-simulation",
            )
            total = sum(count for _, count in results)
            if total == 0:
                # Everyone went inactive while applying the previous
                # iteration's freezes: no decision left, no round charged.
                break
            if steps >= max_iterations:
                raise RuntimeError(
                    "direct Central-Rand simulation exceeded its iteration cap"
                )
            prev = np.concatenate([newly for newly, _ in results])
            freeze_at[prev] = t
            freeze_log.append(_log_rows(prev, t))
            t += 1
            steps += 1
            cluster.charge_rounds(1, "matching: direct Central-Rand iteration")
    finally:
        executor.close_session(key)
    return t
