"""Scalar/dict-based reference implementations, kept as test oracles.

The library runs only the vectorized forms of these substrates: the
array-validated CONGESTED-CLIQUE router and round, the batched Pregel
programs, and the array-based integral matching loop with its Lemma 5.1
rounding.  The straightforward per-message / per-vertex / per-edge
versions below are what those forms were derived from; the parity tests
in ``tests/test_backend_parity.py`` hold the two byte-identical (same
accept/reject decisions, same outputs, same round and word accounting,
same ``MemoryExceededError`` text, same generator state afterwards).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.baselines.filtering import filtering_maximal_matching
from repro.congested_clique.model import IDS_PER_MESSAGE, CongestedClique
from repro.congested_clique.routing import LENZEN_ROUND_COST
from repro.core.config import MatchingConfig
from repro.core.integral import IntegralMatchingResult
from repro.core.matching_mpc import mpc_fractional_matching
from repro.core.rounding import PROPOSAL_DAMPENING, RoundingOutcome
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.properties import matching_vertices
from repro.mpc.spec import ClusterSpec
from repro.mpc.engine import PregelEngine, VertexContext
from repro.mpc.errors import ProtocolError
from repro.mpc.programs import DistributedMatchingResult, DistributedMISResult
from repro.utils.rng import SeedLike, make_rng

# ---------------------------------------------------------------------------
# CONGESTED-CLIQUE: dict-based routing and bandwidth validation
# ---------------------------------------------------------------------------


def lenzen_route(
    clique: CongestedClique,
    messages: Iterable[Tuple[int, int, object]],
    context: str = "lenzen-routing",
) -> Dict[int, List[object]]:
    """Route ``(sender, receiver, payload)`` messages; return the inboxes.

    Oracle of :func:`repro.congested_clique.routing.lenzen_route_arrays`.
    """
    n = clique.num_players
    send_load: Dict[int, int] = {}
    receive_load: Dict[int, int] = {}
    inboxes: Dict[int, List[object]] = {}
    for sender, receiver, payload in messages:
        if not 0 <= sender < n or not 0 <= receiver < n:
            raise ProtocolError(
                f"message endpoints ({sender}, {receiver}) out of range during {context}"
            )
        send_load[sender] = send_load.get(sender, 0) + 1
        receive_load[receiver] = receive_load.get(receiver, 0) + 1
        inboxes.setdefault(receiver, []).append(payload)
    for player, load in send_load.items():
        if load > n:
            raise ProtocolError(
                f"player {player} sends {load} > n={n} messages; "
                f"Lenzen's precondition violated during {context}"
            )
    for player, load in receive_load.items():
        if load > n:
            raise ProtocolError(
                f"player {player} receives {load} > n={n} messages; "
                f"Lenzen's precondition violated during {context}"
            )
    clique.charge_rounds(LENZEN_ROUND_COST, context)
    return inboxes


def round_of_messages(
    clique: CongestedClique,
    messages: Iterable[Tuple[int, int, int]],
    context: str = "point-to-point",
) -> None:
    """One round given ``(sender, receiver, num_ids)`` triples.

    Oracle of :meth:`CongestedClique.round_of_messages_array`.
    """
    n = clique.num_players
    pair_load: Dict[Tuple[int, int], int] = {}
    for sender, receiver, num_ids in messages:
        for player in (sender, receiver):
            if not 0 <= player < n:
                raise ProtocolError(f"player {player} out of range [0, {n})")
        key = (sender, receiver)
        pair_load[key] = pair_load.get(key, 0) + num_ids
        if pair_load[key] > IDS_PER_MESSAGE:
            raise ProtocolError(
                f"pair {key} exceeds per-round bandwidth "
                f"({pair_load[key]} ids > {IDS_PER_MESSAGE}) during {context}"
            )
    clique.charge_rounds(1, context)


# ---------------------------------------------------------------------------
# Pregel: per-vertex closures of the batched programs
# ---------------------------------------------------------------------------

_LIVE = "live"
_IN_SET = "in_set"
_DEAD = "dead"


def luby_per_vertex(
    graph: Graph,
    seed: SeedLike = None,
    words_per_machine: Optional[int] = None,
) -> DistributedMISResult:
    """Luby's MIS, one ``compute`` call per vertex per superstep.

    Oracle of :func:`repro.mpc.programs.luby_vertex_program`.
    """

    def initial_state(vertex: int) -> Dict[str, Any]:
        return {"status": _LIVE}

    def compute(ctx: VertexContext, messages: List[Any]) -> None:
        state = ctx.state
        if state["status"] == _DEAD:
            ctx.vote_to_halt()
            return
        if ctx.superstep % 2 == 0:  # propose
            if state["status"] == _IN_SET:
                ctx.vote_to_halt()
                return
            # A neighbor joined the set last resolve step: die.
            if any(kind == "joined" for kind, _ in messages):
                state["status"] = _DEAD
                ctx.vote_to_halt()
                return
            value = (ctx.random(), ctx.vertex)
            state["draw"] = value
            ctx.send_to_neighbors(("draw", value))
        else:  # resolve
            if state["status"] != _LIVE:
                ctx.vote_to_halt()
                return
            draws = [payload for kind, payload in messages if kind == "draw"]
            my_draw = state["draw"]
            if all(my_draw < other for other in draws):
                state["status"] = _IN_SET
                ctx.send_to_neighbors(("joined", ctx.vertex))
                ctx.vote_to_halt()
            # Losers stay live and propose again next superstep.

    engine = PregelEngine(graph, words_per_machine=words_per_machine, seed=seed)
    outcome = engine.run(compute, initial_state=initial_state)
    mis = {
        v
        for v, state in outcome.states.items()
        if state["status"] == _IN_SET or graph.degree(v) == 0
    }
    return DistributedMISResult(
        mis=mis,
        supersteps=outcome.supersteps,
        rounds=outcome.rounds,
        max_machine_message_words=outcome.max_machine_message_words,
        total_message_words=outcome.total_message_words,
    )


def matching_per_vertex(
    graph: Graph,
    seed: SeedLike = None,
    words_per_machine: Optional[int] = None,
) -> DistributedMatchingResult:
    """The propose/accept matching handshake, one vertex at a time.

    Oracle of :func:`repro.mpc.programs.matching_vertex_program`.
    """

    def initial_state(vertex: int) -> Dict[str, Any]:
        return {"status": _LIVE, "mate": None, "live_neighbors": None}

    def compute(ctx: VertexContext, messages: List[Any]) -> None:
        state = ctx.state
        if state["live_neighbors"] is None:
            state["live_neighbors"] = set(ctx.neighbors)
        if state["status"] == _DEAD:
            ctx.vote_to_halt()
            return
        phase = ctx.superstep % 3
        if phase == 0:  # propose
            for kind, payload in messages:
                if kind == "dead":
                    state["live_neighbors"].discard(payload)
            if state["mate"] is not None or not state["live_neighbors"]:
                state["status"] = _DEAD
                ctx.vote_to_halt()
                return
            is_proposer = ctx.random() < 0.5
            state["role"] = "proposer" if is_proposer else "acceptor"
            state["proposed_to"] = None
            if is_proposer:
                live = sorted(state["live_neighbors"])
                target = live[int(ctx.random() * 7919) % len(live)]
                state["proposed_to"] = target
                ctx.send_to(target, ("propose", ctx.vertex))
        elif phase == 1:  # accept
            if state["role"] == "acceptor":
                proposers = sorted(
                    payload for kind, payload in messages if kind == "propose"
                )
                live_proposers = [
                    u for u in proposers if u in state["live_neighbors"]
                ]
                if live_proposers:
                    chosen = live_proposers[0]
                    state["mate"] = chosen
                    ctx.send_to(chosen, ("accept", ctx.vertex))
        else:  # finalize
            if state["role"] == "proposer":
                accepts = [
                    payload for kind, payload in messages if kind == "accept"
                ]
                if accepts:
                    # An acceptor accepts at most one proposer and we
                    # proposed to exactly one vertex, so this is unique.
                    state["mate"] = accepts[0]
            if state["mate"] is not None:
                state["status"] = _DEAD
                for u in state["live_neighbors"]:
                    if u != state["mate"]:
                        ctx.send_to(u, ("dead", ctx.vertex))
                ctx.vote_to_halt()

    engine = PregelEngine(graph, words_per_machine=words_per_machine, seed=seed)
    outcome = engine.run(compute, initial_state=initial_state)
    matching = set()
    for v, state in outcome.states.items():
        mate = state.get("mate")
        if mate is not None and outcome.states[mate].get("mate") == v:
            matching.add(canonical_edge(v, mate))
    return DistributedMatchingResult(
        matching=matching,
        supersteps=outcome.supersteps,
        rounds=outcome.rounds,
        max_machine_message_words=outcome.max_machine_message_words,
        total_message_words=outcome.total_message_words,
    )


# ---------------------------------------------------------------------------
# Integral matching: dict-based rounding and the Graph-residual loop
# ---------------------------------------------------------------------------


def round_fractional_matching_dicts(
    graph: Graph,
    weights: Mapping[Edge, float],
    candidates: Iterable[int],
    seed: SeedLike = None,
) -> RoundingOutcome:
    """Lemma 5.1 rounding over a tuple-keyed weight dict.

    Oracle of :func:`repro.core.rounding.round_fractional_matching_detailed`.
    """
    rng = make_rng(seed)
    candidate_list = sorted(set(candidates))
    incident: Dict[int, List[Tuple[int, float]]] = {v: [] for v in candidate_list}
    candidate_set = set(candidate_list)
    for (u, v), x in weights.items():
        if x <= 0.0:
            continue
        if u in candidate_set:
            incident[u].append((v, x))
        if v in candidate_set:
            incident[v].append((u, x))

    proposed: Set[Edge] = set()
    touch_count: Dict[int, int] = {}
    for v in candidate_list:
        roll = rng.random()
        cumulative = 0.0
        choice = None
        for u, x in incident[v]:
            cumulative += x / PROPOSAL_DAMPENING
            if roll < cumulative:
                choice = u
                break
        if choice is None:
            continue
        edge = canonical_edge(v, choice)
        if edge in proposed:
            continue  # u and v proposed the same edge; count it once
        proposed.add(edge)
        for endpoint in edge:
            touch_count[endpoint] = touch_count.get(endpoint, 0) + 1

    good: Set[Edge] = {
        edge
        for edge in proposed
        if touch_count[edge[0]] == 1 and touch_count[edge[1]] == 1
    }
    return RoundingOutcome(
        matching=good,
        proposals=len(proposed),
        collisions=len(proposed) - len(good),
    )


def mpc_maximum_matching_on_graph(
    graph: Graph,
    config: Optional[MatchingConfig] = None,
    seed: SeedLike = None,
    max_passes: Optional[int] = None,
) -> IntegralMatchingResult:
    """Theorem 1.2's pass loop on a set-based ``Graph.copy()`` residual.

    Every pass isolates the matched vertices in the copy, runs
    MPC-Simulation on the residual ``Graph`` (whose weights dict comes
    back in the residual's ``edges()`` order) and rounds that dict.
    Oracle of :func:`repro.core.integral.mpc_maximum_matching`.
    """
    config = config or MatchingConfig()
    rng = make_rng(seed)
    if max_passes is None:
        max_passes = max(8, 4 * int(math.log(1.0 / config.epsilon) + 1))

    matching: Set[Edge] = set()
    residual = graph.copy()
    rounds = 0
    comm_words = 0
    peak_words = 0
    per_pass: List[int] = []
    empty_streak = 0

    for _ in range(max_passes):
        fractional = mpc_fractional_matching(
            residual, config=config, seed=rng.getrandbits(64)
        )
        rounds += fractional.rounds
        comm_words += fractional.total_comm_words
        peak_words = max(peak_words, fractional.peak_words)
        candidates = fractional.rounding_candidates(config.epsilon)
        if fractional.weight < 1.0 or not candidates:
            break
        extracted = round_fractional_matching_dicts(
            residual,
            fractional.matching.weights,
            candidates,
            seed=rng.getrandbits(64),
        ).matching
        rounds += 1
        per_pass.append(len(extracted))
        if not extracted:
            empty_streak += 1
            if empty_streak >= 2:
                break
            continue
        empty_streak = 0
        matching |= extracted
        for v in matching_vertices(extracted):
            residual.isolate(v)

    cleanup = filtering_maximal_matching(
        residual,
        words_per_machine=ClusterSpec.from_graph(
            graph, config.memory_factor
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
    )
