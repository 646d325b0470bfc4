"""Seeded parity pins: the non-MPC backend vectorization is output-preserving.

The fingerprints below were captured from the *pre-vectorization*
implementations (PR 5's starting point: pure-Python CONGESTED-CLIQUE
routing, per-vertex Pregel supersteps, set-based baselines).  The CSR
rewrite must reproduce every one of them byte-for-byte — solutions, round
counts, and communication accounting alike.  Regenerate deliberately with

    PYTHONPATH=src python tests/test_backend_parity.py

only when an *intentional* behavior change lands (and say so in the PR).

The module also property-tests the array-based substrate validation
(Lenzen routing loads, clique bandwidth), the batched SHA-threshold
helpers, the exact-stream bulk ``randrange``/``random`` draws, the batched
Pregel programs, and the array-based integral matching loop and rounding
against their scalar/dict-based references (the oracles in
``tests/reference.py``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import solve
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby import luby_mis
from repro.baselines.parallel_greedy import parallel_greedy_mis
from repro.core.matching_mpc import mpc_fractional_matching
from repro.graph.generators import (
    barabasi_albert,
    gnp_random_graph,
    random_weighted_graph,
)


def _fingerprint(payload) -> str:
    """Stable hash of a JSON-shaped payload (float repr is exact)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _solve_fingerprint(task, backend, n, p, graph_seed, solve_seed, rng=None) -> str:
    make_graph = (
        random_weighted_graph if task == "weighted_matching" else gnp_random_graph
    )
    graph = make_graph(n, p, seed=graph_seed)
    report = solve(task, graph, backend=backend, seed=solve_seed, rng=rng)
    return _fingerprint(
        {
            "task": report.task,
            "backend": report.backend,
            "solution": report.solution,
            "rounds": report.rounds,
            "max_machine_words": report.max_machine_words,
            "total_comm_words": report.total_comm_words,
            "extras": report.extras,
        }
    )


def _removal_built_graph(n, p, graph_seed):
    """G(n, p) with every third edge (in ascending order) removed again.

    Set removals leave dummy slots behind, so the neighbour sets of this
    graph iterate differently from a freshly built graph with the same
    edges, and differently again from their own ``Graph.copy()``.
    """
    graph = gnp_random_graph(n, p, seed=graph_seed)
    for u, v in graph.edge_list()[::3]:
        graph.remove_edge(u, v)
    return graph


GRAPH_FACTORIES = {
    "ba": lambda n, attachment, graph_seed: barabasi_albert(
        n, attachment, seed=graph_seed
    ),
    "removed": _removal_built_graph,
}


def _graph_solve_fingerprint(task, backend, factory, graph_args, solve_seed) -> str:
    graph = GRAPH_FACTORIES[factory](*graph_args)
    report = solve(task, graph, backend=backend, seed=solve_seed)
    return _fingerprint(
        {
            "task": report.task,
            "backend": report.backend,
            "solution": report.solution,
            "rounds": report.rounds,
            "max_machine_words": report.max_machine_words,
            "total_comm_words": report.total_comm_words,
            "extras": report.extras,
            "metrics": report.metrics,
        }
    )


def _fractional_order_fingerprint(factory, graph_args, seed) -> str:
    """The fractional weights *in dict order*, plus the order-sensitive sums.

    ``solve`` sorts the solution, so this drives
    :func:`mpc_fractional_matching` directly: the iteration order of
    ``matching.weights`` on a set-based input is ``graph.edges()`` order.
    """
    graph = GRAPH_FACTORIES[factory](*graph_args)
    result = mpc_fractional_matching(graph, seed=seed)
    return _fingerprint(
        {
            "weights": [[u, v, x] for (u, v), x in result.matching.weights.items()],
            "weight": result.weight,
            "candidates": sorted(result.rounding_candidates(0.1)),
            "cover": sorted(result.vertex_cover),
            "rounds": result.rounds,
        }
    )


def _luby_fingerprint(n, p, graph_seed, seed) -> str:
    result = luby_mis(gnp_random_graph(n, p, seed=graph_seed), seed=seed)
    return _fingerprint({"mis": sorted(result.mis), "rounds": result.rounds})


def _israeli_itai_fingerprint(n, p, graph_seed, seed) -> str:
    result = israeli_itai_matching(
        gnp_random_graph(n, p, seed=graph_seed), seed=seed
    )
    return _fingerprint(
        {
            "matching": sorted([int(u), int(v)] for u, v in result.matching),
            "rounds": result.rounds,
        }
    )


def _parallel_greedy_fingerprint(n, p, graph_seed, seed) -> str:
    result = parallel_greedy_mis(gnp_random_graph(n, p, seed=graph_seed), seed=seed)
    return _fingerprint(
        {
            "mis": sorted(result.mis),
            "rounds": result.rounds,
            "decided_per_round": list(result.decided_per_round),
        }
    )


# (case name) -> (thunk args, pinned sha256).  REGENERATE-MARKER
SOLVE_CASES = {
    "mis/congested_clique/sparse": ("mis", "congested_clique", 300, 0.05, 11, 5),
    "mis/congested_clique/dense": ("mis", "congested_clique", 250, 0.3, 12, 6),
    "fractional/congested_clique": (
        "fractional_matching",
        "congested_clique",
        200,
        0.1,
        13,
        7,
    ),
    "mis/pregel": ("mis", "pregel", 300, 0.05, 14, 8),
    "matching/pregel": ("matching", "pregel", 300, 0.05, 15, 9),
    "fractional/mpc": ("fractional_matching", "mpc", 300, 0.1, 19, 13),
    "matching/mpc": ("matching", "mpc", 200, 0.1, 20, 14),
    # Captured at commit 8095764, while the MPC solvers still carried
    # their sequential twins of the repro.dist kernels; these pins are the
    # absolute reference that replaced them.  G(60, 1/2) is dense enough
    # for a rank-prefix phase; the matching-family cases run both
    # compressed phases and the direct Central-Rand simulation.
    "mis/mpc/dense": ("mis", "mpc", 60, 0.5, 21, 15),
    "vertex_cover/mpc": ("vertex_cover", "mpc", 200, 0.1, 22, 16),
    "one_plus_eps_matching/mpc": ("one_plus_eps_matching", "mpc", 120, 0.1, 23, 17),
    "weighted_matching/mpc": ("weighted_matching", "mpc", 150, 0.1, 24, 18),
    # Captured at the same commit with the order-free counter RNG, which
    # the machine-block and direct-simulation kernels draw from as well.
    "mis/mpc/counter": ("mis", "mpc", 60, 0.5, 25, 19, "counter"),
    "matching/mpc/counter": ("matching", "mpc", 200, 0.1, 26, 20, "counter"),
    "fractional/mpc/counter": (
        "fractional_matching",
        "mpc",
        300,
        0.1,
        27,
        21,
        "counter",
    ),
    "vertex_cover/mpc/counter": ("vertex_cover", "mpc", 200, 0.1, 28, 22, "counter"),
    "one_plus_eps_matching/mpc/counter": (
        "one_plus_eps_matching",
        "mpc",
        120,
        0.1,
        29,
        23,
        "counter",
    ),
    "weighted_matching/mpc/counter": (
        "weighted_matching",
        "mpc",
        150,
        0.1,
        30,
        24,
        "counter",
    ),
}

BASELINE_CASES = {
    # Captured at commit e558a50, while the integral matching loop still
    # ran on a set-based ``Graph.copy()`` residual and the fractional
    # weights were a tuple-keyed dict.  The Barabasi-Albert hubs have
    # neighbour sets large enough for ``copy()`` to lay them out anew; the
    # removal-built graph's sets carry dummy slots.
    "matching/mpc/ba": (
        _graph_solve_fingerprint,
        ("matching", "mpc", "ba", (2000, 4, 31), 41),
    ),
    "matching/mpc/removed": (
        _graph_solve_fingerprint,
        ("matching", "mpc", "removed", (300, 0.08, 32), 42),
    ),
    "vertex_cover/mpc/ba": (
        _graph_solve_fingerprint,
        ("vertex_cover", "mpc", "ba", (2000, 4, 31), 43),
    ),
    "fractional/mpc/weights-order": (
        _fractional_order_fingerprint,
        ("removed", (300, 0.08, 32), 44),
    ),
    "fractional/mpc/weights-order/ba": (
        _fractional_order_fingerprint,
        ("ba", (2000, 4, 31), 45),
    ),
    "luby": (_luby_fingerprint, (250, 0.08, 16, 10)),
    "israeli_itai": (_israeli_itai_fingerprint, (250, 0.08, 17, 11)),
    "parallel_greedy": (_parallel_greedy_fingerprint, (250, 0.08, 18, 12)),
}

PINS = {
    "fractional/congested_clique": "39cafaa66fc21ef350646cceae45ed09d5e5a9c5cb0142a22a75716e764ca600",
    "fractional/mpc": "94564401bfdca5a758a92cc29c3f3a1fa9d810d4d0c178e4b684d898b427f4d7",
    "fractional/mpc/counter": "c0d016f87934d645f07bad2716f374dcc3847f38d1c7847d89743bd7c777d7c6",
    "fractional/mpc/weights-order": "9ae408518190f33a52192c2d016be3de8076969c8cd85f4cbb5583dd06003dfa",
    "fractional/mpc/weights-order/ba": "7279151e04ed4d09c6220a89225a6e44120e909a5175affaedfde25195507e9f",
    "israeli_itai": "47eed39d4c0274eab55fd49bc7baa038b5f9bf392daff924d51e9025e5ce019c",
    "luby": "f77e102d6259b7e96d985e94f818c0e25b6a9ab7b1558000d56a391d3e5b927c",
    "matching/mpc": "600ca0bb1111ac7914bd9cf264091ba89508ae35a31bd3c087995f1e4a10cf90",
    "matching/mpc/ba": "40a140c1e430f6dd8926b8a64b0f4767e70e1da4aefe7195d3af80653132e5e7",
    "matching/mpc/counter": "09681fbee0b73e4746205b93327a824c0bfef2630ae7bbfb0731d4873e56ce26",
    "matching/mpc/removed": "f032b0cdacd204e57b0ae0475ddcc244d2593dae9a272f9c0a659ecb52af4d0e",
    "matching/pregel": "2150036e7c7f24af1f32535b5a3ca2680d0009e2a49772a5e4187763b7c7a689",
    "mis/congested_clique/dense": "32e519c87499c20714a7c5f8214d66f978682d2950d2e0df6b2a18c863e232e2",
    "mis/congested_clique/sparse": "569124578f790bece8ba77369c6de5116a22127c620bbeeaee31c53680c469ef",
    "mis/mpc/counter": "9ecb4186cb3d40b443320146857e17c565ac37af17a3cc7f308f84a5998429c3",
    "mis/mpc/dense": "511148a3c90ac3eb2f5989958de0bf37b4dfb4c80608ec13249209603cd9977a",
    "mis/pregel": "cf0e631933eb1381de63f9c463be415227e2977c13be702caff1567919515f9e",
    "one_plus_eps_matching/mpc": "d3cb99727f59f7a4a3ac0c0bb38a0d9ad3d301e273fc0b26e674b0dbbb08dd6d",
    "one_plus_eps_matching/mpc/counter": "4a321ac4ea562211bf3c44eb9b02f4db1c398a5b0cc70b939f492b6546610061",
    "parallel_greedy": "42bce1427a0a72eb377430b9c258e4606edbfeffe4487b0b15813871d92595c8",
    "vertex_cover/mpc": "27b9920807031de30e14e810c0b868ee11b183091917c764e5e7a52d10cfd90c",
    "vertex_cover/mpc/ba": "5186c517a5b44eecf5071148f37c20b6f32f21221b4eef8ecc7efaecf8297e70",
    "vertex_cover/mpc/counter": "70d929c34dfd99519745119e9a219450f9f72e99301d503344577514ffca614d",
    "weighted_matching/mpc": "d90c9907b628da4dcd7dfc7dd16f17391464ac75b5443babedd6ba11a2990a90",
    "weighted_matching/mpc/counter": "ba1a3046a119b2ee9c453f228d6f2cff2db5e5a10cfdc763c8386d2e094ee69c",
}


def _all_fingerprints():
    out = {}
    for name, args in SOLVE_CASES.items():
        out[name] = _solve_fingerprint(*args)
    for name, (fn, args) in BASELINE_CASES.items():
        out[name] = fn(*args)
    return out


@pytest.mark.parametrize("name", sorted(SOLVE_CASES) + sorted(BASELINE_CASES))
def test_pinned_output(name):
    if name in SOLVE_CASES:
        got = _solve_fingerprint(*SOLVE_CASES[name])
    else:
        fn, args = BASELINE_CASES[name]
        got = fn(*args)
    assert got == PINS[name], (
        f"{name}: output fingerprint changed — the vectorized backend no "
        "longer reproduces the pre-rewrite seeded output"
    )


# ---------------------------------------------------------------------------
# Array-based substrate validation vs the scalar/dict-based references
# ---------------------------------------------------------------------------

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congested_clique.model import CongestedClique
from repro.congested_clique.routing import lenzen_route_arrays
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.mpc.errors import ProtocolError
from repro.utils.rng import RngStream
from tests.reference import lenzen_route, round_of_messages

message_batches = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=4 * n,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(message_batches)
def test_lenzen_array_load_validation_matches_dict_reference(batch):
    """The bincount-validated array router accepts/rejects exactly the
    message multisets the dict-based reference does, and charges the same
    rounds when it accepts."""
    n, messages = batch
    reference = CongestedClique(n)
    vectorized = CongestedClique(n)
    senders = np.array([s for s, _ in messages], dtype=np.int64)
    receivers = np.array([r for _, r in messages], dtype=np.int64)
    try:
        lenzen_route(reference, [(s, r, None) for s, r in messages])
        ref_outcome = None
    except ProtocolError as error:
        ref_outcome = "sends" if "sends" in str(error) else "receives"
    try:
        lenzen_route_arrays(vectorized, senders, receivers)
        vec_outcome = None
    except ProtocolError as error:
        vec_outcome = "sends" if "sends" in str(error) else "receives"
    assert vec_outcome == ref_outcome
    if ref_outcome is None:
        assert vectorized.rounds == reference.rounds


@settings(max_examples=100, deadline=None)
@given(message_batches)
def test_clique_round_array_validation_matches_dict_reference(batch):
    n, messages = batch
    reference = CongestedClique(n)
    vectorized = CongestedClique(n)
    senders = np.array([s for s, _ in messages], dtype=np.int64)
    receivers = np.array([r for _, r in messages], dtype=np.int64)
    try:
        round_of_messages(reference, [(s, r, 1) for s, r in messages])
        ref_ok = True
    except ProtocolError:
        ref_ok = False
    try:
        vectorized.round_of_messages_array(senders, receivers)
        vec_ok = True
    except ProtocolError:
        vec_ok = False
    assert vec_ok == ref_ok
    if ref_ok:
        assert vectorized.rounds == reference.rounds == 1


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.lists(
        st.integers(min_value=0, max_value=10**7), min_size=1, max_size=40
    ),
    iteration=st.integers(min_value=0, max_value=500),
)
def test_rng_batch_matches_scalar_draws(seed, vertices, iteration):
    """random_batch/uniform_batch are bit-for-bit the scalar methods."""
    stream = RngStream(seed, namespace="parity")
    scalar = [stream.random(v, iteration) for v in vertices]
    assert stream.random_batch(vertices, iteration).tolist() == scalar
    scalar_uniform = [stream.uniform(0.25, 0.75, v, iteration) for v in vertices]
    assert (
        stream.uniform_batch(0.25, 0.75, vertices, iteration).tolist()
        == scalar_uniform
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    iteration=st.integers(min_value=0, max_value=200),
    estimates=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
)
def test_oracle_crosses_batch_matches_scalar(seed, iteration, estimates):
    oracle = ThresholdOracle(0.6, 0.9, seed=seed)
    vertices = list(range(len(estimates)))
    scalar = [
        oracle.crosses(v, iteration, estimate)
        for v, estimate in zip(vertices, estimates)
    ]
    batch = oracle.crosses_batch(vertices, iteration, estimates)
    assert batch.tolist() == scalar
    thresholds = oracle.thresholds_batch(vertices, iteration)
    assert thresholds.tolist() == [oracle.threshold(v, iteration) for v in vertices]


def test_fixed_oracle_crosses_batch():
    oracle = fixed_oracle(0.5)
    batch = oracle.crosses_batch([1, 2, 3], 0, [0.4, 0.5, 0.6])
    assert batch.tolist() == [False, True, True]
    assert oracle.thresholds_batch([7, 8], 3).tolist() == [0.5, 0.5]


# ---------------------------------------------------------------------------
# Batched Pregel kernels vs the per-vertex programs
# ---------------------------------------------------------------------------

from repro.graph.generators import cycle_graph, path_graph, star_graph
from repro.graph.graph import Graph
from repro.mpc.programs import luby_vertex_program, matching_vertex_program
from tests.reference import luby_per_vertex, matching_per_vertex

ENGINE_PARITY_GRAPHS = [
    gnp_random_graph(80, 0.1, seed=0),
    gnp_random_graph(150, 0.05, seed=3),
    gnp_random_graph(60, 0.3, seed=5),
    star_graph(15),
    path_graph(10),
    cycle_graph(9),
    Graph(6, [(0, 1)]),
    Graph(0),
    Graph(5),
]


@pytest.mark.parametrize("index", range(len(ENGINE_PARITY_GRAPHS)))
@pytest.mark.parametrize("seed", [0, 7])
def test_luby_batch_kernel_matches_per_vertex(index, seed):
    graph = ENGINE_PARITY_GRAPHS[index]
    reference = luby_per_vertex(graph, seed=seed)
    batched = luby_vertex_program(graph, seed=seed)
    assert batched.mis == reference.mis
    assert batched.supersteps == reference.supersteps
    assert batched.rounds == reference.rounds
    assert batched.max_machine_message_words == reference.max_machine_message_words
    assert batched.total_message_words == reference.total_message_words


@pytest.mark.parametrize("index", range(len(ENGINE_PARITY_GRAPHS)))
@pytest.mark.parametrize("seed", [0, 7])
def test_matching_batch_kernel_matches_per_vertex(index, seed):
    graph = ENGINE_PARITY_GRAPHS[index]
    reference = matching_per_vertex(graph, seed=seed)
    batched = matching_vertex_program(graph, seed=seed)
    assert batched.matching == reference.matching
    assert batched.supersteps == reference.supersteps
    assert batched.rounds == reference.rounds
    assert batched.max_machine_message_words == reference.max_machine_message_words
    assert batched.total_message_words == reference.total_message_words


def test_engine_memory_enforcement_matches_in_batch_mode():
    """A volume that blows the per-vertex word budget blows the batched one
    at the same superstep (K_20 draws exceed the sqrt-machine budget)."""
    from repro.graph.generators import complete_graph
    from repro.mpc.errors import MemoryExceededError

    graph = complete_graph(20)
    with pytest.raises(MemoryExceededError) as per_vertex:
        luby_per_vertex(graph, seed=0)
    with pytest.raises(MemoryExceededError) as batched:
        luby_vertex_program(graph, seed=0)
    assert str(batched.value) == str(per_vertex.value)


def test_neighbors_bulk_small_batch_fast_path():
    from repro.graph.csr import SMALL_GATHER_ROWS, CSRGraph

    graph = gnp_random_graph(300, 0.05, seed=2)
    csr = CSRGraph.from_graph(graph)
    for size in (1, 3, SMALL_GATHER_ROWS, SMALL_GATHER_ROWS + 1, 200):
        vertices = list(range(0, min(size * 3, 300), 3))[:size]
        expected = np.concatenate(
            [csr.neighbors(v) for v in vertices]
        ) if vertices else np.empty(0, dtype=np.int64)
        assert np.array_equal(csr.neighbors_bulk(vertices), expected)


def test_from_graph_mask_matches_filter_edges():
    from repro.graph.csr import CSRGraph

    graph = gnp_random_graph(120, 0.08, seed=9)
    csr = CSRGraph.from_graph(graph)
    rng_mask = np.arange(120) % 3 != 0
    assert CSRGraph.from_graph(graph, mask=rng_mask) == csr.filter_edges(rng_mask)
    assert CSRGraph.from_graph(graph, mask=np.flatnonzero(rng_mask)) == (
        csr.filter_edges(rng_mask)
    )


# ---------------------------------------------------------------------------
# Exact-stream bulk draws vs the scalar Random methods
# ---------------------------------------------------------------------------

import random

from repro.utils.rng import draw_random, draw_randrange


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    k=st.one_of(
        st.integers(min_value=1, max_value=2**32),
        st.sampled_from([1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32]),
    ),
    count=st.integers(min_value=0, max_value=5000),
)
def test_draw_randrange_is_the_scalar_stream(seed, k, count):
    bulk = random.Random(seed)
    scalar = random.Random(seed)
    values = draw_randrange(bulk, k, count)
    assert values.dtype == np.int64
    assert values.tolist() == [scalar.randrange(k) for _ in range(count)]
    assert bulk.getstate() == scalar.getstate()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    count=st.integers(min_value=0, max_value=5000),
)
def test_draw_random_is_the_scalar_stream(seed, count):
    bulk = random.Random(seed)
    scalar = random.Random(seed)
    assert draw_random(bulk, count).tolist() == [
        scalar.random() for _ in range(count)
    ]
    assert bulk.getstate() == scalar.getstate()


@pytest.mark.parametrize("k", [0, -1, 2**32 + 1])
def test_draw_randrange_rejects_out_of_range_k(k):
    with pytest.raises(ValueError):
        draw_randrange(random.Random(0), k, 1)


# ---------------------------------------------------------------------------
# Array-based integral matching vs the dict / Graph-residual oracles
# ---------------------------------------------------------------------------

from repro.core.integral import mpc_maximum_matching
from repro.core.rounding import round_fractional_matching_detailed
from tests.reference import (
    mpc_maximum_matching_on_graph,
    round_fractional_matching_dicts,
)

ORACLE_GRAPHS = {
    "gnp": lambda: gnp_random_graph(250, 0.06, seed=51),
    "ba": lambda: barabasi_albert(600, 5, seed=52),
    "removed": lambda: _removal_built_graph(250, 0.1, 53),
}


@pytest.mark.parametrize("family", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("seed", [1, 2])
def test_array_rounding_matches_dict_oracle(family, seed):
    graph = ORACLE_GRAPHS[family]()
    fractional = mpc_fractional_matching(graph, seed=seed)
    candidates = fractional.rounding_candidates(0.1)
    assert candidates
    oracle_rng = random.Random(seed)
    expected = round_fractional_matching_dicts(
        graph, fractional.matching.weights, candidates, seed=oracle_rng
    )
    for weights in (fractional.matching, fractional.matching.weights):
        rng = random.Random(seed)
        got = round_fractional_matching_detailed(
            graph, weights, candidates, seed=rng
        )
        assert got == expected
        assert list(got.matching) == list(expected.matching)  # same set layout
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("family", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("seed", [3, 4])
def test_integral_loop_matches_graph_residual_oracle(family, seed):
    graph = ORACLE_GRAPHS[family]()
    oracle_rng = random.Random(seed)
    rng = random.Random(seed)
    expected = mpc_maximum_matching_on_graph(graph, seed=oracle_rng)
    got = mpc_maximum_matching(graph, seed=rng)
    assert got == expected
    assert list(got.matching) == list(expected.matching)  # same set layout
    assert got.passes > 1
    assert rng.getstate() == oracle_rng.getstate()


if __name__ == "__main__":
    print(json.dumps(_all_fingerprints(), indent=4, sort_keys=True))
