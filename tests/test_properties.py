"""Unit tests for the solution validators.

The fixed cases pin known answers; the property-based classes at the end
(driven by the shared strategies in ``tests/property/strategies.py``)
check the validators against independently-constructed witnesses on
random graphs — a greedily built maximal object must pass, and a
perturbed one must fail.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import path_graph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.properties import (
    fractional_matching_weight,
    is_independent_set,
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_fractional_matching,
    is_vertex_cover,
    matching_vertices,
    vertex_loads,
)
from tests.property.strategies import dense_pair_graphs, graphs

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def greedy_mis_witness(graph: Graph) -> set:
    """Smallest-vertex-first maximal independent set."""
    chosen: set = set()
    blocked: set = set()
    for v in graph.vertices():
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked |= graph.neighbors_view(v)
    return chosen


def greedy_matching_witness(graph: Graph) -> set:
    """First-fit maximal matching over the canonical edge order."""
    matched: set = set()
    matching: set = set()
    for u, v in graph.edge_list():
        if u not in matched and v not in matched:
            matching.add((u, v))
            matched.add(u)
            matched.add(v)
    return matching


@pytest.fixture
def square() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestIndependentSet:
    def test_empty_is_independent(self, square):
        assert is_independent_set(square, set())

    def test_diagonal_is_independent(self, square):
        assert is_independent_set(square, {0, 2})

    def test_adjacent_not_independent(self, square):
        assert not is_independent_set(square, {0, 1})

    def test_maximality(self, square):
        assert is_maximal_independent_set(square, {0, 2})
        assert not is_maximal_independent_set(square, {0})
        assert not is_maximal_independent_set(square, {0, 1})

    def test_isolated_vertices_must_be_included(self):
        g = Graph(3, [(0, 1)])
        assert not is_maximal_independent_set(g, {0})
        assert is_maximal_independent_set(g, {0, 2})


class TestMatching:
    def test_empty_matching(self, square):
        assert is_matching(square, set())

    def test_valid_matching(self, square):
        assert is_matching(square, {(0, 1), (2, 3)})

    def test_shared_vertex_rejected(self, square):
        assert not is_matching(square, {(0, 1), (1, 2)})

    def test_non_edge_rejected(self, square):
        assert not is_matching(square, {(0, 2)})

    def test_maximal_matching(self, square):
        assert is_maximal_matching(square, {(0, 1), (2, 3)})
        assert not is_maximal_matching(square, {(0, 1)})

    def test_single_edge_maximal_on_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert is_maximal_matching(g, {(0, 1)})

    def test_matching_vertices(self):
        assert matching_vertices({(0, 1), (2, 3)}) == {0, 1, 2, 3}


class TestVertexCover:
    def test_full_cover(self, square):
        assert is_vertex_cover(square, {0, 1, 2, 3})

    def test_minimum_cover(self, square):
        assert is_vertex_cover(square, {0, 2})
        assert is_vertex_cover(square, {1, 3})

    def test_non_cover(self, square):
        assert not is_vertex_cover(square, {0})

    def test_empty_cover_on_edgeless(self):
        assert is_vertex_cover(Graph(5), set())


class TestFractional:
    def test_valid(self, square):
        weights = {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5, (0, 3): 0.5}
        assert is_valid_fractional_matching(square, weights)
        assert fractional_matching_weight(weights) == pytest.approx(2.0)

    def test_overloaded_vertex(self, square):
        weights = {(0, 1): 0.8, (1, 2): 0.8}
        assert not is_valid_fractional_matching(square, weights)

    def test_negative_weight(self, square):
        assert not is_valid_fractional_matching(square, {(0, 1): -0.1})

    def test_non_edge(self, square):
        assert not is_valid_fractional_matching(square, {(0, 2): 0.1})

    def test_vertex_loads(self, square):
        loads = vertex_loads({(0, 1): 0.25, (1, 2): 0.5})
        assert loads[1] == pytest.approx(0.75)
        assert loads[0] == pytest.approx(0.25)


class TestValidatorProperties:
    """Validators vs independently-constructed witnesses on random graphs."""

    @_SETTINGS
    @given(graph=graphs())
    def test_greedy_mis_accepted(self, graph: Graph):
        witness = greedy_mis_witness(graph)
        assert is_independent_set(graph, witness)
        assert is_maximal_independent_set(graph, witness)

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_shrunk_mis_rejected(self, graph: Graph):
        witness = greedy_mis_witness(graph)
        # Removing any covered vertex breaks maximality (its neighborhood
        # no longer touches the set) — or independence stays but some
        # vertex is addable.
        smaller = witness - {min(witness)}
        assert not is_maximal_independent_set(graph, smaller) or not smaller

    @_SETTINGS
    @given(graph=graphs())
    def test_greedy_matching_accepted(self, graph: Graph):
        witness = greedy_matching_witness(graph)
        assert is_matching(graph, witness)
        assert is_maximal_matching(graph, witness)

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_overlapping_matching_rejected(self, graph: Graph):
        u, v = next(iter(graph.edges()))
        # Duplicate an endpoint: {u,v} plus any other edge at u or v.
        other = next(
            (w for w in graph.neighbors_view(u) if w != v),
            next((w for w in graph.neighbors_view(v) if w != u), None),
        )
        assume(other is not None)
        anchor = u if other in graph.neighbors_view(u) else v
        assert not is_matching(
            graph, [canonical_edge(u, v), canonical_edge(anchor, other)]
        )

    @_SETTINGS
    @given(graph=dense_pair_graphs())
    def test_matching_endpoints_cover(self, graph: Graph):
        witness = greedy_matching_witness(graph)
        cover = matching_vertices(witness)
        # Endpoints of a maximal matching form a vertex cover (the
        # classic 2-approximation argument).
        assert is_vertex_cover(graph, cover)

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_cover_without_edge_rejected(self, graph: Graph):
        u, v = next(iter(graph.edges()))
        cover = set(graph.vertices()) - {u, v}
        assert not is_vertex_cover(graph, cover)

    @_SETTINGS
    @given(graph=graphs())
    def test_uniform_fractional_matching_feasible(self, graph: Graph):
        # x_e = 1/max(1, Δ) keeps every vertex load at most 1.
        cap = max(1, graph.max_degree())
        weights = {edge: 1.0 / cap for edge in graph.edges()}
        assert is_valid_fractional_matching(graph, weights)
        assert fractional_matching_weight(weights) == pytest.approx(
            graph.num_edges / cap
        )
        loads = vertex_loads(weights)
        assert all(load <= 1.0 + 1e-9 for load in loads.values())

    @_SETTINGS
    @given(graph=graphs(min_vertices=2, min_edges=1))
    def test_overloaded_fractional_rejected(self, graph: Graph):
        u, v = next(iter(graph.edges()))
        weights = {canonical_edge(u, v): 1.5}
        assert not is_valid_fractional_matching(graph, weights)


def _both(graph: Graph):
    """``graph`` in both representations, for validator parity cases."""
    return [graph, CSRGraph.from_graph(graph)]


class TestIdsOutsideTheGraph:
    """An id outside ``[0, n)`` is not a vertex: every validator says False.

    A raw id used as an array index would wrap around (``-1`` is vertex
    ``n - 1``) or escape as an ``IndexError``; neither may reach a caller.
    """

    @pytest.mark.parametrize("graph", _both(path_graph(3)), ids=["graph", "csr"])
    def test_negative_id_is_not_a_maximal_independent_set(self, graph):
        # On CSR, -1 would alias vertex 2 and make {0, 2} look maximal.
        assert not is_maximal_independent_set(graph, {0, -1})
        assert not is_independent_set(graph, {0, -1})

    @pytest.mark.parametrize("graph", _both(path_graph(3)), ids=["graph", "csr"])
    def test_negative_id_is_not_a_vertex_cover(self, graph):
        # On CSR, -2 would alias vertex 1, which covers the whole path.
        assert not is_vertex_cover(graph, {-2})

    @pytest.mark.parametrize("graph", _both(path_graph(3)), ids=["graph", "csr"])
    def test_id_past_the_end_is_rejected_not_raised(self, graph):
        assert not is_maximal_independent_set(graph, {0, 2, 3})
        assert not is_independent_set(graph, {0, 7})
        assert not is_vertex_cover(graph, {1, 3})

    @pytest.mark.parametrize("graph", _both(path_graph(3)), ids=["graph", "csr"])
    def test_cover_with_a_non_vertex_is_rejected(self, graph):
        assert is_vertex_cover(graph, {1})
        assert not is_vertex_cover(graph, {1, 5})

    @pytest.mark.parametrize("graph", _both(path_graph(3)), ids=["graph", "csr"])
    def test_matching_and_fractional_ids_out_of_range(self, graph):
        assert not is_matching(graph, [(-1, 0)])
        assert not is_matching(graph, [(2, 3)])
        assert not is_valid_fractional_matching(graph, {(-1, 0): 0.5})
        assert not is_valid_fractional_matching(graph, {(2, 3): 0.5})

    @pytest.mark.parametrize("mask", [[-1, 1], [1, 3]])
    def test_integer_mask_out_of_range_raises(self, mask):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            CSRGraph.from_graph(graph, mask=mask)
        with pytest.raises(ValueError):
            CSRGraph.from_graph(graph).degrees(mask)


@st.composite
def graphs_with_pair_lists(draw):
    """A small graph and a list of pairs that stresses :func:`is_matching`.

    Pairs are graph edges (either orientation), self-loops ``(u, u)`` and
    arbitrary pairs over ``[-2, n + 2)``, so non-edges, repeated edges,
    reversed pairs and out-of-range ids all occur.
    """
    graph = draw(dense_pair_graphs(max_vertices=12, max_edges=30))
    n = graph.num_vertices
    ids = st.integers(min_value=-2, max_value=n + 1)
    pair = st.one_of(
        st.tuples(ids, ids),
        ids.map(lambda v: (v, v)),
    )
    edges = graph.edge_list()
    if edges:
        edge = st.sampled_from(edges)
        pair = st.one_of(edge, edge.map(lambda e: (e[1], e[0])), pair)
    return graph, draw(st.lists(pair, max_size=6))


class TestMatchingParity:
    """The CSR ``is_matching`` agrees with the set-based one on any input."""

    @settings(max_examples=200, deadline=None)
    @given(case=graphs_with_pair_lists())
    def test_csr_matches_set_based(self, case):
        graph, pairs = case
        assert is_matching(CSRGraph.from_graph(graph), pairs) == is_matching(
            graph, pairs
        )

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            ([], True),
            ([(0, 1), (2, 3)], True),
            ([(1, 0), (3, 2)], True),  # reversed pairs are the same edges
            ([(0, 1), (0, 1)], False),  # a repeated edge uses 0 twice
            ([(0, 1), (1, 0)], False),
            ([(0, 0)], False),
            ([(0, 2)], False),  # a diagonal of the square is no edge
            ([(0, 1), (1, 2)], False),
        ],
    )
    def test_fixed_cases_on_both(self, square, pairs, expected):
        for graph in _both(square):
            assert is_matching(graph, pairs) is expected
