"""One MPC solve converts its input once and validates on that CSR.

The MPC adapters hand the CSR their solver ran on back to the facade
(``SolverOutput.csr``), and ``report.valid`` is computed on it.  These
tests keep that true: one ``Graph -> CSR`` conversion per solve (counted
by the benchmark's layer tracer, ``perfbench/layers.py``), no validator
call on the set-based ``Graph``, and a report that still says invalid
when the solver's output is broken on purpose.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

import repro.api.adapters as adapters
import repro.api.facade as facade
import repro.core.vertex_cover as vertex_cover
from repro.api import solve
from repro.graph.csr import as_csr
from repro.graph.generators import gnp_random_graph

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")

VALIDATORS = (
    "is_matching",
    "is_maximal_independent_set",
    "is_valid_fractional_matching",
    "is_vertex_cover",
)


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers as module
    finally:
        sys.path.remove(PERFBENCH)
    return module


@pytest.fixture
def validated_on(monkeypatch):
    """Type names of the graphs every validator was called on."""
    seen = []
    for module in (facade, vertex_cover):
        for name in VALIDATORS:
            original = getattr(module, name, None)
            if original is None:
                continue

            def spy(graph, *args, _original=original, **kwargs):
                seen.append(type(graph).__name__)
                return _original(graph, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize(
    "task", ["mis", "matching", "vertex_cover", "fractional_matching"]
)
def test_one_conversion_and_no_set_based_validation(task, layers, validated_on):
    graph = gnp_random_graph(200, 0.05, seed=71)
    with layers.LayerTracer() as tracer:
        report = solve(task, graph, backend="mpc", seed=72)
    assert report.valid
    assert tracer.calls["graph.to_csr"] == 1
    # The tracer's verify.valid layer leaves is_vertex_cover out.
    assert tracer.calls["verify.valid"] == int(task != "vertex_cover")
    assert validated_on and set(validated_on) == {"CSRGraph"}


def _broken_mis(monkeypatch, edit):
    original = adapters.mis_mpc

    def broken(graph, **kwargs):
        result = original(graph, **kwargs)
        return dataclasses.replace(result, mis=edit(graph, set(result.mis)))

    monkeypatch.setattr(adapters, "mis_mpc", broken)


def _drop_one(graph, mis):
    return mis - {min(mis)}


def _add_a_neighbor(graph, mis):
    v = min(mis)
    return mis | {int(graph.neighbors(v)[0])}


def _add_a_non_vertex(graph, mis):
    return mis | {-1}


@pytest.mark.parametrize("edit", [_drop_one, _add_a_neighbor, _add_a_non_vertex])
def test_broken_mis_is_reported_invalid(monkeypatch, edit):
    graph = gnp_random_graph(150, 0.05, seed=73)
    assert solve("mis", graph, backend="mpc", seed=74).valid
    _broken_mis(monkeypatch, edit)
    assert solve("mis", graph, backend="mpc", seed=74).valid is False


def test_broken_matching_is_reported_invalid(monkeypatch):
    graph = gnp_random_graph(150, 0.05, seed=75)
    original = adapters.mpc_maximum_matching

    def broken(graph, **kwargs):
        result = original(graph, **kwargs)
        u, v = min(result.matching)
        w = next(int(x) for x in result.csr.neighbors(u) if x != v)
        extra = (min(u, w), max(u, w))  # shares u with a matched edge
        return dataclasses.replace(result, matching=result.matching | {extra})

    monkeypatch.setattr(adapters, "mpc_maximum_matching", broken)
    assert solve("matching", graph, backend="mpc", seed=76).valid is False


def test_broken_cover_is_reported_invalid(monkeypatch):
    graph = gnp_random_graph(150, 0.05, seed=77)
    original = adapters.mpc_vertex_cover

    def broken(graph, **kwargs):
        result = original(graph, **kwargs)
        # Drop a cover vertex with a neighbor outside the cover.
        v = next(
            v
            for v in sorted(result.cover)
            if any(int(u) not in result.cover for u in result.csr.neighbors(v))
        )
        return dataclasses.replace(result, cover=result.cover - {v})

    monkeypatch.setattr(adapters, "mpc_vertex_cover", broken)
    assert solve("vertex_cover", graph, backend="mpc", seed=78).valid is False


@pytest.mark.parametrize("rng", ["sha", "counter"])
@pytest.mark.parametrize("governance", [None, True])
def test_mis_same_on_graph_and_csr(rng, governance):
    graph = gnp_random_graph(300, 0.04, seed=79)
    reports = [
        solve("mis", g, backend="mpc", seed=80, rng=rng, governance=governance)
        for g in (graph, as_csr(graph))
    ]
    assert reports[0].solution == reports[1].solution
    assert reports[0].rounds == reports[1].rounds
    assert all(report.valid for report in reports)
