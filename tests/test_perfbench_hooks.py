"""The traced benchmark run still finds the integral matching's layers.

``perfbench/layers.py`` times the Theorem 1.2 loop by wrapping
``mpc_fractional_matching``, ``round_fractional_matching`` and
``filtering_maximal_matching`` in the globals of ``repro.core.integral``,
and reads the rounding's candidate set from its third positional argument.
A refactor that calls them some other way silently drops those layers from
the per-layer metrics; this test fails instead.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.api import solve
from repro.graph.generators import gnp_random_graph

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers as module
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_matching_solve_records_fractional_rounding_and_filtering(layers):
    graph = gnp_random_graph(300, 0.05, seed=61)
    with layers.LayerTracer() as tracer:
        report = solve("matching", graph, backend="mpc", seed=62)
    assert report.valid
    passes = report.extras["passes"]
    assert passes >= 1
    assert tracer.calls["core.fractional"] >= passes
    assert tracer.calls["core.rounding"] == passes
    assert tracer.calls["baselines.filtering"] == 1
    assert tracer.calls["graph.to_csr"] == 1
    assert tracer.counts["core.rounding.candidates"] > 0
    assert tracer.counts["core.rounding.extracted"] == sum(
        report.extras["per_pass_sizes"]
    )
    assert tracer.counts["core.thresholds.draws"] > 0
    assert not tracer.originals  # everything wrapped was put back
