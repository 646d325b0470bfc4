"""Per-layer timing for the traced benchmark run.

:class:`LayerTracer` wraps the public functions of each layer of
``src/repro`` where their callers look them up, times every call, and
puts the original objects back on :meth:`LayerTracer.restore`.  Nothing
under ``src/`` is edited.  Every wrapped function feeds its layer's
``<layer>.calls``, ``<layer>.s`` (inclusive wall time) and
``<layer>.self_s`` (inclusive time minus the time of wrapped calls made
inside it), so the self times of all layers plus the time no layer
claims add up to the wall time of the traced operation.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# (layer, module, class or None, attributes).  A module-level function is
# patched in the module its caller imported it into: ``repro.core`` re-exports
# functions named like its submodules (``repro.core.mis_mpc`` is a function
# there), so modules are resolved with ``importlib``, which reads
# ``sys.modules``.
TARGETS: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    ("api.canonical", "repro.api.facade", None, ("canonical_solution",)),
    (
        "verify.valid",
        "repro.api.facade",
        None,
        ("is_matching", "is_maximal_independent_set", "is_valid_fractional_matching"),
    ),
    ("graph.to_csr", "repro.graph.csr", "CSRGraph", ("from_graph",)),
    ("graph.residual", "repro.graph.graph", "Graph", ("copy", "isolate")),
    (
        "graph.csr",
        "repro.graph.csr",
        "CSRGraph",
        ("induced_edges", "neighbors_bulk", "degrees", "filter_edges", "edge_array"),
    ),
    (
        "mpc",
        "repro.mpc.cluster",
        "MPCCluster",
        ("exchange", "ship_to_machine", "broadcast", "charge_rounds"),
    ),
    ("mpc", "repro.mpc.spec", "ClusterSpec", ("build_cluster",)),
    (
        "core.thresholds",
        "repro.core.thresholds",
        "ThresholdOracle",
        ("crosses_batch", "thresholds_batch"),
    ),
    ("core.fractional", "repro.core.integral", None, ("mpc_fractional_matching",)),
    ("core.fractional", "repro.api.adapters", None, ("mpc_fractional_matching",)),
    ("core.rounding", "repro.core.integral", None, ("round_fractional_matching",)),
    (
        "baselines.filtering",
        "repro.core.integral",
        None,
        ("filtering_maximal_matching",),
    ),
    ("core.greedy_prefix", "repro.core.mis_mpc", None, ("greedy_mis_on_prefix_csr",)),
    ("core.sparsified_mis", "repro.core.mis_mpc", None, ("sparsified_mis",)),
    ("stream.apply_edges", "repro.stream.dynamic", "DynamicGraph", ("apply_edges",)),
    ("stream.compact", "repro.stream.dynamic", "DynamicGraph", ("compact",)),
    ("stream.step", "repro.stream.maintain", "Maintainer", ("step",)),
]

LAYERS: List[str] = list(dict.fromkeys(layer for layer, _, _, _ in TARGETS))


class LayerTracer:
    """Installs timing wrappers on :data:`TARGETS`; a context manager.

    Besides wall times it keeps the counts that are only visible at a
    layer boundary: threshold draws (vertices passed to
    ``thresholds_batch``), rounding candidates and extracted edges, and every
    ``MPCCluster`` built through ``ClusterSpec.build_cluster`` so the
    words it charged can be read after each operation.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.clusters: List[Any] = []
        self.originals: List[Tuple[Any, str, Any]] = []
        self._child_s: List[float] = []  # one slot per active wrapped call

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        if self.originals:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                # vars(), not getattr: the raw classmethod descriptor must be
                # re-wrapped and later restored as the same object.
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(layer, attr, original.__func__))
                else:
                    patched = self._wrap(layer, attr, original)
                self.originals.append((owner, attr, original))
                setattr(owner, attr, patched)

    def restore(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def _wrap(self, layer: str, attr: str, fn: Callable) -> Callable:
        tracer = self
        count = _COUNTERS.get(attr)

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._child_s
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.calls[layer] += 1
                tracer.inclusive_s[layer] += elapsed
                tracer.self_s[layer] += elapsed - children
            if count is not None:
                count(tracer, args, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", attr)
        return timed

    # -- per-operation readings ----------------------------------------------

    def drain_clusters(self) -> Tuple[int, int, int]:
        """``(comm_words, peak_machine_words, clusters)`` since the last drain.

        Peak words per cluster are ``max(peak_words(), peak_transient_words)``:
        the resident high-water mark or the largest single inbox, whichever
        is larger.
        """
        clusters, self.clusters = self.clusters, []
        comm = sum(int(c.total_comm_words) for c in clusters)
        peak = max(
            (max(int(c.peak_words()), int(c.peak_transient_words)) for c in clusters),
            default=0,
        )
        return comm, peak, len(clusters)


def _count_draws(tracer: LayerTracer, args: Tuple[Any, ...], result: Any) -> None:
    # (self, vertices, iteration): one materialised threshold per vertex;
    # crosses_batch reaches here only for vertices inside the draw band.
    tracer.counts["core.thresholds.draws"] += len(args[1])


def _count_rounding(tracer: LayerTracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.counts["core.rounding.candidates"] += len(args[2])  # (graph, weights, C~)
    tracer.counts["core.rounding.extracted"] += len(result)


def _keep_cluster(tracer: LayerTracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.clusters.append(result)


_COUNTERS: Dict[str, Callable[[LayerTracer, Tuple[Any, ...], Any], None]] = {
    "thresholds_batch": _count_draws,
    "round_fractional_matching": _count_rounding,
    "build_cluster": _keep_cluster,
}
