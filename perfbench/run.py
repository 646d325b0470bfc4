"""The repository benchmark: one named workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload matching-gnm30k --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``; the program only
receives the generated graph or edge batches.  Set-up (imports, graph
generation, the sequential reference solve, a warm-up on a small instance
of the same workload) is repeated ``SETUP_REPEATS`` times and is never
inside a timed operation.  Operations then run in a closed loop with one
caller for about ``--seconds`` seconds; each is timed around the call as a
caller sees it and its output is checked independently of the library's
own validators.  A fixed :class:`HostReference` job runs between operations,
and the bounded latencies are given in its units to take out most of the
shared host's drift.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
second window run under :class:`layers.LayerTracer`.  The line before it
carries the provenance stamp and the per-run notes (sample counts, tail
percentile, rounds, words).  Metric definitions live in NOTES.md.
"""

from __future__ import annotations

# Taken before the other imports: set-up time counts from process start.
_STARTED = __import__("time").perf_counter()

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
# Reserved for checking a later speed-up claim on a seed that was not used
# while the change was written (NOTES.md, "Seeds").
HOLDOUT_SEED = 9001


# ---------------------------------------------------------------------------
# independent output checks (NumPy over edge arrays built in set-up)
# ---------------------------------------------------------------------------


def edge_arrays(graph) -> Tuple[Any, Any]:
    """Canonical ``(u, v)`` endpoint arrays, ``u < v``, of a set-based graph."""
    pairs = graph.edge_list()
    flat = itertools.chain.from_iterable(pairs)
    edges = np.fromiter(flat, dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)
    return edges.min(axis=1), edges.max(axis=1)


def is_mis(n: int, us, vs, members) -> bool:
    """``members`` is a maximal independent set of the edges ``(us[i], vs[i])``."""
    chosen = np.asarray(members, dtype=np.int64)
    if chosen.size and (chosen.min() < 0 or chosen.max() >= n):
        return False
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    if int(mask.sum()) != chosen.size or (mask[us] & mask[vs]).any():
        return False
    dominated = mask.copy()
    dominated[us[mask[vs]]] = True
    dominated[vs[mask[us]]] = True
    return bool(dominated.all())


def is_matching(n: int, keys, pairs) -> bool:
    """``pairs`` are edges of the graph (sorted ``u * n + v`` keys) sharing no endpoint."""
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if np.unique(edges).size != edges.size:
        return False
    us, vs = edges.min(axis=1), edges.max(axis=1)
    if edges.size and (us.min() < 0 or vs.max() >= n):
        return False
    wanted = us * n + vs
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return bool((keys[at] == wanted).all())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SolveWorkload:
    """Repeated ``solve(task, graph, backend="mpc")`` calls on one seeded graph.

    ``quality`` is the output size divided by the size the ``greedy``
    backend finds for the same task on the same graph, solved in set-up.
    """

    kind = "solve"
    min_ops = 1
    exhausted = False

    def __init__(self, task: str, make_graph: Callable[[int, bool], Any]) -> None:
        self.task = task
        self.make_graph = make_graph
        self.graph = None

    def set_up(self, seed: int, tiny: bool) -> None:
        from repro.api import solve

        self.seed = seed
        self.graph = None  # drop the previous repeat's graph before building
        gc.collect()
        self.graph = self.make_graph(seed, tiny)
        self.n = self.graph.num_vertices
        self.us, self.vs = edge_arrays(self.graph)
        self.keys = np.sort(self.us * self.n + self.vs)
        reference = solve(self.task, self.graph, backend="greedy", seed=seed)
        self.reference_size = len(reference.solution)
        solve(self.task, self.make_graph(seed, True), backend="mpc", seed=seed)

    def operate(self) -> Tuple[float, Any]:
        from repro.api import solve

        gc.collect()
        started = time.perf_counter()
        report = solve(self.task, self.graph, backend="mpc", seed=self.seed)
        return time.perf_counter() - started, report

    def check(self, report: Any) -> bool:
        if not report.valid:
            return False
        if self.task == "mis":
            return is_mis(self.n, self.us, self.vs, report.solution)
        return is_matching(self.n, self.keys, report.solution)

    def quality(self, report: Any) -> float:
        return len(report.solution) / self.reference_size

    def work(self, report: Any) -> int:
        return report.num_edges


class StreamWorkload:
    """``Maintainer.step`` over pre-built churn batches, one caller.

    Each epoch deletes ``CHURN`` of the current edges and inserts as many
    fresh ones.  ``quality`` is read at epoch ``checkpoint``, which every
    run reaches, so it repeats exactly for a seed: the maintained MIS size
    divided by the greedy MIS size of that epoch's graph.
    """

    kind = "stream"
    CHURN = 0.001

    def __init__(self, n: int, m: int, epochs: int, checkpoint: int) -> None:
        self.n0, self.m0 = n, m
        self.epochs, self.checkpoint = epochs, checkpoint
        self.min_ops = checkpoint
        self.maintainer = None
        self.batches: List[Any] = []

    def _build(self, seed: int, n: int, m: int, epochs: int):
        from repro.graph.generators import gnm_random_graph
        from repro.stream.maintain import make_maintainer
        from repro.stream.updates import churn_batches

        graph = gnm_random_graph(n, m, seed=seed)
        batches = list(
            churn_batches(graph, epochs=epochs, churn_fraction=self.CHURN, seed=seed)
        )
        maintainer = make_maintainer("mis", graph, seed=seed)
        maintainer.initialize()
        return maintainer, batches

    def set_up(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.maintainer, self.batches = None, []
        gc.collect()
        if tiny:
            self.epochs, self.checkpoint, self.min_ops = 400, 5, 5
        n, m = (2_000, 10_000) if tiny else (self.n0, self.m0)
        self.maintainer, self.batches = self._build(seed, n, m, self.epochs)
        warm, warm_batches = self._build(seed, 2_000, 10_000, 5)
        for batch in warm_batches:
            warm.step(batch)
        self.position = 0
        self.stop_at = len(self.batches)
        self.at_checkpoint: Optional[Tuple[int, Any]] = None

    @property
    def exhausted(self) -> bool:
        return self.position >= self.stop_at

    def operate(self) -> Tuple[float, Any]:
        batch = self.batches[self.position]
        self.position += 1
        started = time.perf_counter()
        stats = self.maintainer.step(batch)
        return time.perf_counter() - started, stats

    def check(self, stats: Any) -> bool:
        csr = self.maintainer.graph.snapshot()
        solution = self.maintainer.solution()
        if self.position == self.checkpoint:
            self.at_checkpoint = (len(solution), csr)
        return is_mis(csr.num_vertices, csr.src, csr.indices, solution)

    def quality(self, _: Any = None) -> float:
        from repro.api import solve

        size, csr = self.at_checkpoint
        reference = solve("mis", csr.to_graph(), backend="greedy", seed=self.seed)
        return size / len(reference.solution)

    def work(self, stats: Any) -> int:
        return stats.inserted + stats.deleted


def _gnm(n: int, m: int) -> Callable[[int, bool], Any]:
    def make(seed: int, tiny: bool):
        from repro.graph.generators import gnm_random_graph

        return gnm_random_graph(n // 10 if tiny else n, m // 10 if tiny else m, seed=seed)

    return make


def _powerlaw(seed: int, tiny: bool):
    from repro.graph.generators import barabasi_albert

    return barabasi_albert(5_000 if tiny else 100_000, 10, seed=seed)


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "matching-gnm20k": lambda: SolveWorkload("matching", _gnm(20_000, 100_000)),
    "mis-powerlaw100k": lambda: SolveWorkload("mis", _powerlaw),
    "stream-churn-mis20k": lambda: StreamWorkload(20_000, 100_000, 1400, 100),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class HostReference:
    """A fixed job that uses none of the program, timed between operations.

    The host is shared, and its speed moves by tens of percent within
    minutes; each operation's wall is divided by the median wall of the
    ``NEAREST`` reference runs closest to it in time, which gives the
    bounded latencies in ``ref`` units (:func:`in_ref_units`).  Its mix follows
    the program's: dict-of-set adjacency built in the interpreter, Python
    objects and NumPy arrays read in random order from working sets larger
    than a cache, and a CSR-style bucketing (stable argsort, bincount,
    cumsum) of a million edge endpoints.  The data come from a fixed seed,
    never from the workload seed, and take about 100 MiB.
    """

    SEED = 20_180_223
    SHARE = 0.2  # of a window's wall time spent on the reference job
    NEAREST = 6

    def __init__(self) -> None:
        rng = np.random.default_rng(self.SEED)
        self.edges = rng.integers(0, 5_000, (10_000, 2)).tolist()
        self.keys = rng.integers(0, 1 << 40, 30_000)
        self.big = rng.integers(0, 1 << 40, 4_000_000)
        self.gather = rng.permutation(self.big.size)[:500_000]
        self.objects = self.big[:500_000].tolist()
        self.visit = rng.integers(0, len(self.objects), 100_000).tolist()
        self.endpoints = rng.integers(0, 100_000, 1_000_000)
        self.shuffle = rng.permutation(self.endpoints.size)

    def __call__(self) -> float:
        started = time.perf_counter()
        adjacency: Dict[int, set] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        total = 0
        for i in self.visit:
            total += self.objects[i]
        self.big[self.gather].sum()
        np.argsort(self.keys, kind="stable")
        ends = self.endpoints[self.shuffle]
        order = np.argsort(ends, kind="stable")
        offsets = np.cumsum(np.bincount(ends, minlength=100_000))
        ends[order].sum()
        offsets.sum()
        return time.perf_counter() - started


class Window:
    """Samples of one timed window: wall and midpoint per operation, outputs,
    failures, and the reference job's walls and midpoints between operations."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.times: List[float] = []
        self.outputs: List[Any] = []
        self.ref_walls: List[float] = []
        self.ref_times: List[float] = []
        self.attempted = 0
        self.failed = 0


def run_window(
    workload: Any, seconds: float, min_ops: int, reference: HostReference, on_op=None
) -> Window:
    """Closed loop: start operations until the next would overrun ``seconds``.

    At least ``min_ops`` operations run.  A raised exception or an output
    that fails ``workload.check`` counts as failed and contributes no
    latency sample.  ``on_op`` runs after each operation, outside its timing.
    After each operation the reference job runs until it has taken
    ``reference.SHARE`` of the window so far.
    """
    window = Window()
    reference()  # warm-up, not a sample
    opened = time.perf_counter()
    while not workload.exhausted:
        window.attempted += 1
        try:
            wall, output = workload.operate()
            at = time.perf_counter() - wall / 2
            ok = workload.check(output)
        except Exception:  # a failed operation is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            ok = False
        if ok:
            window.walls.append(wall)
            window.times.append(at)
            window.outputs.append(output)
        else:
            window.failed += 1
        if on_op is not None:
            on_op(output if ok else None)
        while sum(window.ref_walls) < reference.SHARE * (time.perf_counter() - opened):
            window.ref_walls.append(reference())
            window.ref_times.append(time.perf_counter() - window.ref_walls[-1] / 2)
        spent = time.perf_counter() - opened
        expected = statistics.median(window.walls) if window.walls else 0.0
        if window.attempted >= min_ops and spent + expected > seconds:
            break
    return window


def in_ref_units(window: Window) -> List[float]:
    """Each operation's wall over the median wall of the nearest reference runs."""
    ratios = []
    for at, wall in zip(window.times, window.walls):
        nearest = sorted(
            zip(window.ref_times, window.ref_walls), key=lambda ref: abs(ref[0] - at)
        )[: HostReference.NEAREST]
        ratios.append(wall / statistics.median(ref_wall for _, ref_wall in nearest))
    return ratios


def tail(walls: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest sample with ten samples beyond it.

    With ten samples or fewer no sample has ten beyond it, and the slowest
    one (percentile 100) is reported.
    """
    ordered = sorted(walls)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    """This process's ``ru_maxrss`` in MiB (bytes on macOS, KiB elsewhere)."""
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / (1024 * 1024)


def git_commit() -> Optional[str]:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> Dict[str, Any]:
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload: Any, window: Window, setup_s: float) -> Dict[str, Any]:
    ratios = in_ref_units(window)
    value, _ = tail(ratios)
    return {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ref": metric(statistics.median(ratios), "ref"),
        "latency_tail_ref": metric(value, "ref"),
        "quality": metric(
            statistics.median(workload.quality(out) for out in window.outputs)
            if workload.kind == "solve"
            else workload.quality(),
            "ratio",
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def notes(workload: Any, window: Window) -> Dict[str, Any]:
    """Per-run facts that are not metrics: counts, percentiles, rounds, and
    the raw wall times the bounded ``ref`` metrics are made from."""
    walls = window.walls
    value, percentile = tail(walls)
    out: Dict[str, Any] = {
        "samples": len(walls),
        "tail_percentile": percentile,
        "failed_frac": window.failed / window.attempted,
        "latency_p50_ms": 1000.0 * statistics.median(walls),
        "latency_tail_ms": 1000.0 * value,
        "edges_per_s": statistics.median(
            workload.work(output) / wall for output, wall in zip(window.outputs, walls)
        ),
        "ref_ms": 1000.0 * statistics.median(window.ref_walls),
        "ref_samples": len(window.ref_walls),
    }
    if workload.kind == "solve":
        reports = window.outputs
        out["rounds"] = statistics.median(r.rounds for r in reports)
        out["report_total_comm_words"] = reports[0].total_comm_words
        out["report_max_machine_words"] = reports[0].max_machine_words
        out["api_solver_s_p50"] = statistics.median(r.wall_time_s for r in reports)
    else:
        out["repair_epochs"] = sum(s.action == "repair" for s in window.outputs)
        out["checkpoint_epoch"] = workload.checkpoint
    return out


def per_layer(
    window: Window, untraced: Window, tracer: Any, layer_ops: Dict[str, float]
) -> Dict[str, Any]:
    """Per-layer metrics of the traced window, each per operation."""
    from layers import LAYERS

    ops = max(1, len(window.walls))
    out: Dict[str, Any] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(tracer.calls[layer] / ops, "count")
        out[f"{layer}.s"] = metric(tracer.inclusive_s[layer] / ops, "s")
        out[f"{layer}.self_s"] = metric(tracer.self_s[layer] / ops, "s")
    op_s = sum(window.walls) / ops
    claimed = sum(tracer.self_s[layer] for layer in LAYERS) / ops
    candidates = tracer.counts["core.rounding.candidates"]
    solver_s = layer_ops["api.solver_s"] / ops
    out.update(
        {
            "core.thresholds.draws": metric(tracer.counts["core.thresholds.draws"] / ops, "count"),
            "core.rounding.yield": metric(
                tracer.counts["core.rounding.extracted"] / candidates if candidates else 0.0,
                "ratio",
            ),
            "mpc.comm_words": metric(layer_ops["mpc.comm_words"] / ops, "words"),
            "mpc.peak_machine_words": metric(layer_ops["mpc.peak_machine_words"], "words"),
            "mpc.clusters": metric(layer_ops["mpc.clusters"] / ops, "count"),
            "mpc.rounds": metric(layer_ops["mpc.rounds"] / ops, "count"),
            "api.solver_s": metric(solver_s, "s"),
            "api.report_s": metric(op_s - solver_s if solver_s else 0.0, "s"),
            "stream.repair_ratio": metric(layer_ops["stream.repairs"] / ops, "ratio"),
            "trace.op_s": metric(op_s, "s"),
            "trace.unattributed_s": metric(op_s - claimed, "s"),
            "trace.overhead_s": metric(
                statistics.median(window.walls) - statistics.median(untraced.walls), "s"
            ),
        }
    )
    return out


def traced_window(
    workload: Any, seconds: float, min_ops: int, reference: HostReference
) -> Tuple[Window, Any, Dict[str, float]]:
    """Run one window under :class:`layers.LayerTracer`; restore it after."""
    from layers import LayerTracer

    totals = dict.fromkeys(
        (
            "api.solver_s",
            "mpc.comm_words",
            "mpc.peak_machine_words",
            "mpc.clusters",
            "mpc.rounds",
            "stream.repairs",
        ),
        0.0,
    )
    tracer = LayerTracer()

    def on_op(output: Any) -> None:
        comm, peak, clusters = tracer.drain_clusters()
        if output is None:
            return
        totals["mpc.comm_words"] += comm
        totals["mpc.peak_machine_words"] = max(totals["mpc.peak_machine_words"], peak)
        totals["mpc.clusters"] += clusters
        if workload.kind == "stream":
            totals["stream.repairs"] += output.action == "repair"
            return
        totals["api.solver_s"] += output.wall_time_s
        totals["mpc.rounds"] += output.rounds

    with tracer:
        window = run_window(workload, seconds, min_ops, reference, on_op)
    return window, tracer, totals


def measure(
    workload: Any, seed: int, seconds: float, trace: bool, tiny: bool, import_s: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Set up, run the untraced window (and the traced one), summarise.

    Returns ``(record, result)``: the provenance-and-notes record and the
    result object whose JSON is the last line of output.
    """
    repeats: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.set_up(seed, tiny)
        repeats.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(repeats)

    reference = HostReference()
    # A traced run splits its seconds between the untraced and traced windows.
    window_s = seconds / 2 if trace else seconds
    if trace and workload.kind == "stream":
        workload.stop_at //= 2  # keep half the batches for the traced window
    window = run_window(workload, window_s, workload.min_ops, reference)
    attempted, failed = window.attempted, window.failed
    record: Dict[str, Any] = {
        "environment": environment(seed),
        "setup_repeats_s": repeats,
        "notes": notes(workload, window) if window.walls else {},
    }
    metrics: Dict[str, Any] = {}
    if window.walls and trace:
        if workload.kind == "stream":
            workload.stop_at = len(workload.batches)
        traced, tracer, totals = traced_window(workload, window_s, 1, reference)
        attempted += traced.attempted
        failed += traced.failed
        if traced.walls:
            metrics = per_layer(traced, window, tracer, totals)
    elif window.walls:
        metrics = end_to_end(workload, window, setup_s)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test size: every graph 10-20x smaller"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro.api  # noqa: F401  (import time belongs to set-up)

    import_s = time.perf_counter() - _STARTED
    record, result = measure(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), args.tiny, import_s
    )
    record["workload"] = args.workload
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
