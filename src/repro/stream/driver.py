"""``solve_stream`` — the façade entry point for dynamic workloads.

Drives a :class:`~repro.stream.maintain.Maintainer` over a stream of
:class:`~repro.stream.updates.EdgeBatch` edits and records one
:class:`EpochRecord` per batch into a serializable, schema-versioned
:class:`StreamReport` (the dynamic sibling of
:class:`~repro.api.report.RunReport` — JSONL-friendly, exact
``to_json``/``from_json`` round-trip, unknown schemas rejected).

Verification is per-epoch: with ``verify=True`` every epoch's maintained
solution runs through :func:`repro.verify.certify_solution` on the
current graph, and the certificates accumulate in the records — a stream
report is an audit trail of *every* intermediate state, not just the
final one.  ``differential_every=k`` additionally re-solves from scratch
every ``k``-th epoch and checks the maintained quality against the full
re-solve inside the task's cross-backend agreement band
(:func:`repro.verify.agreement_band`), the same tolerance two independent
backends are held to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.stream.dynamic import DynamicGraph
from repro.stream.maintain import EpochStats, Maintainer, make_maintainer
from repro.stream.updates import EdgeBatch
from repro.utils.record import REQUIRED_ON_LOAD, Record, iter_jsonl

STREAM_SCHEMA_VERSION = 1
_SUPPORTED_STREAM_SCHEMAS = (1,)


@dataclass(frozen=True)
class EpochRecord(Record):
    """One epoch of a stream run: what changed, what it cost, what held.

    ``verification`` is the serialized per-epoch certificate (empty dict
    when verification was off); ``differential_ratio`` is the
    full-re-solve quality divided by the maintained quality when a
    differential check ran this epoch (``None`` otherwise).
    """

    stats: Dict[str, Any] = field(metadata=REQUIRED_ON_LOAD)
    verification: Dict[str, Any] = field(default_factory=dict)
    differential_ratio: Optional[float] = None

    @property
    def ok(self) -> bool:
        """Whether this epoch's checks (if any ran) all passed."""
        if self.verification and not self.verification.get("ok", False):
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        if not self.verification:
            del payload["verification"]
        if self.differential_ratio is None:
            del payload["differential_ratio"]
        return payload


@dataclass(frozen=True)
class StreamReport(Record):
    """A full dynamic run, serializable like :class:`RunReport`.

    Attributes
    ----------
    task / backend:
        The maintained task and the backend used for the initial solve
        and every fallback re-solve.
    n_initial / m_initial / n_final / m_final:
        Graph size at stream start and end.
    initial:
        Summary of the initial full solve (rounds, size, wall time).
    epochs:
        One :class:`EpochRecord` per batch, in stream order.
    solution:
        The final maintained solution in the canonical report shape.
    config:
        The maintenance knobs (``resolve_fraction``, verification mode).
    """

    task: str
    backend: str
    n_initial: int
    m_initial: int
    n_final: int
    m_final: int
    initial: Dict[str, Any]
    epochs: List[EpochRecord]
    solution: Any
    config: Dict[str, Any] = field(default_factory=dict)
    schema: int = STREAM_SCHEMA_VERSION

    family = "StreamReport"
    schemas = _SUPPORTED_STREAM_SCHEMAS
    missing_schema = STREAM_SCHEMA_VERSION

    # -- aggregates ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        """Whether every epoch's recorded checks passed."""
        return all(record.ok for record in self.epochs)

    @property
    def epochs_repaired(self) -> int:
        return sum(1 for r in self.epochs if r.stats.get("action") == "repair")

    @property
    def epochs_resolved(self) -> int:
        return sum(1 for r in self.epochs if r.stats.get("action") == "resolve")

    @property
    def size(self) -> int:
        """Cardinality of the final maintained solution."""
        return len(self.solution)

    def total_wall_time_s(self, action: Optional[str] = None) -> float:
        """Summed per-epoch wall time (optionally for one action kind)."""
        return sum(
            float(r.stats.get("wall_time_s", 0.0))
            for r in self.epochs
            if action is None or r.stats.get("action") == action
        )

    def summary_row(self) -> Dict[str, Any]:
        """A compact row for tables (solution elided)."""
        return {
            "task": self.task,
            "backend": self.backend,
            "n": self.n_final,
            "m": self.m_final,
            "epochs": len(self.epochs),
            "repaired": self.epochs_repaired,
            "resolved": self.epochs_resolved,
            "size": self.size,
            "ok": self.ok,
            "wall_time_s": round(self.total_wall_time_s(), 4),
        }


def read_stream_jsonl(path: Any) -> List[StreamReport]:
    """Load every stream report from a JSONL file.

    Crash-tolerant: a truncated final line (a writer killed mid-append)
    is skipped with a :class:`~repro.utils.jsonl.TruncatedJSONLWarning`
    and every intact report is returned; a record failing to parse
    *mid-file* raises a line-numbered
    :class:`~repro.utils.jsonl.JSONLCorruptionError`.
    """
    return list(iter_jsonl(path, StreamReport.from_json))


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def certify_epoch(task: str, graph: Graph, maintainer: Maintainer) -> Dict[str, Any]:
    """Per-epoch certificate from the repro.verify checkers.

    Public because the serve layer certifies the same way per tenant
    epoch; the dict is the serialized :class:`repro.verify.Certificate`.
    """
    from repro.verify import Certificate, certify_solution

    certificate = Certificate()
    certificate.extend(certify_solution(task, graph, maintainer.solution()))
    return certificate.to_dict()


def _maintained_quality(task: str, maintainer: Maintainer) -> float:
    if task == "fractional_matching":
        return maintainer.total_weight()  # type: ignore[attr-defined]
    if task == "vertex_cover":
        # Compare matchings, not covers: the fallback re-solve is the
        # matching task (see VertexCoverMaintainer), so the band applies
        # to the structure both sides actually compute.
        return float(len(maintainer.matched_edges()))  # type: ignore[attr-defined]
    return float(maintainer.size())


def _differential_check(
    task: str, graph: Graph, maintainer: Maintainer, backend: str, seed: Optional[int]
) -> tuple:
    """Quality ratio (full re-solve / maintained) and band verdict."""
    from repro.api import solve
    from repro.verify import agreement_band
    from repro.verify.differential import quality_of

    solve_task = maintainer.SOLVE_TASK or task
    report = solve(solve_task, graph, backend=backend, seed=seed)
    fresh = quality_of(report)
    maintained = _maintained_quality(task, maintainer)
    ratio = fresh / maintained if maintained else float("inf") if fresh else 1.0
    band = agreement_band(solve_task)
    within = band is None or (
        max(fresh, maintained) <= band * min(fresh, maintained) + 1e-6
    )
    return ratio, within


def solve_stream(
    task: str,
    graph: Union[Graph, CSRGraph, DynamicGraph],
    batches: Iterable[EdgeBatch],
    *,
    backend: str = "auto",
    config: Any = None,
    seed: Optional[int] = None,
    resolve_fraction: float = 0.25,
    budget: Optional[float] = None,
    governance: Any = None,
    verify: bool = False,
    differential_every: int = 0,
    on_epoch: Optional[Callable[[EpochRecord], None]] = None,
) -> StreamReport:
    """Maintain ``task`` on ``graph`` across a stream of edge batches.

    Parameters
    ----------
    task:
        A task with a registered maintainer (``"mis"``, ``"matching"``,
        ``"vertex_cover"``, ``"fractional_matching"``).
    graph:
        The initial graph; a :class:`DynamicGraph` is adopted as-is.
    batches:
        Any iterable of :class:`EdgeBatch` (a list, a file replay, a
        synthetic generator) — one batch becomes one epoch.
    backend / config / seed:
        Forwarded to :func:`repro.api.solve` for the initial solve and
        every damage-threshold fallback re-solve.
    resolve_fraction:
        The fallback threshold (see :class:`Maintainer`).
    budget / governance:
        Memory cap and :mod:`repro.govern` opt-in threaded into the
        initial solve and every fallback re-solve; governed resolves that
        hit the envelope surface their event trail on the epoch record
        instead of aborting the stream (see :class:`Maintainer`).
    verify:
        Certify every epoch's solution with the repro.verify checkers
        (validity + oracle ratios on small instances).  Converts the
        graph to the set-based representation once per epoch, so leave
        off for large perf runs.
    differential_every:
        Every ``k``-th epoch also run a full re-solve and record the
        quality ratio; band violations mark the record failed.  0 = off.
    on_epoch:
        Optional callback per finished :class:`EpochRecord`.
    """
    if differential_every < 0:
        raise ValueError(
            f"differential_every must be >= 0, got {differential_every}"
        )
    maintainer = make_maintainer(
        task,
        graph,
        backend=backend,
        config=config,
        seed=seed,
        resolve_fraction=resolve_fraction,
        budget=budget,
        governance=governance,
    )
    n_initial = maintainer.graph.num_vertices
    m_initial = maintainer.graph.num_edges

    started = time.perf_counter()
    initial_report = maintainer.initialize()
    initial = {
        "backend": initial_report.backend,
        "rounds": initial_report.rounds,
        "size": maintainer.size(),
        "wall_time_s": time.perf_counter() - started,
    }
    if maintainer.last_governance and maintainer.last_governance.get("triggered"):
        initial["governance"] = maintainer.last_governance

    records: List[EpochRecord] = []
    for index, batch in enumerate(batches, start=1):
        stats: EpochStats = maintainer.step(batch)
        verification: Dict[str, Any] = {}
        ratio: Optional[float] = None
        if verify or (differential_every and index % differential_every == 0):
            current = maintainer.graph.to_graph()
            if verify:
                verification = certify_epoch(task, current, maintainer)
            if differential_every and index % differential_every == 0:
                ratio, within = _differential_check(
                    task, current, maintainer, backend, seed
                )
                if not within:
                    verification = dict(verification) if verification else {
                        "checks": []
                    }
                    verification["ok"] = False
                    verification.setdefault("checks", []).append(
                        {
                            "name": "differential_band",
                            "passed": False,
                            "detail": f"quality ratio {ratio:.4f} outside band",
                        }
                    )
        record = EpochRecord(
            stats=stats.to_dict(),
            verification=verification,
            differential_ratio=ratio,
        )
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)

    return StreamReport(
        task=task,
        backend=backend,
        n_initial=n_initial,
        m_initial=m_initial,
        n_final=maintainer.graph.num_vertices,
        m_final=maintainer.graph.num_edges,
        initial=initial,
        epochs=records,
        solution=maintainer.solution(),
        config={
            "resolve_fraction": resolve_fraction,
            "verify": bool(verify),
            "differential_every": differential_every,
            "seed": seed,
        },
    )
