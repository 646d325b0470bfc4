"""The uniform, serializable outcome of every façade run.

Every ``(task, backend)`` adapter — whatever bespoke dataclass the
underlying entry point returns — is normalized into one frozen
:class:`RunReport`: the solution in a canonical JSON-ready shape, quality
metrics computed from ground-truth validators, the measured round count,
the seed and config snapshot that reproduce the run, and wall time.
``to_json`` / ``from_json`` round-trip exactly, which is what lets
:func:`repro.api.solve_many` stream results as JSONL and lets sweeps be
analyzed offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

from repro.utils.record import Record

# Solution kinds determine the canonical JSON shape of ``solution``.
VERTEX_SET = "vertex_set"  # sorted list of ints
EDGE_SET = "edge_set"  # sorted list of [u, v] pairs, u < v
FRACTIONAL = "fractional"  # sorted list of [u, v, x] triples, u < v

_SOLUTION_KINDS = (VERTEX_SET, EDGE_SET, FRACTIONAL)

# Serialization schema of RunReport.to_dict/to_json.  Version 1 is the
# pre-verification shape (no ``schema``/``total_comm_words``/
# ``verification`` keys); version 2 added those fields.  ``from_dict``
# accepts every listed version and upgrades it in memory.
SCHEMA_VERSION = 2
_SUPPORTED_SCHEMAS = (1, 2)


def canonical_solution(kind: str, solution: Any) -> Any:
    """Normalize a solver's raw solution into its canonical JSON shape."""
    if kind == VERTEX_SET:
        if isinstance(solution, np.ndarray):
            # Counter-mode solvers return vertex arrays; sort in C and
            # convert once — per-element ``int(v)`` over 10M numpy scalars
            # is minutes of pure interpreter overhead.
            return np.sort(solution.astype(np.int64, copy=False)).tolist()
        return sorted(int(v) for v in solution)
    if kind == EDGE_SET:
        return sorted(
            [min(int(u), int(v)), max(int(u), int(v))] for u, v in solution
        )
    if kind == FRACTIONAL:
        return sorted(
            [min(int(u), int(v)), max(int(u), int(v)), float(x)]
            for (u, v), x in solution.items()
        )
    raise ValueError(f"unknown solution kind {kind!r}")


@dataclass(frozen=True)
class RunReport(Record):
    """One façade run, fully described and serializable.

    Attributes
    ----------
    task / backend:
        The registry pair that produced this report.
    n / num_edges:
        Input graph size.
    solution_kind:
        One of ``"vertex_set"``, ``"edge_set"``, ``"fractional"``.
    solution:
        The canonical solution (see :func:`canonical_solution`).
    metrics:
        Quality metrics from ground-truth validators (``valid``, sizes,
        weights; task-dependent).
    rounds:
        Measured rounds of the model the backend runs in (0 for
        centralized baselines, which have no round notion).
    max_machine_words:
        Largest per-machine residency/volume the backend measured
        (0 when the backend does not account memory).
    seed:
        The seed the run was invoked with (``None`` means the library's
        deterministic default).
    config:
        JSON snapshot of the resolved config dataclass (empty dict when
        the backend takes no config).
    wall_time_s:
        Wall-clock seconds spent inside the solver call.
    peak_rss_bytes:
        Peak resident-set size of the process after the solver call
        (``ru_maxrss``; 0 when the platform cannot measure it).  Facade
        sweeps thereby double as perf data — every JSONL row carries its
        wall-clock and memory high-water mark.
    total_comm_words:
        Total words communicated across all machines over the whole run
        (0 when the backend does not account communication volume).
    verification:
        Serialized :class:`repro.verify.Certificate` when the run was
        invoked with ``verify=`` — invariant checks, oracle ratios, and
        round/memory budget audits (empty dict when verification was not
        requested).
    extras:
        Backend-specific measurements (prefix phases, Lenzen volumes,
        supersteps, ...) preserved for experiment tables.
    schema:
        Serialization schema version (see :data:`SCHEMA_VERSION`).
    """

    task: str
    backend: str
    n: int
    num_edges: int
    solution_kind: str
    solution: Any
    metrics: Dict[str, Any] = field(default_factory=dict)
    rounds: int = 0
    max_machine_words: int = 0
    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    peak_rss_bytes: int = 0
    total_comm_words: int = 0
    verification: Dict[str, Any] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    family = "RunReport"
    schemas = _SUPPORTED_SCHEMAS
    missing_schema = 1  # only version-1 rows lack the key

    def __post_init__(self) -> None:
        if self.solution_kind not in _SOLUTION_KINDS:
            raise ValueError(
                f"solution_kind must be one of {_SOLUTION_KINDS}, "
                f"got {self.solution_kind!r}"
            )
        super().__post_init__()

    # -- solution accessors -------------------------------------------------

    def vertex_set(self) -> Set[int]:
        """The solution as a vertex set (``vertex_set`` reports only)."""
        if self.solution_kind != VERTEX_SET:
            raise TypeError(f"solution is {self.solution_kind}, not a vertex set")
        return set(self.solution)

    def edge_set(self) -> Set[Tuple[int, int]]:
        """The solution as a set of canonical edges (``edge_set`` only)."""
        if self.solution_kind != EDGE_SET:
            raise TypeError(f"solution is {self.solution_kind}, not an edge set")
        return {(u, v) for u, v in self.solution}

    def edge_weights(self) -> Dict[Tuple[int, int], float]:
        """The solution as an edge-weight map (``fractional`` only)."""
        if self.solution_kind != FRACTIONAL:
            raise TypeError(f"solution is {self.solution_kind}, not fractional")
        return {(u, v): x for u, v, x in self.solution}

    @property
    def valid(self) -> bool:
        """Whether the ground-truth validator accepted the solution."""
        return bool(self.metrics.get("valid", False))

    @property
    def verified(self) -> bool:
        """Whether a verification certificate was recorded and fully passed."""
        return bool(self.verification.get("ok", False))

    @property
    def size(self) -> int:
        """Cardinality of the solution (vertices, edges, or support)."""
        return len(self.solution)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Older payloads are upgraded in memory: absent fields take their
        defaults and the solution is coerced to its canonical element
        types, so the loaded object is always current-shape.
        """
        report = super().from_dict(payload)
        raw = report.solution
        if report.solution_kind == VERTEX_SET:
            solution = [int(v) for v in raw]
        elif report.solution_kind == EDGE_SET:
            solution = [[int(u), int(v)] for u, v in raw]
        else:
            solution = [[int(u), int(v), float(x)] for u, v, x in raw]
        return replace(report, solution=solution, schema=SCHEMA_VERSION)

    def summary_row(self) -> Dict[str, Any]:
        """A compact row for experiment tables (solution elided)."""
        row: Dict[str, Any] = {
            "task": self.task,
            "backend": self.backend,
            "n": self.n,
            "m": self.num_edges,
            "size": self.size,
            "rounds": self.rounds,
            "valid": self.valid,
            "seed": self.seed,
            "wall_time_s": round(self.wall_time_s, 4),
            "peak_rss_mb": round(self.peak_rss_bytes / 2**20, 1),
        }
        for key in ("weight", "ratio"):
            if key in self.metrics:
                row[key] = self.metrics[key]
        if self.verification:
            row["verified"] = self.verified
        return row
