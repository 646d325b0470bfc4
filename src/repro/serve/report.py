"""``ServeReport`` — the serializable outcome of a service run.

The serving sibling of :class:`~repro.api.report.RunReport` (one solve)
and :class:`~repro.stream.driver.StreamReport` (one batch-CLI stream):
one :class:`TenantReport` per named session, each carrying the same
per-epoch :class:`~repro.stream.driver.EpochRecord` audit trail the
stream driver records, plus the serving-only counters (queued, coalesced,
shed, duplicate, snapshots, restores).  Schema-versioned with an exact
``to_json``/``from_json`` round-trip and loud rejection of unknown
schemas, like its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.stream.driver import EpochRecord
from repro.utils.record import Record

SERVE_SCHEMA_VERSION = 1
_SUPPORTED_SERVE_SCHEMAS = (1,)


@dataclass(frozen=True)
class TenantReport(Record):
    """One tenant session's full story: config, epochs, final solution."""

    tenant: str
    task: str
    backend: str
    seed: Optional[int]
    n_final: int
    m_final: int
    initial: Dict[str, Any]
    epochs: List[EpochRecord]
    solution: Any
    counters: Dict[str, int] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every recorded epoch's checks passed."""
        return all(record.ok for record in self.epochs)

    def summary_row(self) -> Dict[str, Any]:
        """A compact row for tables (solution elided)."""
        return {
            "tenant": self.tenant,
            "task": self.task,
            "n": self.n_final,
            "m": self.m_final,
            "epochs": len(self.epochs),
            "size": len(self.solution),
            "ok": self.ok,
            **{
                key: self.counters.get(key, 0)
                for key in ("coalesced", "shed", "snapshots", "restores")
            },
        }


@dataclass(frozen=True)
class ServeReport(Record):
    """A full service run: every tenant's report plus the service config."""

    tenants: List[TenantReport]
    config: Dict[str, Any] = field(default_factory=dict)
    schema: int = SERVE_SCHEMA_VERSION

    family = "ServeReport"
    schemas = _SUPPORTED_SERVE_SCHEMAS
    missing_schema = SERVE_SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return all(tenant.ok for tenant in self.tenants)

    def tenant(self, name: str) -> TenantReport:
        """The report of one named tenant (raises ``KeyError`` if absent)."""
        for report in self.tenants:
            if report.tenant == name:
                return report
        raise KeyError(f"no tenant {name!r} in this report")
