"""``repro.serve`` — a crash-safe multi-tenant streaming graph service.

The serving tier over :mod:`repro.stream`: a long-running asyncio
service that maintains one certified solution per named tenant, ingests
:class:`~repro.stream.updates.EdgeBatch` updates over a newline-JSON TCP
protocol (the same wire schema the batch CLI replays from JSONL), and
answers queries against the maintained solution without re-solving.

Layers, bottom up:

* :mod:`repro.serve.snapshot` — atomic per-tenant snapshot files,
  written through :func:`repro.utils.record.write_json`: the
  crash-safety primitive.
* :mod:`repro.serve.session` — :class:`TenantSession`: one maintained
  graph, its ingest queue with coalescing backpressure, the epoch
  record log, and exact snapshot/restore.
* :mod:`repro.serve.service` — :class:`ServeService`: the asyncio
  socket server, per-tenant workers, periodic snapshots, restore-at-boot.
* :mod:`repro.serve.client` — :class:`ServeClient`: the blocking
  reference client.
* :mod:`repro.serve.report` — :class:`ServeReport`: the serializable
  outcome, sibling of ``RunReport`` and ``StreamReport``.

Run a service::

    python -m repro.serve --port 7471 --snapshot-dir state/ --snapshot-every 4

Run the crash-safety conformance check (the CI gate: certified
convergence across a ``kill -9`` + restore)::

    python -m repro.serve --check

See ``SERVING.md`` at the repo root for the wire format, tenant
lifecycle, backpressure semantics, and the durability argument.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.report import SERVE_SCHEMA_VERSION, ServeReport, TenantReport
from repro.serve.service import ServeConfig, ServeService, serve
from repro.serve.session import TenantSession
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    list_snapshots,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "SNAPSHOT_SCHEMA_VERSION",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeReport",
    "ServeService",
    "TenantReport",
    "TenantSession",
    "list_snapshots",
    "read_snapshot",
    "serve",
    "snapshot_path",
    "write_snapshot",
]
