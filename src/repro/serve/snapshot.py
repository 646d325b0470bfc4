"""Atomic tenant snapshots: the crash-safety core of ``repro.serve``.

A snapshot is one JSON document per tenant holding everything a restore
needs to continue the stream *byte-identically*:

* the compacted graph (vertex count + canonical edge array of the
  current CSR — rebuilding a CSR from it reproduces the exact same
  arrays, because CSR layout is canonical);
* the maintainer state (:meth:`repro.stream.maintain.Maintainer.state_dict`
  — solution arrays and, for the fractional task, the exact incremental
  loads, so floating-point history survives);
* the epoch cursor (``seq`` of the last processed batch) and the full
  epoch record log, so a resumed run's report covers the whole stream;
* the session config (task, backend, seed, knobs).

Writes go through :func:`repro.utils.record.write_json`, the library's
one atomic writer: a reader (or a restart) sees either the previous
complete snapshot or the new complete snapshot, never a torn one, no
matter when the writer was ``kill -9``-ed.  Reads and writes both reject
a document whose ``schema`` is missing or unknown.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from repro.utils.record import check_schema, read_json, write_json

SNAPSHOT_SCHEMA_VERSION = 1
_SUPPORTED_SNAPSHOT_SCHEMAS = (1,)

SNAPSHOT_SUFFIX = ".snapshot.json"


def snapshot_path(directory: Any, tenant: str) -> str:
    """Where ``tenant``'s snapshot lives under ``directory``."""
    return os.path.join(os.fspath(directory), f"{tenant}{SNAPSHOT_SUFFIX}")


def list_snapshots(directory: Any) -> List[str]:
    """Tenant names with a snapshot in ``directory`` (sorted)."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    return sorted(
        name[: -len(SNAPSHOT_SUFFIX)]
        for name in os.listdir(directory)
        if name.endswith(SNAPSHOT_SUFFIX)
    )


def write_snapshot(path: Any, payload: Dict[str, Any]) -> None:
    """Atomically persist ``payload`` as JSON at ``path``.

    A crash at any instant leaves either the old snapshot or the new one.
    """
    check_schema("snapshot", payload.get("schema"), _SUPPORTED_SNAPSHOT_SCHEMAS)
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_json(path, payload)


def read_snapshot(path: Any) -> Dict[str, Any]:
    """Load a snapshot document; rejects unknown schema versions."""
    return read_json(path, "snapshot", _SUPPORTED_SNAPSHOT_SCHEMAS)
