"""Shared ``multiprocessing`` plumbing for the batch runner and transports.

Two pieces every parallel entry point in the library needs, extracted so
:func:`repro.api.batch.solve_many` and
:class:`repro.dist.transport.MultiprocessTransport` stop growing private
copies:

* **context selection** — :func:`mp_context` prefers the ``fork`` start
  method where the platform offers it (workers inherit loaded modules and
  the kernel registry for free; task dispatch needs no re-imports) and
  falls back to the platform default elsewhere;
* **ship-once object tables** — large immutable objects (sweep graphs)
  are sent to each worker exactly once through a pool initializer and
  referenced by index afterwards, keeping per-task payloads O(1)
  regardless of object size.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Per-worker object table, installed once by the pool initializer.
_WORKER_OBJECTS: List[Any] = []


def _install_objects(objects: List[Any]) -> None:
    """Pool initializer: receive the shipped object table once."""
    global _WORKER_OBJECTS
    _WORKER_OBJECTS = objects


def worker_object(index: int) -> Any:
    """Look up object ``index`` in this worker's shipped table."""
    return _WORKER_OBJECTS[index]


def mp_context(start_method: Optional[str] = None):
    """The multiprocessing context parallel components should use.

    ``start_method=None`` picks ``fork`` when available (POSIX) so worker
    processes inherit the already-imported library; otherwise the platform
    default (``spawn`` on macOS/Windows) — every shipped payload is
    picklable, so both work.
    """
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else None
    return multiprocessing.get_context(start_method)


def object_executor(
    processes: int,
    objects: List[Any],
    start_method: Optional[str] = None,
):
    """A ``ProcessPoolExecutor`` whose workers hold ``objects``.

    The table is shipped once per worker via the initializer; tasks refer
    to entries by index through :func:`worker_object`.  Built on
    ``concurrent.futures`` because, unlike ``multiprocessing.Pool``, it
    surfaces a worker process dying mid-task as a prompt
    ``BrokenProcessPool`` on the affected futures instead of hanging the
    result iterator.  :func:`repro.api.batch.solve_many` builds its
    degrade-gracefully sweep path on this.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=processes,
        mp_context=mp_context(start_method),
        initializer=_install_objects,
        initargs=(objects,),
    )


def dedupe_by_identity(items: Sequence[Any]) -> Tuple[List[Any], List[int]]:
    """Collapse ``items`` into a table of distinct objects + per-item indices.

    Identity-based (``id``), not equality-based: the point is to ship each
    *object* once, and two equal-but-distinct graphs still cost two ships.
    Returns ``(table, indices)`` with ``table[indices[i]] is items[i]``.
    """
    table: List[Any] = []
    index_of: Dict[int, int] = {}
    indices: List[int] = []
    for item in items:
        position = index_of.get(id(item))
        if position is None:
            position = len(table)
            index_of[id(item)] = position
            table.append(item)
        indices.append(position)
    return table, indices
