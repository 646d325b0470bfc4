"""Named worker kernels the transports dispatch by string.

A kernel is ``fn(ctx, payload) -> result`` where ``ctx`` is the worker's
:class:`~repro.dist.transport.WorkerContext`.  Kernels are resolved by
name inside each worker (the registry is populated at module import, so
forked and spawned workers see the same table), which keeps step payloads
free of code objects.

The ``matching.*`` kernels are the only implementation of the two
machine-parallel phases of MPC-Simulation (Lemma 4.2): the compressed
per-machine Central-Rand blocks (``matching.machines``, which advances
every machine block of its chunk together, one vectorized step per
iteration) and the Line (4) direct simulation (``matching.direct_init`` /
``matching.direct_step``).
:func:`repro.core.matching_mpc.mpc_fractional_matching` always runs
them through a :class:`~repro.dist.executor.DistExecutor` — in process
on one inline worker by default, or on a worker pool with
``executor="parallel"`` — so the executor picks where they run, never
which code runs.

Worker-resident state (the direct-simulation vertex slices) lives in
``ctx.session(key).state`` and survives across steps until the session is
dropped.

The ``debug.*`` kernels are the transport test surface, including the
fault-injection hook the worker-death test uses.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Set, Tuple

import numpy as np

_KERNELS: Dict[str, Callable] = {}
_STATEFUL: Set[str] = set()


def kernel(name: str, stateful: bool = False) -> Callable[[Callable], Callable]:
    """Register a kernel under ``name`` (must be unique).

    ``stateful=True`` declares that the kernel *mutates* worker-resident
    session state (``ctx.session(key).state``).  The supervision layer
    uses this to pick a recovery strategy: a failed stateless step can be
    retried in place (same inputs, same outputs), while a failed stateful
    step may have partially mutated state, so the worker must be
    respawned and its journal replayed before re-dispatch.
    """

    def wrap(fn: Callable) -> Callable:
        if name in _KERNELS:
            raise ValueError(f"kernel {name!r} is already registered")
        _KERNELS[name] = fn
        if stateful:
            _STATEFUL.add(name)
        return fn

    return wrap


def is_stateful(name: str) -> bool:
    """Whether ``name`` mutates worker-resident session state."""
    return name in _STATEFUL


def get_kernel(name: str) -> Callable:
    """Resolve a kernel by name (raises ``KeyError`` for unknown names)."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {sorted(_KERNELS)}"
        ) from None


def kernel_names() -> List[str]:
    """Registered kernel names, sorted."""
    return sorted(_KERNELS)


# ---------------------------------------------------------------------------
# debug / test kernels
# ---------------------------------------------------------------------------


@kernel("debug.echo")
def _echo(ctx, payload: Any) -> Any:
    """Echo the payload plus worker identity; sums any named session array."""
    sums = {}
    for key in payload.get("sessions", ()):
        session = ctx.session(key)
        sums[key] = {
            name: float(np.sum(array)) for name, array in session.arrays.items()
        }
    return {
        "worker_id": ctx.worker_id,
        "num_workers": ctx.num_workers,
        "payload": payload.get("value"),
        "session_sums": sums,
    }


@kernel("debug.fail")
def _fail(ctx, payload: Any) -> Any:
    """Raise on selected workers (kernel-error path: transport survives)."""
    if payload.get("fail"):
        raise ValueError(f"injected kernel failure on worker {ctx.worker_id}")
    return "ok"


@kernel("debug.crash")
def _crash(ctx, payload: Any) -> Any:
    """Kill the worker process outright (worker-death path: clean error).

    ``os._exit`` skips all cleanup, exactly like a segfault or OOM kill
    would — the driver must observe a dead pipe, not a reply.
    """
    if payload.get("exit") is not None:
        os._exit(int(payload["exit"]))
    return "alive"


@kernel("debug.sleep")
def _sleep(ctx, payload: Any) -> Any:
    """Sleep before replying (timeout path: the deadline must fire)."""
    time.sleep(float(payload.get("seconds", 0.0)))
    return {"worker_id": ctx.worker_id, "slept": payload.get("seconds", 0.0)}


@kernel("debug.wedge")
def _wedge(ctx, payload: Any) -> Any:
    """Ignore SIGTERM, then sleep — only ``Process.kill()`` can reap this.

    Exercises the ``close()`` escalation path: a worker wedged like this
    survives ``terminate()`` and must be SIGKILL-ed within the close
    timeout instead of hanging the driver.
    """
    import signal

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(float(payload.get("seconds", 30.0)))
    return "woke"


@kernel("debug.counter", stateful=True)
def _counter(ctx, payload: Any) -> int:
    """Accumulate into session state (the journal-replay unit-test target).

    Each step adds ``payload["add"]`` to a per-session counter and returns
    the running total — so a respawned worker whose journal was replayed
    correctly returns exactly the total an uninterrupted worker would.
    """
    session = ctx.session(payload["session"])
    session.state["count"] = session.state.get("count", 0) + int(
        payload.get("add", 0)
    )
    return session.state["count"]


# ---------------------------------------------------------------------------
# matching: compressed-phase machine simulation (Lemma 4.2, Lines (e))
# ---------------------------------------------------------------------------


@kernel("matching.machines")
def _matching_machines(ctx, payload: Any) -> List[np.ndarray]:
    """Run this worker's chunk of per-machine local Central-Rand blocks.

    ``payload["tasks"]`` is a list of ``(part_ids, local_u, local_v,
    y_part)`` machine inputs: a part's vertices, its induced edges
    relabelled to positions in the part, and its frozen loads ``y_old``.
    ``payload["shared"]`` carries the oracle and the phase constants.

    The blocks never interact, and a threshold is a pure function of
    ``(vertex, iteration)``, so all of them advance together: the parts
    are laid end to end, and each iteration decides every active vertex
    of the chunk through one :meth:`ThresholdOracle.crosses_batch` call.
    Per vertex this is the same sequence of estimates and comparisons as
    a block simulated alone: local degrees shrink by masking dead edges
    (no adjacency sets), and the estimate keeps the association
    ``(m * deg) * w_t + y_old``.

    Returns one ``(k, 2)`` array of ``(vertex, t)`` freezes per task, in
    task order and, within a task, by iteration and then part position —
    the driver appends them machine by machine, so the merged freeze log
    does not depend on the chunking.
    """
    shared = payload["shared"]
    oracle = shared["oracle"]
    tasks = payload["tasks"]
    sizes = np.array([len(part_ids) for part_ids, _, _, _ in tasks], dtype=np.int64)
    offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    k = int(offsets[-1])
    if k == 0:
        return [np.empty((0, 2), dtype=np.int64) for _ in tasks]
    vertex = np.concatenate([part_ids for part_ids, _, _, _ in tasks])
    edge_u = np.concatenate(
        [u + offsets[i] for i, (_, u, _, _) in enumerate(tasks)]
    ).astype(np.int64, copy=False)
    edge_v = np.concatenate(
        [v + offsets[i] for i, (_, _, v, _) in enumerate(tasks)]
    ).astype(np.int64, copy=False)
    y_old = np.concatenate([y_part for _, _, _, y_part in tasks])

    start = shared["start"]
    machines = shared["machines"]
    w0 = shared["w0"]
    growth = shared["growth"]
    active = np.ones(k, dtype=bool)
    edge_alive = np.ones(len(edge_u), dtype=bool)
    degree = np.bincount(edge_u, minlength=k) + np.bincount(edge_v, minlength=k)
    frozen_at = np.full(k, -1, dtype=np.int64)
    for step in range(shared["iterations"]):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        now = start + step
        w_t = w0 * growth**now
        estimates = machines * degree[act] * w_t + y_old[act]
        frozen = oracle.crosses_batch(vertex[act], now, estimates)
        if not frozen.any():
            continue  # nothing froze: degrees are unchanged too
        newly = act[frozen]
        frozen_at[newly] = now
        active[newly] = False
        edge_alive &= active[edge_u] & active[edge_v]
        degree = np.bincount(edge_u[edge_alive], minlength=k) + np.bincount(
            edge_v[edge_alive], minlength=k
        )

    hits = np.flatnonzero(frozen_at >= 0)
    task_of = np.repeat(np.arange(len(tasks)), sizes)[hits]
    # Positions are already ascending within each task: order by task,
    # then freeze iteration, then position.
    hits = hits[np.lexsort((frozen_at[hits], task_of))]
    rows = np.column_stack((vertex[hits], frozen_at[hits]))
    splits = np.cumsum(np.bincount(task_of, minlength=len(tasks)))[:-1]
    return np.split(rows, splits)


# ---------------------------------------------------------------------------
# matching: distributed direct Central-Rand simulation (Line (4))
# ---------------------------------------------------------------------------
#
# The driver partitions the vertex range over the workers.  Each worker
# owns the mutable per-vertex state (active flag, active degree, frozen
# load) for its slice and reads the immutable CSR adjacency from the
# session's shared arrays.  One step per iteration:
#
#   1. *apply* the previous iteration's global freeze list: every
#      occurrence of an owned vertex in a newly-frozen vertex's (active-
#      filtered) adjacency row adds the previous weight w_{t-1} to its
#      frozen load and decrements its active degree — ``np.add.at`` with
#      repeated indices performs a per-accumulator sequence of
#      equal-value additions, so the float results do not depend on the
#      order (or the worker) the occurrences are applied in;
#   2. drop owned vertices whose active degree reached zero;
#   3. report the owned active count (the driver's allreduce decides
#      termination and round charging *before* consuming decisions);
#   4. *decide* iteration t through one ThresholdOracle batch call and
#      return the newly-frozen owned ids.
#
# Updates land unconditionally on every initially-active occurrence:
# vertices that already froze or went inactive can never re-enter the
# active set, so their stale load/degree cells are never read — only
# currently-active cells matter.


@kernel("matching.direct_init", stateful=True)
def _direct_init(ctx, payload: Any) -> int:
    session = ctx.session(payload["session"])
    lo = int(payload["lo"])
    hi = int(payload["hi"])
    active_mask = np.asarray(payload["active"], dtype=bool)
    state = {
        "lo": lo,
        "hi": hi,
        # Full initially-active mask: filters adjacency rows to the live
        # active-active edges the sequential neighbor lists contain.
        "init_mask": active_mask,
        "active": active_mask[lo:hi].copy(),
        "degree": np.array(payload["degree"], dtype=np.int64),
        "load": np.array(payload["load"], dtype=np.float64),
        "oracle": payload["oracle"],
        "w0": float(payload["w0"]),
        "growth": float(payload["growth"]),
    }
    session.state["direct"] = state
    return int(state["active"].sum())


@kernel("matching.direct_step", stateful=True)
def _direct_step(ctx, payload: Any) -> Tuple[np.ndarray, int]:
    session = ctx.session(payload["session"])
    state = session.state["direct"]
    indptr = session.arrays["indptr"]
    indices = session.arrays["indices"]
    lo = state["lo"]
    hi = state["hi"]
    t = int(payload["t"])
    prev = np.asarray(payload["prev"], dtype=np.int64)

    if prev.size:
        w_prev = state["w0"] * state["growth"] ** (t - 1)
        # Vectorized multi-row CSR gather of every neighbor of prev.
        # Order within `hits` is irrelevant: all increments this step
        # equal w_prev, and equal-value np.add.at accumulation is
        # bitwise order-independent per cell (see the header comment).
        starts = indptr[prev]
        counts = indptr[prev + 1] - starts
        ends_cum = np.cumsum(counts)
        total = int(ends_cum[-1]) if counts.size else 0
        bases = np.repeat(starts - (ends_cum - counts), counts)
        hits = indices[bases + np.arange(total, dtype=np.int64)]
        hits = hits[state["init_mask"][hits]]
        own = hits[(hits >= lo) & (hits < hi)] - lo
        if own.size:
            np.add.at(state["load"], own, w_prev)
            np.subtract.at(state["degree"], own, 1)
        state["active"] &= state["degree"] != 0

    count = int(state["active"].sum())
    if count == 0:
        return prev[:0], 0

    w_t = state["w0"] * state["growth"] ** t
    act = np.flatnonzero(state["active"]).astype(np.int64) + lo
    estimates = state["load"][act - lo] + state["degree"][act - lo] * w_t
    crossed = state["oracle"].crosses_batch(act, t, estimates)
    newly = act[crossed]
    state["active"][newly - lo] = False
    return newly, count
