"""``solve_many()`` — the sweep/batch runner over the façade.

A sweep is a list of :class:`RunSpec` (task, backend, graph, seed, config,
budget).  :func:`sweep` builds the cross product the experiment harness
and benchmarks need (graphs × tasks × backends × seeds × configs);
:func:`solve_many` executes the specs serially or on a process pool and
optionally streams each finished :class:`RunReport` to a JSONL file as
it completes — the format later analysis (and the ``repro`` CLI) reads
back with :meth:`RunReport.from_json`.  The pool path degrades
gracefully: a spec that raises becomes a failure row, and a broken pool
(worker killed) becomes a ``BatchResult.incidents`` entry with the
unfinished specs salvaged serially.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.facade import GraphLike, solve
from repro.api.report import RunReport
from repro.utils.record import iter_jsonl

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class RunSpec:
    """One planned façade invocation.

    ``label`` travels into the report's ``extras`` (as ``spec_label``) so
    sweep rows stay identifiable after serialization.
    """

    task: str
    graph: GraphLike
    backend: str = "auto"
    seed: Optional[int] = None
    config: Any = None
    budget: Optional[float] = None
    verify: Any = False
    governance: Any = None
    label: str = ""


@dataclass
class BatchResult:
    """Outcome of :func:`solve_many`.

    ``incidents`` records batch-level degradations that are not any one
    spec's failure — e.g. the worker pool breaking mid-sweep (a worker
    process killed by the OS) and the unfinished specs being salvaged
    serially.  A sweep with incidents still delivers every report.
    """

    reports: List[RunReport] = field(default_factory=list)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    incidents: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.reports)

    def rows(self) -> List[Dict[str, Any]]:
        """Summary rows for table formatting."""
        return [report.summary_row() for report in self.reports]


def sweep(
    tasks: Sequence[str],
    graphs: Sequence[GraphLike],
    *,
    backends: Union[str, Sequence[str]] = "auto",
    seeds: Sequence[Optional[int]] = (None,),
    configs: Sequence[Any] = (None,),
    budget: Optional[float] = None,
    governance: Any = None,
) -> List[RunSpec]:
    """The cross product ``graphs × tasks × backends × seeds × configs``.

    ``backends`` may be ``"auto"``, one backend name, a sequence of names,
    or ``"all"`` (every backend registered for each task).
    """
    from repro.api.registry import registry

    specs: List[RunSpec] = []
    for graph_index, graph in enumerate(graphs):
        for task in tasks:
            if backends == "all":
                chosen: Sequence[str] = registry.backends(task)
            elif isinstance(backends, str):
                chosen = (backends,)
            else:
                chosen = backends
            for backend in chosen:
                for seed in seeds:
                    for config in configs:
                        specs.append(
                            RunSpec(
                                task=task,
                                graph=graph,
                                backend=backend,
                                seed=seed,
                                config=config,
                                budget=budget,
                                governance=governance,
                                label=f"g{graph_index}",
                            )
                        )
    return specs


def _run_spec(spec: RunSpec) -> RunReport:
    """Execute one spec (module-level so pools can pickle it)."""
    report = solve(
        spec.task,
        spec.graph,
        backend=spec.backend,
        config=spec.config,
        seed=spec.seed,
        budget=spec.budget,
        verify=spec.verify,
        governance=spec.governance,
    )
    extras: Dict[str, Any] = {}
    if spec.label:
        extras["spec_label"] = spec.label
    if spec.backend != report.backend:
        # The resolved backend (e.g. "auto" -> "numpy") overwrote the
        # requested one; keep the request so append-resume can match
        # this report back to its spec.
        extras["spec_backend"] = spec.backend
    if extras:
        report = dataclasses.replace(
            report, extras={**report.extras, **extras}
        )
    return report


def _trim_partial_tail(path: PathLike) -> None:
    """Truncate ``path`` back to the end of its last newline-terminated
    line (drops the partial record a killed writer left behind)."""
    with open(path, "rb+") as stream:
        stream.seek(0, os.SEEK_END)
        position = stream.tell()
        if position == 0:
            return
        stream.seek(position - 1)
        if stream.read(1) == b"\n":
            return
        chunk = 4096
        while position > 0:
            step = min(chunk, position)
            stream.seek(position - step)
            data = stream.read(step)
            cut = data.rfind(b"\n")
            if cut != -1:
                stream.truncate(position - step + cut + 1)
                return
            position -= step
        stream.truncate(0)


def _spec_key(spec: RunSpec) -> Tuple[str, str, Optional[int], str]:
    return (spec.task, spec.backend, spec.seed, spec.label)


def _report_key(report: RunReport) -> Tuple[str, str, Optional[int], str]:
    return (
        report.task,
        report.extras.get("spec_backend", report.backend),
        report.seed,
        report.extras.get("spec_label", ""),
    )


def _run_indexed(job):
    """Pool worker: never raises, so one failure cannot poison the batch.

    ``job`` is ``(index, spec-with-graph-stripped, graph_index)``; the
    graph is looked up in the worker-local object table installed by the
    :mod:`repro.dist.pool` initializer (sweeps reuse a handful of graphs
    across many specs, so each distinct graph ships to each worker once
    and task payloads stay O(1) regardless of graph size).  Returns
    ``(index, report, None)`` or ``(index, None, error_message)``.
    """
    from repro.dist.pool import worker_object

    index, spec, graph_index = job
    try:
        spec = dataclasses.replace(spec, graph=worker_object(graph_index))
        return index, _run_spec(spec), None
    except Exception as error:
        return index, None, f"{type(error).__name__}: {error}"


def _shared_graph_jobs(
    spec_list: List[RunSpec],
) -> Tuple[List[GraphLike], List[Tuple[int, RunSpec, int]]]:
    """Deduplicate spec graphs (by identity) into a table + light jobs."""
    from repro.dist.pool import dedupe_by_identity

    graph_table, graph_indices = dedupe_by_identity(
        [spec.graph for spec in spec_list]
    )
    jobs = [
        (index, dataclasses.replace(spec, graph=None), graph_indices[index])
        for index, spec in enumerate(spec_list)
    ]
    return graph_table, jobs


def solve_many(
    specs: Iterable[RunSpec],
    *,
    processes: Optional[int] = None,
    jsonl_path: Optional[PathLike] = None,
    append: bool = False,
    on_result: Optional[Callable[[RunReport], None]] = None,
    raise_on_error: bool = False,
) -> BatchResult:
    """Run every spec, optionally in parallel, streaming JSONL output.

    Parameters
    ----------
    specs:
        The planned runs (see :func:`sweep` for the cross-product helper).
    processes:
        ``None``/``0``/``1`` runs serially in-process; ``>= 2`` uses a
        process pool of that size (graphs and configs must be picklable,
        which every library type is).  If the pool *breaks* mid-sweep (a
        worker killed by the OS), the unfinished specs are re-run
        serially and the event is recorded in ``BatchResult.incidents``
        — one dying run never costs the rest of the sweep.
    jsonl_path:
        When given, each finished report is written to this file as one
        JSON line *as it completes*, so long sweeps are inspectable
        mid-flight.  On the pool path lines land in completion order;
        ``BatchResult.reports`` always keeps spec order.
    append:
        ``False`` (default) truncates ``jsonl_path`` so the file holds
        exactly this sweep; ``True`` appends, for resuming/accumulating
        across invocations.  Appending is *idempotent*: specs whose
        ``(task, backend, seed, label)`` already settled in the existing
        file are skipped (their prior reports join
        ``BatchResult.reports`` and the skip count lands in
        ``BatchResult.incidents``), so re-running an interrupted sweep
        only pays for what is missing.  Failed specs never reach the
        file, so they are always retried.
    on_result:
        Optional callback invoked with each finished report (progress
        bars, live tables).
    raise_on_error:
        ``False`` (default) records per-spec failures in
        ``BatchResult.failures`` and keeps going; ``True`` re-raises the
        first error.
    """
    spec_list = list(specs)
    result = BatchResult()
    started = time.perf_counter()

    if (
        jsonl_path is not None
        and append
        and os.path.exists(jsonl_path)
        and os.path.getsize(jsonl_path) > 0
    ):
        # Idempotent resume: anything that already settled into the file
        # is adopted as-is instead of re-run (last occurrence wins, so a
        # spec deliberately re-swept supersedes its older line).
        import warnings

        from repro.utils.jsonl import TruncatedJSONLWarning

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            settled_reports = {
                _report_key(report): report
                for report in read_jsonl(jsonl_path)
            }
        truncated = False
        for warning in caught:
            warnings.warn_explicit(
                warning.message,
                warning.category,
                warning.filename,
                warning.lineno,
            )
            truncated = truncated or issubclass(
                warning.category, TruncatedJSONLWarning
            )
        if truncated:
            # The file ends in an unparseable partial record (a killed
            # writer).  Appending after it would fuse the next report
            # onto the garbage, so cut the file back to its last intact
            # line; the chopped spec was never adopted and re-runs.
            _trim_partial_tail(jsonl_path)
        remaining: List[RunSpec] = []
        for spec in spec_list:
            prior = settled_reports.get(_spec_key(spec))
            if prior is not None:
                result.reports.append(prior)
            else:
                remaining.append(spec)
        if len(remaining) < len(spec_list):
            result.incidents.append(
                f"resume: skipped {len(spec_list) - len(remaining)} "
                f"already-settled spec(s) found in {os.fspath(jsonl_path)}"
            )
            spec_list = remaining

    stream: Optional[IO[str]] = None
    if jsonl_path is not None:
        stream = open(jsonl_path, "a" if append else "w", encoding="utf-8")

    def consume(report: RunReport) -> None:
        if stream is not None:
            stream.write(report.to_json() + "\n")
            stream.flush()
        if on_result is not None:
            on_result(report)

    def record_failure(spec: RunSpec, message: str) -> None:
        if raise_on_error:
            raise RuntimeError(
                f"spec failed (task={spec.task!r}, backend={spec.backend!r}, "
                f"seed={spec.seed!r}): {message}"
            )
        result.failures.append(
            {
                "task": spec.task,
                "backend": spec.backend,
                "seed": spec.seed,
                "label": spec.label,
                "error": message,
            }
        )

    try:
        if processes is not None and processes >= 2:
            from concurrent.futures import as_completed
            from concurrent.futures.process import BrokenProcessPool

            from repro.dist.pool import object_executor

            finished: Dict[int, RunReport] = {}
            settled: set = set()
            graph_table, jobs = _shared_graph_jobs(spec_list)
            broken: Optional[str] = None
            pool = object_executor(processes, graph_table)
            try:
                # Futures complete (and stream to JSONL/on_result) in
                # finish order — a slow head-of-line spec cannot delay
                # the fast ones behind it.  Unlike multiprocessing.Pool,
                # a worker process dying mid-task surfaces promptly as
                # BrokenProcessPool instead of hanging the iterator.
                futures = {
                    pool.submit(_run_indexed, job): job[0] for job in jobs
                }
                for future in as_completed(futures):
                    spec_index = futures[future]
                    try:
                        index, report, error = future.result()
                    except BrokenProcessPool as pool_error:
                        broken = f"{type(pool_error).__name__}: {pool_error}"
                        break
                    except Exception as error:  # defensive: _run_indexed
                        settled.add(spec_index)  # catches its own errors
                        record_failure(
                            spec_list[spec_index],
                            f"{type(error).__name__}: {error}",
                        )
                        continue
                    settled.add(index)
                    if error is not None:
                        record_failure(spec_list[index], error)
                    else:
                        finished[index] = report
                        consume(report)
            finally:
                pool.shutdown(wait=broken is None, cancel_futures=True)
            if broken is not None:
                # The pool is unusable (a worker was killed hard enough
                # to break it — OOM kill, os._exit in a solver).  The
                # sweep still completes: every unsettled spec is re-run
                # serially in this process.
                unsettled = [
                    index
                    for index in range(len(spec_list))
                    if index not in settled and index not in finished
                ]
                result.incidents.append(
                    f"worker pool broke mid-sweep ({broken}); "
                    f"{len(unsettled)} unfinished spec(s) re-run serially"
                )
                for index in unsettled:
                    spec = spec_list[index]
                    try:
                        report = _run_spec(spec)
                    except Exception as error:
                        record_failure(
                            spec, f"{type(error).__name__}: {error}"
                        )
                    else:
                        finished[index] = report
                        consume(report)
            result.reports.extend(
                finished[index] for index in sorted(finished)
            )
        else:
            for spec in spec_list:
                try:
                    report = _run_spec(spec)
                except Exception as error:
                    if raise_on_error:
                        raise
                    record_failure(spec, f"{type(error).__name__}: {error}")
                else:
                    result.reports.append(report)
                    consume(report)
    finally:
        if stream is not None:
            stream.close()

    result.elapsed_s = time.perf_counter() - started
    return result


def read_jsonl(path: PathLike) -> List[RunReport]:
    """Load every report from a JSONL file written by :func:`solve_many`.

    Crash-tolerant: a truncated final line — exactly what a killed
    ``solve_many`` writer leaves behind — is skipped with a
    :class:`~repro.utils.jsonl.TruncatedJSONLWarning` and every intact
    report is returned; a record failing to parse *mid-file* raises a
    line-numbered :class:`~repro.utils.jsonl.JSONLCorruptionError`.
    """
    return list(iter_jsonl(path, RunReport.from_json))
