"""Two-pass external CSR construction from chunked edge-list text.

The builder never holds more than O(n + chunk) in RAM:

1. **Scatter pass** — stream the (possibly gzipped) edge list once via
   :func:`repro.graph.io.iter_edge_array`, validate endpoints, emit both
   directed copies of every edge, and append them to *bucket* files on
   disk keyed by ``source // bucket_rows``.  Buckets restore the row
   locality an external sort needs without knowing ``n`` up front.
2. **Assemble pass** — for each bucket in ascending order: load it
   (bounded by the bucket's slot count), lexsort by ``(src, dst)``,
   collapse duplicate directed slots, accumulate per-row degree counts,
   and append the destination column to a raw data file.  Because
   buckets partition the source range in order, the concatenation is
   globally sorted — exactly the canonical CSR slot order of
   :meth:`CSRGraph.from_edge_array`.

``indices.npy`` is finalized by writing the npy header for the
now-known total length and streaming the raw column data after it;
``indptr.npy`` and finally ``header.json`` follow, each written through
:func:`repro.utils.record.atomic_write` — a crash mid-build leaves no
loadable graph (no header), never a torn one.

The output is **byte-identical** to
``CSRGraph.from_edge_array(n, edges)`` on the same edge multiset: both
dedup either-orientation duplicates and produce ascending-sorted rows.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Any, Dict, IO, Optional

import numpy as np
from numpy.lib import format as npy_format

from repro.graph.io import iter_edge_array
from repro.ooc.format import (
    INDICES_NAME,
    INDPTR_NAME,
    MMapCSRGraph,
    _atomic_save_array,
    write_header,
)
from repro.utils.record import atomic_write

# Source rows per bucket: 2^19 rows * avg-degree * 2 directions of int64
# pairs resident during the assemble pass (~160 MB at average degree 20).
DEFAULT_BUCKET_ROWS = 1 << 19
DEFAULT_CHUNK_EDGES = 1_000_000


def build_mmap_csr(
    edge_path: Any,
    directory: Any,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    bucket_rows: int = DEFAULT_BUCKET_ROWS,
) -> MMapCSRGraph:
    """Stream ``edge_path`` into an on-disk CSR at ``directory``.

    Accepts everything :func:`repro.graph.io.iter_edge_list` accepts:
    plain or ``.gz`` text, ``# comments``, ``n <count>`` headers, blank
    lines, duplicate edges in either orientation.  Self-loops and
    negative endpoints are rejected.  Returns the opened
    :class:`MMapCSRGraph`.
    """
    directory = os.fspath(directory)
    if bucket_rows <= 0:
        raise ValueError(f"bucket_rows must be positive, got {bucket_rows}")
    os.makedirs(directory, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".build.", dir=directory)
    try:
        num_vertices, degrees, raw_path = _scatter_and_assemble(
            edge_path, workdir, chunk_edges, bucket_rows
        )
        total_slots = int(degrees.sum())
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        _finalize_indices(
            raw_path, os.path.join(directory, INDICES_NAME), total_slots
        )
        _atomic_save_array(os.path.join(directory, INDPTR_NAME), indptr)
        write_header(directory, num_vertices, total_slots // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return MMapCSRGraph(directory)


def _scatter_and_assemble(edge_path, workdir, chunk_edges, bucket_rows):
    """Both passes; returns ``(num_vertices, degrees, raw_indices_path)``."""
    buckets: Dict[int, IO[bytes]] = {}
    num_vertices = 0
    try:
        for n_seen, edges in iter_edge_array(edge_path, chunk_edges):
            num_vertices = n_seen
            if not len(edges):
                continue
            if edges.min() < 0:
                raise ValueError(
                    f"negative endpoint in {os.fspath(edge_path)!r}"
                )
            loops = edges[:, 0] == edges[:, 1]
            if loops.any():
                v = int(edges[np.argmax(loops), 0])
                raise ValueError(
                    f"self-loop on vertex {v} in {os.fspath(edge_path)!r}"
                )
            _scatter_chunk(edges, buckets, workdir, bucket_rows)
    finally:
        for handle in buckets.values():
            handle.close()
    degrees = np.zeros(num_vertices, dtype=np.int64)
    raw_path = os.path.join(workdir, "indices.raw")
    with open(raw_path, "wb") as raw:
        for bucket in sorted(buckets):
            _assemble_bucket(
                os.path.join(workdir, f"bucket.{bucket}"),
                bucket * bucket_rows,
                degrees,
                raw,
            )
    return num_vertices, degrees, raw_path


def _scatter_chunk(
    edges: np.ndarray,
    buckets: Dict[int, IO[bytes]],
    workdir: str,
    bucket_rows: int,
) -> None:
    """Append both directed copies of ``edges`` to their source buckets."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    bucket_of = src // bucket_rows
    order = np.argsort(bucket_of, kind="stable")
    src, dst, bucket_of = src[order], dst[order], bucket_of[order]
    ids, starts = np.unique(bucket_of, return_index=True)
    bounds = np.append(starts, len(src))
    for i, bucket in enumerate(ids.tolist()):
        handle = buckets.get(bucket)
        if handle is None:
            handle = open(os.path.join(workdir, f"bucket.{bucket}"), "wb")
            buckets[bucket] = handle
        lo, hi = bounds[i], bounds[i + 1]
        np.column_stack((src[lo:hi], dst[lo:hi])).tofile(handle)


def _assemble_bucket(
    path: str, row_base: int, degrees: np.ndarray, raw: IO[bytes]
) -> None:
    """Sort + dedup one bucket; accumulate degrees, append dst to ``raw``."""
    pairs = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if len(src) > 1:
        keep = np.empty(len(src), dtype=bool)
        keep[0] = True
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    if len(src):
        counts = np.bincount(src - row_base)
        degrees[row_base : row_base + len(counts)] += counts
    dst.tofile(raw)
    os.unlink(path)


def _finalize_indices(raw_path: str, final_path: str, total_slots: int) -> None:
    """Write ``indices.npy``: npy header + streamed raw data, atomically."""

    def write_body(out: IO[bytes]) -> None:
        npy_format.write_array_header_1_0(
            out,
            {
                "descr": "<i8",
                "fortran_order": False,
                "shape": (int(total_slots),),
            },
        )
        with open(raw_path, "rb") as source:
            shutil.copyfileobj(source, out, 1 << 24)

    atomic_write(final_path, write_body)
