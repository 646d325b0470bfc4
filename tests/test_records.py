"""Byte pins of every schema-versioned record family.

Captured on commit b56a6f5, before the record families were folded onto
one shared implementation; the refactor must leave every pin below
unchanged.  Each family is pinned on hand-built instances with fixed
values (no solve wall times or RSS), so the expected strings are exact:

* ``RunReport`` — ``to_json`` (compact and indented) and the in-memory
  upgrade of a version-1 payload, including solution coercion;
* ``EpochRecord`` — with and without ``verification`` and
  ``differential_ratio``;
* ``StreamReport``, ``TenantReport``, ``ServeReport`` — ``to_json`` /
  ``to_dict`` and the defaults a sparse payload loads with;
* ``EdgeBatch`` — the JSONL wire shape and the recorded file;
* serve snapshots and the ooc format — the bytes on disk;
* one unknown-schema rejection per family, and what each family does
  with a payload that carries no ``schema`` key.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.api.report import RunReport
from repro.graph.csr import CSRGraph
from repro.ooc.build import build_mmap_csr
from repro.ooc.format import read_header, save_csr, write_header
from repro.serve.report import ServeReport, TenantReport
from repro.serve.snapshot import read_snapshot, write_snapshot
from repro.stream.driver import EpochRecord, StreamReport
from repro.stream.updates import EdgeBatch, read_batches_jsonl, write_batches_jsonl


def run_report() -> RunReport:
    return RunReport(
        task="matching",
        backend="mpc",
        n=6,
        num_edges=7,
        solution_kind="edge_set",
        solution=[[0, 1], [2, 3]],
        metrics={"valid": True, "size": 2},
        rounds=5,
        max_machine_words=40,
        seed=3,
        config={"epsilon": 0.1},
        wall_time_s=0.25,
        peak_rss_bytes=1048576,
        total_comm_words=99,
        verification={"ok": True, "checks": []},
        extras={"phases": [1, 2]},
    )


EPOCH_PLAIN = EpochRecord(stats={"epoch": 0, "action": "repair"})
EPOCH_VERIFIED = EpochRecord(stats={"epoch": 1}, verification={"ok": True})
EPOCH_RATIO = EpochRecord(stats={"epoch": 2}, differential_ratio=1.25)
EPOCH_ZERO_RATIO = EpochRecord(
    stats={"epoch": 3}, verification={}, differential_ratio=0.0
)


def stream_report() -> StreamReport:
    return StreamReport(
        task="mis",
        backend="mpc",
        n_initial=5,
        m_initial=4,
        n_final=6,
        m_final=5,
        initial={"rounds": 3, "size": 2},
        epochs=[EPOCH_PLAIN, EPOCH_VERIFIED, EPOCH_RATIO],
        solution=[0, 2, 5],
        config={"resolve_fraction": 0.25},
    )


def tenant_report() -> TenantReport:
    return TenantReport(
        tenant="t1",
        task="matching",
        backend="auto",
        seed=None,
        n_final=4,
        m_final=3,
        initial={"size": 1},
        epochs=[EPOCH_RATIO],
        solution=[[0, 1]],
        counters={"coalesced": 2, "shed": 0},
        config={"verify": True},
    )


def edge_batch() -> EdgeBatch:
    return EdgeBatch.make(
        [[3, 1], [1, 3], [0, 2]], [[5, 4]], new_vertices=2, timestamp=7.5
    )


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------------

RUN_JSON = (
    '{"backend": "mpc", "config": {"epsilon": 0.1}, "extras": {"phases": '
    '[1, 2]}, "max_machine_words": 40, "metrics": {"size": 2, "valid": '
    'true}, "n": 6, "num_edges": 7, "peak_rss_bytes": 1048576, "rounds": 5, '
    '"schema": 2, "seed": 3, "solution": [[0, 1], [2, 3]], "solution_kind": '
    '"edge_set", "task": "matching", "total_comm_words": 99, '
    '"verification": {"checks": [], "ok": true}, "wall_time_s": 0.25}'
)

RUN_JSON_INDENTED = (
    '{\n  "backend": "mpc",\n  "config": {\n    "epsilon": 0.1\n  },\n  '
    '"extras": {\n    "phases": [\n      1,\n      2\n    ]\n  },\n  '
    '"max_machine_words": 40,\n  "metrics": {\n    "size": 2,\n    '
    '"valid": true\n  },\n  "n": 6,\n  "num_edges": 7,\n  '
    '"peak_rss_bytes": 1048576,\n  "rounds": 5,\n  "schema": 2,\n  '
    '"seed": 3,\n  "solution": [\n    [\n      0,\n      1\n    ],\n    '
    '[\n      2,\n      3\n    ]\n  ],\n  "solution_kind": "edge_set",\n  '
    '"task": "matching",\n  "total_comm_words": 99,\n  "verification": '
    '{\n    "checks": [],\n    "ok": true\n  },\n  "wall_time_s": 0.25\n}'
)

# A version-1 row: no schema / total_comm_words / verification keys, and
# loosely typed values the loader coerces.
V1_FRACTIONAL = {
    "task": "mis",
    "backend": "greedy",
    "n": "4",
    "num_edges": 3,
    "solution_kind": "fractional",
    "solution": [[1, 0, 1], [2, 3, "0.5"]],
    "rounds": 2.0,
    "wall_time_s": 1,
}
V1_FRACTIONAL_UPGRADED = (
    '{"backend": "greedy", "config": {}, "extras": {}, "max_machine_words": '
    '0, "metrics": {}, "n": 4, "num_edges": 3, "peak_rss_bytes": 0, '
    '"rounds": 2, "schema": 2, "seed": null, "solution": [[1, 0, 1.0], '
    '[2, 3, 0.5]], "solution_kind": "fractional", "task": "mis", '
    '"total_comm_words": 0, "verification": {}, "wall_time_s": 1.0}'
)
V1_VERTEX_SET = {
    "task": "mis",
    "backend": "greedy",
    "n": 3,
    "num_edges": 2,
    "solution_kind": "vertex_set",
    "solution": [True, 2],
}
V1_VERTEX_SET_UPGRADED = (
    '{"backend": "greedy", "config": {}, "extras": {}, "max_machine_words": '
    '0, "metrics": {}, "n": 3, "num_edges": 2, "peak_rss_bytes": 0, '
    '"rounds": 0, "schema": 2, "seed": null, "solution": [1, 2], '
    '"solution_kind": "vertex_set", "task": "mis", "total_comm_words": 0, '
    '"verification": {}, "wall_time_s": 0.0}'
)


class TestRunReportPins:
    def test_to_json_bytes(self):
        assert run_report().to_json() == RUN_JSON

    def test_to_json_indented_bytes(self):
        assert run_report().to_json(indent=2) == RUN_JSON_INDENTED

    def test_to_dict_matches_json(self):
        assert dumps(run_report().to_dict()) == RUN_JSON

    def test_round_trip(self):
        report = run_report()
        assert RunReport.from_json(report.to_json()) == report

    def test_v1_fractional_upgrade(self):
        loaded = RunReport.from_dict(dict(V1_FRACTIONAL))
        assert loaded.schema == 2
        assert loaded.to_json() == V1_FRACTIONAL_UPGRADED

    def test_v1_vertex_set_upgrade(self):
        loaded = RunReport.from_json(json.dumps(V1_VERTEX_SET))
        assert loaded.to_json() == V1_VERTEX_SET_UPGRADED

    def test_missing_schema_reads_as_v1(self):
        # Only version 1 lacks the key, so an explicit 1 loads the same.
        explicit = RunReport.from_dict({**V1_FRACTIONAL, "schema": 1})
        assert explicit.to_json() == V1_FRACTIONAL_UPGRADED

    def test_unknown_schema_rejected(self):
        payload = json.loads(RUN_JSON)
        payload["schema"] = 3
        with pytest.raises(ValueError, match="unsupported RunReport schema"):
            RunReport.from_dict(payload)
        with pytest.raises(ValueError, match="unsupported RunReport schema"):
            RunReport.from_json(json.dumps(payload))

    def test_constructor_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="unsupported RunReport schema"):
            RunReport(
                task="mis",
                backend="greedy",
                n=1,
                num_edges=0,
                solution_kind="vertex_set",
                solution=[0],
                schema=0,
            )


# ---------------------------------------------------------------------------
# EpochRecord / StreamReport
# ---------------------------------------------------------------------------

STREAM_JSON = (
    '{"backend": "mpc", "config": {"resolve_fraction": 0.25}, "epochs": '
    '[{"stats": {"action": "repair", "epoch": 0}}, {"stats": {"epoch": 1}, '
    '"verification": {"ok": true}}, {"differential_ratio": 1.25, "stats": '
    '{"epoch": 2}}], "initial": {"rounds": 3, "size": 2}, "m_final": 5, '
    '"m_initial": 4, "n_final": 6, "n_initial": 5, "schema": 1, '
    '"solution": [0, 2, 5], "task": "mis"}'
)

STREAM_JSON_INDENTED = (
    '{\n  "backend": "mpc",\n  "config": {\n    "resolve_fraction": 0.25\n'
    '  },\n  "epochs": [\n    {\n      "stats": {\n        "action": '
    '"repair",\n        "epoch": 0\n      }\n    },\n    {\n      '
    '"stats": {\n        "epoch": 1\n      },\n      "verification": {\n'
    '        "ok": true\n      }\n    },\n    {\n      '
    '"differential_ratio": 1.25,\n      "stats": {\n        "epoch": 2\n'
    '      }\n    }\n  ],\n  "initial": {\n    "rounds": 3,\n    "size": '
    '2\n  },\n  "m_final": 5,\n  "m_initial": 4,\n  "n_final": 6,\n  '
    '"n_initial": 5,\n  "schema": 1,\n  "solution": [\n    0,\n    2,\n'
    '    5\n  ],\n  "task": "mis"\n}'
)

STREAM_MINIMAL = {
    "task": "mis",
    "backend": "mpc",
    "n_initial": 1,
    "m_initial": 0,
    "n_final": 1,
    "m_final": 0,
    "solution": [0],
}
STREAM_MINIMAL_LOADED = (
    '{"backend": "mpc", "config": {}, "epochs": [], "initial": {}, '
    '"m_final": 0, "m_initial": 0, "n_final": 1, "n_initial": 1, '
    '"schema": 1, "solution": [0], "task": "mis"}'
)


class TestEpochRecordPins:
    @pytest.mark.parametrize(
        "record, expected",
        [
            (EPOCH_PLAIN, '{"stats": {"action": "repair", "epoch": 0}}'),
            (
                EPOCH_VERIFIED,
                '{"stats": {"epoch": 1}, "verification": {"ok": true}}',
            ),
            (EPOCH_RATIO, '{"differential_ratio": 1.25, "stats": {"epoch": 2}}'),
            # An empty verification is omitted, a zero ratio is kept.
            (
                EPOCH_ZERO_RATIO,
                '{"differential_ratio": 0.0, "stats": {"epoch": 3}}',
            ),
        ],
        ids=["plain", "verified", "ratio", "zero_ratio"],
    )
    def test_to_dict_bytes(self, record, expected):
        assert dumps(record.to_dict()) == expected
        assert EpochRecord.from_dict(json.loads(expected)) == record

    def test_absent_keys_load_as_defaults(self):
        loaded = EpochRecord.from_dict({"stats": {"epoch": 0}})
        assert loaded.verification == {}
        assert loaded.differential_ratio is None


class TestStreamReportPins:
    def test_to_json_bytes(self):
        assert stream_report().to_json() == STREAM_JSON

    def test_to_json_indented_bytes(self):
        assert stream_report().to_json(indent=2) == STREAM_JSON_INDENTED

    def test_round_trip(self):
        report = stream_report()
        assert StreamReport.from_json(report.to_json()) == report

    def test_missing_schema_reads_as_current(self):
        loaded = StreamReport.from_dict(dict(STREAM_MINIMAL))
        assert loaded.schema == 1
        assert loaded.to_json() == STREAM_MINIMAL_LOADED

    def test_unknown_schema_rejected(self):
        payload = json.loads(STREAM_JSON)
        payload["schema"] = 2
        with pytest.raises(ValueError, match="unsupported StreamReport schema"):
            StreamReport.from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# TenantReport / ServeReport
# ---------------------------------------------------------------------------

TENANT_JSON = (
    '{"backend": "auto", "config": {"verify": true}, "counters": '
    '{"coalesced": 2, "shed": 0}, "epochs": [{"differential_ratio": 1.25, '
    '"stats": {"epoch": 2}}], "initial": {"size": 1}, "m_final": 3, '
    '"n_final": 4, "seed": null, "solution": [[0, 1]], "task": "matching", '
    '"tenant": "t1"}'
)
SERVE_JSON = '{"config": {"max_queue": 8}, "schema": 1, "tenants": [' + (
    TENANT_JSON + "]}"
)
TENANT_MINIMAL_LOADED = (
    '{"backend": "mpc", "config": {}, "counters": {}, "epochs": [], '
    '"initial": {}, "m_final": 0, "n_final": 1, "seed": null, "solution": '
    '[], "task": "mis", "tenant": "a"}'
)


class TestServeReportPins:
    def test_tenant_to_dict_bytes(self):
        assert dumps(tenant_report().to_dict()) == TENANT_JSON

    def test_tenant_minimal_payload_loads_defaults(self):
        loaded = TenantReport.from_dict(
            {
                "tenant": "a",
                "task": "mis",
                "backend": "mpc",
                "n_final": 1,
                "m_final": 0,
                "solution": [],
            }
        )
        assert dumps(loaded.to_dict()) == TENANT_MINIMAL_LOADED

    def test_to_json_bytes(self):
        report = ServeReport(tenants=[tenant_report()], config={"max_queue": 8})
        assert report.to_json() == SERVE_JSON
        assert ServeReport.from_json(SERVE_JSON) == report

    def test_missing_schema_reads_as_current(self):
        loaded = ServeReport.from_dict({})
        assert loaded.schema == 1
        assert loaded.to_json() == '{"config": {}, "schema": 1, "tenants": []}'

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported ServeReport schema"):
            ServeReport.from_dict({"schema": 2, "tenants": []})
        with pytest.raises(ValueError, match="unsupported ServeReport schema"):
            ServeReport(tenants=[], schema=2)


# ---------------------------------------------------------------------------
# EdgeBatch wire format
# ---------------------------------------------------------------------------

BATCH_JSON = (
    '{"delete": [[4, 5]], "insert": [[0, 2], [1, 3]], "new_vertices": 2, '
    '"schema": 1, "t": 7.5}'
)


class TestEdgeBatchPins:
    def test_to_dict_bytes(self):
        assert dumps(edge_batch().to_dict()) == BATCH_JSON

    def test_empty_batch_is_schema_only(self):
        assert dumps(EdgeBatch().to_dict()) == '{"schema": 1}'

    def test_recorded_file_bytes(self, tmp_path):
        path = tmp_path / "batches.jsonl"
        write_batches_jsonl([edge_batch(), EdgeBatch.make([[0, 1]])], path)
        assert path.read_text() == (
            BATCH_JSON + '\n{"insert": [[0, 1]], "schema": 1}\n'
        )
        loaded = list(read_batches_jsonl(path))
        assert dumps(loaded[0].to_dict()) == BATCH_JSON

    def test_missing_schema_reads_as_current(self):
        payload = json.loads(BATCH_JSON)
        del payload["schema"]
        assert dumps(EdgeBatch.from_dict(payload).to_dict()) == BATCH_JSON

    def test_unknown_schema_rejected(self):
        payload = json.loads(BATCH_JSON)
        payload["schema"] = 2
        with pytest.raises(ValueError, match="unsupported EdgeBatch schema"):
            EdgeBatch.from_dict(payload)


# ---------------------------------------------------------------------------
# on-disk formats: serve snapshots and the ooc CSR directory
# ---------------------------------------------------------------------------

SNAPSHOT_PAYLOAD = {
    "schema": 1,
    "tenant": "t1",
    "n": 3,
    "edges": [[0, 1], [1, 2]],
    "maintainer": {"solution": [0, 2], "loads": [0.5, 0.25]},
    "processed_seq": 4,
    "records": [{"stats": {"epoch": 1}, "verification": {"ok": True}}],
    "counters": {"restores": 0},
}
SNAPSHOT_BYTES = (
    b'{"counters": {"restores": 0}, "edges": [[0, 1], [1, 2]], '
    b'"maintainer": {"loads": [0.5, 0.25], "solution": [0, 2]}, "n": 3, '
    b'"processed_seq": 4, "records": [{"stats": {"epoch": 1}, '
    b'"verification": {"ok": true}}], "schema": 1, "tenant": "t1"}'
)
HEADER_BYTES = (
    b'{"dtype": "<i8", "num_edges": 12, "num_vertices": 10, "schema": 1}'
)
# sha256 of the three files of the 5-vertex graph below, written either
# by save_csr or by the external builder (the two are byte-identical).
CSR_FILE_SHA256 = {
    "header.json": "c74cbaa948d8ad7e67d28241613256728015e31e7fa5fc1e63c8a788db402d9f",
    "indices.npy": "e94f951ef9134cfc7cd00b6841cdc6d778552086980a6fdbb29101d7800579c3",
    "indptr.npy": "c94daaea4b3ff089b25f797418d7223b680f356a1b184052f2ffa83ed4de1e1c",
}


def file_digests(directory) -> dict:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


class TestSnapshotPins:
    def test_file_bytes(self, tmp_path):
        path = tmp_path / "snaps" / "t1.snapshot.json"
        write_snapshot(path, SNAPSHOT_PAYLOAD)
        assert path.read_bytes() == SNAPSHOT_BYTES
        # The temp file was replaced into place: nothing else is left.
        assert os.listdir(tmp_path / "snaps") == ["t1.snapshot.json"]
        assert read_snapshot(path) == SNAPSHOT_PAYLOAD

    def test_write_rejects_unknown_and_missing_schema(self, tmp_path):
        path = tmp_path / "t1.snapshot.json"
        for payload in (
            {**SNAPSHOT_PAYLOAD, "schema": 2},
            {k: v for k, v in SNAPSHOT_PAYLOAD.items() if k != "schema"},
        ):
            with pytest.raises(ValueError, match="schema"):
                write_snapshot(path, payload)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("schema", [2, None], ids=["unknown", "missing"])
    def test_read_rejects_unknown_and_missing_schema(self, tmp_path, schema):
        payload = dict(SNAPSHOT_PAYLOAD)
        if schema is None:
            del payload["schema"]
        else:
            payload["schema"] = schema
        path = tmp_path / "t1.snapshot.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported snapshot schema"):
            read_snapshot(path)


class TestOocPins:
    def test_header_bytes(self, tmp_path):
        payload = write_header(tmp_path, 10, 12)
        assert (tmp_path / "header.json").read_bytes() == HEADER_BYTES
        assert payload == json.loads(HEADER_BYTES)
        assert read_header(tmp_path) == payload

    def test_save_csr_file_bytes(self, tmp_path):
        graph = CSRGraph.from_edge_array(
            5, np.array([[0, 1], [1, 2], [3, 4], [0, 4]])
        )
        save_csr(graph, tmp_path / "g")
        assert file_digests(tmp_path / "g") == CSR_FILE_SHA256

    def test_external_build_file_bytes(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("n 5\n0 1\n2 1\n3 4\n4 0\n1 0\n")
        build_mmap_csr(edges, tmp_path / "b", chunk_edges=2, bucket_rows=2)
        assert file_digests(tmp_path / "b") == CSR_FILE_SHA256

    @pytest.mark.parametrize("schema", [2, None], ids=["unknown", "missing"])
    def test_header_rejects_unknown_and_missing_schema(self, tmp_path, schema):
        payload = json.loads(HEADER_BYTES)
        if schema is None:
            del payload["schema"]
        else:
            payload["schema"] = schema
        (tmp_path / "header.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported ooc graph schema"):
            read_header(tmp_path)
