"""The shared record contract in :mod:`repro.utils.record`.

The byte pins of every family live in ``test_records.py``; this file
checks what those pins do not reach (the error shape, which payload
fields are required, copying, warning attribution, a writer failing
mid-file) and guards the consolidation: durability calls and schema
rejections exist only in the record module.
"""

from __future__ import annotations

import os
import pathlib
import re

import pytest

import repro
from repro.api.report import RunReport
from repro.serve.report import ServeReport
from repro.stream.driver import EpochRecord, StreamReport
from repro.utils.jsonl import TruncatedJSONLWarning
from repro.utils.record import atomic_write, check_schema

SRC = pathlib.Path(repro.__file__).parent
RECORD_MODULE = SRC / "utils" / "record.py"
# What only the record module may contain: the durability calls and the
# unknown-schema rejection message.
OWNED = re.compile(r"\bos\.fsync\b|\bos\.replace\b|unsupported\b.*\bschema")


def test_durability_and_schema_rejection_live_only_in_the_record_module():
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path != RECORD_MODULE
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if OWNED.search(line)
    ]
    assert offenders == []
    assert OWNED.search(RECORD_MODULE.read_text())


class TestCheckSchema:
    @pytest.mark.parametrize("schema", [0, 3, "2", None])
    def test_one_error_shape_names_the_family(self, schema):
        with pytest.raises(ValueError) as excinfo:
            check_schema("thing", schema, (1, 2))
        assert str(excinfo.value) == (
            f"unsupported thing schema version {schema!r}; supported: (1, 2)"
        )


    @pytest.mark.parametrize("family", [RunReport, StreamReport, ServeReport])
    def test_version_is_checked_before_fields(self, family):
        with pytest.raises(ValueError, match="schema version 99"):
            family.from_dict({"schema": 99})


class TestFieldDrivenDicts:
    def test_dict_fields_are_copied(self):
        stats = {"epoch": 0}
        record = EpochRecord(stats=stats)
        payload = record.to_dict()
        payload["stats"]["epoch"] = 9
        assert record.stats == {"epoch": 0}
        assert EpochRecord.from_dict(payload).stats is not payload["stats"]

    def test_field_without_default_is_required(self):
        with pytest.raises(KeyError, match="solution"):
            StreamReport.from_dict(
                {
                    "task": "mis",
                    "backend": "mpc",
                    "n_initial": 1,
                    "m_initial": 0,
                    "n_final": 1,
                    "m_final": 0,
                }
            )

    def test_required_on_load_dict_field(self):
        # An epoch without stats is refused, although a missing dict
        # field (a stream report's ``initial``) otherwise loads empty.
        with pytest.raises(KeyError, match="stats"):
            EpochRecord.from_dict({"verification": {"ok": True}})


class TestJsonl:
    def test_truncated_tail_warning_blames_the_caller(self, tmp_path):
        from repro.stream.driver import read_stream_jsonl

        path = tmp_path / "reports.jsonl"
        path.write_text(
            '{"task": "mis", "backend": "mpc", "n_initial": 1, "m_initial": 0, '
            '"n_final": 1, "m_final": 0, "solution": [0]}\n{"task'
        )
        with pytest.warns(TruncatedJSONLWarning) as caught:
            assert len(read_stream_jsonl(path)) == 1
        assert caught[0].filename == __file__


class TestAtomicWrite:
    def test_failure_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.bin"
        atomic_write(path, lambda stream: stream.write(b"old"))

        def crash(stream):
            stream.write(b"half of the new")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            atomic_write(path, crash)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["doc.bin"]
