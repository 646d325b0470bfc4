"""Integration tests for the asyncio service and its wire protocol.

An in-process service on a loopback socket (fast, deterministic) covers
the protocol surface: open/ingest/query/flush/snapshot/report/shutdown,
error responses, idempotent re-open, and restore-at-boot.  One
subprocess test performs the real thing — ``SIGKILL`` mid-stream,
restart on the snapshot directory, certified convergence — in miniature
(the full two-tenant matrix runs as ``python -m repro.serve --check`` in
CI).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import ServeClient, ServeConfig, ServeError, ServeService
from repro.stream.updates import make_scenario


class ServiceHarness:
    """Run a ServeService on a private event loop in a daemon thread."""

    def __init__(self, **config) -> None:
        self.service = ServeService(ServeConfig(**config))
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.service.start())
        self._ready.set()
        self._loop.run_until_complete(self.service.serve_until_stopped())

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        assert self._ready.wait(timeout=60)
        return self

    @property
    def port(self) -> int:
        return self.service.port

    def __exit__(self, *exc_info) -> None:
        if not self.service._stopping.is_set():
            try:
                with ServeClient(port=self.port) as client:
                    client.shutdown()
            except (ServeError, OSError):
                pass
        self._thread.join(timeout=30)


@pytest.fixture(scope="module")
def scenario():
    return make_scenario("churn", n=48, epochs=6, churn_fraction=0.05, seed=17)


def _open(client, tenant, task, graph, **kwargs):
    return client.open(
        tenant,
        task,
        n=graph.num_vertices,
        edges=graph.edge_list(),
        seed=5,
        **kwargs,
    )


def test_protocol_end_to_end(scenario):
    graph, batches = scenario
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            ping = client.ping()
            assert ping["service"] == "repro.serve" and ping["tenants"] == []

            opened = _open(client, "alice", "mis", graph, verify=True)
            assert opened["existing"] is False
            assert opened["initial"]["size"] > 0

            for seq, batch in enumerate(batches, start=1):
                response = client.ingest("alice", batch, seq=seq, sync=True)
                assert response["outcome"] in ("queued", "coalesced")
                assert response["record"]["verification"]["ok"] is True

            status = client.status("alice")
            assert status["epochs"] == len(batches)
            assert status["processed_seq"] == len(batches)
            assert client.quality("alice") == float(status["size"])
            assert client.certificate("alice")["ok"] is True
            assert len(client.epochs("alice")) == len(batches)
            assert len(client.epochs("alice", last=2)) == 2

            report = client.report()
            assert report.ok and report.tenant("alice").epochs


def test_async_ingest_drains_via_worker(scenario):
    graph, batches = scenario
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "bob", "matching", graph)
            for seq, batch in enumerate(batches, start=1):
                response = client.ingest("bob", batch, seq=seq)
                assert response["outcome"] in ("queued", "coalesced")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.status("bob")["epochs"] == len(batches):
                    break
                time.sleep(0.02)
            status = client.status("bob")
            assert status["epochs"] == len(batches)
            assert status["queue_depth"] == 0


def test_error_responses_do_not_kill_the_connection(scenario):
    graph, _ = scenario
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            with pytest.raises(ServeError, match="unknown tenant"):
                client.status("ghost")
            with pytest.raises(ServeError, match="unknown op"):
                client.request({"op": "frobnicate"})
            with pytest.raises(ServeError, match="task"):
                client.request({"op": "open", "tenant": "x"})
            # Raw garbage on the wire gets an error line back, too.
            client._file.write(b"not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False
            # The same connection still serves real requests.
            assert client.ping()["ok"] is True

            _open(client, "alice", "mis", graph)
            with pytest.raises(ServeError, match="already serves"):
                client.open("alice", "matching")
            reopened = client.open("alice", "mis")
            assert reopened["existing"] is True


def test_ingest_rejects_non_integer_batch(scenario):
    graph, _ = scenario
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph)
            before = client.status("alice")
            for batch in (
                {"insert": [[0.9, 2.2]], "new_vertices": 2.5},
                {"insert": [[0, 1]], "new_vertices": True},
            ):
                with pytest.raises(ServeError, match="must hold integers"):
                    client.request(
                        {"op": "ingest", "tenant": "alice", "batch": batch}
                    )
            # Nothing was queued or applied: the tenant is where it was.
            assert client.status("alice") == before


def test_tenant_isolation(scenario):
    graph, batches = scenario
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph)
            _open(client, "bob", "mis", graph)
            client.ingest("alice", batches[0], seq=1, sync=True)
            assert client.status("alice")["epochs"] == 1
            assert client.status("bob")["epochs"] == 0


def test_snapshot_and_restore_at_boot(tmp_path, scenario):
    graph, batches = scenario
    snap = str(tmp_path / "snap")
    with ServiceHarness(snapshot_dir=snap, snapshot_every=2) as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph, verify=True)
            for seq, batch in enumerate(batches[:4], start=1):
                client.ingest("alice", batch, seq=seq, sync=True)
            solution = client.solution("alice")
            client.shutdown()  # graceful: snapshots everything
    assert os.path.exists(os.path.join(snap, "alice.snapshot.json"))

    with ServiceHarness(snapshot_dir=snap, snapshot_every=2) as harness:
        with ServeClient(port=harness.port) as client:
            assert client.ping()["tenants"] == ["alice"]
            status = client.status("alice")
            assert status["epochs"] == 4 and status["processed_seq"] == 4
            assert client.solution("alice") == solution
            # Replay dedups, the stream continues.
            assert (
                client.ingest("alice", batches[0], seq=1, sync=True)["outcome"]
                == "duplicate"
            )
            response = client.ingest("alice", batches[4], seq=5, sync=True)
            assert response["outcome"] == "queued"
            assert client.status("alice")["epochs"] == 5


def test_explicit_snapshot_op(tmp_path, scenario):
    graph, _ = scenario
    snap = str(tmp_path / "snap")
    with ServiceHarness(snapshot_dir=snap) as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph)
            _open(client, "bob", "matching", graph)
            assert client.snapshot("alice")["written"] == 1
            assert client.snapshot()["written"] == 2
    names = sorted(os.listdir(snap))
    assert names == ["alice.snapshot.json", "bob.snapshot.json"]


def test_snapshot_op_without_dir_errors(scenario):
    graph, _ = scenario
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph)
            with pytest.raises(ServeError, match="snapshot-dir"):
                client.snapshot("alice")


def test_backpressure_shed_is_explicit(scenario):
    graph, batches = scenario
    with ServiceHarness(max_queue=1, max_pending_edits=1) as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph)
            # Async ingests pile onto a queue capped at one edit; the
            # single-threaded drive guarantees at least one rejection.
            outcomes = [
                client.ingest("alice", batch, seq=seq)["outcome"]
                for seq, batch in enumerate(batches, start=1)
            ]
            shed = [o for o in outcomes if o == "shed"]
            assert shed, outcomes
            response = client.ingest("alice", batches[0], seq=99)
            if response["outcome"] == "shed":
                assert response["retry"] is True


def _wait_for_port(port_file, process, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert process.poll() is None, "service subprocess died"
        try:
            text = open(port_file).read().strip()
        except OSError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.05)
    raise AssertionError("service never published its port")


@pytest.mark.skipif(sys.platform == "win32", reason="SIGKILL semantics")
def test_kill9_restart_converges(tmp_path, scenario):
    """The crash contract against a real process: SIGKILL mid-stream,
    restart on the snapshot dir, full replay -> same certified solution
    as an uninterrupted in-process run."""
    graph, batches = scenario
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    snap = str(tmp_path / "snap")
    port_file = str(tmp_path / "port")

    def spawn():
        if os.path.exists(port_file):
            os.unlink(port_file)
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--port",
                "0",
                "--port-file",
                port_file,
                "--snapshot-dir",
                snap,
                "--snapshot-every",
                "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    # Reference: uninterrupted, in-process.
    with ServiceHarness() as harness:
        with ServeClient(port=harness.port) as client:
            _open(client, "alice", "mis", graph, verify=True)
            for seq, batch in enumerate(batches, start=1):
                client.ingest("alice", batch, seq=seq, sync=True)
            expected_solution = client.solution("alice")
            expected_verifications = [
                record["verification"] for record in client.epochs("alice")
            ]

    server = spawn()
    try:
        port = _wait_for_port(port_file, server)
        with ServeClient(port=port) as client:
            _open(client, "alice", "mis", graph, verify=True)
            for seq, batch in enumerate(batches[:3], start=1):
                client.ingest("alice", batch, seq=seq, sync=True)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()

    server = spawn()
    try:
        port = _wait_for_port(port_file, server)
        with ServeClient(port=port) as client:
            assert client.ping()["tenants"] == ["alice"]
            duplicates = 0
            for seq, batch in enumerate(batches, start=1):
                response = client.ingest("alice", batch, seq=seq, sync=True)
                duplicates += response["outcome"] == "duplicate"
            assert duplicates >= 1  # the snapshotted prefix was skipped
            assert client.solution("alice") == expected_solution
            verifications = [
                record["verification"] for record in client.epochs("alice")
            ]
            assert verifications == expected_verifications
            report = client.report()
            assert report.ok
            assert report.tenant("alice").counters["restores"] >= 1
            client.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
