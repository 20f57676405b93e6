"""Tests for the campaign service: catalogue, queue, workers, serve, query.

The multi-worker scenarios use the training-free ``tests/chaos_driver``
experiment so drains finish in milliseconds; the kill-and-reclaim scenario
runs a real ``python -m repro work`` subprocess and kills it mid-cell.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.jsonio import dump_json
from repro.runs import ExperimentSpec, register_experiment, unregister_experiment
from repro.runs.artifacts import atomic_write_json, load_json
from repro.runs.cli import main as cli_main
from repro.store import Catalog, JobQueue, catalog_path, connect, spec_hash
from repro.store.catalog import code_version, run_status
from repro.store.ingest import ingest
from repro.store.query import aggregate_metric, format_rows
from repro.store.queue import Job
from repro.store.server import make_server
from repro.store.worker import (
    _LocalBackend,
    _RemoteBackend,
    submit_campaign,
    work,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


#: A v3 catalogue's ``bench`` table holding one row, and its index (the
#: table is built from a SELECT so the legacy row comes with it).
V3_BENCH_DDL = """
CREATE TABLE bench AS SELECT
    1 AS bench_id, 'env_throughput' AS benchmark,
    'guessing/lru-4way' AS scenario, 'replay' AS variant, 32 AS num_envs,
    NULL AS dtype, 'speedup' AS key, 3.6 AS value,
    '2026-01-01T00:00:00' AS timestamp, 'BENCH_throughput.json' AS source;
CREATE INDEX bench_by_key ON bench(benchmark, key);
"""
BENCH_OBJECTS = ("SELECT COUNT(*) FROM sqlite_master"
                 " WHERE name IN ('bench', 'bench_by_key')")

#: A v4 catalogue's span table holding one row, and its index.
V4_SPANS_DDL = """
CREATE TABLE telemetry_spans (
    span_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    worker      TEXT NOT NULL,
    name        TEXT NOT NULL,
    labels_json TEXT,
    seconds     REAL NOT NULL,
    at_unix     INTEGER NOT NULL
);
CREATE INDEX telemetry_spans_by_name ON telemetry_spans(name, at_unix);
INSERT INTO telemetry_spans (worker, name, labels_json, seconds, at_unix)
    VALUES ('w-old', 'runner.cell', '{"cell": 0}', 0.25, 1700000000);
"""
SPAN_OBJECTS = ("SELECT COUNT(*) FROM sqlite_master WHERE name IN"
                " ('telemetry_spans', 'telemetry_spans_by_name')")
POINT_ROWS = "SELECT * FROM telemetry_points ORDER BY point_id"


def _campaign_tables(conn) -> dict:
    """Every row of the runs, provenance, cells, metrics and jobs tables."""
    return {table: [tuple(row) for row in conn.fetchall(
        f"SELECT * FROM {table} ORDER BY 1, 2")]
        for table in ("runs", "provenance", "cells", "metrics", "jobs")}


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


# --------------------------------------------------------------------------
class TestConnection:
    def test_schema_created_and_wal(self, tmp_path):
        with connect(tmp_path / "catalog.sqlite") as conn:
            mode = conn.scalar("PRAGMA journal_mode")
            assert mode == "wal"
            tables = {r["name"] for r in conn.fetchall(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            assert tables == {"runs", "cells", "metrics", "jobs",
                              "lease_events", "provenance", "meta",
                              "idempotency", "telemetry_points",
                              "sqlite_sequence"}

    def test_refuses_newer_schema(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        with connect(path) as conn:
            conn.execute("UPDATE meta SET value = '999' "
                         "WHERE key = 'schema_version'")
        with pytest.raises(RuntimeError, match="newer"):
            connect(path)

    def test_transaction_rolls_back(self, tmp_path):
        with connect(tmp_path / "catalog.sqlite") as conn:
            with pytest.raises(RuntimeError):
                with conn.transaction():
                    conn.execute(
                        "INSERT INTO lease_events (run_id, cell_index, event,"
                        " at_unix) VALUES ('r', 0, 'claimed', 1)")
                    raise RuntimeError("boom")
            assert conn.scalar("SELECT COUNT(*) FROM lease_events") == 0

    def test_shared_clock(self, tmp_path):
        with connect(tmp_path / "catalog.sqlite") as conn:
            now = conn.now()
            assert isinstance(now, int) and now > 1_700_000_000

    def test_upgrades_v1_catalog_in_place(self, tmp_path):
        # A pre-PR-9 catalogue: no idempotency table, schema_version '1'.
        path = tmp_path / "catalog.sqlite"
        with connect(path) as conn:
            conn.execute("DROP TABLE idempotency")
            conn.execute("UPDATE meta SET value = '1' "
                         "WHERE key = 'schema_version'")
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "6"
            assert conn.scalar(
                "SELECT COUNT(*) FROM sqlite_master "
                "WHERE type = 'table' AND name = 'idempotency'") == 1

    def test_upgrades_v2_catalog_in_place(self, tmp_path):
        # A pre-PR-10 catalogue: no telemetry tables, schema_version '2'.
        path = tmp_path / "catalog.sqlite"
        with connect(path) as conn:
            conn.execute("DROP TABLE telemetry_points")
            conn.execute("UPDATE meta SET value = '2' "
                         "WHERE key = 'schema_version'")
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "6"
            assert conn.scalar(
                "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
                " AND name = 'telemetry_points'") == 1

    def test_upgrades_v3_catalog_and_drops_bench(self, tmp_path):
        # A v3 catalogue still holds the bench table that mirrored the
        # BENCH_*.json files; upgrading drops it and keeps every campaign row.
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        path = catalog_path(root)
        with connect(path) as conn:
            conn.executescript(V3_BENCH_DDL)
            assert conn.scalar(BENCH_OBJECTS) == 2
            conn.execute("UPDATE meta SET value = '3' "
                         "WHERE key = 'schema_version'")
            before = _campaign_tables(conn)
        assert before["runs"] and before["cells"] and before["jobs"]
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "6"
            assert conn.scalar(BENCH_OBJECTS) == 0
            assert _campaign_tables(conn) == before

    def test_upgrades_v4_catalog_and_drops_spans(self, tmp_path):
        # A v4 catalogue still holds the span table nothing read; upgrading
        # drops it and its index and keeps every campaign and point row.
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        path = catalog_path(root)
        with Catalog(path) as catalog:
            catalog.record_telemetry(
                "w-old", [{"name": "runner.cell.attempts", "value": 1.0}])
        with connect(path) as conn:
            conn.executescript(V4_SPANS_DDL)
            assert conn.scalar(SPAN_OBJECTS) == 2
            conn.execute("UPDATE meta SET value = '4' "
                         "WHERE key = 'schema_version'")
            before = _campaign_tables(conn)
            points = [tuple(row) for row in conn.fetchall(POINT_ROWS)]
        assert before["runs"] and before["cells"] and before["jobs"]
        assert points
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "6"
            assert conn.scalar(SPAN_OBJECTS) == 0
            assert _campaign_tables(conn) == before
            assert [tuple(row) for row in conn.fetchall(POINT_ROWS)] == points

    def test_upgrades_v5_catalog_and_drops_run_status(self, tmp_path):
        # A v5 catalogue's runs table still has the status column nothing
        # read or wrote; upgrading drops it and keeps every campaign row.
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        path = catalog_path(root)
        with connect(path) as conn:
            before = _campaign_tables(conn)
            conn.execute("ALTER TABLE runs ADD COLUMN status TEXT NOT NULL"
                         " DEFAULT 'pending'")
            conn.execute("UPDATE meta SET value = '5' "
                         "WHERE key = 'schema_version'")
        assert before["runs"] and before["cells"] and before["jobs"]
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "6"
            columns = [row[1] for row in
                       conn.fetchall("PRAGMA table_info(runs)")]
            assert "status" not in columns
            assert _campaign_tables(conn) == before
        with Catalog(path) as catalog:
            assert catalog.run_info("table1-smoke")["status"] == "complete"

    def test_upgrade_keeps_run_status_where_sqlite_cannot_drop_it(
            self, tmp_path, monkeypatch):
        # SQLite before 3.35 has no DROP COLUMN: the v5 column stays, unread,
        # and the catalogue still opens and records new campaigns.
        monkeypatch.setattr("repro.store.schema._can_drop_columns",
                            lambda conn: False)
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        path = catalog_path(root)
        with connect(path) as conn:
            conn.execute("ALTER TABLE runs ADD COLUMN status TEXT NOT NULL"
                         " DEFAULT 'pending'")
            conn.execute("UPDATE meta SET value = '5' "
                         "WHERE key = 'schema_version'")
        with connect(path) as conn:
            assert conn.scalar("SELECT value FROM meta "
                               "WHERE key = 'schema_version'") == "6"
            assert "status" in [row[1] for row in
                                conn.fetchall("PRAGMA table_info(runs)")]
        repro.run(chaos_spec({"mode": "ok", "name": "a"}), root=root)
        with Catalog(path) as catalog:
            assert {run["run_id"]: run["status"] for run in
                    catalog.list_runs()} == {"chaos-smoke": "complete",
                                             "table1-smoke": "complete"}


# --------------------------------------------------------------------------
class TestCatalog:
    def test_runner_records_campaign(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root)
        with Catalog(catalog_path(root)) as catalog:
            assert catalog.has_run("table1-smoke")
            info = catalog.run_info("table1-smoke")
            assert info["status"] == "complete"
            assert info["provenance"]["spec_hash"] == spec_hash(
                campaign.spec.to_json())
            assert info["provenance"]["seed"] == campaign.seed
            rows = catalog.rows("table1-smoke")
        assert dump_json(rows) == dump_json(campaign.rows)

    def test_catalog_disabled(self, tmp_path):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root, catalog=False)
        assert not catalog_path(root).exists()

    def test_record_cell_failure_then_recovery(self, tmp_path):
        spec = chaos_spec({"mode": "flaky", "name": "a", "fails": 1})
        root = tmp_path / "runs"
        first = repro.run(spec, out_dir=root / "chaos-smoke", strict=False)
        assert first.failed == 1
        with Catalog(catalog_path(root)) as catalog:
            statuses = catalog.cell_statuses("chaos-smoke")
            assert statuses[0]["status"] == "failed"
            assert statuses[0]["attempts"] == 1
        second = repro.run(spec, out_dir=root / "chaos-smoke", strict=False)
        assert second.completed == 1
        with Catalog(catalog_path(root)) as catalog:
            statuses = catalog.cell_statuses("chaos-smoke")
            assert statuses[0]["status"] == "completed"
            assert catalog.run_info("chaos-smoke")["status"] == "complete"

    def test_metrics_exploded_for_query(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root)
        with Catalog(catalog_path(root)) as catalog:
            rows = aggregate_metric(catalog, "accuracy", by="attack_category")
        assert len(rows) == len(campaign.rows)
        for row in rows:
            assert row["n"] == 1

    def test_run_status_rule(self):
        assert run_status({"completed": 3}) == "complete"
        assert run_status({"completed": 2, "timeout": 1}) == "failed"
        assert run_status({"failed": 1, "interrupted": 1}) == "failed"
        # An interrupted cell resumes from its checkpoint: not a failure.
        assert run_status({"interrupted": 1, "pending": 2}) == "in-flight"
        assert run_status({"completed": 1, "pending": 2}) == "in-flight"
        assert run_status({"pending": 3}) == run_status({}) == "pending"

    def test_code_version_resolves_in_repo(self):
        version = code_version(REPO_ROOT)
        assert version == "unknown" or len(version) == 40


# --------------------------------------------------------------------------
class TestJobQueue:
    def _submitted(self, tmp_path, cells=2, max_attempts=1):
        spec = chaos_spec(*({"mode": "ok", "name": f"c{i}"}
                            for i in range(cells)))
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root,
                                     max_attempts=max_attempts)
        catalog = Catalog(catalog_path(root))
        return submission, catalog, JobQueue(catalog)

    def test_claim_orders_by_cell_index(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path)
        try:
            first = queue.claim("w1")
            second = queue.claim("w2")
            assert (first.cell_index, second.cell_index) == (0, 1)
            assert queue.claim("w3") is None
        finally:
            catalog.close()

    def test_complete_requires_live_lease(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path)
        try:
            job = queue.claim("w1")
            assert queue.complete(job, "imposter") is False
            assert queue.complete(job, "w1") is True
            assert queue.counts(submission.run_id)["done"] == 1
        finally:
            catalog.close()

    def test_release_returns_to_pending_then_fails(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1,
                                                     max_attempts=2)
        try:
            job = queue.claim("w1")
            assert queue.release(job, "w1", error="boom") == "pending"
            job = queue.claim("w1")
            assert job.attempts == 2
            assert queue.release(job, "w1", error="boom") == "failed"
            assert queue.outstanding(submission.run_id) == 0
        finally:
            catalog.close()

    def test_expired_lease_is_reclaimed(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1", lease_ttl=-1)  # born expired
            reclaimed = queue.claim("w2")
            assert reclaimed is not None
            assert reclaimed.reclaimed_from == "w1"
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "reclaimed"]
            # The dead worker's late completion must be rejected.
            assert queue.complete(job, "w1") is False
            assert queue.complete(reclaimed, "w2") is True
        finally:
            catalog.close()

    def test_heartbeat_extends_and_detects_loss(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1", lease_ttl=60)
            assert queue.heartbeat(job, "w1", lease_ttl=60) is True
            assert queue.heartbeat(job, "imposter", lease_ttl=60) is False
        finally:
            catalog.close()

    def test_interrupted_release_gives_the_claim_back(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            for _ in range(3):
                job = queue.claim("w1")
                assert job.attempts == 1
                assert queue.release(job, "w1", status="interrupted",
                                     error="killed") == "pending"
            assert queue.counts(submission.run_id) == {"pending": 1}
            assert catalog.conn.scalar(
                "SELECT attempts FROM jobs WHERE run_id = ?",
                (submission.run_id,)) == 0
            cell = catalog.cell_statuses(submission.run_id)[0]
            assert (cell["status"], cell["attempts"]) == ("interrupted", 0)
        finally:
            catalog.close()

    @pytest.mark.parametrize("status", ["failed", "timeout"])
    def test_release_after_budget_exhausted_is_terminal(self, tmp_path,
                                                        status):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1")
            assert job.attempts == 1
            assert queue.release(job, "w1", status=status,
                                 error="boom") == "failed"
            # The job is retired: a second release of the same handle is a
            # no-op (no lease to give back, no duplicate event), and nothing
            # is claimable.
            queue.release(job, "w1", error="boom again")
            assert queue.claim("w2") is None
            assert queue.counts(submission.run_id) == {"failed": 1}
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "failed"]
        finally:
            catalog.close()

    def test_release_by_non_owner_is_ignored(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            queue.claim("w1", lease_ttl=60)
            assert queue.release(Job(run_id=submission.run_id, cell_index=0,
                                     payload={"max_attempts": 1},
                                     attempts=1), "imposter",
                                 error="not mine") is None
            assert queue.counts(submission.run_id) == {"leased": 1}
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed"]
            [cell] = catalog.cell_statuses(submission.run_id)
            assert (cell["status"], cell["error"]) == ("pending", None)
        finally:
            catalog.close()

    def test_double_complete_applies_once(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            job = queue.claim("w1")
            assert queue.complete(job, "w1") is True
            assert queue.complete(job, "w1") is False
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "completed"]
        finally:
            catalog.close()

    def test_lost_ownership_heartbeat_and_complete_rejected(self, tmp_path):
        submission, catalog, queue = self._submitted(tmp_path, cells=1)
        try:
            stale = queue.claim("loser", lease_ttl=-1)  # born expired
            reclaimed = queue.claim("winner", lease_ttl=60)
            assert reclaimed.reclaimed_from == "loser"
            assert queue.owns(stale, "loser") is False
            assert queue.heartbeat(stale, "loser") is False
            assert queue.complete(stale, "loser") is False
            assert queue.complete(reclaimed, "winner") is True
            events = [e["event"] for e in
                      queue.lease_events(submission.run_id)]
            assert events == ["claimed", "reclaimed", "completed"]
        finally:
            catalog.close()


def _cell_snapshot(root, run_id):
    """Everything a late release must leave alone: the cell row, its metric
    rows, the job state, and the lease events."""
    with Catalog(catalog_path(root)) as catalog:
        queue = JobQueue(catalog)
        return {"cells": catalog.cell_statuses(run_id),
                "rows": catalog.rows(run_id),
                "metrics": [tuple(row) for row in catalog.conn.fetchall(
                    "SELECT cell_index, key, value_num, value_text"
                    " FROM metrics WHERE run_id = ? ORDER BY cell_index, key",
                    (run_id,))],
                "jobs": queue.counts(run_id),
                "events": queue.lease_events(run_id)}


class TestStaleRelease:
    """A's lease expires, B reclaims and completes the cell, then A releases
    it as failed: through either backend, B's row must survive."""

    @pytest.mark.parametrize("transport", ["local", "http"])
    def test_stale_release_keeps_the_winners_cell(self, tmp_path, transport):
        root = tmp_path / "runs"
        run_id = submit_campaign(chaos_spec({"mode": "ok", "name": "c0"}),
                                 root=root).run_id
        server = None
        if transport == "http":
            server = make_server(root, port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            url = f"http://127.0.0.1:{server.server_address[1]}"
            a, b = (_RemoteBackend(url, name, local_root=tmp_path / name,
                                   timeout=5.0, retries=1, backoff=0.01)
                    for name in ("A", "B"))
        else:
            a, b = (_LocalBackend(catalog_path(root), name)
                    for name in ("A", "B"))
        try:
            stale = a.claim(run_id, lease_ttl=-1)  # born expired
            fresh = b.claim(run_id, lease_ttl=60)
            assert fresh.reclaimed_from == "A"
            assert b.complete(fresh, "completed", {"name": "c0", "value": 7},
                              0.5) is True
            before = _cell_snapshot(root, run_id)
            assert a.release(stale, "failed", "boom") is None
            if server is not None:
                response = a.client.release(run_id, 0, status="failed",
                                            error="boom")
                assert response["applied"] is False
        finally:
            a.close()
            b.close()
            if server is not None:
                server.shutdown()
                server.server_close()
        after = _cell_snapshot(root, run_id)
        assert after == before
        assert after["cells"][0]["status"] == "completed"
        assert after["rows"] == [{"name": "c0", "value": 7}]
        assert after["metrics"] and after["jobs"] == {"done": 1}


# --------------------------------------------------------------------------
class TestWorkerDrain:
    def test_single_worker_drains_and_finalizes(self, tmp_path):
        root = tmp_path / "runs"
        submission = submit_campaign("table1", scale="smoke", root=root)
        summary = work(root=root, worker_id="w1")
        assert summary.completed == submission.cells
        assert (submission.out_dir / "results.json").exists()

    def test_two_workers_bit_identical_to_serial(self, tmp_path):
        spec = chaos_spec(*({"mode": "ok", "name": f"c{i}", "offset": i}
                            for i in range(6)))
        serial_root = tmp_path / "serial"
        queue_root = tmp_path / "queued"
        repro.run(spec, seed=3, root=serial_root)
        submission = submit_campaign(spec, seed=3, root=queue_root)

        summaries = [None, None]

        def drain(slot: int) -> None:
            summaries[slot] = work(root=queue_root,
                                   worker_id=f"w{slot}", poll_seconds=0.05)

        threads = [threading.Thread(target=drain, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(s is not None for s in summaries)
        assert sum(s.completed for s in summaries) == submission.cells
        serial_results = (serial_root / "chaos-smoke-seed3"
                          / "results.json").read_bytes()
        queued_results = (submission.out_dir / "results.json").read_bytes()
        assert queued_results == serial_results

    def test_failed_cell_exhausts_queue_budget(self, tmp_path):
        spec = chaos_spec({"mode": "fail", "name": "a"})
        root = tmp_path / "runs"
        submit_campaign(spec, root=root, max_attempts=2)
        summary = work(root=root, worker_id="w1", poll_seconds=0.05)
        assert summary.failed == 1
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            assert queue.counts("chaos-smoke") == {"failed": 1}
            events = [e["event"] for e in queue.lease_events("chaos-smoke")]
        assert events == ["claimed", "released", "claimed", "failed"]

    def test_submit_is_idempotent(self, tmp_path):
        root = tmp_path / "runs"
        first = submit_campaign("table1", scale="smoke", root=root)
        again = submit_campaign("table1", scale="smoke", root=root)
        assert first.enqueued == first.cells
        assert again.enqueued == 0  # jobs already queued


# --------------------------------------------------------------------------
class TestKilledWorkerReclaim:
    def test_lease_reclaimed_after_worker_kill(self, tmp_path):
        """Kill a worker mid-cell; a second worker reclaims and finishes."""
        spec = chaos_spec({"mode": "sleep_once", "name": "a", "seconds": 60},
                          {"mode": "ok", "name": "b"})
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", "--root", str(root),
             "--worker-id", "victim", "--lease-ttl", "2"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait until the victim holds the sleeping cell's lease.
            deadline = time.perf_counter() + 30
            while time.perf_counter() < deadline:
                with Catalog(catalog_path(root)) as catalog:
                    events = JobQueue(catalog).lease_events("chaos-smoke")
                if any(e["event"] == "claimed" and e["worker"] == "victim"
                       for e in events):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("victim worker never claimed a cell")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            # Second worker: waits out the dead lease, reclaims, finishes.
            summary = work(root=root, worker_id="rescuer", lease_ttl=2,
                           poll_seconds=0.1)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        assert summary.reclaimed >= 1
        assert (submission.out_dir / "results.json").exists()
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            events = queue.lease_events("chaos-smoke")
            assert any(e["event"] == "reclaimed"
                       and e["worker"] == "rescuer" for e in events)
            assert queue.outstanding("chaos-smoke") == 0
            assert catalog.run_info("chaos-smoke")["status"] == "complete"


# --------------------------------------------------------------------------
class TestWorkerSignals:
    """SIGTERM mid-cell: exit non-zero, lease released, job back to pending."""

    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_sigterm_releases_lease_and_exits_nonzero(self, tmp_path, mode):
        spec = chaos_spec({"mode": "sleep", "name": "a", "seconds": 60})
        root = tmp_path / "runs"
        submit_campaign(spec, root=root)

        server = None
        argv = [sys.executable, "-m", "repro", "work",
                "--run-id", "chaos-smoke", "--worker-id", "doomed"]
        if mode == "remote":
            server = make_server(root, port=0)
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
            argv += ["--root", str(tmp_path / "worker-host"), "--server",
                     f"http://127.0.0.1:{server.server_address[1]}",
                     "--client-backoff", "0.05"]
        else:
            argv += ["--root", str(root)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        doomed = subprocess.Popen(argv, env=env, cwd=REPO_ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.perf_counter() + 30
            while time.perf_counter() < deadline:
                with Catalog(catalog_path(root)) as catalog:
                    events = JobQueue(catalog).lease_events("chaos-smoke")
                if any(e["event"] == "claimed" for e in events):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("worker never claimed the sleeping cell")
            time.sleep(0.3)  # let it get into the cell body
            doomed.send_signal(signal.SIGTERM)
            stdout, _stderr = doomed.communicate(timeout=30)
        finally:
            if doomed.poll() is None:
                doomed.kill()
                doomed.wait()
            if server is not None:
                server.shutdown()
                server.server_close()
        assert doomed.returncode == 3
        summary = json.loads(stdout)
        assert summary["interrupted"] is True
        assert summary["released"] == 1
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            events = queue.lease_events("chaos-smoke")
            assert [e["event"] for e in events
                    if e["event"] != "heartbeat"] == ["claimed", "released"]
            state = catalog.conn.scalar(
                "SELECT state FROM jobs WHERE run_id = 'chaos-smoke'")
        assert state == "pending"  # immediately reclaimable, no TTL wait


# --------------------------------------------------------------------------
class TestQuery:
    def test_aggregate_matches_results_json(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root)
        results = json.loads(
            (campaign.out_dir / "results.json").read_text())
        expected = sum(r["accuracy"] for r in results["rows"]) / len(
            results["rows"])
        with Catalog(catalog_path(root)) as catalog:
            by_run = aggregate_metric(catalog, "accuracy", by="run")
        assert len(by_run) == 1
        assert by_run[0]["group"] == "table1-smoke"
        assert by_run[0]["n"] == len(results["rows"])
        assert by_run[0]["mean"] == pytest.approx(expected)

    def test_group_by_param_across_runs(self, tmp_path):
        root = tmp_path / "runs"
        spec_a = chaos_spec({"mode": "ok", "name": "x", "offset": 1},
                            {"mode": "ok", "name": "y", "offset": 5})
        repro.run(spec_a, seed=0, root=root)
        repro.run(spec_a, seed=10, root=root)
        with Catalog(catalog_path(root)) as catalog:
            rows = aggregate_metric(catalog, "value", by="name")
        by_group = {r["group"]: r for r in rows}
        assert by_group["x"]["n"] == 2
        assert by_group["x"]["mean"] == pytest.approx((1 + 11) / 2)
        assert by_group["y"]["mean"] == pytest.approx((5 + 15) / 2)

    def test_format_rows_csv_and_json(self):
        rows = [{"group": "a", "n": 1, "mean": 0.5, "min": 0.5, "max": 0.5}]
        csv_text = format_rows(rows, "csv")
        assert csv_text.splitlines()[0] == "group,n,mean,min,max"
        assert json.loads(format_rows(rows, "json")) == rows
        with pytest.raises(ValueError):
            format_rows(rows, "yaml")


# --------------------------------------------------------------------------
class TestIngest:
    def test_backfills_legacy_tree(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run("table1", scale="smoke", root=root,
                             catalog=False)
        assert not catalog_path(root).exists()
        summary = ingest(root=root)
        assert summary["runs"] == 1
        assert summary["cells"] == len(campaign.rows)
        with Catalog(catalog_path(root)) as catalog:
            info = catalog.run_info("table1-smoke")
            assert info["status"] == "complete"
            assert info["provenance"]["ingested_from"] == str(campaign.out_dir)
            assert dump_json(catalog.rows("table1-smoke")) == dump_json(
                campaign.rows)

    def test_failed_cells_keep_a_recorded_attempt_count(self, tmp_path):
        # error.json no longer carries an attempt count: a failed cell is
        # backfilled as charged once, unless an older record says more.
        spec = chaos_spec({"mode": "fail", "name": "a"},
                          {"mode": "fail", "name": "b"})
        root = tmp_path / "runs"
        repro.run(spec, root=root, strict=False, catalog=False)
        older = root / "chaos-smoke" / "cells" / "c01-fail-b" / "error.json"
        record = load_json(older)
        assert "attempt" not in record
        atomic_write_json(older, {**record, "attempt": 3}, indent=2)
        ingest(root=root)
        with Catalog(catalog_path(root)) as catalog:
            cells = catalog.cell_statuses("chaos-smoke")
        assert [(c["status"], c["attempts"]) for c in cells] == [
            ("failed", 1), ("failed", 3)]

    def test_reingest_keeps_the_queue_attempt_count(self, tmp_path):
        root = tmp_path / "runs"
        repro.run(chaos_spec({"mode": "fail", "name": "a"}), root=root,
                  strict=False, max_attempts=2)
        ingest(root=root)
        with Catalog(catalog_path(root)) as catalog:
            [cell] = catalog.cell_statuses("chaos-smoke")
        assert (cell["status"], cell["attempts"]) == ("failed", 2)

    def test_reingest_is_idempotent(self, tmp_path):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root, catalog=False)
        ingest(root=root)
        ingest(root=root)
        with Catalog(catalog_path(root)) as catalog:
            assert catalog.conn.scalar("SELECT COUNT(*) FROM runs") == 1
            assert catalog.conn.scalar(
                "SELECT COUNT(*) FROM cells WHERE run_id = 'table1-smoke'"
                " AND status = 'completed'") == 4


# --------------------------------------------------------------------------
@pytest.fixture
def server_root(tmp_path):
    root = tmp_path / "runs"
    repro.run("table1", scale="smoke", root=root)
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield root, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def _get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return json.loads(response.read())


class TestServer:
    def test_health_and_listing(self, server_root):
        root, port = server_root
        assert _get(port, "/api/health")["ok"] is True
        campaigns = _get(port, "/api/campaigns")["campaigns"]
        assert [c["run_id"] for c in campaigns] == ["table1-smoke"]
        assert "table1" in _get(port, "/api/experiments")["experiments"]

    def test_campaign_detail_rows_and_query(self, server_root):
        root, port = server_root
        detail = _get(port, "/api/campaigns/table1-smoke")
        assert detail["status"] == "complete"
        assert detail["provenance"]["spec_hash"]
        rows = _get(port, "/api/campaigns/table1-smoke/rows")["rows"]
        assert len(rows) == 4
        query = _get(port, "/api/query?metric=accuracy&by=attack_category")
        assert len(query["rows"]) == 4

    def test_query_rejects_parameters_it_does_not_read(self, server_root):
        root, port = server_root
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(port, "/api/query?bench=1&metric=speedup")
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert error.startswith("unknown query parameters ['bench'];")

    def test_unknown_routes_and_campaigns_404(self, server_root):
        root, port = server_root
        for path in ("/api/campaigns/nope", "/nothing/here",
                     "/api/campaigns/table1-smoke/stream"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(port, path)
            assert err.value.code == 404

    def test_submit_then_drain_then_rows(self, server_root):
        root, port = server_root
        body = json.dumps({"experiment": "fig4", "scale": "smoke"}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/campaigns", data=body,
            method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 201
            submitted = json.loads(response.read())["submitted"]
        assert submitted["run_id"] == "fig4-smoke"
        summary = work(root=root, run_id="fig4-smoke", worker_id="w1")
        assert summary.completed == submitted["cells"]
        rows = _get(port, "/api/campaigns/fig4-smoke/rows")["rows"]
        assert len(rows) == submitted["cells"]
        assert all(row is not None for row in rows)

    def test_bad_submit_rejected(self, server_root):
        root, port = server_root
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/campaigns", data=b"not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_submit_carries_the_timeout(self, server_root):
        root, port = server_root
        body = {"experiment": "fig4", "scale": "smoke", "timeout": 30}
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/campaigns",
            data=json.dumps(body).encode(), method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 201
        with Catalog(catalog_path(root)) as catalog:
            job = JobQueue(catalog).claim("w1", run_id="fig4-smoke")
        assert job.payload["timeout"] == 30.0

    def test_submit_rejects_unknown_keys(self, server_root):
        root, port = server_root
        body = {"experiment": "fig4", "scale": "smoke", "max_atempts": 2}
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/campaigns",
            data=json.dumps(body).encode(), method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert "max_atempts" in json.loads(err.value.read())["error"]
        with Catalog(catalog_path(root)) as catalog:
            assert JobQueue(catalog).counts("fig4-smoke") == {}
            assert not catalog.has_run("fig4-smoke")

    def test_health_reports_version_and_uptime(self, server_root):
        root, port = server_root
        health = _get(port, "/api/health")
        assert health["schema_version"] == 6
        assert health["started_unix"] > 1_700_000_000
        assert health["uptime_seconds"] >= 0.0
        assert health["code_version"]
        assert "queue_depth" in health

    def test_health_reports_effective_blas_threads(self, server_root):
        from repro._blas import USER_VARIABLES, blas_threads

        root, port = server_root
        health = _get(port, "/api/health")
        assert health["blas_threads"] == blas_threads()
        if blas_threads() is not None and not any(
                os.environ.get(name) for name in USER_VARIABLES):
            assert health["blas_threads"] == 1

    def test_telemetry_report_read_and_roster(self, server_root):
        from repro.store.client import StoreClient

        root, port = server_root
        client = StoreClient(f"http://127.0.0.1:{port}", worker_id="wtel")
        recorded = client.post_telemetry(
            "wtel",
            [{"name": "worker.cells.completed", "kind": "counter",
              "value": 3.0}],
            host="testhost", pid=os.getpid())
        assert recorded["recorded"] == {"points": 1}
        read = _get(port, "/api/telemetry?name=worker.cells.completed")
        assert read["points"][0]["worker"] == "wtel"
        assert read["points"][0]["value"] == 3.0
        totals = {t["name"]: t["total"] for t in read["totals"]}
        assert totals["worker.cells.completed"] == 3.0
        roster = _get(port, "/api/workers")["workers"]
        entry = next(w for w in roster if w["worker"] == "wtel")
        assert entry["alive"] is True
        assert entry["pid"] == os.getpid()

    def test_telemetry_report_ignores_an_older_workers_spans(self, server_root):
        # A worker from before spans were dropped still sends a "spans"
        # array; the server records its points and ignores the extra key.
        root, port = server_root
        body = {"worker": "wold",
                "points": [{"name": "worker.cells.completed",
                            "kind": "counter", "value": 2.0}],
                "spans": [{"name": "runner.cell", "seconds": 0.25,
                           "labels": {"cell": 0}}],
                "idempotency_key": "wold-telemetry-1"}
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/api/telemetry",
            data=json.dumps(body).encode(), method="POST")
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert json.loads(response.read())["recorded"] == {"points": 1}
        read = _get(port, "/api/telemetry?worker=wold")
        assert [(p["name"], p["value"]) for p in read["points"]] == [
            ("worker.cells.completed", 2.0)]


# --------------------------------------------------------------------------
class TestCLI:
    def test_status_prefers_catalogue(self, tmp_path, capsys):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        assert cli_main(["status", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "table1-smoke" in out and "catalogue" in out

    def test_query_and_list_keys(self, tmp_path, capsys):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        assert cli_main(["query", "accuracy", "--by", "attack_category",
                         "--root", str(root), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("group,n,mean,min,max")
        assert cli_main(["query", "--list-keys", "--root", str(root)]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_query_without_catalog_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["query", "accuracy",
                         "--root", str(tmp_path / "nope")]) == 1

    def test_submit_work_roundtrip(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert cli_main(["submit", "table1", "--scale", "smoke",
                         "--root", str(root)]) == 0
        assert "4 job(s)" in capsys.readouterr().out
        assert cli_main(["work", "--root", str(root)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] == 4
        assert (root / "table1-smoke" / "results.json").exists()

    @staticmethod
    def _local_run_imports(tmp_path, module: str) -> str:
        """Whether a fresh interpreter's ``repro.run()`` imported ``module``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        probe = ("import sys, repro; repro.run('table1', scale='smoke'); "
                 f"print({module!r} in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                cwd=tmp_path, capture_output=True, text=True,
                                check=True)
        assert (tmp_path / "runs" / "table1-smoke" / "results.json").exists()
        return result.stdout.strip()

    def test_local_run_does_not_import_http_server(self, tmp_path):
        assert self._local_run_imports(tmp_path, "http.server") == "False"

    def test_local_run_does_not_import_http_client(self, tmp_path):
        assert self._local_run_imports(tmp_path, "http.client") == "False"

    def test_store_ingest(self, tmp_path, capsys):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root, catalog=False)
        # status reads only the catalogue, and names the way to make one
        assert cli_main(["status", "--root", str(root)]) == 1
        assert "'repro store ingest' first" in capsys.readouterr().err
        assert cli_main(["store", "ingest", "--root", str(root)]) == 0
        assert "1 run(s)" in capsys.readouterr().out
        assert cli_main(["status", "--root", str(root)]) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("table1-smoke")]
        assert line.split()[3] == "4/4" and line.split()[-1] == "complete"

    def test_status_watch_reprints_until_interrupted(self, tmp_path,
                                                     capsys, monkeypatch):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        ticks = iter([None, None])

        def fake_sleep(seconds):
            assert seconds == 1.0
            if next(ticks, "done") == "done":
                raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", fake_sleep)
        assert cli_main(["status", "--root", str(root), "--watch", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("table1-smoke") == 3  # one table per tick
        assert "refreshing every 1s" in out

    def test_status_watch_polls_until_a_catalogue_exists(self, tmp_path,
                                                         capsys, monkeypatch):
        root = tmp_path / "runs"
        ticks = iter(["run", "stop"])

        def fake_sleep(seconds):
            if next(ticks) == "run":
                repro.run("table1", scale="smoke", root=root)
            else:
                raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", fake_sleep)
        assert cli_main(["status", "--root", str(root), "--watch", "1"]) == 0
        captured = capsys.readouterr()
        assert "'repro store ingest' first" in captured.err
        assert captured.out.count("table1-smoke") == 1  # the second tick

    def test_status_shows_workers_column_while_draining(self, tmp_path,
                                                        capsys):
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "ok", "name": "b"})
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root)

        def header(text):
            return next(l for l in text.splitlines()
                        if l.startswith("campaign"))

        assert cli_main(["status", "--root", str(root)]) == 0
        assert "workers" not in header(capsys.readouterr().out)  # none leased
        with Catalog(catalog_path(root)) as catalog:
            JobQueue(catalog).claim("w1")
            assert cli_main(["status", "--root", str(root)]) == 0
            out = capsys.readouterr().out
        assert "workers" in header(out)
        line = next(l for l in out.splitlines()
                    if l.startswith(submission.run_id))
        assert " 1 " in line  # one distinct worker holds a lease

    def test_top_once_local_and_server(self, tmp_path, capsys):
        root = tmp_path / "runs"
        repro.run("table1", scale="smoke", root=root)
        assert cli_main(["top", "--root", str(root), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "table1-smoke" in out
        assert "[" in out and "4/4" in out  # the progress bar

        server = make_server(root, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            assert cli_main(["top", "--server",
                             f"http://127.0.0.1:{port}", "--once"]) == 0
        finally:
            server.shutdown()
            server.server_close()
        out = capsys.readouterr().out
        assert "table1-smoke" in out and "schema=v6" in out

    def test_top_without_catalog_reports_error_frame(self, tmp_path, capsys):
        assert cli_main(["top", "--root", str(tmp_path / "nope"),
                         "--once"]) == 0
        assert "no catalogue" in capsys.readouterr().out
