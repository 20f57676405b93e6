"""The run catalogue: transactional recording + reading of campaign state.

A :class:`Catalog` wraps the shared :class:`~repro.store.connection
.StoreConnection` with the operations the runner, the queue workers, the
HTTP server, and the CLI share:

* **recording** — ``record_campaign`` registers a run with its provenance
  (code version, spec hash, seed, fault-plan hash) and one pending row per
  cell; ``record_cell`` lands a cell outcome *and* its exploded metric rows
  in one transaction, so a reader never observes a cell whose row JSON and
  metrics disagree;
* **reading** — run listings, per-run cell status (including cumulative
  attempt counts), and the ordered finished rows that must match the
  artifact tree's ``results.json`` byte-for-byte.

The catalogue is a *second durable backend*, not a replacement: the artifact
tree under ``runs/<id>/`` stays the source of truth for resume (checkpoints,
memos, quarantine), while the catalogue is the queryable index across runs.
Both are populated by the same code paths, and ``repro store ingest``
backfills the catalogue from any legacy tree.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.jsonio import dump_json
from repro.store.connection import (
    CATALOG_NAME,
    StoreConnection,
    catalog_path,
    connect,
)

#: Outcome statuses that count as a finished cell (mirrors the runner's).
FINISHED_STATUSES = ("completed", "cached")

#: Cell statuses that make a campaign read ``failed``.  An ``interrupted``
#: cell is not one: re-running ``repro run``/``repro submit`` on the
#: campaign resumes it from its checkpoint.
FAILED_STATUSES = ("failed", "timeout")


def run_status(counts: Mapping[str, int]) -> str:
    """A campaign's status from its number of cells per cell status."""
    total = sum(counts.values())
    if total and counts.get("completed") == total:
        return "complete"
    if any(counts.get(status) for status in FAILED_STATUSES):
        return "failed"
    if counts.get("completed") or counts.get("interrupted"):
        return "in-flight"
    return "pending"


def spec_hash(spec_json: str) -> str:
    """SHA-256 of a spec's canonical JSON — the provenance identity."""
    return hashlib.sha256(spec_json.encode("utf-8")).hexdigest()


def fault_plan_hash(plan: Optional[Mapping[str, Any]]) -> Optional[str]:
    if plan is None:
        return None
    return hashlib.sha256(
        json.dumps(plan, sort_keys=True).encode("utf-8")).hexdigest()


def code_version(repo_root: Optional[Path] = None) -> str:
    """The current git commit (read from ``.git`` directly; no subprocess).

    Falls back to ``"unknown"`` outside a git checkout — provenance then
    still carries the spec hash and seed.
    """
    root = Path(repo_root) if repo_root is not None else Path(
        __file__).resolve().parents[3]
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref:"):
            ref = root / ".git" / text.split(None, 1)[1]
            if ref.exists():
                return ref.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(text.split(None, 1)[1]):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def _metric_pairs(params: Mapping[str, Any],
                  row: Optional[Mapping[str, Any]]) -> List[tuple]:
    """``(key, value_num, value_text)`` rows for one cell (row wins on clash)."""
    merged: Dict[str, Any] = dict(params)
    if row:
        merged.update(row)
    pairs = []
    for key, value in merged.items():
        if isinstance(value, bool):
            pairs.append((key, None, str(value)))
        elif isinstance(value, (int, float)):
            pairs.append((key, float(value), None))
        elif value is None:
            pairs.append((key, None, None))
        elif isinstance(value, str):
            pairs.append((key, None, value))
        else:  # nested structures: store their JSON text form
            pairs.append((key, None, dump_json(value)))
    return pairs


class Catalog:
    """High-level catalogue operations over one ``catalog.sqlite`` file."""

    def __init__(self, path: Path, check_same_thread: bool = True):
        self.path = Path(path)
        self.conn: StoreConnection = connect(
            self.path, check_same_thread=check_same_thread)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------- recording
    def record_campaign(self, run_id: str, spec: Any, scale_name: str,
                        seed: int, out_dir: Path,
                        cells: Sequence[Mapping[str, Any]],
                        slugs: Sequence[str],
                        fault_plan: Optional[Mapping[str, Any]] = None,
                        manifest_version: int = 1,
                        ingested_from: Optional[str] = None) -> None:
        """Register (or re-register, idempotently) one campaign.

        ``spec`` is an :class:`~repro.runs.spec.ExperimentSpec` (anything
        with ``experiment_id`` and ``to_json()``).  Existing cell rows keep
        their recorded outcomes; only missing cells are inserted as pending.
        """
        spec_json = spec.to_json()
        now = self.conn.now()
        with self.conn.transaction():
            self.conn.execute(
                "INSERT INTO runs (run_id, experiment, scale, seed, out_dir,"
                " spec_json, cells, created_unix, updated_unix)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(run_id) DO UPDATE SET out_dir = excluded.out_dir,"
                " updated_unix = excluded.updated_unix",
                (run_id, spec.experiment_id, scale_name, int(seed),
                 str(out_dir), spec_json, len(cells), now, now))
            self.conn.execute(
                "INSERT OR REPLACE INTO provenance (run_id, code_version,"
                " spec_hash, seed, fault_plan_hash, manifest_version,"
                " ingested_from) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (run_id, code_version(), spec_hash(spec_json), int(seed),
                 fault_plan_hash(fault_plan), int(manifest_version),
                 ingested_from))
            self.conn.executemany(
                "INSERT OR IGNORE INTO cells (run_id, cell_index, slug,"
                " params_json, status) VALUES (?, ?, ?, ?, 'pending')",
                [(run_id, index, slugs[index], dump_json(params))
                 for index, params in enumerate(cells)])

    def record_cell(self, run_id: str, index: int,
                    params: Mapping[str, Any], status: str,
                    row: Optional[Mapping[str, Any]] = None,
                    error: Optional[str] = None,
                    attempts: int = 0,
                    elapsed_seconds: Optional[float] = None) -> None:
        """Land one cell outcome + its metric rows in a single transaction."""
        cell_status = "completed" if status in FINISHED_STATUSES else status
        row_json = dump_json(row) if row is not None else None
        now = self.conn.now()
        with self.conn.transaction():
            self.conn.execute(
                "UPDATE cells SET status = ?, attempts = ?,"
                " elapsed_seconds = ?, row_json = ?, error = ?,"
                " recorded_unix = ? WHERE run_id = ? AND cell_index = ?",
                (cell_status, int(attempts), elapsed_seconds, row_json,
                 error, now, run_id, int(index)))
            self.conn.execute(
                "DELETE FROM metrics WHERE run_id = ? AND cell_index = ?",
                (run_id, int(index)))
            if row is not None:
                self.conn.executemany(
                    "INSERT OR REPLACE INTO metrics (run_id, cell_index, key,"
                    " value_num, value_text) VALUES (?, ?, ?, ?, ?)",
                    [(run_id, int(index), key, num, text)
                     for key, num, text in _metric_pairs(params, row)])
            self.conn.execute(
                "UPDATE runs SET updated_unix = ? WHERE run_id = ?",
                (now, run_id))

    # ----------------------------------------------------------- idempotency
    def idempotent_replay(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        """The recorded response for an idempotency key (None when unseen).

        Call inside the same :meth:`~repro.store.connection.StoreConnection
        .transaction` that would apply the mutation: seen key -> return the
        stored response without re-applying; unseen key -> apply, then
        :meth:`idempotent_record` the response before the commit.
        """
        if key is None:
            return None
        row = self.conn.fetchone(
            "SELECT response_json FROM idempotency WHERE key = ?", (key,))
        return json.loads(row["response_json"]) if row is not None else None

    def idempotent_record(self, key: Optional[str], endpoint: str,
                          response: Mapping[str, Any]) -> None:
        """Record a mutation's response under its idempotency key."""
        if key is None:
            return
        self.conn.execute(
            "INSERT OR REPLACE INTO idempotency (key, endpoint,"
            " response_json, at_unix) VALUES (?, ?, ?,"
            " CAST(strftime('%s','now') AS INTEGER))",
            (key, endpoint, dump_json(response)))

    # --------------------------------------------------------------- reading
    def has_run(self, run_id: str) -> bool:
        return self.conn.scalar(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)) is not None

    def list_runs(self) -> List[Dict[str, Any]]:
        """Every recorded run with its progress counters and its status,
        derived here from the cell statuses (see :func:`run_status`)."""
        counts: Dict[str, Dict[str, int]] = {}
        for row in self.conn.fetchall(
                "SELECT run_id, status, COUNT(*) AS n FROM cells"
                " GROUP BY run_id, status"):
            counts.setdefault(row["run_id"], {})[row["status"]] = row["n"]
        runs = []
        for row in self.conn.fetchall(
                "SELECT r.run_id, r.experiment, r.scale, r.seed, r.out_dir,"
                " r.cells, COALESCE(SUM(c.attempts), 0) AS attempts"
                " FROM runs r LEFT JOIN cells c ON c.run_id = r.run_id"
                " GROUP BY r.run_id ORDER BY r.run_id"):
            cells = counts.get(row["run_id"], {})
            runs.append(dict(row, status=run_status(cells),
                             completed=cells.get("completed", 0),
                             failed=sum(cells.get(status, 0)
                                        for status in FAILED_STATUSES)))
        return runs

    def run_info(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One run's record + provenance + per-cell statuses (None if
        absent); the status is derived from the cells, as in :meth:`list_runs`."""
        run = self.conn.fetchone(
            "SELECT run_id, experiment, scale, seed, out_dir, cells,"
            " created_unix, updated_unix FROM runs WHERE run_id = ?",
            (run_id,))
        if run is None:
            return None
        info = dict(run)
        provenance = self.conn.fetchone(
            "SELECT code_version, spec_hash, seed, fault_plan_hash,"
            " manifest_version, ingested_from FROM provenance"
            " WHERE run_id = ?", (run_id,))
        info["provenance"] = dict(provenance) if provenance else None
        info["cell_statuses"] = self.cell_statuses(run_id)
        info["status"] = run_status(
            Counter(cell["status"] for cell in info["cell_statuses"]))
        return info

    def cell_statuses(self, run_id: str) -> List[Dict[str, Any]]:
        rows = self.conn.fetchall(
            "SELECT cell_index, slug, params_json, status, attempts,"
            " elapsed_seconds, error FROM cells WHERE run_id = ?"
            " ORDER BY cell_index", (run_id,))
        out = []
        for row in rows:
            record = dict(row)
            record["params"] = json.loads(record.pop("params_json"))
            out.append(record)
        return out

    def rows(self, run_id: str) -> List[Optional[Dict[str, Any]]]:
        """The campaign's finished rows in cell order (None where missing)."""
        records = self.conn.fetchall(
            "SELECT row_json FROM cells WHERE run_id = ? ORDER BY cell_index",
            (run_id,))
        return [json.loads(r["row_json"]) if r["row_json"] is not None
                else None for r in records]

    # ------------------------------------------------------------- telemetry
    def record_telemetry(self, worker: str, points: Sequence[Mapping[str, Any]],
                         host: Optional[str] = None,
                         pid: Optional[int] = None) -> Dict[str, int]:
        """Land one telemetry flush batch of points transactionally.

        Points are delta snapshots (see ``repro.telemetry``); ``at_unix`` is
        stamped here with the catalogue's SQL clock so all reporters share
        one timeline regardless of their local clocks.
        """
        now = self.conn.now()
        with self.conn.transaction():
            self.conn.executemany(
                "INSERT INTO telemetry_points (worker, host, pid, name, kind,"
                " value, count, buckets_json, labels_json, at_unix)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(worker, host, pid, p["name"], p.get("kind", "counter"),
                  float(p.get("value", 0.0)),
                  int(p["count"]) if p.get("count") is not None else None,
                  dump_json(p["buckets"]) if p.get("buckets") else None,
                  dump_json(p["labels"]) if p.get("labels") else None,
                  now) for p in points])
        return {"points": len(points)}

    def telemetry_points(self, name: Optional[str] = None,
                         worker: Optional[str] = None,
                         limit: int = 100) -> List[Dict[str, Any]]:
        """Most-recent-first telemetry points, optionally filtered."""
        rows = self.conn.fetchall(
            "SELECT point_id, worker, host, pid, name, kind, value, count,"
            " buckets_json, labels_json, at_unix FROM telemetry_points"
            " WHERE (?1 IS NULL OR name = ?1) AND (?2 IS NULL OR worker = ?2)"
            " ORDER BY point_id DESC LIMIT ?3",
            (name, worker, int(limit)))
        out = []
        for row in rows:
            record = dict(row)
            buckets = record.pop("buckets_json")
            labels = record.pop("labels_json")
            record["buckets"] = json.loads(buckets) if buckets else None
            record["labels"] = json.loads(labels) if labels else None
            out.append(record)
        return out

    def telemetry_totals(self, since_unix: Optional[int] = None) -> List[Dict[str, Any]]:
        """Counter deltas summed per metric name (the dashboard's ticker)."""
        rows = self.conn.fetchall(
            "SELECT name, SUM(value) AS total, COUNT(*) AS flushes,"
            " MAX(at_unix) AS last_unix FROM telemetry_points"
            " WHERE kind = 'counter' AND (?1 IS NULL OR at_unix >= ?1)"
            " GROUP BY name ORDER BY name",
            (None if since_unix is None else int(since_unix),))
        return [dict(row) for row in rows]

    def active_workers_by_run(self) -> Dict[str, int]:
        """Distinct workers currently holding a lease, per run (``status``)."""
        return {row["run_id"]: int(row["n"]) for row in self.conn.fetchall(
            "SELECT run_id, COUNT(DISTINCT worker) AS n FROM jobs"
            " WHERE state = 'leased' AND worker IS NOT NULL"
            " GROUP BY run_id")}

    def worker_roster(self, stale_seconds: int = 120) -> List[Dict[str, Any]]:
        """Live worker roster joined from leases, lease events, telemetry.

        One entry per worker ever seen in ``lease_events`` or
        ``telemetry_points``: identity (host/pid from its latest telemetry
        flush), the cell it currently holds a lease on, last-seen time, and
        completion counts — including a completions-per-minute rate over the
        trailing ``stale_seconds`` window.
        """
        now = self.conn.now()
        workers: Dict[str, Dict[str, Any]] = {}
        for row in self.conn.fetchall(
                "SELECT worker, MAX(at_unix) AS last_seen,"
                " SUM(CASE WHEN event = 'completed' THEN 1 ELSE 0 END)"
                "   AS completed,"
                " SUM(CASE WHEN event = 'claimed' THEN 1 ELSE 0 END)"
                "   AS claimed,"
                " SUM(CASE WHEN event = 'completed' AND at_unix >= ?"
                "   THEN 1 ELSE 0 END) AS recent_completed"
                " FROM lease_events WHERE worker IS NOT NULL"
                " GROUP BY worker", (now - int(stale_seconds),)):
            workers[row["worker"]] = {
                "worker": row["worker"],
                "host": None,
                "pid": None,
                "last_seen_unix": int(row["last_seen"]),
                "completed": int(row["completed"]),
                "claimed": int(row["claimed"]),
                "cells_per_minute": round(
                    60.0 * int(row["recent_completed"]) / max(1, stale_seconds),
                    3),
                "current": None,
            }
        for row in self.conn.fetchall(
                "SELECT worker, host, pid, MAX(at_unix) AS last_flush"
                " FROM telemetry_points GROUP BY worker"):
            entry = workers.setdefault(row["worker"], {
                "worker": row["worker"], "host": None, "pid": None,
                "last_seen_unix": 0, "completed": 0, "claimed": 0,
                "cells_per_minute": 0.0, "current": None,
            })
            entry["host"] = row["host"]
            entry["pid"] = row["pid"]
            entry["last_seen_unix"] = max(
                entry["last_seen_unix"], int(row["last_flush"]))
        for row in self.conn.fetchall(
                "SELECT worker, run_id, cell_index, lease_expires_unix"
                " FROM jobs WHERE state = 'leased' AND worker IS NOT NULL"):
            entry = workers.get(row["worker"])
            if entry is None:
                continue
            entry["current"] = {
                "run_id": row["run_id"],
                "cell_index": int(row["cell_index"]),
                "lease_expires_unix": int(row["lease_expires_unix"])
                if row["lease_expires_unix"] is not None else None,
            }
        roster = []
        for entry in workers.values():
            entry["age_seconds"] = now - entry["last_seen_unix"]
            entry["alive"] = entry["age_seconds"] <= stale_seconds
            roster.append(entry)
        roster.sort(key=lambda e: e["worker"])
        return roster


__all__ = [
    "CATALOG_NAME",
    "Catalog",
    "catalog_path",
    "code_version",
    "fault_plan_hash",
    "spec_hash",
]
