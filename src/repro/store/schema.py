"""Catalogue schema: runs, cells, metrics, provenance, queue, telemetry.

One single-file SQLite database (WAL mode) holds everything the campaign
service knows:

``runs``
    One row per campaign: experiment/scale/seed, the artifact directory, the
    full :class:`~repro.runs.spec.ExperimentSpec` JSON.  A campaign's
    status is not stored: every reader derives it from its cells
    (:func:`repro.store.catalog.run_status`).
``provenance``
    What produced a run: code version (git commit when available), the
    SHA-256 of the spec JSON, the campaign seed, and the fault-plan hash (if
    chaos was injected) — enough to detect "same campaign id, different
    code/spec" across ingests.
``cells``
    One row per campaign cell: params, status, attempt count (the queue
    claims charged to the cell; an interrupted claim is given back),
    elapsed seconds, and the finished row JSON (the same bytes that live in
    the cell's ``result.json``).
``metrics``
    The cells' rows exploded into key/value pairs (numbers in ``value_num``,
    everything else in ``value_text``), plus the cell params — this is the
    table ``repro query`` aggregates across runs.
``jobs`` / ``lease_events``
    The cooperative work queue: one job per submitted cell with a lease
    (worker id + expiry on the catalogue's clock), and an append-only log of
    every lease transition (claimed/heartbeat/completed/failed/released/
    reclaimed) that the chaos tests assert against.
``idempotency``
    Exactly-once bookkeeping for the HTTP lease protocol (schema v2): every
    mutating request carries a client-generated idempotency key, and the
    server records ``key -> response`` in the same transaction that applies
    the mutation.  A retried request after a lost response (or a duplicated
    delivery from the network) replays the recorded response instead of
    re-applying — which is what makes a retried ``complete`` unable to
    double-apply.
``telemetry_points``
    Observability (schema v3): periodic flushes from ``repro.telemetry``.
    Points are *delta* snapshots per flush interval — counters reset after
    every snapshot, so summing ``value`` over rows gives the true total;
    gauges are last-write-wins; histograms store their preallocated bucket
    layout as JSON in ``buckets_json``.  ``at_unix`` is stamped by the
    catalogue's SQL clock at persist time, never by the reporting process's
    wall clock.  The ``/api/workers`` roster joins this table with ``jobs``
    and ``lease_events``.  A cell's own timing lives in its ``cells`` row
    (``elapsed_seconds``, ``attempts``).

Schema changes bump :data:`SCHEMA_VERSION`; ``ensure_schema`` refuses to
open a catalogue written by a newer version, and upgrades older catalogues
in place (the DDL is idempotent, so re-applying it adds any missing
tables).  Upgrading to v4 drops the ``bench`` table v1-v3 kept: the
checked-in ``BENCH_*.json`` files are the one perf record.  Upgrading to
v5 drops the span table and index v3-v4 kept: points are the one
telemetry record.  Upgrading to v6 drops the ``runs.status`` column v1-v5
kept, which nothing read or wrote; under an SQLite older than 3.35, which
cannot drop a column, the column stays with its default and is never read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.store.connection import StoreConnection

SCHEMA_VERSION = 6

#: Job states in the cooperative queue.
JOB_STATES = ("pending", "leased", "done", "failed")

#: Lease transitions recorded in ``lease_events``.
LEASE_EVENTS = ("claimed", "heartbeat", "completed", "failed", "released",
                "reclaimed")

SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    experiment  TEXT NOT NULL,
    scale       TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    out_dir     TEXT NOT NULL,
    spec_json   TEXT NOT NULL,
    cells       INTEGER NOT NULL,
    created_unix INTEGER NOT NULL,
    updated_unix INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS provenance (
    run_id          TEXT PRIMARY KEY REFERENCES runs(run_id),
    code_version    TEXT NOT NULL,
    spec_hash       TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    fault_plan_hash TEXT,
    manifest_version INTEGER NOT NULL,
    ingested_from   TEXT
);

CREATE TABLE IF NOT EXISTS cells (
    run_id      TEXT NOT NULL REFERENCES runs(run_id),
    cell_index  INTEGER NOT NULL,
    slug        TEXT NOT NULL,
    params_json TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    elapsed_seconds REAL,
    row_json    TEXT,
    error       TEXT,
    recorded_unix INTEGER,
    PRIMARY KEY (run_id, cell_index)
);

CREATE TABLE IF NOT EXISTS metrics (
    run_id     TEXT NOT NULL,
    cell_index INTEGER NOT NULL,
    key        TEXT NOT NULL,
    value_num  REAL,
    value_text TEXT,
    PRIMARY KEY (run_id, cell_index, key)
);
CREATE INDEX IF NOT EXISTS metrics_by_key ON metrics(key);

CREATE TABLE IF NOT EXISTS jobs (
    run_id      TEXT NOT NULL REFERENCES runs(run_id),
    cell_index  INTEGER NOT NULL,
    state       TEXT NOT NULL DEFAULT 'pending',
    worker      TEXT,
    lease_expires_unix INTEGER,
    attempts    INTEGER NOT NULL DEFAULT 0,
    payload_json TEXT NOT NULL,
    PRIMARY KEY (run_id, cell_index)
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state);

CREATE TABLE IF NOT EXISTS lease_events (
    event_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id     TEXT NOT NULL,
    cell_index INTEGER NOT NULL,
    worker     TEXT,
    event      TEXT NOT NULL,
    detail     TEXT,
    at_unix    INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS idempotency (
    key           TEXT PRIMARY KEY,
    endpoint      TEXT NOT NULL,
    response_json TEXT NOT NULL,
    at_unix       INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS telemetry_points (
    point_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    worker      TEXT NOT NULL,
    host        TEXT,
    pid         INTEGER,
    name        TEXT NOT NULL,
    kind        TEXT NOT NULL,
    value       REAL NOT NULL,
    count       INTEGER,
    buckets_json TEXT,
    labels_json TEXT,
    at_unix     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS telemetry_points_by_name
    ON telemetry_points(name, at_unix);
CREATE INDEX IF NOT EXISTS telemetry_points_by_worker
    ON telemetry_points(worker, at_unix);
"""


def ensure_schema(conn: "StoreConnection") -> None:
    """Create/upgrade the schema; refuse a catalogue from the future."""
    conn.executescript(SCHEMA_SQL)
    recorded = conn.scalar("SELECT value FROM meta WHERE key = 'schema_version'")
    if recorded is None or int(recorded) < SCHEMA_VERSION:
        # Fresh catalogue, or an older one: the idempotent DDL above already
        # added any tables this version introduced; an older one may still
        # hold the ``bench`` table v4 dropped, the span table v5 dropped
        # (its index goes with it), or the ``runs.status`` column v6 dropped.
        with conn.transaction():
            if recorded is not None:
                conn.execute("DROP TABLE IF EXISTS bench")
                conn.execute("DROP TABLE IF EXISTS telemetry_spans")
                columns = [row[1] for row in
                           conn.fetchall("PRAGMA table_info(runs)")]
                if "status" in columns and _can_drop_columns(conn):
                    conn.execute("ALTER TABLE runs DROP COLUMN status")
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('schema_version', ?)", (str(SCHEMA_VERSION),))
        return
    if int(recorded) > SCHEMA_VERSION:
        raise RuntimeError(
            f"catalogue {conn.path} has schema version {recorded}, newer than "
            f"this code's {SCHEMA_VERSION}; upgrade the repro package")


def _can_drop_columns(conn: "StoreConnection") -> bool:
    """``ALTER TABLE ... DROP COLUMN`` needs SQLite 3.35 or later."""
    version = conn.scalar("SELECT sqlite_version()")
    return tuple(int(part) for part in version.split(".")[:2]) >= (3, 35)
