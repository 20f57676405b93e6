"""The cooperative job queue: worker leases over catalogue cells.

A submitted campaign becomes one ``jobs`` row per cell.  N independent
``repro work`` processes drain the queue cooperatively:

* **claim** — a worker takes the lowest (run, cell) job that is ``pending``
  or whose lease has expired, inside one ``BEGIN IMMEDIATE`` transaction, so
  two workers can never hold the same cell.  Claiming an expired lease is a
  **reclaim** (the previous worker crashed or stalled) and is recorded as
  such in ``lease_events``;
* **heartbeat** — while a cell executes, the worker extends its lease every
  ``lease_ttl/3`` seconds on the catalogue's shared clock.  A worker that
  dies stops heartbeating, its lease expires, and the cell is claimable
  again — the queue-level analogue of the executor's watchdog;
* **completion/release** — a finished cell marks its job ``done`` and a
  failed cell goes back to ``pending`` (``failed`` once the queue-level
  attempt budget is exhausted).  Either transition lands the catalogue cell
  row in the same transaction, and only if the worker still owns the lease:
  a late worker whose cell was reclaimed changes nothing.  A completion may
  also claim the worker's next job in that transaction
  (:meth:`JobQueue.complete_and_claim`), so a busy drain pays one round
  trip per cell.

Once a run has no job outstanding and every cell row landed,
:func:`finalize_from_catalog` writes its ``results.json`` from the
catalogue rows.

Every transition appends to ``lease_events`` (claimed / heartbeat /
completed / failed / released / reclaimed), which is what the chaos tests
assert against when they kill a worker mid-cell.

Determinism: the queue decides only *which worker* runs a cell, never *what*
the cell computes — cells are deterministic in (params, scale, seed) and
idempotent through the artifact tree (PR 7), so any interleaving of workers
produces rows bit-identical to serial execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.rl.stats import dump_json
from repro.runs.artifacts import atomic_write_json
from repro.store.catalog import Catalog

#: Queue-level attempt budget per cell (re-claims after failures/reclaims).
DEFAULT_JOB_ATTEMPTS = 3

#: Default lease time-to-live in seconds (heartbeats extend it).
DEFAULT_LEASE_TTL = 60


@dataclass(frozen=True)
class Job:
    """One claimed queue job: the cell payload plus lease bookkeeping."""

    run_id: str
    cell_index: int
    payload: Dict[str, Any]
    attempts: int
    reclaimed_from: Optional[str] = None


class JobQueue:
    """Lease-based claim/heartbeat/complete operations over one catalogue."""

    def __init__(self, catalog: Catalog,
                 max_job_attempts: int = DEFAULT_JOB_ATTEMPTS):
        self.catalog = catalog
        self.conn = catalog.conn
        self.max_job_attempts = int(max_job_attempts)

    # ---------------------------------------------------------------- submit
    def submit(self, run_id: str, payloads: Sequence[Mapping[str, Any]],
               requeue: Sequence[int] = ()) -> int:
        """Enqueue one job per cell payload; returns how many are new.

        Jobs already queued take the fresh payload (unless leased).  Failed
        jobs, and the done jobs of the ``requeue`` cells (whose results were
        lost), go back to ``pending`` with a fresh attempt budget.
        """
        with self.conn.transaction():
            known = self.conn.scalar(
                "SELECT COUNT(*) FROM jobs WHERE run_id = ?", (run_id,))
            self.conn.executemany(
                "INSERT INTO jobs (run_id, cell_index, state, payload_json)"
                " VALUES (?, ?, 'pending', ?)"
                " ON CONFLICT (run_id, cell_index) DO UPDATE"
                " SET payload_json = excluded.payload_json"
                " WHERE state != 'leased'",
                [(run_id, int(payload["index"]), dump_json(payload))
                 for payload in payloads])
            self.conn.execute(
                "UPDATE jobs SET state = 'pending', attempts = 0"
                " WHERE run_id = ? AND state = 'failed'", (run_id,))
            self.conn.executemany(
                "UPDATE jobs SET state = 'pending', attempts = 0"
                " WHERE run_id = ? AND cell_index = ? AND state = 'done'",
                [(run_id, int(index)) for index in requeue])
            total = self.conn.scalar(
                "SELECT COUNT(*) FROM jobs WHERE run_id = ?", (run_id,))
        return int(total) - int(known)

    # ----------------------------------------------------------------- claim
    def claim(self, worker: str, run_id: Optional[str] = None,
              lease_ttl: int = DEFAULT_LEASE_TTL) -> Optional[Job]:
        """Atomically claim the next available job (None when nothing is)."""
        with self.conn.transaction():
            row = self.conn.fetchone(
                "SELECT run_id, cell_index, state, worker, attempts,"
                " payload_json FROM jobs WHERE (state = 'pending'"
                " OR (state = 'leased' AND lease_expires_unix <"
                "     CAST(strftime('%s','now') AS INTEGER)))"
                " AND (? IS NULL OR run_id = ?)"
                " ORDER BY run_id, cell_index LIMIT 1", (run_id, run_id))
            if row is None:
                return None
            reclaimed_from = row["worker"] if row["state"] == "leased" else None
            self.conn.execute(
                "UPDATE jobs SET state = 'leased', worker = ?,"
                " lease_expires_unix ="
                "   CAST(strftime('%s','now') AS INTEGER) + ?,"
                " attempts = attempts + 1"
                " WHERE run_id = ? AND cell_index = ?",
                (worker, int(lease_ttl), row["run_id"], row["cell_index"]))
            event = "reclaimed" if reclaimed_from is not None else "claimed"
            detail = (f"lease expired on worker {reclaimed_from}"
                      if reclaimed_from is not None else None)
            self._event(row["run_id"], row["cell_index"], worker, event,
                        detail)
        return Job(run_id=row["run_id"], cell_index=int(row["cell_index"]),
                   payload=json.loads(row["payload_json"]),
                   attempts=int(row["attempts"]) + 1,
                   reclaimed_from=reclaimed_from)

    # ------------------------------------------------------------- heartbeat
    def heartbeat(self, job: Job, worker: str,
                  lease_ttl: int = DEFAULT_LEASE_TTL) -> bool:
        """Extend the lease; False means the lease was lost (reclaimed)."""
        with self.conn.transaction():
            cursor = self.conn.execute(
                "UPDATE jobs SET lease_expires_unix ="
                "   CAST(strftime('%s','now') AS INTEGER) + ?"
                " WHERE run_id = ? AND cell_index = ? AND worker = ?"
                " AND state = 'leased'",
                (int(lease_ttl), job.run_id, job.cell_index, worker))
            alive = cursor.rowcount == 1
            if alive:
                self._event(job.run_id, job.cell_index, worker, "heartbeat",
                            None)
        return alive

    def owns(self, job: Job, worker: str) -> bool:
        """Whether ``worker`` still holds the live lease on ``job``."""
        return self.conn.scalar(
            "SELECT 1 FROM jobs WHERE run_id = ? AND cell_index = ?"
            " AND worker = ? AND state = 'leased'",
            (job.run_id, job.cell_index, worker)) is not None

    # ------------------------------------------------------------ completion
    def complete(self, job: Job, worker: str, *, status: str = "completed",
                 row: Optional[Mapping[str, Any]] = None,
                 attempts: Optional[int] = None,
                 elapsed_seconds: Optional[float] = None) -> bool:
        """Mark a job done and land its cell row, in one transaction; a
        ``worker`` that no longer owns the lease changes no row (False)."""
        with self.conn.transaction():
            cursor = self.conn.execute(
                "UPDATE jobs SET state = 'done', lease_expires_unix = NULL"
                " WHERE run_id = ? AND cell_index = ? AND worker = ?"
                " AND state = 'leased'",
                (job.run_id, job.cell_index, worker))
            done = cursor.rowcount == 1
            if done:
                self._event(job.run_id, job.cell_index, worker, "completed",
                            None)
                self._record_cell(job, status, row=row, attempts=attempts,
                                  elapsed_seconds=elapsed_seconds)
        return done

    def complete_and_claim(self, job: Job, worker: str, *,
                           run_id: Optional[str] = None,
                           lease_ttl: int = DEFAULT_LEASE_TTL,
                           **outcome: Any) -> Tuple[bool, Optional[Job]]:
        """:meth:`complete` ``job`` and :meth:`claim` the next one, in one
        transaction: ``(completed, next job or None)``.  The claim does not
        depend on the completion applying — a worker whose lease was
        reclaimed still wants work."""
        with self.conn.transaction():
            done = self.complete(job, worker, **outcome)
            return done, self.claim(worker, run_id=run_id, lease_ttl=lease_ttl)

    def release(self, job: Job, worker: str, *, status: str = "failed",
                error: Optional[str] = None,
                attempts: Optional[int] = None) -> Optional[str]:
        """Give a failed/interrupted job back (or retire it past the budget)
        and land its cell row, in one transaction.

        Returns the job's new state: ``"pending"`` (re-claimable) or
        ``"failed"`` (queue-level attempt budget exhausted).  A ``worker``
        that no longer owns the lease changes no row and gets None.
        """
        state = ("failed" if job.attempts >= self.max_job_attempts
                 else "pending")
        with self.conn.transaction():
            cursor = self.conn.execute(
                "UPDATE jobs SET state = ?, worker = NULL,"
                " lease_expires_unix = NULL WHERE run_id = ?"
                " AND cell_index = ? AND worker = ? AND state = 'leased'",
                (state, job.run_id, job.cell_index, worker))
            if cursor.rowcount != 1:
                return None
            self._event(job.run_id, job.cell_index, worker,
                        "failed" if state == "failed" else "released", error)
            self._record_cell(job, status, error=error, attempts=attempts)
        return state

    # ------------------------------------------------------------ inspection
    def counts(self, run_id: Optional[str] = None) -> Dict[str, int]:
        """Jobs per state (optionally for one run)."""
        rows = self.conn.fetchall(
            "SELECT state, COUNT(*) AS n FROM jobs"
            " WHERE (? IS NULL OR run_id = ?) GROUP BY state",
            (run_id, run_id))
        return {row["state"]: int(row["n"]) for row in rows}

    def outstanding(self, run_id: Optional[str] = None) -> int:
        """Jobs not yet done/failed — the drain-loop exit condition."""
        counts = self.counts(run_id)
        return counts.get("pending", 0) + counts.get("leased", 0)

    def lease_events(self, run_id: Optional[str] = None) -> List[Dict[str, Any]]:
        rows = self.conn.fetchall(
            "SELECT event_id, run_id, cell_index, worker, event, detail,"
            " at_unix FROM lease_events WHERE (? IS NULL OR run_id = ?)"
            " ORDER BY event_id", (run_id, run_id))
        return [dict(row) for row in rows]

    # -------------------------------------------------------------- internal
    def _record_cell(self, job: Job, status: str,
                     attempts: Optional[int], **outcome: Any) -> None:
        self.catalog.record_cell(
            job.run_id, job.cell_index, job.payload["params"], status,
            attempts=job.attempts if attempts is None else int(attempts),
            **outcome)

    def _event(self, run_id: str, cell_index: int, worker: Optional[str],
               event: str, detail: Optional[str]) -> None:
        self.conn.execute(
            "INSERT INTO lease_events (run_id, cell_index, worker, event,"
            " detail, at_unix) VALUES (?, ?, ?, ?, ?,"
            " CAST(strftime('%s','now') AS INTEGER))",
            (run_id, int(cell_index), worker, event, detail))


def finalize_from_catalog(catalog: Catalog, run_id: str) -> None:
    """Write a drained run's ``results.json`` from its catalogue rows.

    The one writer of ``results.json``: the server calls it after each
    remote completion (remote workers never touch the server host's
    artifact tree), local drainers after each cell, and ``repro.run()``
    after its drain.  It writes only once the queue has nothing outstanding
    and every cell row landed; rows round-trip through the canonical
    ``dump_json``, so every drain produces the same bytes.
    """
    if JobQueue(catalog).outstanding(run_id) != 0:
        return
    info = catalog.conn.fetchone(
        "SELECT experiment, scale, seed, out_dir FROM runs"
        " WHERE run_id = ?", (run_id,))
    if info is None:
        return
    rows = catalog.rows(run_id)
    if not rows or any(row is None for row in rows):
        return
    atomic_write_json(Path(info["out_dir"]) / "results.json", {
        "experiment": info["experiment"], "scale": info["scale"],
        "seed": int(info["seed"]), "rows": rows,
    }, indent=2)
