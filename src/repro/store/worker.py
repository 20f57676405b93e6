"""Campaign submission and the ``repro work`` drain loop (local + remote).

``submit_campaign`` is the one submission path (``repro submit``,
``POST /api/campaigns`` and ``repro.run()``): it writes the campaign's
``manifest.json``, records the run + provenance + pending cells in the
catalogue, and enqueues one job per cell.  Nothing executes yet — execution
belongs to drainers.

``work()`` is one drainer: claim a job, execute its cell once through the
runner's :func:`~repro.runs.runner.execute_cell` (same artifact tree, same
timeout/fault semantics everywhere), then mark the job done or release it
(the :class:`~repro.store.queue.JobQueue` transition lands the catalogue
cell row in the same transaction).  A retry is a re-claim: the queue
charges a failed or timed-out claim against the job's ``max_attempts``,
fixed at submission, and re-queues the job until the budget is spent.
The completion carries the claim of the next job
(:meth:`~repro.store.queue.JobQueue.complete_and_claim`), so a busy drain
makes one queue request per cell; a standalone claim is made only for the
first cell, after a release, and after an empty answer.  One background
thread per drain heartbeats whichever lease is current while its cell runs.
``repro.run()`` is this same loop drained locally;
N ``repro work`` processes on one catalogue drain a campaign cooperatively.
A killed worker's lease expires and its cell is reclaimed and re-run, so
every drain is bit-identical to a serial ``repro.run()``.

Two queue backends share that loop:

* **local** (the default): the worker opens the catalogue file directly —
  same-host draining;
* **remote** (``server="http://host:port"``): the worker speaks the lease
  protocol over HTTP through one :class:`~repro.store.client.StoreClient` —
  deadline, bounded deterministic retries, idempotency keys — and never
  touches the catalogue (only this backend imports the client, so a local
  drain never loads :mod:`http.client`) (network chaos comes from pointing it at a
  :class:`~repro.store.chaos.ChaosProxy`).  Cell artifacts land under a
  *local* root (payload paths are remapped per host); the finished row is
  uploaded with ``complete`` and the **server** materializes
  ``results.json`` from the catalogue.  Cells are deterministic in (params,
  scale, seed), so a cell reclaimed across hosts recomputes the identical
  row without any shared filesystem.

Stops: SIGTERM/SIGINT (or a ``KeyboardInterrupt`` raised by a cell)
interrupt the drain loop cleanly — the worker releases its current lease,
or the next job its last completion claimed (recorded as ``released`` in
``lease_events``), marks its summary
``interrupted``, and the CLI exits non-zero.  An injected kill ends the
drainer the same way a crash would: its lease is released and it claims no
further cell.  An interrupted release costs the job no attempt, so any
other drainer — now or later — resumes the cell from its checkpoint.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import zlib
from contextlib import closing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.experiments.scales import ScaleLike
from repro.runs.faults import FaultPlan
from repro.runs.registry import ExperimentLike
from repro.runs.runner import (
    _load_result,
    cell_payloads,
    cell_slug,
    ensure_manifest,
    execute_cell,
    resolve_campaign,
)
from repro.store.catalog import Catalog, catalog_path
from repro.store.errors import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_RETRIES,
    DEFAULT_TIMEOUT_SECONDS,
    FatalRequestError,
    RetryableTransportError,
)
from repro.store.queue import (
    DEFAULT_LEASE_TTL,
    Job,
    JobQueue,
    finalize_from_catalog,
)


@dataclass
class Submission:
    """What ``submit_campaign`` returns: where the campaign lives."""

    run_id: str
    out_dir: Path
    cells: int
    enqueued: int
    #: The rows of the cells whose ``result.json`` loaded at submission,
    #: by cell index: they need no drain.
    cached: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"run_id": self.run_id, "out_dir": str(self.out_dir),
                "cells": self.cells, "enqueued": self.enqueued}


def submit_campaign(experiment: ExperimentLike,
                    scale: Optional[ScaleLike] = None,
                    seed: Optional[int] = None,
                    root: os.PathLike = "runs",
                    out_dir: Optional[os.PathLike] = None,
                    max_attempts: int = 1,
                    fault_plan: Any = None, timeout: Optional[float] = None,
                    catalog: Optional[Catalog] = None) -> Submission:
    """Register a campaign in the catalogue and enqueue its cells.

    ``max_attempts`` is each cell's attempt budget (the claims a failed or
    timed-out cell may be charged) and ``timeout`` the per-cell wall-clock
    budget every drainer enforces; both are job properties.
    Submitting a campaign again is how it resumes: the manifest check
    refuses a *different* campaign in the same directory (a torn manifest
    is quarantined and rewritten), queued jobs take the fresh payload, and
    failed jobs plus done jobs whose ``result.json`` no longer loads go back
    to ``pending``.  Done cells keep their ``result.json`` as the memo.
    """
    spec, scale, seed, out_dir = resolve_campaign(experiment, scale, seed, root,
                                                  out_dir)
    plan = FaultPlan.resolve(fault_plan)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = spec.cells(scale)
    manifest = ensure_manifest(out_dir, spec, scale, seed, cells)
    payloads = cell_payloads(spec, scale, seed, out_dir, cells,
                             fault_plan=plan, max_attempts=max_attempts,
                             timeout=timeout)
    cached = {}
    for payload in payloads:
        result = _load_result(Path(payload["cell_dir"]) / "result.json")
        if result is not None:
            cached[payload["index"]] = result["row"]
    run_id = out_dir.name
    owns_catalog = catalog is None
    catalog = catalog if catalog is not None else Catalog(
        catalog_path(out_dir.parent))
    try:
        catalog.record_campaign(
            run_id, spec, scale.name, seed, out_dir, cells,
            slugs=[cell_slug(i, params) for i, params in enumerate(cells)],
            fault_plan=plan.to_dict() if plan is not None else None,
            manifest_version=manifest["version"])
        lost = [index for index in range(len(cells)) if index not in cached]
        enqueued = JobQueue(catalog).submit(run_id, payloads, requeue=lost)
    finally:
        if owns_catalog:
            catalog.close()
    return Submission(run_id=run_id, out_dir=out_dir, cells=len(cells),
                      enqueued=enqueued, cached=cached)


@dataclass
class WorkerSummary:
    """One worker's account of a drain loop."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    released: int = 0
    reclaimed: int = 0
    interrupted: bool = False
    cells: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class WorkerSignalled(BaseException):
    """SIGTERM/SIGINT reached the drain loop.

    A ``BaseException`` so the runner's ``except Exception`` failure path
    cannot swallow it — the signal must reach the loop that releases the
    lease.
    """

    def __init__(self, signum: int):
        self.signum = signum
        self.name = signal.Signals(signum).name
        super().__init__(f"worker received {self.name}")


class _SignalGuard:
    """Convert SIGTERM/SIGINT into :class:`WorkerSignalled` for one scope.

    Only installs handlers on the main thread (``signal.signal`` refuses
    anywhere else — tests drive ``work()`` from helper threads); restores
    the previous handlers on exit.  The first signal wins: repeats (a
    terminal's SIGINT followed by a parent's SIGTERM) are ignored until the
    scope exits, so they cannot cut the lease release short.
    """

    def __init__(self) -> None:
        self._previous: List[Any] = []
        self._installed = False

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            def raise_signalled(signum: int, _frame: Any) -> None:
                for repeat in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(repeat, signal.SIG_IGN)
                raise WorkerSignalled(signum)

            for signum in (signal.SIGTERM, signal.SIGINT):
                self._previous.append(
                    (signum, signal.signal(signum, raise_signalled)))
            self._installed = True
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._installed:
            for signum, previous in self._previous:
                signal.signal(signum, previous)


class _Heartbeat:
    """Background lease renewal for a whole drain: one thread renews
    whichever lease is current.

    ``track(job)`` makes ``job`` the current lease (``None`` while no cell
    runs) and restarts both the renewal timer and the clock of the
    ``worker.heartbeat.gap_seconds`` histogram.  ``renew(job)`` renews one
    lease and returns False when it was lost to a reclaim (the new owner
    re-runs the cell); the thread then stops renewing that job.  It only
    touches the lease, never the cell's computation, so results stay
    deterministic.  A remote beat's transport error is tolerated — the lease
    may lapse and be reclaimed, exactly what a dead network should cause —
    and the gap clock only advances on success, so the next beat records the
    true outage-spanning gap; a fatal protocol error stops renewing that
    job.  A beat whose job stopped being current while it was in flight is
    discarded: its False means the cell's own completion or release landed
    first, not a lost lease.
    """

    def __init__(self, renew: Callable[[Job], bool], lease_ttl: int):
        self._renew = renew
        self._interval = max(1.0, int(lease_ttl) / 3.0)
        self._wake = threading.Condition()
        self._job: Optional[Job] = None
        self._due = self._last = 0.0
        self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="lease-heartbeat")

    def track(self, job: Optional[Job]) -> None:
        with self._wake:
            self._job = job
            self._last = time.perf_counter()
            self._due = self._last + self._interval
            self._wake.notify()

    def _next_due(self) -> Optional[Job]:
        """Wait until the current lease is due for renewal; None once
        stopped."""
        with self._wake:
            while not self._stopped:
                if self._job is None:
                    self._wake.wait()
                    continue
                remaining = self._due - time.perf_counter()
                if remaining <= 0:
                    return self._job
                self._wake.wait(remaining)
            return None

    def _run(self) -> None:
        gap_seconds = telemetry.histogram("worker.heartbeat.gap_seconds")
        while (job := self._next_due()) is not None:
            try:
                outcome = "renewed" if self._renew(job) else "lost"
            except RetryableTransportError:
                outcome = "unreachable"
            except FatalRequestError:
                outcome = "refused"
            with self._wake:
                if self._job is not job:
                    continue  # the cell ended while the beat was in flight
                now = time.perf_counter()
                self._due = now + self._interval
                if outcome == "renewed":
                    gap_seconds.record(now - self._last)
                    self._last = now
                elif outcome != "unreachable":
                    if outcome == "lost":
                        telemetry.counter("worker.heartbeat.lost").inc()
                    self._job = None

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        with self._wake:
            self._stopped = True
            self._wake.notify()
        self._thread.join(timeout=5.0)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _LocalBackend:
    """Queue access through the catalogue file (same-host draining)."""

    def __init__(self, path: Path, worker_id: str):
        self.path = Path(path)
        self.worker_id = worker_id
        self.catalog = Catalog(self.path)
        self.queue = JobQueue(self.catalog)

    def claim(self, run_id: Optional[str], lease_ttl: int) -> Optional[Job]:
        return self.queue.claim(self.worker_id, run_id=run_id,
                                lease_ttl=lease_ttl)

    def renew_lease(self, job: Job, lease_ttl: int) -> bool:
        # Called on the heartbeat thread: SQLite connections are
        # thread-bound, so each beat opens its own.
        with Catalog(self.path) as catalog:
            return JobQueue(catalog).heartbeat(job, self.worker_id, lease_ttl)

    def localize(self, job: Job) -> Dict[str, Any]:
        return dict(job.payload)

    def complete(self, job: Job, status: str, row: Optional[Mapping[str, Any]],
                 elapsed: Optional[float]) -> bool:
        return self.queue.complete(job, self.worker_id, status=status,
                                   row=row, elapsed_seconds=elapsed)

    def complete_and_claim(self, job: Job, status: str,
                           row: Optional[Mapping[str, Any]],
                           elapsed: Optional[float], run_id: Optional[str],
                           lease_ttl: int) -> Tuple[bool, Optional[Job]]:
        return self.queue.complete_and_claim(
            job, self.worker_id, run_id=run_id, lease_ttl=lease_ttl,
            status=status, row=row, elapsed_seconds=elapsed)

    def release(self, job: Job, status: str,
                error: Optional[str]) -> Optional[str]:
        return self.queue.release(job, self.worker_id, status=status,
                                  error=error)

    def outstanding(self, run_id: Optional[str]) -> int:
        return self.queue.outstanding(run_id)

    def finalize(self, job: Job) -> None:
        finalize_from_catalog(self.catalog, job.run_id)

    def telemetry_sink(self, worker_id: str) -> Any:
        return telemetry.CatalogSink(self.path, worker=worker_id)

    def close(self) -> None:
        self.catalog.close()


class _RemoteBackend:
    """Queue access over HTTP through :class:`StoreClient`.

    Payload paths are remapped under ``local_root`` (artifacts land on the
    *worker's* host); the server finalizes ``results.json`` from uploaded
    rows, so :meth:`finalize` is a no-op here.
    """

    def __init__(self, server: str, worker_id: str, local_root: Path,
                 timeout: float, retries: int, backoff: float):
        from repro.store.client import StoreClient  # only a remote drain speaks HTTP

        self.worker_id = worker_id
        self.local_root = Path(local_root)
        self.client = StoreClient(
            server, worker_id=worker_id, timeout=timeout, max_retries=retries,
            backoff=backoff, retry_seed=zlib.crc32(worker_id.encode("utf-8")))

    def claim(self, run_id: Optional[str], lease_ttl: int) -> Optional[Job]:
        record = self.client.claim(run_id=run_id, lease_ttl=lease_ttl)
        return None if record is None else Job(**record)

    def renew_lease(self, job: Job, lease_ttl: int) -> bool:
        return self.client.heartbeat(job.run_id, job.cell_index, lease_ttl)

    def localize(self, job: Job) -> Dict[str, Any]:
        """Remap the payload's artifact paths onto this worker's host."""
        payload = dict(job.payload)
        slug = Path(payload["cell_dir"]).name
        out_dir = self.local_root / job.run_id
        payload["out_dir"] = str(out_dir)
        payload["cell_dir"] = str(out_dir / "cells" / slug)
        return payload

    def complete(self, job: Job, status: str, row: Optional[Mapping[str, Any]],
                 elapsed: Optional[float]) -> bool:
        response = self.client.complete(
            job.run_id, job.cell_index, status=status, row=row,
            elapsed_seconds=elapsed)
        return bool(response.get("applied"))

    def complete_and_claim(self, job: Job, status: str,
                           row: Optional[Mapping[str, Any]],
                           elapsed: Optional[float], run_id: Optional[str],
                           lease_ttl: int) -> Tuple[bool, Optional[Job]]:
        response = self.client.complete(
            job.run_id, job.cell_index, status=status, row=row,
            elapsed_seconds=elapsed,
            claim={"run_id": run_id, "lease_ttl": int(lease_ttl)})
        record = response.get("job")
        return (bool(response.get("applied")),
                None if record is None else Job(**record))

    def release(self, job: Job, status: str,
                error: Optional[str]) -> Optional[str]:
        response = self.client.release(job.run_id, job.cell_index,
                                       status=status, error=error)
        return response.get("state")

    def outstanding(self, run_id: Optional[str]) -> int:
        return self.client.outstanding(run_id)

    def finalize(self, job: Job) -> None:
        pass  # the server materializes results.json from catalogue rows

    def telemetry_sink(self, worker_id: str) -> Any:
        return telemetry.ClientSink(self.client, worker=worker_id)

    def close(self) -> None:
        self.client.close()


def work(root: os.PathLike = "runs", run_id: Optional[str] = None,
         worker_id: Optional[str] = None,
         lease_ttl: int = DEFAULT_LEASE_TTL,
         poll_seconds: float = 0.5, watch: bool = False,
         max_cells: Optional[int] = None,
         catalog_file: Optional[os.PathLike] = None,
         server: Optional[str] = None,
         local_root: Optional[os.PathLike] = None,
         client_timeout: float = DEFAULT_TIMEOUT_SECONDS,
         client_retries: int = DEFAULT_MAX_RETRIES,
         client_backoff: float = DEFAULT_BACKOFF_SECONDS) -> WorkerSummary:
    """Drain the queue (optionally one campaign) as one worker.

    ``server=None`` drains through the catalogue file at ``root`` /
    ``catalog_file``; ``server="http://host:port"`` drains over HTTP with
    artifacts under ``local_root`` (default: ``root``), sending every claim,
    heartbeat, completion and telemetry flush through one
    :class:`StoreClient`.
    """
    worker_id = worker_id or default_worker_id()
    summary = WorkerSummary(worker_id=worker_id)
    if server is not None:
        backend: Any = _RemoteBackend(
            server, worker_id,
            local_root=Path(local_root if local_root is not None else root),
            timeout=client_timeout, retries=client_retries,
            backoff=client_backoff)
    else:
        path = (Path(catalog_file) if catalog_file is not None
                else catalog_path(Path(root)))
        backend = _LocalBackend(path, worker_id)
    claim_seconds = telemetry.histogram("worker.claim.seconds")
    sink = backend.telemetry_sink(worker_id)
    heartbeat = _Heartbeat(lambda held: backend.renew_lease(held, lease_ttl),
                           lease_ttl)
    # The next job: claimed at the top of the loop, or by the claim the
    # previous cell's completion carried.
    job: Optional[Job] = None
    # Exits in reverse: the heartbeat thread stops, the last telemetry
    # flush goes out, then the backend closes.
    with _SignalGuard(), closing(backend), \
            telemetry.TelemetryFlusher(sink), heartbeat:
        try:
            while max_cells is None or len(summary.cells) < max_cells:
                if job is None:
                    claim_started = time.perf_counter()
                    job = backend.claim(run_id, lease_ttl)
                    claim_seconds.record(time.perf_counter() - claim_started)
                if job is None:
                    if watch or backend.outstanding(run_id):
                        # Another worker holds a live lease (or new work may
                        # arrive): wait instead of abandoning the drain.
                        time.sleep(poll_seconds)
                        continue
                    break
                telemetry.counter("worker.claims.total").inc()
                if job.reclaimed_from is not None:
                    summary.reclaimed += 1
                    telemetry.counter("worker.claims.reclaimed").inc()
                payload = backend.localize(job)
                heartbeat.track(job)
                try:
                    outcome = execute_cell(payload, sink)
                finally:
                    heartbeat.track(None)
                status = outcome.get("status", "failed")
                record = {"index": job.cell_index, "run_id": job.run_id,
                          "status": status, "attempts": job.attempts}
                finished = job
                if status in ("completed", "cached"):
                    done = (finished, status, outcome["row"],
                            outcome.get("elapsed_seconds"))
                    if max_cells is not None \
                            and len(summary.cells) + 1 >= max_cells:
                        # No claim rides on the last cell max_cells allows.
                        applied, job = backend.complete(*done), None
                    else:
                        applied, job = backend.complete_and_claim(
                            *done, run_id, lease_ttl)
                    if applied:
                        summary.completed += 1
                    # else: the lease was reclaimed while we ran; the new
                    # owner re-executes the (idempotent) cell and records it.
                    if job is not None:
                        telemetry.counter("worker.claims.piggybacked").inc()
                else:
                    new_state = backend.release(finished, status,
                                                outcome.get("error"))
                    job = None
                    if new_state == "failed":
                        summary.failed += 1
                    else:
                        summary.released += 1
                    record["error"] = outcome.get("error")
                summary.cells.append(record)
                backend.finalize(finished)
                if status == "interrupted":
                    break  # an injected kill ends the drainer, as a crash would
        except (WorkerSignalled, KeyboardInterrupt) as interrupt:
            summary.interrupted = True
            if job is not None:
                # Give the in-flight cell, or the next one its completion
                # claimed, straight back to the queue so another worker picks
                # it up without waiting out the lease TTL.  If the network is
                # also gone, the lease expiring does the same job.
                reason = str(interrupt) or type(interrupt).__name__
                try:
                    backend.release(job, "interrupted", reason)
                except (RetryableTransportError, FatalRequestError):
                    pass
                summary.released += 1
                summary.cells.append({"index": job.cell_index,
                                      "run_id": job.run_id,
                                      "status": "interrupted",
                                      "attempts": job.attempts,
                                      "error": reason})
    return summary


__all__ = [
    "Submission",
    "WorkerSignalled",
    "WorkerSummary",
    "default_worker_id",
    "submit_campaign",
    "work",
]
