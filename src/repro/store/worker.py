"""Campaign submission and the ``repro work`` drain loop (local + remote).

``submit_campaign`` is the one submission path (``repro submit``,
``POST /api/campaigns`` and ``repro.run()``): it writes the campaign's
``manifest.json``, records the run + provenance + pending cells in the
catalogue, and enqueues one job per cell.  Nothing executes yet — execution
belongs to drainers.

``work()`` is one drainer: claim a job, execute its cell through the
runner's :func:`~repro.runs.runner.execute_cell` (same artifact tree, same
retry/timeout/fault semantics everywhere), heartbeat the lease from a
background thread while the cell runs, then mark the job done (the
:class:`~repro.store.queue.JobQueue` transition lands the catalogue cell row
in the same transaction).  ``repro.run()`` is this same loop drained locally;
N ``repro work`` processes on one catalogue drain a campaign cooperatively.
A killed worker's lease expires and its cell is reclaimed and re-run, so
every drain is bit-identical to a serial ``repro.run()``.

Two queue backends share that loop:

* **local** (the default): the worker opens the catalogue file directly —
  same-host draining;
* **remote** (``server="http://host:port"``): the worker speaks the lease
  protocol over HTTP through one :class:`~repro.store.client.StoreClient` —
  deadline, bounded deterministic retries, idempotency keys — and never
  touches the catalogue (network chaos comes from pointing it at a
  :class:`~repro.store.chaos.ChaosProxy`).  Cell artifacts land under a
  *local* root (payload paths are remapped per host); the finished row is
  uploaded with ``complete`` and the **server** materializes
  ``results.json`` from the catalogue.  Cells are deterministic in (params,
  scale, seed), so a cell reclaimed across hosts recomputes the identical
  row without any shared filesystem.

Stops: SIGTERM/SIGINT (or a ``KeyboardInterrupt`` raised by a cell)
interrupt the drain loop cleanly — the worker releases its current lease
(recorded as ``released`` in ``lease_events``), marks its summary
``interrupted``, and the CLI exits non-zero.  An injected kill ends the
drainer the same way a crash would: its lease is released and it claims no
further cell.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro import telemetry
from repro.experiments.common import ScaleLike
from repro.runs.faults import resolve_fault_plan
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
from repro.store.client import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_RETRIES,
    DEFAULT_TIMEOUT_SECONDS,
    FatalRequestError,
    RetryableTransportError,
    StoreClient,
)
from repro.store.queue import (
    DEFAULT_JOB_ATTEMPTS,
    DEFAULT_LEASE_TTL,
    Job,
    JobQueue,
)
from repro.store.server import finalize_from_catalog


@dataclass
class Submission:
    """What ``submit_campaign`` returns: where the campaign lives."""

    run_id: str
    out_dir: Path
    cells: int
    enqueued: int

    def to_dict(self) -> Dict[str, Any]:
        return {"run_id": self.run_id, "out_dir": str(self.out_dir),
                "cells": self.cells, "enqueued": self.enqueued}


def submit_campaign(experiment: ExperimentLike,
                    scale: Optional[ScaleLike] = None,
                    seed: Optional[int] = None,
                    root: os.PathLike = "runs",
                    out_dir: Optional[os.PathLike] = None,
                    checkpoint_every: int = 2,
                    max_attempts: int = 1, retry_backoff: float = 0.25,
                    fault_plan: Any = None, timeout: Optional[float] = None,
                    catalog: Optional[Catalog] = None) -> Submission:
    """Register a campaign in the catalogue and enqueue its cells.

    ``timeout`` is the per-cell wall-clock budget every drainer enforces.
    Submitting a campaign again is how it resumes: the manifest check
    refuses a *different* campaign in the same directory (a torn manifest
    is quarantined and rewritten), queued jobs take the fresh payload, and
    failed jobs plus done jobs whose ``result.json`` no longer loads go back
    to ``pending``.  Done cells keep their ``result.json`` as the memo.
    """
    spec, scale, seed, out_dir = resolve_campaign(experiment, scale, seed, root,
                                                  out_dir)
    plan = resolve_fault_plan(fault_plan)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = spec.cells(scale)
    manifest = ensure_manifest(out_dir, spec, scale, seed, cells)
    payloads = cell_payloads(spec, scale, seed, out_dir, cells,
                             checkpoint_every=checkpoint_every,
                             fault_plan=plan, max_attempts=max_attempts,
                             retry_backoff=retry_backoff, timeout=timeout)
    lost = [payload["index"] for payload in payloads
            if _load_result(Path(payload["cell_dir"]) / "result.json") is None]
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
        enqueued = JobQueue(catalog).submit(run_id, payloads, requeue=lost)
    finally:
        if owns_catalog:
            catalog.close()
    return Submission(run_id=run_id, out_dir=out_dir, cells=len(cells),
                      enqueued=enqueued)


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

    A ``BaseException`` so the runner's ``except Exception`` retry paths
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
    """Background lease renewal while a cell executes.

    ``beat()`` renews the lease once and returns False when it was lost to
    a reclaim (the new owner re-runs the cell).  It only touches the lease,
    never the cell's computation, so results stay deterministic.  A remote
    beat's transport error is tolerated — the lease may lapse and be
    reclaimed, exactly what a dead network should cause — and the gap
    histogram only advances on success, so the next beat records the true
    outage-spanning gap; a fatal protocol error stops the thread.
    """

    def __init__(self, beat: Callable[[], bool], lease_ttl: int):
        self._beat = beat
        self._interval = max(1.0, int(lease_ttl) / 3.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        gap_seconds = telemetry.histogram("worker.heartbeat.gap_seconds")
        last = time.perf_counter()
        while not self._stop.wait(self._interval):
            try:
                alive = self._beat()
            except RetryableTransportError:
                continue
            except FatalRequestError:
                return
            if not alive:
                telemetry.counter("worker.heartbeat.lost").inc()
                return
            now = time.perf_counter()
            gap_seconds.record(now - last)
            last = now

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _LocalBackend:
    """Queue access through the catalogue file (same-host draining)."""

    def __init__(self, path: Path, worker_id: str, max_job_attempts: int):
        self.path = Path(path)
        self.worker_id = worker_id
        self.catalog = Catalog(self.path)
        self.queue = JobQueue(self.catalog, max_job_attempts=max_job_attempts)

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
                 attempts: int, elapsed: Optional[float]) -> bool:
        return self.queue.complete(job, self.worker_id, status=status,
                                   row=row, attempts=attempts,
                                   elapsed_seconds=elapsed)

    def release(self, job: Job, status: str, error: Optional[str],
                attempts: int) -> Optional[str]:
        return self.queue.release(job, self.worker_id, status=status,
                                  error=error, attempts=attempts)

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
                 max_job_attempts: int, timeout: float, retries: int,
                 backoff: float):
        self.worker_id = worker_id
        self.local_root = Path(local_root)
        self.max_job_attempts = int(max_job_attempts)
        self.client = StoreClient(
            server, worker_id=worker_id, timeout=timeout, max_retries=retries,
            backoff=backoff, retry_seed=zlib.crc32(worker_id.encode("utf-8")))

    def claim(self, run_id: Optional[str], lease_ttl: int) -> Optional[Job]:
        record = self.client.claim(run_id=run_id, lease_ttl=lease_ttl,
                                   max_job_attempts=self.max_job_attempts)
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
                 attempts: int, elapsed: Optional[float]) -> bool:
        response = self.client.complete(
            job.run_id, job.cell_index, status=status, row=row,
            attempts=attempts, elapsed_seconds=elapsed)
        return bool(response.get("applied"))

    def release(self, job: Job, status: str, error: Optional[str],
                attempts: int) -> Optional[str]:
        response = self.client.release(job.run_id, job.cell_index,
                                       status=status, error=error,
                                       attempts=attempts,
                                       max_job_attempts=self.max_job_attempts)
        return response.get("state")

    def outstanding(self, run_id: Optional[str]) -> int:
        return self.client.outstanding(run_id)

    def finalize(self, job: Job) -> None:
        pass  # the server materializes results.json from catalogue rows

    def telemetry_sink(self, worker_id: str) -> Any:
        return telemetry.ClientSink(self.client, worker=worker_id)

    def close(self) -> None:
        pass


def work(root: os.PathLike = "runs", run_id: Optional[str] = None,
         worker_id: Optional[str] = None,
         lease_ttl: int = DEFAULT_LEASE_TTL,
         max_job_attempts: int = DEFAULT_JOB_ATTEMPTS,
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
            max_job_attempts=max_job_attempts, timeout=client_timeout,
            retries=client_retries, backoff=client_backoff)
    else:
        path = (Path(catalog_file) if catalog_file is not None
                else catalog_path(Path(root)))
        backend = _LocalBackend(path, worker_id,
                                max_job_attempts=max_job_attempts)
    claim_seconds = telemetry.histogram("worker.claim.seconds")
    sink = backend.telemetry_sink(worker_id)
    flusher = telemetry.TelemetryFlusher(sink)
    flusher.start()
    job: Optional[Job] = None
    with _SignalGuard():
        try:
            while max_cells is None or len(summary.cells) < max_cells:
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
                with _Heartbeat(lambda: backend.renew_lease(job, lease_ttl),
                                lease_ttl):
                    outcome = execute_cell(payload, sink)
                status = outcome.get("status", "failed")
                record = {"index": job.cell_index, "run_id": job.run_id,
                          "status": status, "attempts": job.attempts}
                attempts = outcome.get("attempt", job.attempts)
                if status in ("completed", "cached"):
                    if backend.complete(job, status, outcome["row"],
                                        attempts,
                                        outcome.get("elapsed_seconds")):
                        summary.completed += 1
                    # else: the lease was reclaimed while we ran; the new
                    # owner re-executes the (idempotent) cell and records it.
                else:
                    new_state = backend.release(job, status,
                                                outcome.get("error"), attempts)
                    if new_state == "failed":
                        summary.failed += 1
                    else:
                        summary.released += 1
                    record["error"] = outcome.get("error")
                finished, job = job, None
                summary.cells.append(record)
                backend.finalize(finished)
                if status == "interrupted":
                    break  # an injected kill ends the drainer, as a crash would
        except (WorkerSignalled, KeyboardInterrupt) as interrupt:
            summary.interrupted = True
            if job is not None:
                # Give the in-flight cell straight back to the queue so another
                # worker picks it up without waiting out the lease TTL.  If the
                # network is also gone, the lease expiring does the same job.
                reason = str(interrupt) or type(interrupt).__name__
                try:
                    backend.release(job, "interrupted", reason, job.attempts)
                except (RetryableTransportError, FatalRequestError):
                    pass
                summary.released += 1
                summary.cells.append({"index": job.cell_index,
                                      "run_id": job.run_id,
                                      "status": "interrupted",
                                      "attempts": job.attempts,
                                      "error": reason})
        finally:
            flusher.stop()
            backend.close()
    return summary


__all__ = [
    "Submission",
    "WorkerSignalled",
    "WorkerSummary",
    "default_worker_id",
    "submit_campaign",
    "work",
]
