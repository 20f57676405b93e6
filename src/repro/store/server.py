"""``repro serve`` — the campaign service's HTTP face (stdlib only).

A small JSON API over :class:`http.server.ThreadingHTTPServer`; the server
owns no execution — it records submissions in the catalogue/queue, answers
reads, and (since PR 9) speaks the full lease protocol so remote
``repro work --server`` workers can drain a campaign with no catalogue file
access.

Endpoints
---------
``GET  /api/health``                     liveness + queue depth + lease count
                                         + draining flag + schema version,
                                         start time, effective BLAS threads,
                                         and code version (so
                                         fleet operators can detect version
                                         skew before a drain)
``GET  /api/experiments``                registered experiment ids
``POST /api/campaigns``                  submit: ``{"experiment": "table5",
                                         "scale": "smoke", "seed": 0}``
                                         (unknown keys are a 400)
``GET  /api/campaigns``                  every run with progress counters
``GET  /api/campaigns/<id>``             one run: cells, provenance, queue
``GET  /api/campaigns/<id>/rows``        finished rows in cell order
``GET  /api/campaigns/<id>/stream``      JSON-lines event stream: a snapshot,
                                         then one event per newly finished
                                         cell, then a terminal run /
                                         timeout / shutdown event
``GET  /api/jobs[?run_id=..]``           queue counts + outstanding jobs
``POST /api/jobs/claim``                 lease the next job (503 while
                                         draining)
``POST /api/jobs/heartbeat``             extend a lease
``POST /api/jobs/complete``              upload a finished row, mark done
``POST /api/jobs/release``               give a failed job back (either is
                                         ``applied: false`` without the lease)
``GET  /api/query?metric=..&by=..``      cross-run aggregation
``GET  /api/workers``                    live worker roster (leases +
                                         heartbeats + telemetry: host, pid,
                                         current cell, last-seen, rates)
``GET  /api/telemetry``                  recent telemetry points + counter
                                         totals (``?name=``, ``?worker=``,
                                         ``?limit=``)
``POST /api/telemetry``                  batch-report a worker's metric
                                         flush (exactly-once via the same
                                         idempotency machinery as the lease
                                         protocol)

Observability: every request increments a per-endpoint counter and lands in
a latency histogram (``server.requests.<endpoint>`` /
``server.request.seconds``); a background ``TelemetryFlusher`` persists the
server's own metrics into the catalogue it serves.  All of it is inert
under ``REPRO_TELEMETRY=0``.

Exactly-once mutations: every mutating job request may carry an
``idempotency_key``; the key lookup, the queue transition (which lands its
catalogue cell row, see :class:`~repro.store.queue.JobQueue`), and the
response recording all commit in **one** transaction
(see :meth:`~repro.store.connection.StoreConnection.transaction` —
re-entrant precisely for this).  A retried or duplicated delivery replays
the recorded response with ``"replayed": true`` instead of re-applying, so
``lease_events`` carries exactly one applied ``completed`` event per cell no
matter what the network does.

Hardening: per-connection read timeouts (a stalled client cannot pin a
handler thread), a request body cap (413 past it), and graceful drain —
SIGTERM (or :meth:`CampaignServer.initiate_drain`) finishes in-flight
requests, terminates long-poll streams with a ``shutdown`` event within one
poll interval, and refuses new claims with 503 so workers fail over or back
off.

One catalogue connection per server: :class:`CampaignServer` opens the
catalogue once, at construction, and every handler thread reaches it only
through :meth:`CampaignServer.catalog`, which holds the server's one lock for
the whole ``with`` block.  The lock is what makes sharing safe:
:meth:`~repro.store.connection.StoreConnection.transaction` is re-entrant per
connection, so two unlocked handlers would silently join each other's
``BEGIN IMMEDIATE``.  Handlers do no socket I/O under the lock — they read or
commit, leave the block, then send — so a slow client never stalls the
others.  Other processes (local drainers, the CLI) keep their own
connections and coexist with the server's under WAL; ``server_close()``
closes the server's connection after the handler threads are joined.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import telemetry
from repro._blas import blas_threads
from repro.rl.stats import dump_json
from repro.runs.artifacts import atomic_write_json
from repro.store.catalog import Catalog, catalog_path, code_version
from repro.store.query import aggregate_bench, aggregate_metric
from repro.store.schema import SCHEMA_VERSION
from repro.store.queue import (
    DEFAULT_JOB_ATTEMPTS,
    DEFAULT_LEASE_TTL,
    Job,
    JobQueue,
)

DEFAULT_PORT = 8642

#: Seconds between catalogue polls while streaming campaign events (also the
#: worst-case latency for a stream to observe a server shutdown).
STREAM_POLL_SECONDS = 0.25

#: Default wall-clock budget of one stream request.
STREAM_TIMEOUT_SECONDS = 300.0

#: Per-connection socket read deadline (seconds).
REQUEST_TIMEOUT_SECONDS = 30.0

#: Largest accepted request body; anything bigger is answered with 413.
MAX_BODY_BYTES = 8_000_000

#: The keys a ``POST /api/campaigns`` body may carry; any other is a 400.
SUBMIT_KEYS = frozenset({"experiment", "scale", "seed", "checkpoint_every",
                         "max_attempts", "retry_backoff", "fault_plan",
                         "timeout"})


class CampaignServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one runs root + catalogue file.

    The server holds one catalogue connection for its whole life; handlers
    use it only inside ``with server.catalog() as catalog:``, which holds
    the server's lock, and send their response after leaving that block.

    Non-daemon handler threads + ``block_on_close`` make ``server_close()``
    *join* in-flight requests — safe because every long-poll observes
    :attr:`shutdown_event` and exits within one poll interval — before it
    closes the connection.
    """

    daemon_threads = False
    block_on_close = True
    max_body_bytes = MAX_BODY_BYTES

    def __init__(self, root: Path, address: Tuple[str, int]):
        self.root = Path(root)
        self.catalog_file = catalog_path(self.root)
        self.shutdown_event = threading.Event()
        self.draining = False
        self.code_version = code_version()
        # The one connection every handler thread shares (hence
        # check_same_thread=False), always under _catalog_lock.  Opening it
        # here also ensures the schema exists before the first request and
        # stamps the start time on the catalogue's SQL clock (the wall clock
        # is lint-banned in repro code).
        self._catalog = Catalog(self.catalog_file, check_same_thread=False)
        self._catalog_lock = threading.Lock()
        self.started_unix = self._catalog.conn.now()
        self._started_monotonic = time.perf_counter()
        self.telemetry_flusher = telemetry.TelemetryFlusher(
            telemetry.CatalogSink(
                self.catalog_file,
                worker=f"serve-{socket.gethostname()}-{os.getpid()}"))
        self.telemetry_flusher.start()
        super().__init__(address, CampaignRequestHandler)

    @contextmanager
    def catalog(self) -> Iterator[Catalog]:
        """The server's catalogue connection, held under its lock."""
        with self._catalog_lock:
            yield self._catalog

    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._started_monotonic

    def server_close(self) -> None:
        super().server_close()  # joins the handler threads
        self.telemetry_flusher.stop()
        # The last connection to close checkpoints the WAL into the file.
        self._catalog.close()

    def shutdown(self) -> None:
        # Wake long-poll streams *before* stopping the accept loop, so the
        # serve_forever caller is never left joining a 300-second stream.
        self.shutdown_event.set()
        super().shutdown()

    def initiate_drain(self) -> None:
        """Graceful SIGTERM drain: refuse new claims, terminate streams,
        finish in-flight requests, then stop.  Returns immediately; the
        actual ``shutdown()`` must run off the serve_forever thread (calling
        it inline from a handler or a signal landing on that thread would
        deadlock)."""
        self.draining = True
        self.shutdown_event.set()
        threading.Thread(target=self.shutdown, daemon=True).start()


class CampaignRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_SECONDS
    server: CampaignServer

    # ----------------------------------------------------------- dispatching
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        started = time.perf_counter()
        try:
            if parts == ["api", "health"]:
                self._health()
            elif parts == ["api", "experiments"]:
                from repro.runs.registry import list_experiments

                self._json(200, {"experiments": list_experiments()})
            elif parts == ["api", "campaigns"]:
                with self.server.catalog() as catalog:
                    runs = catalog.list_runs()
                self._json(200, {"campaigns": runs})
            elif len(parts) == 3 and parts[:2] == ["api", "campaigns"]:
                self._campaign_detail(parts[2])
            elif len(parts) == 4 and parts[:2] == ["api", "campaigns"] \
                    and parts[3] == "rows":
                self._campaign_rows(parts[2])
            elif len(parts) == 4 and parts[:2] == ["api", "campaigns"] \
                    and parts[3] == "stream":
                self._stream(parts[2], query)
            elif parts == ["api", "jobs"]:
                self._jobs_overview(query)
            elif parts == ["api", "query"]:
                self._query(query)
            elif parts == ["api", "workers"]:
                self._workers(query)
            elif parts == ["api", "telemetry"]:
                self._telemetry_read(query)
            else:
                self._json(404, {"error": f"no route for {url.path}"})
        except ValueError as error:
            self._json(400, {"error": str(error)})
        except BrokenPipeError:  # client went away mid-stream
            pass
        except Exception as error:  # pragma: no cover - defensive 500
            self._json(500, {"error": f"{type(error).__name__}: {error}"})
        finally:
            self._observe_request("GET", parts, started)

    def do_POST(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        started = time.perf_counter()
        try:
            if parts == ["api", "campaigns"]:
                self._submit()
            elif parts == ["api", "jobs", "claim"]:
                self._job_claim()
            elif parts == ["api", "jobs", "heartbeat"]:
                self._job_heartbeat()
            elif parts == ["api", "jobs", "complete"]:
                self._job_complete()
            elif parts == ["api", "jobs", "release"]:
                self._job_release()
            elif parts == ["api", "telemetry"]:
                self._telemetry_report()
            else:
                self._json(404, {"error": f"no route for {url.path}"})
        except (ValueError, KeyError) as error:
            self._json(400, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive 500
            self._json(500, {"error": f"{type(error).__name__}: {error}"})
        finally:
            self._observe_request("POST", parts, started)

    def _observe_request(self, method: str, parts: List[str],
                         started: float) -> None:
        label = _endpoint_label(method, parts)
        telemetry.counter("server.requests." + label).inc()
        telemetry.histogram("server.request.seconds").record(
            time.perf_counter() - started)

    # -------------------------------------------------------------- handlers
    def _read_body(self) -> Dict[str, Any]:
        """The request's JSON body (413 past the size cap, 400 on bad JSON)."""
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:
            # The body's end is unknowable, so the connection cannot carry
            # another request; rfile.read(-1) would block until the timeout.
            self.close_connection = True
            raise ValueError(f"negative Content-Length {length}")
        if length > self.server.max_body_bytes:
            self.close_connection = True
            self._json(413, {"error": f"request body of {length} bytes "
                             f"exceeds the {self.server.max_body_bytes}-byte"
                             " cap"})
            raise _Responded()
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not JSON: {error}")
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _health(self) -> None:
        with self.server.catalog() as catalog:
            counts = JobQueue(catalog).counts()
        telemetry.gauge("server.queue.depth").set(counts.get("pending", 0))
        telemetry.gauge("server.queue.leased").set(counts.get("leased", 0))
        self._json(200, {
            "ok": True, "catalog": str(self.server.catalog_file),
            "root": str(self.server.root),
            "draining": self.server.draining,
            "queue": counts,
            "queue_depth": counts.get("pending", 0),
            "active_leases": counts.get("leased", 0),
            "schema_version": SCHEMA_VERSION,
            "started_unix": self.server.started_unix,
            "uptime_seconds": round(self.server.uptime_seconds(), 3),
            "code_version": self.server.code_version,
            "blas_threads": blas_threads(),
        })

    def _workers(self, query: Dict[str, str]) -> None:
        stale = int(query.get("stale_seconds", 120))
        with self.server.catalog() as catalog:
            roster = catalog.worker_roster(stale_seconds=stale)
        self._json(200, {"workers": roster, "stale_seconds": stale})

    def _telemetry_read(self, query: Dict[str, str]) -> None:
        limit = int(query.get("limit", 100))
        with self.server.catalog() as catalog:
            points = catalog.telemetry_points(
                name=query.get("name"), worker=query.get("worker"),
                limit=limit)
            totals = catalog.telemetry_totals(
                since_unix=int(query["since"]) if "since" in query else None)
        self._json(200, {"points": points, "totals": totals})

    def _telemetry_report(self) -> None:
        body = self._read_body()
        worker = str(body.get("worker") or "remote")
        points = body.get("points") or []
        spans = body.get("spans") or []
        if not isinstance(points, list) or not isinstance(spans, list):
            raise ValueError('"points" and "spans" must be JSON arrays')

        def apply(catalog: Catalog) -> Dict[str, Any]:
            recorded = catalog.record_telemetry(
                worker, points, spans,
                host=body.get("host"), pid=body.get("pid"))
            return {"recorded": recorded, "worker": worker}

        self._mutate("telemetry", body, apply)

    def _submit(self) -> None:
        from repro.store.worker import submit_campaign

        body = self._read_body()
        if "experiment" not in body:
            raise ValueError('body must be a JSON object with "experiment"')
        unknown = sorted(set(body) - SUBMIT_KEYS)
        if unknown:
            raise ValueError(f"unknown submit keys {unknown}; "
                             f"choose from {sorted(SUBMIT_KEYS)}")
        submission = submit_campaign(
            body["experiment"], scale=body.get("scale"),
            seed=body.get("seed"), root=self.server.root,
            checkpoint_every=int(body.get("checkpoint_every", 2)),
            max_attempts=int(body.get("max_attempts", 1)),
            retry_backoff=float(body.get("retry_backoff", 0.25)),
            fault_plan=body.get("fault_plan"), timeout=body.get("timeout"))
        self._json(201, {"submitted": submission.to_dict()})

    # ----------------------------------------------------- the lease protocol
    def _mutate(self, endpoint: str, body: Dict[str, Any],
                apply: "Callable[[Catalog], Dict[str, Any]]") -> Dict[str, Any]:
        """Run one exactly-once mutation and send its JSON response.

        Key lookup, mutation, and response recording share one transaction:
        either the mutation applied *and* its response is replayable, or
        neither happened.  The response goes out after the commit, with the
        catalogue lock released.  Returns the response for post-commit
        follow-ups.
        """
        key = body.get("idempotency_key")
        with self.server.catalog() as catalog, catalog.conn.transaction():
            replayed = catalog.idempotent_replay(key)
            if replayed is not None:
                response = dict(replayed)
                response["replayed"] = True
            else:
                response = apply(catalog)
                catalog.idempotent_record(key, endpoint, response)
        self._json(200, response)
        return response

    def _job_claim(self) -> None:
        if self.server.draining:
            self.close_connection = True
            self._json(503, {"error": "server is draining; claims refused",
                             "draining": True})
            return
        body = self._read_body()
        worker = str(body.get("worker") or "remote")

        def apply(catalog: Catalog) -> Dict[str, Any]:
            queue = JobQueue(catalog, max_job_attempts=int(
                body.get("max_job_attempts", DEFAULT_JOB_ATTEMPTS)))
            job = queue.claim(worker, run_id=body.get("run_id"),
                              lease_ttl=int(body.get("lease_ttl",
                                                     DEFAULT_LEASE_TTL)))
            if job is None:
                return {"job": None,
                        "outstanding": queue.outstanding(body.get("run_id"))}
            # A shallow dict: asdict() would deep-copy the payload.
            return {"job": {field.name: getattr(job, field.name)
                            for field in dataclasses.fields(job)}}

        self._mutate("claim", body, apply)

    def _job_from(self, catalog: Catalog, body: Dict[str, Any]) -> Job:
        """Rebuild the queue's view of the job a remote worker refers to."""
        run_id = str(body["run_id"])
        cell_index = int(body["cell_index"])
        row = catalog.conn.fetchone(
            "SELECT attempts, payload_json FROM jobs"
            " WHERE run_id = ? AND cell_index = ?", (run_id, cell_index))
        if row is None:
            raise ValueError(f"no job for {run_id!r} cell {cell_index}")
        return Job(run_id=run_id, cell_index=cell_index,
                   payload=json.loads(row["payload_json"]),
                   attempts=int(row["attempts"]))

    def _job_heartbeat(self) -> None:
        body = self._read_body()
        # Heartbeats are naturally idempotent (each just extends the
        # expiry), so they bypass the key machinery.
        with self.server.catalog() as catalog:
            try:
                job = self._job_from(catalog, body)
            except ValueError:
                job = None
            alive = job is not None and JobQueue(catalog).heartbeat(
                job, str(body["worker"]),
                lease_ttl=int(body.get("lease_ttl", DEFAULT_LEASE_TTL)))
        self._json(200, {"alive": alive})

    def _job_complete(self) -> None:
        body = self._read_body()
        worker = str(body["worker"])

        def apply(catalog: Catalog) -> Dict[str, Any]:
            job = self._job_from(catalog, body)
            applied = JobQueue(catalog).complete(
                job, worker, status=str(body.get("status", "completed")),
                row=body.get("row"), attempts=body.get("attempts"),
                elapsed_seconds=body.get("elapsed_seconds"))
            return {"applied": applied, "run_id": job.run_id,
                    "cell_index": job.cell_index}

        self._mutate("complete", body, apply)
        with self.server.catalog() as catalog:
            finalize_from_catalog(catalog, str(body["run_id"]))

    def _job_release(self) -> None:
        body = self._read_body()
        worker = str(body["worker"])

        def apply(catalog: Catalog) -> Dict[str, Any]:
            job = self._job_from(catalog, body)
            queue = JobQueue(catalog, max_job_attempts=int(
                body.get("max_job_attempts", DEFAULT_JOB_ATTEMPTS)))
            state = queue.release(
                job, worker, status=str(body.get("status", "failed")),
                error=body.get("error"), attempts=body.get("attempts"))
            return {"applied": state is not None, "state": state,
                    "run_id": job.run_id, "cell_index": job.cell_index}

        self._mutate("release", body, apply)

    def _jobs_overview(self, query: Dict[str, str]) -> None:
        run_id = query.get("run_id")
        with self.server.catalog() as catalog:
            queue = JobQueue(catalog)
            overview = {"run_id": run_id, "counts": queue.counts(run_id),
                        "outstanding": queue.outstanding(run_id)}
        self._json(200, overview)

    # ------------------------------------------------------------- campaigns
    def _campaign_detail(self, run_id: str) -> None:
        with self.server.catalog() as catalog:
            info = catalog.run_info(run_id)
            if info is not None:
                queue = JobQueue(catalog)
                info["queue"] = queue.counts(run_id)
                info["lease_events"] = queue.lease_events(run_id)[-50:]
        if info is None:
            self._json(404, {"error": f"unknown campaign {run_id!r}"})
            return
        self._json(200, info)

    def _campaign_rows(self, run_id: str) -> None:
        with self.server.catalog() as catalog:
            rows = catalog.rows(run_id) if catalog.has_run(run_id) else None
        if rows is None:
            self._json(404, {"error": f"unknown campaign {run_id!r}"})
            return
        self._json(200, {"run_id": run_id, "rows": rows})

    def _query(self, query: Dict[str, str]) -> None:
        metric = query.get("metric")
        if not metric:
            raise ValueError("query needs a ?metric= parameter")
        with self.server.catalog() as catalog:
            if query.get("bench"):
                rows = aggregate_bench(catalog, metric,
                                       by=query.get("by", "num_envs"),
                                       benchmark=query.get("benchmark"),
                                       scenario=query.get("scenario"))
            else:
                rows = aggregate_metric(catalog, metric,
                                        by=query.get("by", "run"),
                                        experiment=query.get("experiment"),
                                        scale=query.get("scale"))
        self._json(200, {"metric": metric, "by": query.get("by"),
                         "rows": rows})

    def _stream(self, run_id: str, query: Dict[str, str]) -> None:
        """JSON-lines campaign events until completion, timeout, or shutdown.

        The loop never sleeps blindly: it waits on the server's
        ``shutdown_event``, so a draining server terminates every stream
        with a ``shutdown`` event within one poll interval instead of
        holding its handler thread for up to the full stream timeout.
        """
        timeout = float(query.get("timeout", STREAM_TIMEOUT_SECONDS))
        deadline = time.perf_counter() + timeout
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        seen: Dict[int, str] = {}
        first = True
        while True:
            with self.server.catalog() as catalog:
                info = catalog.run_info(run_id)
            if info is None:
                self._stream_line({"event": "error",
                                   "error": f"unknown campaign {run_id!r}"})
                return
            if first:
                self._stream_line({"event": "snapshot", "run_id": run_id,
                                   "status": info["status"],
                                   "cells": len(info["cell_statuses"])})
                first = False
            for cell in info["cell_statuses"]:
                status = cell["status"]
                if status == "pending" or seen.get(cell["cell_index"]) == status:
                    continue
                seen[cell["cell_index"]] = status
                self._stream_line({"event": "cell", "run_id": run_id,
                                   "index": cell["cell_index"],
                                   "status": status,
                                   "attempts": cell["attempts"]})
            if info["status"] in ("complete", "failed"):
                self._stream_line({"event": "run", "run_id": run_id,
                                   "status": info["status"]})
                return
            if time.perf_counter() > deadline:
                self._stream_line({"event": "timeout", "run_id": run_id,
                                   "status": info["status"]})
                return
            if self.server.shutdown_event.wait(STREAM_POLL_SECONDS):
                self._stream_line({"event": "shutdown", "run_id": run_id,
                                   "status": info["status"]})
                return

    # --------------------------------------------------------------- plumbing
    def _json(self, code: int, payload: Any) -> None:
        body = dump_json(payload, indent=2).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_line(self, payload: Any) -> None:
        self.wfile.write((dump_json(payload) + "\n").encode("utf-8"))
        self.wfile.flush()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; the CLI prints the endpoint once

    def handle(self) -> None:
        # A _Responded raised mid-handler means the response already went
        # out (the 413 path); swallow it here rather than crash the thread.
        try:
            super().handle()
        except _Responded:
            pass


def _endpoint_label(method: str, parts: List[str]) -> str:
    """Low-cardinality metric label for one request path."""
    if len(parts) >= 2 and parts[0] == "api":
        if parts[1] == "campaigns" and len(parts) >= 4:
            tail = parts[3] if parts[3] in ("rows", "stream") else "detail"
            return f"{method}.campaigns.{tail}"
        if parts[1] == "campaigns" and len(parts) == 3:
            return f"{method}.campaigns.detail"
        if parts[1] == "jobs" and len(parts) == 3:
            return f"{method}.jobs.{parts[2]}"
        return f"{method}.{parts[1]}"
    return f"{method}.other"


class _Responded(BaseException):
    """Internal: the handler already sent a response; stop processing.

    Derives from ``BaseException`` so the dispatchers' defensive
    ``except Exception`` blocks cannot turn it into a second (500)
    response on the same connection.
    """


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


def make_server(root: Path, host: str = "127.0.0.1",
                port: int = DEFAULT_PORT) -> CampaignServer:
    """Build (but do not start) a campaign server; port 0 picks a free one."""
    return CampaignServer(Path(root), (host, port))


def serve(root: Path, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          ready_message: Optional[Any] = print) -> None:
    """Run the campaign service until interrupted (SIGTERM drains gracefully)."""
    server = make_server(root, host, port)
    bound_host, bound_port = server.server_address[:2]
    if ready_message is not None:
        ready_message(f"repro serve: http://{bound_host}:{bound_port}/api/ "
                      f"(root={root}, catalog={server.catalog_file})")
    previous = None
    installed = threading.current_thread() is threading.main_thread()
    if installed:
        previous = signal.signal(signal.SIGTERM,
                                 lambda *_: server.initiate_drain())
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown_event.set()
    finally:
        if installed:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()


__all__ = [
    "CampaignServer",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "REQUEST_TIMEOUT_SECONDS",
    "finalize_from_catalog",
    "make_server",
    "serve",
]
