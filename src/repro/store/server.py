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
``GET  /api/jobs[?run_id=..]``           queue counts + outstanding jobs
``POST /api/jobs/claim``                 lease the next job (503 while
                                         draining)
``POST /api/jobs/heartbeat``             extend a lease
``POST /api/jobs/complete``              upload a finished row, mark done;
                                         an optional ``claim`` object
                                         (``run_id``, ``lease_ttl``) also
                                         leases the next job (``"job"`` in the
                                         answer; ``null`` plus
                                         ``"draining": true`` while
                                         draining)
``POST /api/jobs/release``               give a failed job back (either is
                                         ``applied: false`` without the lease)
``GET  /api/query?metric=..&by=..``      cross-run aggregation (also
                                         ``experiment``/``scale``; any
                                         other parameter is a 400)
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
matter what the network does.  A complete that carries a ``claim`` completes
the cell and leases the next job in that one transaction, under the
complete's key (:meth:`~repro.store.queue.JobQueue.complete_and_claim`, the
same claim ``/api/jobs/claim`` runs): a retried or duplicated delivery
replays the same next job and never leases a second one, and a busy worker
pays one round trip per cell.

Keep-alive: handlers speak HTTP/1.1 and serve one request after another on
a connection until the client asks to close, the connection idles for
``REQUEST_TIMEOUT_SECONDS``, or the server shuts down.  Nagle's algorithm
is off on every connection (``disable_nagle_algorithm``):
``BaseHTTPRequestHandler`` writes the headers and the body in two
``send()`` calls, and with Nagle on, the body of every kept-alive response
waits for the client's delayed ACK (44 ms per request on a 2-core Linux
host, against 0.8 ms with Nagle off).

Hardening: per-connection read timeouts (a stalled client cannot pin a
handler thread), a request body cap (413 past it), and graceful drain —
SIGTERM (or :meth:`CampaignServer.initiate_drain`) finishes in-flight
requests and refuses new claims with 503 so workers fail over or back off
(a complete still applies; the claim it carries leases nothing).  A drain
also closes kept-alive connections: a handler waiting for its
connection's next request sees :attr:`CampaignServer.shutdown_event` within
one poll interval and closes it, and every response sent while shutting
down carries ``Connection: close`` — so ``server_close()`` joins no handler
that is merely waiting for an idle client.

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
import select
import signal
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from repro import telemetry
from repro._blas import blas_threads
from repro.jsonio import dump_json
from repro.store.catalog import Catalog, catalog_path, code_version
from repro.store.query import aggregate_metric
from repro.store.schema import SCHEMA_VERSION
from repro.store.queue import (
    DEFAULT_LEASE_TTL,
    Job,
    JobQueue,
    finalize_from_catalog,
)

DEFAULT_PORT = 8642

#: Seconds between shutdown checks while a kept-alive connection idles (the
#: worst-case latency for an idle connection to observe a server shutdown).
POLL_SECONDS = 0.25

#: Per-connection socket read deadline (seconds), also the longest a
#: kept-alive connection may idle between requests.
REQUEST_TIMEOUT_SECONDS = 30.0

#: Largest accepted request body; anything bigger is answered with 413.
MAX_BODY_BYTES = 8_000_000

#: The keys a ``POST /api/campaigns`` body may carry; any other is a 400.
SUBMIT_KEYS = frozenset({"experiment", "scale", "seed", "checkpoint_every",
                         "max_attempts", "fault_plan", "timeout"})

#: The parameters ``GET /api/query`` reads; any other is a 400.
QUERY_KEYS = frozenset({"metric", "by", "experiment", "scale"})


class CampaignServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one runs root + catalogue file.

    The server holds one catalogue connection for its whole life; handlers
    use it only inside ``with server.catalog() as catalog:``, which holds
    the server's lock, and send their response after leaving that block.

    Non-daemon handler threads + ``block_on_close`` make ``server_close()``
    *join* in-flight requests — safe because every idle kept-alive
    connection observes :attr:`shutdown_event` and exits within one poll
    interval — before it closes the connection.
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
        self.shutdown_event.set()  # idle kept-alive handlers exit
        super().server_close()  # joins the handler threads
        self.telemetry_flusher.stop()
        # The last connection to close checkpoints the WAL into the file.
        self._catalog.close()

    def initiate_drain(self) -> None:
        """Graceful SIGTERM drain: refuse new claims, close idle kept-alive
        connections, finish in-flight requests, then stop.  Returns
        immediately; the actual ``shutdown()`` must run off the serve_forever
        thread (calling it inline from a handler or a signal landing on that
        thread would deadlock)."""
        self.draining = True
        self.shutdown_event.set()
        threading.Thread(target=self.shutdown, daemon=True).start()


class CampaignRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_SECONDS
    disable_nagle_algorithm = True
    server: CampaignServer

    # ----------------------------------------------------------- dispatching
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.split("/") if p]
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
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # pragma: no cover - defensive 500
            self._json(500, {"error": f"{type(error).__name__}: {error}"})
        finally:
            self._observe_request("GET", parts, started)

    def do_POST(self) -> None:  # noqa: N802
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.split("/") if p]
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
        if not isinstance(points, list):
            raise ValueError('"points" must be a JSON array')

        def apply(catalog: Catalog) -> Dict[str, Any]:
            recorded = catalog.record_telemetry(
                worker, points, host=body.get("host"), pid=body.get("pid"))
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
            queue = JobQueue(catalog)
            job = queue.claim(worker, **_claim_args(body))
            if job is None:
                return {"job": None,
                        "outstanding": queue.outstanding(body.get("run_id"))}
            return {"job": _job_record(job)}

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
        claim = body.get("claim")
        if claim is not None and not isinstance(claim, dict):
            raise ValueError('"claim" must be a JSON object')

        def apply(catalog: Catalog) -> Dict[str, Any]:
            job = self._job_from(catalog, body)
            queue = JobQueue(catalog)
            outcome = dict(status=str(body.get("status", "completed")),
                           row=body.get("row"),
                           elapsed_seconds=body.get("elapsed_seconds"))
            response: Dict[str, Any] = {"run_id": job.run_id,
                                        "cell_index": job.cell_index}
            if claim is None or self.server.draining:
                response["applied"] = queue.complete(job, worker, **outcome)
                if claim is not None:  # a draining server leases nothing
                    response.update(job=None, draining=True)
                return response
            applied, claimed = queue.complete_and_claim(
                job, worker, **_claim_args(claim), **outcome)
            response.update(applied=applied, job=(
                None if claimed is None else _job_record(claimed)))
            return response

        self._mutate("complete", body, apply)
        with self.server.catalog() as catalog:
            finalize_from_catalog(catalog, str(body["run_id"]))

    def _job_release(self) -> None:
        body = self._read_body()
        worker = str(body["worker"])

        def apply(catalog: Catalog) -> Dict[str, Any]:
            job = self._job_from(catalog, body)
            state = JobQueue(catalog).release(
                job, worker, status=str(body.get("status", "failed")),
                error=body.get("error"))
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
        unknown = sorted(set(query) - QUERY_KEYS)
        if unknown:
            raise ValueError(f"unknown query parameters {unknown}; "
                             f"choose from {sorted(QUERY_KEYS)}")
        metric = query.get("metric")
        if not metric:
            raise ValueError("query needs a ?metric= parameter")
        with self.server.catalog() as catalog:
            rows = aggregate_metric(catalog, metric, by=query.get("by", "run"),
                                    experiment=query.get("experiment"),
                                    scale=query.get("scale"))
        self._json(200, {"metric": metric, "by": query.get("by"),
                         "rows": rows})

    # --------------------------------------------------------------- plumbing
    def _json(self, code: int, payload: Any) -> None:
        body = dump_json(payload, indent=2).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.server.shutdown_event.is_set():
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; the CLI prints the endpoint once

    def handle(self) -> None:
        # BaseHTTPRequestHandler.handle(), with the wait for each further
        # request on a kept-alive connection made interruptible by a drain.
        # A _Responded raised mid-handler means the response already went
        # out (the 413 path); swallow it here rather than crash the thread.
        self.close_connection = True
        try:
            self.handle_one_request()
            while not self.close_connection and self._await_request():
                self.handle_one_request()
        except _Responded:
            pass

    def _await_request(self) -> bool:
        """Wait for the next request on a kept-alive connection.

        True once request bytes (or the client's EOF) are readable; False —
        close the connection — when the server is shutting down or the
        connection idled for :attr:`timeout`.  Polls the socket in
        ``POLL_SECONDS`` steps, so a drain never joins an idle
        handler for the whole idle timeout.
        """
        # Bytes the previous request's reads already buffered are invisible
        # to poll(); a non-blocking peek sees them (or reads what arrived).
        self.connection.setblocking(False)
        try:
            buffered = self.rfile.peek(1)
        except OSError:  # the client reset the idle connection
            return False
        finally:
            self.connection.settimeout(self.timeout)
        if buffered:
            return True
        poller = select.poll()
        poller.register(self.connection, select.POLLIN)
        deadline = time.perf_counter() + float(self.timeout)
        while True:
            draining = self.server.shutdown_event.is_set()
            if poller.poll(0 if draining else POLL_SECONDS * 1000):
                return True
            if draining or time.perf_counter() >= deadline:
                return False


def _claim_args(claim: Dict[str, Any]) -> Dict[str, Any]:
    """The :meth:`JobQueue.claim` arguments of a claim object (the body of
    ``/api/jobs/claim`` or the ``claim`` a complete carries)."""
    return {"run_id": claim.get("run_id"),
            "lease_ttl": int(claim.get("lease_ttl", DEFAULT_LEASE_TTL))}


def _job_record(job: Job) -> Dict[str, Any]:
    """A claimed job as JSON: a shallow dict, since asdict() would
    deep-copy the payload."""
    return {field.name: getattr(job, field.name)
            for field in dataclasses.fields(job)}


def _endpoint_label(method: str, parts: List[str]) -> str:
    """Low-cardinality metric label for one request path."""
    if len(parts) >= 2 and parts[0] == "api":
        if parts[1] == "campaigns" and len(parts) >= 4:
            tail = "rows" if parts[3] == "rows" else "detail"
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
    "make_server",
    "serve",
]
