"""``StoreClient`` — the sole sanctioned HTTP transport of the repo.

Every network call a ``repro work --server`` worker makes goes through this
module (the ``artifacts.store-client`` lint rule bans raw ``urllib`` /
``http.client`` / ``socket`` request construction anywhere else), because
this is where the reliability contract lives:

* **deadline** — every request carries a per-attempt socket timeout, so a
  stalled server can never hang a worker;
* **bounded retries** — transient failures are retried up to
  ``max_retries`` times with deterministic exponential backoff plus
  seed-derived jitter (no RNG state, so two clients with the same
  ``retry_seed`` sleep the same schedule);
* **error taxonomy** — failures are split into
  :class:`RetryableTransportError` (connection refused/reset, timeouts,
  5xx, a draining server's 503, torn response bytes) and
  :class:`FatalRequestError` (4xx, protocol violations): only the former is
  ever retried, and it is raised to the caller only once the budget is
  exhausted;
* **idempotency keys** — every mutating call carries a client-unique key,
  stable across its retries, so the server can make the lease protocol
  exactly-once: a retried ``complete`` whose first response was lost
  replays the recorded response instead of double-applying.

Network faults are injected outside the client, by the TCP
:class:`~repro.store.chaos.ChaosProxy`, so the client under test is the
client that runs.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.rl.stats import dump_json

#: Per-attempt socket deadline (seconds) unless the caller overrides it.
DEFAULT_TIMEOUT_SECONDS = 30.0

#: Retries after the first attempt (6 retries -> 7 attempts total).
DEFAULT_MAX_RETRIES = 6

#: Base backoff (seconds); doubles per retry up to :data:`BACKOFF_CAP_SECONDS`.
DEFAULT_BACKOFF_SECONDS = 0.25

BACKOFF_CAP_SECONDS = 8.0

#: A transport is any callable with this signature.
Transport = Callable[[str, str, Optional[bytes], Mapping[str, str], float],
                     Tuple[int, bytes]]


class StoreClientError(Exception):
    """Base of the client's error taxonomy."""


class FatalRequestError(StoreClientError):
    """A non-retryable failure: the request itself is wrong (4xx, protocol
    violations).  Retrying an identical request cannot succeed, so the
    client fails fast instead of burning its budget."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class RetryableTransportError(StoreClientError):
    """A transient failure: connection refused/reset, a timeout, a 5xx, a
    draining server's 503, or a response torn mid-flight.  The client
    retries these (mutations re-send the same idempotency key); the
    instance that escapes to the caller carries the attempt count."""

    def __init__(self, message: str, status: Optional[int] = None,
                 attempts: int = 1):
        super().__init__(message)
        self.status = status
        self.attempts = attempts


def _mix64(value: int) -> int:
    """splitmix64 finalizer — the deterministic jitter source."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def backoff_schedule(base: float, retries: int, seed: int,
                     cap: float = BACKOFF_CAP_SECONDS) -> List[float]:
    """The deterministic sleep schedule: ``base * 2**i`` capped, plus up to
    25% seed-derived jitter so a fleet of workers does not retry in
    lockstep (each worker seeds from its own identity)."""
    delays = []
    for attempt in range(retries):
        delay = min(cap, base * (2 ** attempt))
        jitter = _mix64((seed << 8) ^ attempt) / float(2 ** 64)
        delays.append(delay * (1.0 + 0.25 * jitter))
    return delays


class UrllibTransport:
    """The real transport: one stdlib-``urllib`` request per call.

    ``Connection: close`` is sent on every request — one request per TCP
    connection keeps the chaos proxy's request counting exact and means a
    dead server never poisons a kept-alive socket.
    """

    def __call__(self, method: str, url: str, body: Optional[bytes],
                 headers: Mapping[str, str], timeout: float) -> Tuple[int, bytes]:
        request = urllib.request.Request(url, data=body, method=method,
                                         headers=dict(headers))
        request.add_header("Connection", "close")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            # A non-2xx response with a body is still a response; the
            # client classifies it by status.
            return error.code, error.read()


class StoreClient:
    """HTTP access to a ``repro serve`` catalogue with the full reliability
    contract (deadline, bounded deterministic retries, error taxonomy,
    idempotency keys).  Thread-safe for concurrent calls; mutation key
    generation is lock-protected."""

    def __init__(self, base_url: str, *, worker_id: str = "client",
                 timeout: float = DEFAULT_TIMEOUT_SECONDS,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 retry_seed: int = 0,
                 transport: Optional[Transport] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.worker_id = worker_id
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.retry_seed = int(retry_seed)
        self.transport: Transport = transport or UrllibTransport()
        self._sleep = sleep
        # Idempotency keys must be unique across client *instances* (a
        # restarted worker reusing --worker-id must not replay the previous
        # process's responses) and stable across retries of one mutation.
        self._session = os.urandom(4).hex()
        self._sequence = 0
        self._lock = threading.Lock()

    # ----------------------------------------------------------- primitives
    def _next_key(self, op: str) -> str:
        with self._lock:
            self._sequence += 1
            return f"{self.worker_id}.{self._session}.{self._sequence:06d}.{op}"

    def request(self, method: str, path: str,
                payload: Optional[Mapping[str, Any]] = None,
                timeout: Optional[float] = None) -> Dict[str, Any]:
        """One logical call: attempt, classify, back off, retry, or raise.

        Retries re-send byte-identical requests — for mutations the payload
        already carries its idempotency key, so a lost response and a
        duplicated delivery are indistinguishable to the server.
        """
        url = f"{self.base_url}{path}"
        body = dump_json(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        deadline = self.timeout if timeout is None else float(timeout)
        delays = backoff_schedule(self.backoff, self.max_retries,
                                  self.retry_seed)
        telemetry.counter("client.requests.total").inc()
        started = time.perf_counter()
        last_error: Optional[str] = None
        last_status: Optional[int] = None
        for attempt in range(self.max_retries + 1):
            try:
                status, raw = self.transport(method, url, body, headers,
                                             deadline)
            except (ConnectionError, TimeoutError, socket.timeout,
                    http.client.HTTPException, urllib.error.URLError,
                    OSError) as error:
                last_error, last_status = f"{type(error).__name__}: {error}", None
            else:
                if status >= 500:
                    last_error = f"server returned {status}"
                    last_status = status
                elif 400 <= status < 500:
                    telemetry.counter("client.requests.fatal").inc()
                    raise FatalRequestError(
                        f"{method} {path} rejected with {status}: "
                        f"{raw[:200].decode('utf-8', 'replace')}",
                        status=status)
                else:
                    try:
                        response = json.loads(raw)
                    except ValueError:
                        # A 2xx with torn/non-JSON bytes: the response was
                        # corrupted in flight — safe to retry (mutations
                        # carry idempotency keys).
                        last_error = "2xx response with undecodable body"
                        last_status = status
                    else:
                        telemetry.histogram("client.request.seconds").record(
                            time.perf_counter() - started)
                        if isinstance(response, dict) and response.get("replayed"):
                            telemetry.counter(
                                "client.idempotent.replays").inc()
                        return response
            if attempt < self.max_retries:
                telemetry.counter("client.request.retries").inc()
                self._sleep(delays[attempt])
        telemetry.counter("client.requests.exhausted").inc()
        raise RetryableTransportError(
            f"{method} {path} failed after {self.max_retries + 1} attempts: "
            f"{last_error}", status=last_status,
            attempts=self.max_retries + 1)

    def get(self, path: str) -> Dict[str, Any]:
        return self.request("GET", path)

    def post(self, path: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        return self.request("POST", path, payload)

    # --------------------------------------------------------- read methods
    def health(self) -> Dict[str, Any]:
        return self.get("/api/health")

    def outstanding(self, run_id: Optional[str] = None) -> int:
        query = f"?run_id={run_id}" if run_id else ""
        return int(self.get(f"/api/jobs{query}")["outstanding"])

    # ----------------------------------------------------- the lease protocol
    def claim(self, run_id: Optional[str] = None, lease_ttl: int = 60,
              max_job_attempts: int = 3) -> Optional[Dict[str, Any]]:
        """Claim the next job (None when nothing is claimable).

        The idempotency key makes a retried claim return the *same* job
        instead of leasing a second one while the first waits out its TTL.
        """
        response = self.post("/api/jobs/claim", {
            "worker": self.worker_id, "run_id": run_id,
            "lease_ttl": int(lease_ttl),
            "max_job_attempts": int(max_job_attempts),
            "idempotency_key": self._next_key("claim"),
        })
        return response.get("job")

    def heartbeat(self, run_id: str, cell_index: int,
                  lease_ttl: int = 60) -> bool:
        """Extend the lease; False means it was lost to a reclaim.

        Heartbeats are naturally idempotent (each one just pushes the
        expiry forward), so they carry no key.
        """
        response = self.post("/api/jobs/heartbeat", {
            "worker": self.worker_id, "run_id": run_id,
            "cell_index": int(cell_index), "lease_ttl": int(lease_ttl),
        })
        return bool(response.get("alive"))

    def complete(self, run_id: str, cell_index: int, *, status: str,
                 row: Optional[Mapping[str, Any]], attempts: int,
                 elapsed_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Upload a finished cell's row and mark its job done (exactly-once)."""
        return self.post("/api/jobs/complete", {
            "worker": self.worker_id, "run_id": run_id,
            "cell_index": int(cell_index), "status": status, "row": row,
            "attempts": int(attempts),
            "elapsed_seconds": elapsed_seconds,
            "idempotency_key": self._next_key("complete"),
        })

    def release(self, run_id: str, cell_index: int, *, status: str,
                error: Optional[str], attempts: int,
                max_job_attempts: int = 3) -> Dict[str, Any]:
        """Give a failed/interrupted job back to the queue (exactly-once);
        past ``max_job_attempts`` claims the job is retired as failed."""
        return self.post("/api/jobs/release", {
            "worker": self.worker_id, "run_id": run_id,
            "cell_index": int(cell_index), "status": status, "error": error,
            "attempts": int(attempts),
            "max_job_attempts": int(max_job_attempts),
            "idempotency_key": self._next_key("release"),
        })

    # ------------------------------------------------------------- telemetry
    def post_telemetry(self, worker: str, points: List[Dict[str, Any]],
                       spans: Optional[List[Dict[str, Any]]] = None,
                       host: Optional[str] = None,
                       pid: Optional[int] = None) -> Dict[str, Any]:
        """Batch-report one telemetry flush (exactly-once: a retried batch
        whose response was lost replays instead of double-inserting)."""
        return self.post("/api/telemetry", {
            "worker": worker, "points": list(points),
            "spans": list(spans) if spans else [],
            "host": host, "pid": pid,
            "idempotency_key": self._next_key("telemetry"),
        })

    # -------------------------------------------------------- NDJSON streams
    def stream(self, path: str,
               timeout: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """Yield parsed JSON objects from one NDJSON response (no retries).

        Raises :class:`RetryableTransportError` for anything transient —
        connection failures, per-read socket timeouts, torn lines — and
        :class:`FatalRequestError` for 4xx, matching :meth:`request`'s
        taxonomy so callers can share recovery logic.
        """
        url = f"{self.base_url}{path}"
        http_request = urllib.request.Request(url, method="GET")
        http_request.add_header("Connection", "close")
        deadline = self.timeout if timeout is None else float(timeout)
        try:
            response = urllib.request.urlopen(http_request, timeout=deadline)
        except urllib.error.HTTPError as error:
            if 400 <= error.code < 500:
                raise FatalRequestError(
                    f"GET {path} rejected with {error.code}",
                    status=error.code)
            raise RetryableTransportError(
                f"GET {path} failed with {error.code}", status=error.code)
        except (ConnectionError, TimeoutError, socket.timeout,
                http.client.HTTPException, urllib.error.URLError,
                OSError) as error:
            raise RetryableTransportError(
                f"GET {path} failed: {type(error).__name__}: {error}")
        try:
            with response:
                for raw_line in response:
                    line = raw_line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except ValueError:
                        raise RetryableTransportError(
                            f"GET {path} delivered a torn NDJSON line")
        except (ConnectionError, TimeoutError, socket.timeout,
                http.client.HTTPException, OSError) as error:
            raise RetryableTransportError(
                f"GET {path} stream broke: {type(error).__name__}: {error}")

    def follow_campaign(self, run_id: str, poll_timeout: float = 30.0,
                        max_reconnects: Optional[int] = None
                        ) -> Iterator[Dict[str, Any]]:
        """Follow a campaign's event stream across reconnects.

        Resumes from the last-seen event after server ``shutdown`` /
        ``timeout`` events and transient transport failures: cell events are
        deduplicated by their latest seen status and the snapshot is
        forwarded only once, so a consumer sees each transition exactly once
        no matter how many times the underlying stream reconnects (the
        PR 9 kill+restart scenario).  Ends after the terminal ``run`` /
        ``error`` event; raises :class:`RetryableTransportError` only once
        ``max_reconnects`` (default: the client's retry budget) consecutive
        attempts yield no events.
        """
        budget = self.max_retries if max_reconnects is None else int(
            max_reconnects)
        delays = backoff_schedule(self.backoff, max(budget, 1),
                                  self.retry_seed ^ 0x51A3)
        seen: Dict[int, str] = {}
        snapshot_sent = False
        misses = 0
        while True:
            try:
                for event in self.stream(
                        f"/api/campaigns/{run_id}/stream"
                        f"?timeout={poll_timeout}",
                        timeout=poll_timeout + self.timeout):
                    kind = event.get("event")
                    if kind == "snapshot":
                        misses = 0
                        if not snapshot_sent:
                            snapshot_sent = True
                            yield event
                    elif kind == "cell":
                        misses = 0
                        index = int(event["index"])
                        if seen.get(index) == event["status"]:
                            continue
                        seen[index] = event["status"]
                        yield event
                    elif kind in ("run", "error"):
                        yield event
                        return
                    elif kind == "shutdown":
                        telemetry.counter("client.stream.shutdowns").inc()
                        yield event
                        break  # reconnect once the server is back
                    elif kind == "timeout":
                        break  # idle long-poll expiry: reconnect immediately
                    else:
                        yield event
                else:
                    # Stream ended without a terminal event (torn mid-line
                    # EOF short of an exception): treat as a lost stream.
                    misses += 1
            except RetryableTransportError:
                misses += 1
            except FatalRequestError:
                raise
            if misses > budget:
                raise RetryableTransportError(
                    f"stream of {run_id!r} lost after {misses} consecutive"
                    " reconnect attempts", attempts=misses)
            if misses:
                telemetry.counter("client.stream.reconnects").inc()
                self._sleep(delays[min(misses - 1, len(delays) - 1)])


__all__ = [
    "BACKOFF_CAP_SECONDS",
    "DEFAULT_BACKOFF_SECONDS",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_TIMEOUT_SECONDS",
    "FatalRequestError",
    "RetryableTransportError",
    "StoreClient",
    "StoreClientError",
    "Transport",
    "UrllibTransport",
    "backoff_schedule",
]
