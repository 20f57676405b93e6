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
  exhausted (the taxonomy and the retry defaults live in
  :mod:`repro.store.errors`, which imports no HTTP);
* **idempotency keys** — every mutating call carries a client-unique key,
  stable across its retries, so the server can make the lease protocol
  exactly-once: a retried ``complete`` whose first response was lost
  replays the recorded response instead of double-applying.

Transport: :class:`HTTPTransport` keeps HTTP/1.1 connections open and reuses
them, so a worker's claims, completions, heartbeats and telemetry flushes do
not each pay for a TCP handshake and a server handler thread:

* **pool** — a lock-protected list of idle connections per host.  A request
  takes one and puts it back after reading the whole response, so
  concurrent callers (a worker's drain loop, heartbeat thread and telemetry
  flusher) never share a socket; the pool grows to the peak concurrency;
* **Nagle off** — ``http.client`` sets ``TCP_NODELAY`` when it connects,
  so a small request is never held back waiting for a delayed ACK;
* **stale sockets** — before reusing an idle socket the pool makes a
  zero-timeout readability check (as urllib3 does).  A readable idle socket
  means the server closed it (its idle timeout during a long cell, a
  restart, a drain), so the pool reconnects without spending a retry;
* **drop on doubt** — a connection is closed after any exception and after
  any response that announces ``Connection: close``;
* **fork** — a child process discards the idle sockets it inherited, so it
  never writes on its parent's connection.

:meth:`StoreClient.close` closes the pool.

Network faults are injected outside the client, by the TCP
:class:`~repro.store.chaos.ChaosProxy`, so the client under test is the
client that runs.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import quote, urlsplit

from repro import telemetry
from repro.jsonio import dump_json
from repro.store.errors import (
    BACKOFF_CAP_SECONDS,
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_RETRIES,
    DEFAULT_TIMEOUT_SECONDS,
    FatalRequestError,
    RetryableTransportError,
    StoreClientError,
)

#: A transport is any callable with this signature.
Transport = Callable[[str, str, Optional[bytes], Mapping[str, str], float],
                     Tuple[int, bytes]]


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


#: The characters ``http.client`` refuses in a request target.
_UNSENDABLE = re.compile(r"[\x00-\x20\x7f]")


def _split_url(url: str) -> Tuple[str, int, str]:
    """``(host, port, request target)`` of an ``http://`` URL, checked
    before any I/O: ``InvalidURL`` for a request that cannot be sent."""
    if _UNSENDABLE.search(url):
        raise http.client.InvalidURL(f"unencoded space or control character"
                                     f" in {url!r}")
    parts = urlsplit(url)
    try:
        port = parts.port or 80
    except ValueError as error:
        raise http.client.InvalidURL(f"{url!r}: {error}")
    if parts.scheme != "http" or not parts.hostname:
        raise http.client.InvalidURL(f"not an http:// URL: {url!r}")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    return parts.hostname, port, target


def _connect(host: str, port: int,
             timeout: float) -> http.client.HTTPConnection:
    """A new connection (``connect()`` also sets ``TCP_NODELAY``)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    connection.connect()
    telemetry.counter("client.connections.opened").inc()
    return connection


def _peer_closed(sock: socket.socket) -> bool:
    """True when an idle socket is readable: the peer closed it, or sent
    bytes no request asked for.  Either way it cannot carry a request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_all(pool: Mapping[Any, List[http.client.HTTPConnection]]) -> None:
    for connections in pool.values():
        for connection in connections:
            connection.close()


class HTTPTransport:
    """The real transport: pooled, kept-alive ``http.client`` connections
    (see the module docstring for the pool's rules)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], List[http.client.HTTPConnection]] = {}
        self._pid = os.getpid()

    def __call__(self, method: str, url: str, body: Optional[bytes],
                 headers: Mapping[str, str], timeout: float) -> Tuple[int, bytes]:
        host, port, target = _split_url(url)
        connection = self._take(host, port, timeout)
        try:
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.setdefault((host, port), []).append(connection)
        return response.status, raw

    def _take(self, host: str, port: int,
              timeout: float) -> http.client.HTTPConnection:
        """An idle connection the peer has not closed, else a new one."""
        if self._pid != os.getpid():
            # A forked child: the idle sockets are its parent's, and the
            # lock may have been held by a parent thread at the fork.
            # Closing the inherited descriptors leaves the parent's
            # connections open.
            inherited, self._idle = self._idle, {}
            self._lock = threading.Lock()
            self._pid = os.getpid()
            _close_all(inherited)
        while True:
            with self._lock:
                idle = self._idle.get((host, port))
                connection = idle.pop() if idle else None
            if connection is None:
                return _connect(host, port, timeout)
            if connection.sock is not None and not _peer_closed(connection.sock):
                connection.sock.settimeout(timeout)
                return connection
            connection.close()

    def close(self) -> None:
        """Close the idle connections; a later request reconnects."""
        with self._lock:
            idle, self._idle = self._idle, {}
        _close_all(idle)


class StoreClient:
    """HTTP access to a ``repro serve`` catalogue with the full reliability
    contract (deadline, bounded deterministic retries, error taxonomy,
    idempotency keys).  Thread-safe for concurrent calls: each one takes
    its own pooled connection, and mutation key generation is
    lock-protected.  :meth:`close` closes the pooled connections."""

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
        self.transport: Transport = transport or HTTPTransport()
        self._sleep = sleep
        # Idempotency keys must be unique across client *instances* (a
        # restarted worker reusing --worker-id must not replay the previous
        # process's responses) and stable across retries of one mutation.
        self._session = os.urandom(4).hex()
        self._sequence = 0
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the transport's idle connections (a scripted transport
        without ``close`` holds none)."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

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
            except http.client.InvalidURL as error:
                # The request cannot even be built; no retry can fix it.
                telemetry.counter("client.requests.fatal").inc()
                raise FatalRequestError(f"{method} {path} cannot be sent: "
                                        f"{error}")
            except (ConnectionError, TimeoutError, socket.timeout,
                    http.client.HTTPException, OSError) as error:
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
        query = f"?run_id={quote(run_id, safe='')}" if run_id else ""
        return int(self.get(f"/api/jobs{query}")["outstanding"])

    # ----------------------------------------------------- the lease protocol
    def claim(self, run_id: Optional[str] = None,
              lease_ttl: int = 60) -> Optional[Dict[str, Any]]:
        """Claim the next job (None when nothing is claimable).

        The idempotency key makes a retried claim return the *same* job
        instead of leasing a second one while the first waits out its TTL.
        """
        response = self.post("/api/jobs/claim", {
            "worker": self.worker_id, "run_id": run_id,
            "lease_ttl": int(lease_ttl),
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
                 row: Optional[Mapping[str, Any]],
                 elapsed_seconds: Optional[float] = None,
                 claim: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Upload a finished cell's row and mark its job done (exactly-once).

        ``claim`` (``run_id`` and ``lease_ttl``, as for :meth:`claim`) also leases the next job in the same server
        transaction; it is the answer's ``"job"``.  The complete's key
        covers both, so a retry replays the same next job.
        """
        body: Dict[str, Any] = {
            "worker": self.worker_id, "run_id": run_id,
            "cell_index": int(cell_index), "status": status, "row": row,
            "elapsed_seconds": elapsed_seconds,
            "idempotency_key": self._next_key("complete"),
        }
        if claim is not None:
            body["claim"] = dict(claim)
        return self.post("/api/jobs/complete", body)

    def release(self, run_id: str, cell_index: int, *, status: str,
                error: Optional[str]) -> Dict[str, Any]:
        """Give a failed/interrupted job back to the queue (exactly-once);
        a failed job past its submitted ``max_attempts`` is retired."""
        return self.post("/api/jobs/release", {
            "worker": self.worker_id, "run_id": run_id,
            "cell_index": int(cell_index), "status": status, "error": error,
            "idempotency_key": self._next_key("release"),
        })

    # ------------------------------------------------------------- telemetry
    def post_telemetry(self, worker: str, points: List[Dict[str, Any]],
                       host: Optional[str] = None,
                       pid: Optional[int] = None) -> Dict[str, Any]:
        """Batch-report one telemetry flush (exactly-once: a retried batch
        whose response was lost replays instead of double-inserting)."""
        return self.post("/api/telemetry", {
            "worker": worker, "points": list(points),
            "host": host, "pid": pid,
            "idempotency_key": self._next_key("telemetry"),
        })


__all__ = [
    "BACKOFF_CAP_SECONDS",
    "DEFAULT_BACKOFF_SECONDS",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_TIMEOUT_SECONDS",
    "FatalRequestError",
    "HTTPTransport",
    "RetryableTransportError",
    "StoreClient",
    "StoreClientError",
    "Transport",
    "backoff_schedule",
]
