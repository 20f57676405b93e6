"""Periodic background flusher and persistence sinks for telemetry.

A :class:`TelemetryFlusher` drains the process registry (a delta snapshot of
points) into a *sink* on a fixed interval and once more
at ``stop()``.  Two sinks exist, mirroring the two campaign transports:

* :class:`CatalogSink` — writes directly into ``catalog.sqlite`` via
  ``Catalog.record_telemetry``.  A fresh catalogue connection is opened per
  flush because SQLite connections are thread-bound and the flusher runs on
  its own daemon thread.  Used by ``repro serve`` and local runs/workers.
* :class:`ClientSink` — batches through ``StoreClient.post_telemetry``
  (``POST /api/telemetry``).  Used by ``repro work --server`` processes,
  which by contract never touch the catalogue file.

Telemetry is strictly best-effort: a failing flush is swallowed (never
crashes the host process), and with ``REPRO_TELEMETRY=0`` the flusher does
not even start a thread.
"""

from __future__ import annotations

import os
import socket
import threading
from pathlib import Path
from typing import Callable, List, Optional

DEFAULT_FLUSH_INTERVAL_SECONDS = 2.0

#: A sink consumes one flush batch: ``sink(points)``.
Sink = Callable[[List[dict]], None]


def default_instance(worker: Optional[str] = None) -> dict:
    """Identity attached to every flushed batch: worker id, host, pid."""
    return {
        "worker": worker or f"{socket.gethostname()}-{os.getpid()}",
        "host": socket.gethostname(),
        "pid": os.getpid(),
    }


class CatalogSink:
    """Persist batches straight into the campaign catalogue."""

    def __init__(self, catalog_file: Path, worker: str) -> None:
        self.catalog_file = Path(catalog_file)
        self.worker = worker
        self.host = socket.gethostname()
        self.pid = os.getpid()

    def __call__(self, points: List[dict]) -> None:
        from repro.store.catalog import Catalog

        with Catalog(self.catalog_file) as catalog:
            catalog.record_telemetry(
                self.worker, points, host=self.host, pid=self.pid
            )


class ClientSink:
    """Report batches over HTTP through a :class:`StoreClient`.

    Transport failures are swallowed after the client's own bounded retry
    loop gives up — a flaky network must never take down a worker for the
    sake of metrics.  The batch is simply lost; counters are deltas, so a
    lost batch under-reports rather than corrupts.
    """

    def __init__(self, client, worker: str) -> None:
        self.client = client
        self.worker = worker
        self.host = socket.gethostname()
        self.pid = os.getpid()

    def __call__(self, points: List[dict]) -> None:
        from repro.store.client import StoreClientError

        try:
            self.client.post_telemetry(
                self.worker, points, host=self.host, pid=self.pid
            )
        except StoreClientError:
            pass


class TelemetryFlusher:
    """Daemon thread flushing the registry into a sink every ``interval`` s.

    Usable as a context manager; ``stop()`` performs a final flush so
    short-lived processes (one-shot workers, CLI runs) do not lose the tail
    of their metrics.  When telemetry is disabled, ``start()``/``flush()``
    are no-ops.
    """

    def __init__(
        self, sink: Sink, interval: float = DEFAULT_FLUSH_INTERVAL_SECONDS
    ) -> None:
        self.sink = sink
        self.interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def flush(self) -> None:
        from repro import telemetry

        if not telemetry.enabled():
            return
        points = telemetry.get_registry().snapshot(reset=True)
        if points:
            self.sink(points)

    def start(self) -> "TelemetryFlusher":
        from repro import telemetry

        if not telemetry.enabled() or self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-flush", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.flush()
            except Exception:
                pass  # telemetry must never crash the host process

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        try:
            self.flush()
        except Exception:
            pass

    def __enter__(self) -> "TelemetryFlusher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def flush_to_catalog(
    catalog_file: Optional[Path], worker: Optional[str] = None
) -> None:
    """One-shot drain of the registry into a catalogue (local runs).

    ``worker`` defaults to this process's ``host-pid`` identity; a ``None``
    catalogue path (recording disabled) is a no-op.
    """
    from repro import telemetry

    if catalog_file is None or not telemetry.enabled():
        return
    if worker is None:
        worker = default_instance()["worker"]
    flusher = TelemetryFlusher(CatalogSink(catalog_file, worker))
    try:
        flusher.flush()
    except Exception:
        pass  # best-effort: a locked or missing catalogue must not fail the run
