"""Hot-path-safe metrics for the repro campaign stack.

Usage::

    from repro import telemetry

    CLAIMS = telemetry.counter("worker.claim.total")
    CLAIM_SECONDS = telemetry.histogram("worker.claim.seconds")

    CLAIMS.inc()
    CLAIM_SECONDS.record(time.perf_counter() - started)

Guarantees:

* **Strict no-op mode.**  With ``REPRO_TELEMETRY=0`` (or
  ``configure(enabled=False)``) every helper returns a shared null object
  whose methods do nothing — no registry state, no threads, no flushes —
  so telemetry-on campaign rows are bit-identical to telemetry-off.
  The enabled flag is sampled when a handle is created; instrumented
  classes therefore create handles at construction time, not import time.
* **Alloc-free record paths** (see ``registry.py``) and **monotonic
  clocks only** (``time.perf_counter``); wall-clock timestamps are
  stamped by the catalogue's SQL clock at persist time.
* **Best-effort persistence** via ``flush.TelemetryFlusher`` into the
  catalogue's ``telemetry_points`` table, either directly
  (``CatalogSink``) or over HTTP (``ClientSink`` → ``POST /api/telemetry``).

Metric names follow ``layer.component.metric`` (see CONTRIBUTING).
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Union

from repro.telemetry.flush import (
    CatalogSink,
    ClientSink,
    DEFAULT_FLUSH_INTERVAL_SECONDS,
    TelemetryFlusher,
    default_instance,
    flush_to_catalog,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKET_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_METRIC,
    NullMetric,
)

ENV_FLAG = "REPRO_TELEMETRY"

_state_lock = threading.Lock()
_override: Optional[bool] = None
_registry = MetricRegistry()


def enabled() -> bool:
    """True unless ``REPRO_TELEMETRY=0`` or ``configure(enabled=False)``."""
    if _override is not None:
        return _override
    return os.environ.get(ENV_FLAG, "1") != "0"


def configure(enabled: Optional[bool] = None, reset: bool = False) -> None:
    """Override the env flag in-process (``None`` defers back to the env).

    ``reset=True`` swaps in a fresh registry; handles created before the
    call keep pointing at the old one, so callers (tests, benchmarks)
    should re-create instrumented objects after reconfiguring.
    """
    global _override, _registry
    with _state_lock:
        _override = enabled
        if reset:
            _registry = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The live process registry (always real, even when disabled)."""
    return _registry


def counter(name: str) -> Union[Counter, NullMetric]:
    return _registry.counter(name) if enabled() else NULL_METRIC


def gauge(name: str) -> Union[Gauge, NullMetric]:
    return _registry.gauge(name) if enabled() else NULL_METRIC


def histogram(name: str) -> Union[Histogram, NullMetric]:
    return _registry.histogram(name) if enabled() else NULL_METRIC


__all__ = [
    "ENV_FLAG",
    "DEFAULT_BUCKET_EDGES",
    "DEFAULT_FLUSH_INTERVAL_SECONDS",
    "CatalogSink",
    "ClientSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_METRIC",
    "NullMetric",
    "TelemetryFlusher",
    "configure",
    "counter",
    "default_instance",
    "enabled",
    "flush_to_catalog",
    "gauge",
    "get_registry",
    "histogram",
]
