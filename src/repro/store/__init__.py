"""The campaign service's storage layer: catalogue, queue, serve, query.

``repro.store`` turns the ad-hoc ``runs/`` JSON trees into a long-lived,
multi-tenant, queryable system (ROADMAP open item 3):

* a **single-file SQLite catalogue** (``catalog.sqlite``, WAL mode) of
  runs, cells, metric rows, bench rows, and provenance, populated
  transactionally by the runner alongside the artifact tree and
  backfillable via ``repro store ingest``;
* a **cooperative job queue** with worker leases (heartbeat + TTL), so N
  independent ``repro work`` processes drain one campaign with rows
  bit-identical to serial execution and crashed workers' cells are
  reclaimed;
* ``repro serve`` — a stdlib HTTP JSON API for submit/status/stream and the
  lease protocol (``repro proxy`` puts a network chaos proxy in front) — and
  ``repro query`` — cross-run aggregation ("accuracy by defense across all
  runs") with table/json/csv output.

The artifact tree stays the source of truth for resume (checkpoints, memos,
quarantine); the catalogue is the durable, queryable index over it.  All
SQL goes through :mod:`repro.store.connection` — literal statements, bound
parameters — which the ``artifacts.store-connection`` lint rule enforces.

Import layout: this package only pulls in the storage core.  The modules
that reach back into the runner (:mod:`repro.store.worker`,
:mod:`repro.store.server`, :mod:`repro.store.ingest`) are imported lazily by
their callers (the CLI, tests) to keep ``repro.runs`` -> ``repro.store``
imports cycle-free.
"""

from repro.store.catalog import Catalog, catalog_path, code_version, spec_hash
from repro.store.client import (
    FatalRequestError,
    RetryableTransportError,
    StoreClient,
    StoreClientError,
)
from repro.store.connection import CATALOG_NAME, StoreConnection, connect
from repro.store.query import (
    aggregate_bench,
    aggregate_metric,
    format_rows,
    list_bench_keys,
    list_metric_keys,
)
from repro.store.queue import Job, JobQueue
from repro.store.schema import SCHEMA_VERSION, ensure_schema

__all__ = [
    "CATALOG_NAME",
    "Catalog",
    "FatalRequestError",
    "Job",
    "JobQueue",
    "RetryableTransportError",
    "SCHEMA_VERSION",
    "StoreClient",
    "StoreClientError",
    "StoreConnection",
    "aggregate_bench",
    "aggregate_metric",
    "catalog_path",
    "code_version",
    "connect",
    "ensure_schema",
    "format_rows",
    "list_bench_keys",
    "list_metric_keys",
    "spec_hash",
]
