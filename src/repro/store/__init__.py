"""The campaign service's storage layer: catalogue, queue, serve, query.

``repro.store`` turns the ad-hoc ``runs/`` JSON trees into a long-lived,
multi-tenant, queryable system (ROADMAP open item 3):

* a **single-file SQLite catalogue** (``catalog.sqlite``, WAL mode) of
  runs, cells, metric rows and provenance, populated transactionally by
  the runner alongside the artifact tree and backfillable via
  ``repro store ingest``;
* a **cooperative job queue** with worker leases (heartbeat + TTL), so N
  independent ``repro work`` processes drain one campaign with rows
  bit-identical to serial execution and crashed workers' cells are
  reclaimed;
* ``repro serve`` — a stdlib HTTP JSON API for submit/status/rows and the
  lease protocol (``repro proxy`` puts a network chaos proxy in front) — and
  ``repro query`` — cross-run aggregation ("accuracy by defense across all
  runs") with table/json/csv output.

The artifact tree stays the source of truth for resume (checkpoints, memos,
quarantine); the catalogue is the durable, queryable index over it.  All
SQL goes through :mod:`repro.store.connection` — literal statements, bound
parameters — which the ``artifacts.store-connection`` lint rule enforces.

Import layout: this package loads the catalogue, the queue (with
``finalize_from_catalog``, the ``results.json`` writer) and the query
helpers, none of which imports numpy or the learner, and the client's error
taxonomy (:mod:`repro.store.errors`).  :class:`StoreClient` resolves lazily
on first access, so a local ``repro.run()`` never loads :mod:`http.client`,
and nothing here loads :mod:`http.server`.  The modules that reach back into the runner
(:mod:`repro.store.worker`, :mod:`repro.store.ingest`) and the server are
imported by their callers (the CLI, tests), which keeps ``repro.runs`` ->
``repro.store`` imports cycle-free.  ``repro serve`` and the catalogue
commands (``status``, ``query``, ``top``) import no numpy and no learner; a
tier-1 test holds :mod:`repro.store.server`, :mod:`repro.store.catalog`,
:mod:`repro.store.queue`, :mod:`repro.store.query`,
:mod:`repro.store.connection` and :mod:`repro.store.schema` to that.
"""

from repro._lazy import lazy_exports
from repro.store.catalog import Catalog, catalog_path, code_version, spec_hash
from repro.store.connection import CATALOG_NAME, StoreConnection, connect
from repro.store.errors import (
    FatalRequestError,
    RetryableTransportError,
    StoreClientError,
)
from repro.store.query import (
    aggregate_metric,
    format_rows,
    list_metric_keys,
)
from repro.store.queue import Job, JobQueue
from repro.store.schema import SCHEMA_VERSION, ensure_schema

__getattr__ = lazy_exports(__name__, {"StoreClient": "repro.store.client"})

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
    "aggregate_metric",
    "catalog_path",
    "code_version",
    "connect",
    "ensure_schema",
    "format_rows",
    "list_metric_keys",
    "spec_hash",
]
