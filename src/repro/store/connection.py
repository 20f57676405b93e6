"""The shared SQLite connection helper — the only sanctioned SQL gateway.

Every byte of SQL the campaign service runs goes through
:class:`StoreConnection`: catalogue writes, queue claims, server reads, and
query aggregations all call :meth:`StoreConnection.execute` /
:meth:`executemany` with a **literal SQL string plus bound parameters**.
This is the module the ``artifacts.store-connection`` lint rule anchors on:

* ``sqlite3.connect`` may appear nowhere else under ``src/repro`` — the
  pragmas that make a single catalogue file safe for many processes (WAL
  journaling, a busy timeout, foreign keys) are applied here exactly once,
  so a rogue connection cannot silently opt out of them;
* SQL strings elsewhere in ``repro/store/`` must be literals, never
  concatenated or interpolated — user-controlled values (experiment ids,
  metric names, worker ids) always travel as bound parameters.

Concurrency model: one catalogue file, a few connections.  ``repro serve``
holds one connection for its whole life and serializes its handler threads
on it behind one lock (the only connection opened with
``check_same_thread=False``); a local drainer (``repro work``/``repro.run``)
holds one for its whole drain; every other caller (the CLI, submits, lease
heartbeats, the telemetry sink, the dashboard) opens a short-lived one.  WAL
mode lets readers proceed under a writer; writers serialize through SQLite's
file lock with ``busy_timeout`` backoff, and multi-statement read-modify-
write sections (queue claims, cell upserts) run inside ``BEGIN IMMEDIATE``
transactions via :meth:`StoreConnection.transaction`.

Time discipline: lease bookkeeping needs a wall clock that is comparable
*across worker processes* — Python's ``time.perf_counter()`` is not, and
``time.time()`` is banned repo-wide (``determinism.wall-clock``).  The store
therefore takes its clock from SQLite itself: :meth:`StoreConnection.now`
evaluates ``unixepoch('now')`` inside the database, so every worker sharing
a catalogue shares one clock.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple

#: File name of the single-file catalogue, created next to campaign dirs.
CATALOG_NAME = "catalog.sqlite"

#: How long a writer waits on a locked database before giving up (ms).
BUSY_TIMEOUT_MS = 30_000


def catalog_path(root: Path) -> Path:
    """The catalogue file serving the campaign directories under ``root``."""
    return Path(root) / CATALOG_NAME


class StoreConnection:
    """A configured SQLite connection: WAL, busy timeout, parameterized SQL.

    Use as a context manager (closes on exit) and do all multi-statement
    writes under :meth:`transaction`::

        with StoreConnection(path) as conn:
            with conn.transaction():
                conn.execute("UPDATE jobs SET state = ? WHERE rowid = ?",
                             ("done", job_rowid))
    """

    def __init__(self, path: Path, timeout_ms: int = BUSY_TIMEOUT_MS,
                 check_same_thread: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._txn_depth = 0
        # The sole sanctioned sqlite3.connect in the repository (see module
        # docs; the artifacts.store-connection lint rule enforces this).
        self._conn = sqlite3.connect(self.path, timeout=timeout_ms / 1000.0,
                                     isolation_level=None,
                                     check_same_thread=check_same_thread)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=%d" % timeout_ms)
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute("PRAGMA synchronous=NORMAL")

    # ------------------------------------------------------------ execution
    def execute(self, sql: str, params: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Run one parameterized statement (SQL must be a literal string)."""
        return self._conn.execute(sql, tuple(params))

    def executemany(self, sql: str,
                    rows: Iterable[Sequence[Any]]) -> sqlite3.Cursor:
        return self._conn.executemany(sql, [tuple(row) for row in rows])

    def executescript(self, script: str) -> None:
        """Apply a DDL script (schema creation only)."""
        self._conn.executescript(script)

    def fetchall(self, sql: str, params: Sequence[Any] = ()) -> list:
        return self.execute(sql, params).fetchall()

    def fetchone(self, sql: str,
                 params: Sequence[Any] = ()) -> Optional[sqlite3.Row]:
        return self.execute(sql, params).fetchone()

    def scalar(self, sql: str, params: Sequence[Any] = ()) -> Any:
        row = self.fetchone(sql, params)
        return None if row is None else row[0]

    # ---------------------------------------------------------- transactions
    @contextmanager
    def transaction(self, immediate: bool = True) -> Iterator[None]:
        """``BEGIN [IMMEDIATE] ... COMMIT`` (rolls back on any exception).

        ``immediate=True`` (the default) takes the write lock up front, so a
        read-modify-write section (a queue claim) cannot interleave with
        another worker's.

        Re-entrant: a ``transaction()`` opened while another is active on the
        same connection joins the outer one instead of issuing a nested
        ``BEGIN`` (SQLite has no nested transactions).  The server's
        exactly-once mutation endpoints rely on this — the idempotency-key
        lookup, the queue transition, and the catalogue cell upsert all
        commit (or roll back) as one unit even though each helper guards
        itself with ``transaction()``.  An exception escaping any depth rolls
        the whole outermost transaction back.
        """
        if self._txn_depth > 0:
            self._txn_depth += 1
            try:
                yield
            finally:
                self._txn_depth -= 1
            return
        self.execute("BEGIN IMMEDIATE" if immediate else "BEGIN")
        self._txn_depth = 1
        try:
            yield
        except BaseException:
            self._txn_depth = 0
            self.execute("ROLLBACK")
            raise
        self._txn_depth = 0
        self.execute("COMMIT")

    # ---------------------------------------------------------------- clock
    def now(self) -> int:
        """The catalogue's shared wall clock (unix seconds, evaluated in SQL).

        Workers on the same catalogue compare lease deadlines against this
        clock, never against a per-process Python clock.
        """
        return int(self.scalar("SELECT CAST(strftime('%s','now') AS INTEGER)"))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "StoreConnection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def connect(path: Path, timeout_ms: int = BUSY_TIMEOUT_MS,
            check_same_thread: bool = True) -> StoreConnection:
    """Open (creating if needed) the catalogue at ``path``, schema applied.

    ``check_same_thread=False`` lets threads other than the opener use the
    connection; only a caller that serializes them itself (the campaign
    server, behind its lock) may pass it.
    """
    from repro.store.schema import ensure_schema

    conn = StoreConnection(path, timeout_ms=timeout_ms,
                           check_same_thread=check_same_thread)
    ensure_schema(conn)
    return conn
