"""Cross-run aggregation: the engine behind ``repro query``.

Campaign cells land in the catalogue twice — as the verbatim row JSON in
``cells`` and exploded into key/value pairs in ``metrics`` — so "accuracy by
defense across all runs" is one self-join: the metric rows provide the
values, a second metrics alias provides the group key (any param or row
column: ``defense``, ``scenario``, ``policy``, ...).  The perf trajectory
is not here: the checked-in ``BENCH_*.json`` files are its only record.

All SQL here is literal and parameterized (the ``artifacts.store-connection``
contract): group keys never splice into the SQL text — grouping joins on
``metrics.key = ?``.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.scales import format_table
from repro.jsonio import dump_json
from repro.store.catalog import Catalog

#: Columns of an aggregation result row, in rendering order.
AGGREGATE_COLUMNS = ("group", "n", "mean", "min", "max")


def aggregate_metric(catalog: Catalog, metric: str, by: str = "run",
                     experiment: Optional[str] = None,
                     scale: Optional[str] = None) -> List[Dict[str, Any]]:
    """Aggregate one numeric cell metric grouped by a param/row key.

    ``by="run"`` groups by campaign; any other value names a metrics key
    (``"defense"``, ``"scenario"``, ...) whose per-cell value becomes the
    group.  Cells whose metric is non-numeric are excluded.
    """
    if by == "run":
        rows = catalog.conn.fetchall(
            "SELECT m.run_id AS group_value, COUNT(m.value_num) AS n,"
            " AVG(m.value_num) AS mean, MIN(m.value_num) AS min_value,"
            " MAX(m.value_num) AS max_value"
            " FROM metrics m JOIN runs r ON r.run_id = m.run_id"
            " WHERE m.key = ? AND m.value_num IS NOT NULL"
            " AND (? IS NULL OR r.experiment = ?)"
            " AND (? IS NULL OR r.scale = ?)"
            " GROUP BY m.run_id ORDER BY m.run_id",
            (metric, experiment, experiment, scale, scale))
    else:
        rows = catalog.conn.fetchall(
            "SELECT COALESCE(g.value_text, CAST(g.value_num AS TEXT))"
            "   AS group_value,"
            " COUNT(m.value_num) AS n, AVG(m.value_num) AS mean,"
            " MIN(m.value_num) AS min_value, MAX(m.value_num) AS max_value"
            " FROM metrics m"
            " JOIN metrics g ON g.run_id = m.run_id"
            "   AND g.cell_index = m.cell_index AND g.key = ?"
            " JOIN runs r ON r.run_id = m.run_id"
            " WHERE m.key = ? AND m.value_num IS NOT NULL"
            " AND (? IS NULL OR r.experiment = ?)"
            " AND (? IS NULL OR r.scale = ?)"
            " GROUP BY group_value ORDER BY group_value",
            (by, metric, experiment, experiment, scale, scale))
    return [_aggregate_row(row) for row in rows]


def _aggregate_row(row: Any) -> Dict[str, Any]:
    return {"group": row["group_value"], "n": int(row["n"]),
            "mean": row["mean"], "min": row["min_value"],
            "max": row["max_value"]}


def list_metric_keys(catalog: Catalog) -> List[Dict[str, Any]]:
    """Every metrics key with its numeric-cell count (for discoverability)."""
    rows = catalog.conn.fetchall(
        "SELECT key, COUNT(*) AS cells, COUNT(value_num) AS numeric_cells"
        " FROM metrics GROUP BY key ORDER BY key")
    return [dict(row) for row in rows]


def format_rows(rows: Sequence[Dict[str, Any]], fmt: str = "table",
                columns: Optional[Sequence[str]] = None,
                title: str = "") -> str:
    """Render aggregation rows as ``table`` / ``json`` / ``csv`` text."""
    columns = list(columns) if columns is not None else (
        list(rows[0]) if rows else list(AGGREGATE_COLUMNS))
    if fmt == "json":
        return dump_json(list(rows), indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns,
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key) for key in columns})
        return buffer.getvalue().rstrip("\n")
    if fmt == "table":
        return format_table(list(rows), columns, title=title)
    raise ValueError(f"unknown format {fmt!r}; choose table, json, or csv")


__all__ = [
    "AGGREGATE_COLUMNS",
    "aggregate_metric",
    "format_rows",
    "list_metric_keys",
]
