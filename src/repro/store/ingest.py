"""Backfill the catalogue from legacy artifacts: runs trees + BENCH files.

``repro store ingest`` makes the catalogue complete for repositories (and
CI artifact downloads) that predate it:

* **runs trees** — every ``runs/<id>/`` directory with a campaign manifest
  is registered with provenance (spec hash from the manifest; the ingest is
  marked as such), and each cell is recorded from its artifacts:
  ``result.json`` becomes a completed row (+ metrics), ``error.json`` a
  failed/timed-out cell with its cumulative attempt count, anything else
  stays pending.  Re-ingesting is idempotent — recording upserts;
* **bench files** — ``BENCH_throughput.json`` / ``BENCH_train.json``
  entries flatten into the ``bench`` table (one row per numeric metric,
  tagged with scenario/variant/num_envs/dtype), so ``repro query --bench``
  covers the perf trajectory.  Rows from the same source file are replaced
  on re-ingest; live benchmark emissions (``--catalog`` on the bench
  scripts) append via :func:`record_bench_entry` instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.runs.artifacts import CorruptArtifactError, load_json
from repro.runs.runner import _load_result, _recorded_error
from repro.runs.spec import ExperimentSpec
from repro.store.catalog import Catalog, catalog_path

#: result-row keys that are dimensions, not metrics, in a bench entry.
_BENCH_DIMENSIONS = ("workload", "mode", "num_envs", "dtype", "scenario")


# ---------------------------------------------------------------- runs trees
def ingest_runs_tree(catalog: Catalog, root: Path) -> Dict[str, int]:
    """Register every campaign directory under ``root`` in the catalogue."""
    root = Path(root)
    runs = cells = 0
    if not root.exists():
        return {"runs": 0, "cells": 0}
    for child in sorted(root.iterdir()):
        if not (child / "manifest.json").exists():
            continue
        try:
            count = _ingest_campaign(catalog, child)
        except CorruptArtifactError:
            continue  # quarantined by the loader; skip the damaged campaign
        runs += 1
        cells += count
    return {"runs": runs, "cells": cells}


def _ingest_campaign(catalog: Catalog, out_dir: Path) -> int:
    manifest = load_json(out_dir / "manifest.json")
    spec = ExperimentSpec.from_dict(manifest["experiment"])
    cell_entries = manifest.get("cells", [])
    catalog.record_campaign(
        out_dir.name, spec, manifest["scale"]["name"], manifest["seed"],
        out_dir, [entry["params"] for entry in cell_entries],
        slugs=[entry["slug"] for entry in cell_entries],
        manifest_version=manifest.get("version", 1),
        ingested_from=str(out_dir))
    recorded = 0
    for entry in cell_entries:
        cell_dir = out_dir / "cells" / entry["slug"]
        outcome = _cell_outcome(cell_dir)
        if outcome is None:
            continue
        catalog.record_cell(out_dir.name, entry["index"], entry["params"],
                            **outcome)
        recorded += 1
    return recorded


def _cell_outcome(cell_dir: Path) -> Optional[Dict[str, Any]]:
    """A cell's recorded outcome from its artifacts (None while pending)."""
    result = _load_result(cell_dir / "result.json")
    if result is not None:
        return {"status": "completed", "row": result["row"],
                "elapsed_seconds": result.get("elapsed_seconds")}
    record = _recorded_error(cell_dir)
    if not record:
        return None
    return {"status": record.get("status", "failed"),
            "error": record.get("error"),
            "attempts": int(record.get("attempt", 0) or 0),
            "elapsed_seconds": record.get("elapsed_seconds")}


# --------------------------------------------------------------- bench files
def record_bench_entry(catalog: Catalog, entry: Mapping[str, Any],
                       source: str) -> int:
    """Append one benchmark entry's numeric metrics to the bench table."""
    rows = _flatten_bench_entry(entry, source)
    with catalog.conn.transaction():
        catalog.conn.executemany(
            "INSERT INTO bench (benchmark, scenario, variant, num_envs,"
            " dtype, key, value, timestamp, source)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
    return len(rows)


def ingest_bench_file(catalog: Catalog, path: Path,
                      source: Optional[str] = None) -> int:
    """(Re-)ingest a BENCH_*.json trajectory file; replaces its old rows."""
    path = Path(path)
    source = source or path.name
    data = json.loads(path.read_text())
    entries = data.get("entries", []) if isinstance(data, dict) else []
    rows: List[tuple] = []
    for entry in entries:
        rows.extend(_flatten_bench_entry(entry, source))
    with catalog.conn.transaction():
        catalog.conn.execute("DELETE FROM bench WHERE source = ?", (source,))
        catalog.conn.executemany(
            "INSERT INTO bench (benchmark, scenario, variant, num_envs,"
            " dtype, key, value, timestamp, source)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
    return len(rows)


def _flatten_bench_entry(entry: Mapping[str, Any], source: str) -> List[tuple]:
    """``bench`` rows for one trajectory entry (both BENCH file shapes)."""
    benchmark = str(entry.get("benchmark", "unknown"))
    timestamp = entry.get("timestamp")
    entry_scenario = entry.get("scenario")
    config = entry.get("config", {}) if isinstance(entry.get("config"),
                                                   Mapping) else {}
    entry_num_envs = config.get("num_envs")
    rows: List[tuple] = []

    def add(key: str, value: Any, scenario: Any = None, variant: Any = None,
            num_envs: Any = None, dtype: Any = None) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        rows.append((benchmark, scenario or entry_scenario, variant,
                     int(num_envs) if num_envs is not None else None,
                     dtype, key, float(value), timestamp, source))

    for result in entry.get("results", []):
        if not isinstance(result, Mapping):
            continue
        variant = result.get("workload") or result.get("mode")
        num_envs = result.get("num_envs", entry_num_envs)
        for key, value in result.items():
            if key in _BENCH_DIMENSIONS:
                continue
            add(key, value, scenario=result.get("scenario"), variant=variant,
                num_envs=num_envs, dtype=result.get("dtype"))
    for key, value in entry.items():
        if key in ("results", "config", "speedups"):
            continue
        add(key, value)
    for key, value in (entry.get("speedups") or {}).items():
        add(f"speedups.{key}", value)
    return rows


# ------------------------------------------------------------------ frontend
def ingest(root: os.PathLike = "runs",
           bench_files: Sequence[os.PathLike] = (),
           catalog_file: Optional[os.PathLike] = None) -> Dict[str, Any]:
    """Backfill one catalogue from a runs root and optional BENCH files."""
    path = (Path(catalog_file) if catalog_file is not None
            else catalog_path(Path(root)))
    with Catalog(path) as catalog:
        summary = ingest_runs_tree(catalog, Path(root))
        bench_rows = 0
        for bench in bench_files:
            bench_rows += ingest_bench_file(catalog, Path(bench))
        summary["bench_rows"] = bench_rows
        summary["catalog"] = str(path)
    return summary


__all__ = [
    "ingest",
    "ingest_bench_file",
    "ingest_runs_tree",
    "record_bench_entry",
]
