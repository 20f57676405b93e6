"""Backfill the catalogue from runs trees.

``repro store ingest`` makes the catalogue complete for repositories (and
CI artifact downloads) that predate it, and rebuilds it from the artifact
tree, which stays authoritative: every ``runs/<id>/`` directory with a
campaign manifest is registered with provenance (spec hash from the
manifest; the ingest is marked as such), and each cell is recorded from its
artifacts: ``result.json`` becomes a completed row (+ metrics),
``error.json`` a failed/timed-out cell charged one attempt (older trees
whose records carry a cumulative ``attempt`` keep that count), anything
else stays pending.  Re-ingesting is idempotent — recording
upserts, and never lowers a cell's attempt count already in the catalogue.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.runs.artifacts import CorruptArtifactError, load_json
from repro.runs.runner import _load_result, _recorded_error
from repro.runs.spec import ExperimentSpec
from repro.store.catalog import Catalog, catalog_path


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
    # A live catalogue already counts the queue's claims: never lower them.
    charged = {row["cell_index"]: row["attempts"] for row in
               catalog.conn.fetchall("SELECT cell_index, attempts FROM cells"
                                     " WHERE run_id = ?", (out_dir.name,))}
    recorded = 0
    for entry in cell_entries:
        cell_dir = out_dir / "cells" / entry["slug"]
        outcome = _cell_outcome(cell_dir)
        if outcome is None:
            continue
        outcome["attempts"] = max(outcome.get("attempts", 0),
                                  charged.get(entry["index"], 0))
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
            "attempts": int(record.get("attempt") or 1),
            "elapsed_seconds": record.get("elapsed_seconds")}


# ------------------------------------------------------------------ frontend
def ingest(root: os.PathLike = "runs",
           catalog_file: Optional[os.PathLike] = None) -> Dict[str, Any]:
    """Backfill one catalogue from a runs root."""
    path = (Path(catalog_file) if catalog_file is not None
            else catalog_path(Path(root)))
    with Catalog(path) as catalog:
        summary = ingest_runs_tree(catalog, Path(root))
    return {**summary, "catalog": str(path)}


__all__ = [
    "ingest",
    "ingest_runs_tree",
]
