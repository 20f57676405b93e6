"""The one JSON dialect of run artifacts, the catalogue, and the HTTP API.

Run artifacts (``runs/<id>/``), catalogue rows, server responses, benchmark
JSON files, and checkpoint metadata all serialize through the helpers here:
numpy scalars become Python scalars, arrays become lists, and tuples become
lists.

This module imports no numpy.  The campaign service (``repro serve``, the
catalogue, the CLI's read-only commands) serializes through it without
loading the learner; a numpy value can only reach :func:`json_ready` once
numpy is imported, so the module looks numpy up in :data:`sys.modules`.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping


def json_ready(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serializable data.

    numpy scalars/arrays are converted to Python scalars/lists, tuples to
    lists, and mappings are rebuilt with their values converted.  This is the
    single normalization applied to every row/metric dict before it is written
    to a run artifact or a ``BENCH_*.json`` file.
    """
    # Exact built-in types first: the abstract ``Mapping`` check is a slow
    # ``typing`` instance check, and most values are plain dicts and lists.
    kind = type(value)
    if kind is dict:
        return {key: json_ready(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return [json_ready(item) for item in value]
    if kind in (str, int, float, bool) or value is None:
        return value
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
    if isinstance(value, Mapping):
        return {key: json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    return value


def dump_json(value: Any, **kwargs) -> str:
    """``json.dumps`` over :func:`json_ready`-normalized data."""
    kwargs.setdefault("sort_keys", True)
    return json.dumps(json_ready(value), **kwargs)
