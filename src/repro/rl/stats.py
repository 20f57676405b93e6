"""Training statistics helpers and the shared metrics serialization path.

Run artifacts (``runs/<id>/``), benchmark JSON files, and checkpoint metadata
all serialize training metrics through the helpers here, so there is exactly
one JSON dialect: numpy scalars become Python scalars, arrays become lists,
and tuples become lists.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

import numpy as np


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


class RunningStats:
    """Windowed running statistics over a stream of scalars."""

    def __init__(self, window: int = 100):
        self.window = window
        self._values: Deque[float] = deque(maxlen=window)

    def add(self, value: float) -> None:
        self._values.append(float(value))

    def extend(self, values) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return float(np.mean(self._values))

    @property
    def std(self) -> float:
        if not self._values:
            return 0.0
        return float(np.std(self._values))

    @property
    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None


@dataclass
class TrainingHistory:
    """Per-update metric history collected during training."""

    updates: List[Dict[str, float]] = field(default_factory=list)

    def record(self, metrics: Dict[str, float]) -> None:
        self.updates.append(dict(metrics))

    def series(self, key: str) -> List[float]:
        return [update[key] for update in self.updates if key in update]

    def last(self, key: str, default: float = 0.0) -> float:
        values = self.series(key)
        return values[-1] if values else default

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data dict that losslessly round-trips via :meth:`from_dict`."""
        return {"updates": [json_ready(update) for update in self.updates]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrainingHistory":
        return cls(updates=[dict(update) for update in data.get("updates", [])])

    def to_json(self, **json_kwargs) -> str:
        return dump_json(self.to_dict(), **json_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "TrainingHistory":
        return cls.from_dict(json.loads(text))

    def to_jsonl(self) -> str:
        """One JSON object per line, one line per recorded update."""
        return "\n".join(dump_json(update) for update in self.updates)

    @classmethod
    def from_jsonl(cls, text: str) -> "TrainingHistory":
        return cls(updates=[json.loads(line) for line in text.splitlines() if line.strip()])
