"""Training statistics helpers: running windows and per-update history.

Histories serialize through :mod:`repro.jsonio`, the one JSON dialect of run
artifacts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

import numpy as np

from repro.jsonio import dump_json, json_ready


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
