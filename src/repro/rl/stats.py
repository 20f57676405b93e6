"""Training statistics helpers: running windows and per-update history.

Histories serialize through :mod:`repro.jsonio`, the one JSON dialect of run
artifacts, as part of a :class:`~repro.rl.trainer.TrainingResult`
(``dump_json`` is re-exported here for older importers).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

import numpy as np

from repro.jsonio import dump_json, json_ready  # noqa: F401  (dump_json re-exported)


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
